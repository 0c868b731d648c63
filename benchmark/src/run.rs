//! One run of one workload: set-up, the timed phases, the correctness
//! check, and (traced runs) the counters, micro-measurements and the
//! layer walk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::check::{check, group_chunks};
use crate::load::{latencies, Class, Counts, Driver, GenSpans, Ledger, Sample};
use crate::span::{self_times, write_jsonl};
use crate::stats::{longest_gap, median, percentile, quantile, ratio};
use crate::sut::{
    sample_copy_update, Hist, ItemId, Operation, Pair, Scrape, SiteId, Store, Sut, SutSpec,
    Topology, Transaction, WalTotals,
};
use crate::walk::{walk, FailPlan};
use crate::workload::{down_txns, Kind, Workload};

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where run directories, span files and results go.
    pub out: PathBuf,
}

pub type Values = BTreeMap<&'static str, f64>;

pub struct Outcome {
    /// The correctness check passed (every time it ran).
    pub correct: Result<(), String>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Values,
    pub per_layer: Values,
    /// Human-readable remarks printed beside the metrics.
    pub notes: Vec<String>,
}

/// Set-ups per run; `setup_s` is their better quartile (see `WINDOW_NS`).
const SETUPS: usize = 7;
/// Shares of `--seconds`: one client, warm-up (discarded), saturated.
const UNLOADED: f64 = 0.2;
const WARM_UP: f64 = 0.1;
const SATURATED: f64 = 0.7;
/// The unloaded and saturated phases are cut into windows this long, and
/// every metric of a phase is the *better quartile* over its windows
/// (first for latencies, third for throughput). The host's other tenants
/// only ever slow a window down, in bursts of a few hundred ms, so the
/// better quarter of the windows is the steadier estimate of the system
/// itself: over 8 runs of `mem-rw` it halved the run-to-run spread of
/// the 99th percentile (14.8 % -> 7.1 %) and `commit_tps` (4.9 % -> 2.9 %)
/// against the median over 1-second windows.
const WINDOW_NS: u64 = 250_000_000;
/// The better quartile of a lower-is-better metric.
const BETTER: f64 = 0.25;
const COMMIT_PATIENCE: Duration = Duration::from_secs(20);
const RECOVER_PATIENCE: Duration = Duration::from_secs(20);
/// Ports a run may bind: four per launch of a TCP cluster, two for the hop pair.
const PORT_BLOCK: u16 = 4 * SETUPS as u16 + 2;

/// Removes the run's directory (WALs) when the run ends, however it ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A base port with `PORT_BLOCK` free ports above it on localhost, below
/// the kernel's ephemeral range (32768 up), so that no outbound
/// connection of an earlier launch holds a port a later one listens on.
/// The search starts at a block derived from the process id, so
/// concurrent runs rarely probe the same one.
fn free_port_block() -> std::io::Result<u16> {
    const BLOCKS: u32 = 120;
    let first = std::process::id() % BLOCKS;
    (0..BLOCKS)
        .map(|k| 20_000 + ((first + k) % BLOCKS) as u16 * 100)
        .find(|base| {
            (0..PORT_BLOCK).all(|p| std::net::TcpListener::bind(("127.0.0.1", base + p)).is_ok())
        })
        .ok_or_else(|| std::io::Error::other("no free block of TCP ports on localhost"))
}

/// Set up one system: launch it and load the database, every item
/// written once (1 000-write transactions, coordinators in turn) and
/// acknowledged. Returns the system, the time the `launch` call took,
/// the time to the loaded database, and the ledger the load leaves.
///
/// A launch and one commit alone take 3-8 ms here and swing by a factor
/// of two with thread start-up on the shared box; loading makes set-up
/// long enough to compare and is what a deployment does before it serves.
fn set_up(spec: &SutSpec) -> std::io::Result<(Sut, Duration, Duration, Ledger)> {
    let t0 = Instant::now();
    let mut sut = Sut::launch(spec)?;
    let launch = t0.elapsed();
    let mut ledger = Ledger {
        acked: vec![0; spec.groups() as usize * spec.db_size as usize],
        ..Ledger::default()
    };
    for (k, (group, items)) in group_chunks(spec).into_iter().enumerate() {
        let site = SiteId(group * spec.n_sites + (k % spec.n_sites as usize) as u8);
        let id = sut.next_txn_id();
        let ops = items.iter().map(|i| Operation::Write(*i, id.0)).collect();
        match sut.run_at(site, Transaction::new(id, ops), COMMIT_PATIENCE) {
            Some(r) if r.committed => items.iter().for_each(|i| ledger.acked[i.index()] = id.0),
            other => return Err(std::io::Error::other(format!("loading failed: {other:?}"))),
        }
    }
    Ok((sut, launch, t0.elapsed(), ledger))
}

/// The metrics of one window of commit samples.
struct Window {
    tps: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    readonly_p50: f64,
    update_p50: f64,
    widest_p50: f64,
    samples: usize,
}

fn window(samples: &[Sample], from: u64, to: u64) -> Window {
    let us = |sorted: &[u64], p: f64| percentile(sorted, p).map_or(f64::NAN, |q| q.value / 1e3);
    let all = latencies(samples, from, to, |_| true);
    Window {
        tps: all.len() as f64 / ((to - from) as f64 / 1e9),
        p50: us(&all, 50.0),
        p95: us(&all, 95.0),
        p99: us(&all, 99.0),
        readonly_p50: us(
            &latencies(samples, from, to, |s| s.class == Class::ReadOnly),
            50.0,
        ),
        update_p50: us(
            &latencies(samples, from, to, |s| s.class == Class::Update),
            50.0,
        ),
        widest_p50: us(&latencies(samples, from, to, |s| s.widest), 50.0),
        samples: all.len(),
    }
}

/// `[from, to]` cut into `parts` equal windows.
fn split(from: u64, to: u64, parts: u64) -> Vec<(u64, u64)> {
    let step = (to - from) / parts;
    (0..parts)
        .map(|k| (from + k * step, from + (k + 1) * step))
        .collect()
}

/// A timed phase cut into windows of about `WINDOW_NS`.
fn phase_windows((from, to): (u64, u64)) -> Vec<(u64, u64)> {
    split(from, to, ((to - from) / WINDOW_NS).max(1))
}

fn windows(samples: &[Sample], bounds: &[(u64, u64)]) -> Vec<Window> {
    bounds
        .iter()
        .map(|(a, b)| window(samples, *a, *b))
        .collect()
}

/// The `q`-quantile over the windows in which `f` is defined.
fn over(windows: &[Window], q: f64, f: impl Fn(&Window) -> f64) -> f64 {
    let v: Vec<f64> = windows.iter().map(f).filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        f64::NAN
    } else {
        quantile(&v, q)
    }
}

/// The general end-to-end metrics of a measured phase cut into windows:
/// the better quartile over them.
fn phase_metrics(
    e2e: &mut Values,
    layers: &mut Values,
    notes: &mut Vec<String>,
    samples: &[Sample],
    bounds: &[(u64, u64)],
) {
    let w = windows(samples, bounds);
    e2e.insert("commit_tps", over(&w, 1.0 - BETTER, |w| w.tps));
    e2e.insert("commit_p50_us", over(&w, BETTER, |w| w.p50));
    e2e.insert("commit_p95_us", over(&w, BETTER, |w| w.p95));
    // The 99th percentile follows the host's stalls more than the system
    // (whole runs at twice the usual value): reported, not bounded.
    layers.insert("cluster.commit_p99_us", over(&w, BETTER, |w| w.p99));
    e2e.insert("readonly_p50_us", over(&w, BETTER, |w| w.readonly_p50));
    e2e.insert("update_p50_us", over(&w, BETTER, |w| w.update_p50));
    e2e.insert("cross_p50_us", over(&w, BETTER, |w| w.widest_p50));
    notes.push(format!(
        "measured phase: {} windows, {} samples in the smallest",
        w.len(),
        w.iter().map(|w| w.samples).min().unwrap_or(0)
    ));
}

/// Send `Recover` to every site the generator believes up but that
/// reports down. With 150 ms timers a scheduler stall on this shared box
/// is now and then taken for a site failure; the excluded site steps
/// down and would stay down, stalling everything after. Returns whether
/// a site had to be recovered.
fn heal(d: &mut Driver, clients: usize) -> Result<bool, String> {
    let mut healed = false;
    for s in 0..d.up.len() {
        let site = SiteId(s as u8);
        if d.up[s] && d.sut.scrape(site).is_some_and(|scrape| !scrape.up) {
            d.quiesce();
            if !d.sut.recover(site, RECOVER_PATIENCE) {
                return Err(format!("{site}, falsely excluded, did not rejoin"));
            }
            d.set_clients(clients);
            healed = true;
        }
    }
    Ok(healed)
}

/// Heal, and if a site had to be recovered, wait for its data.
fn settle(d: &mut Driver, clients: usize) -> Result<(), String> {
    if heal(d, clients)? {
        await_data_recovery(d, clients)?;
    }
    Ok(())
}

/// Keep the load on until a site announces that its data is recovered
/// (and no site is down that should be up).
fn await_data_recovery(d: &mut Driver, clients: usize) -> Result<(), String> {
    const HEALTH_CHECK: Duration = Duration::from_secs(2);
    d.set_clients(clients);
    let give_up = Instant::now() + Duration::from_secs(60);
    let mut next_check = Instant::now() + HEALTH_CHECK;
    loop {
        if d.sut.data_recovered() && !heal(d, clients)? {
            return Ok(());
        }
        d.step();
        let now = Instant::now();
        if now > next_check {
            heal(d, clients)?;
            next_check = now + HEALTH_CHECK;
        }
        if now > give_up {
            return Err("no site announced its data recovered within a minute".into());
        }
    }
}

/// What one fail/recover cycle measured.
struct Cycle {
    /// The down period after the failover gap: steady load on the survivors.
    degraded: (u64, u64),
    recovering_tps: f64,
    recover_s: f64,
    gap_ms: f64,
}

/// `fail(site)` -> `down_txns` commits on the survivors -> `recover(site)`
/// -> load on all sites until the site reports its data recovered.
fn cycle(d: &mut Driver, site: usize, clients: usize, down_txns: usize) -> Result<Cycle, String> {
    // Nothing may be in flight inside the coordinator that fails: such a
    // transaction never reports, and a closed loop would need a client
    // timeout that would then dominate `degraded_tps`.
    d.quiesce();
    let t_fail = d.now_ns();
    d.sut.fail(SiteId(site as u8));
    d.up[site] = false;
    d.set_clients(clients);
    let target = d.samples.len() + down_txns;
    let give_up = Instant::now() + Duration::from_secs(60);
    while d.samples.len() < target {
        d.step();
        if Instant::now() > give_up {
            return Err(format!(
                "site {site} down: {down_txns} commits took over a minute"
            ));
        }
    }
    let t_down = d.now_ns();
    let times: Vec<u64> = d.samples.iter().map(|s| s.done_ns).collect();
    let gap = longest_gap(&times, t_fail, t_down);

    d.quiesce();
    if !d.sut.recover(SiteId(site as u8), RECOVER_PATIENCE) {
        return Err(format!("site {site} did not report operational"));
    }
    d.up[site] = true;
    await_data_recovery(d, clients)?;
    let t_done = d.now_ns();
    let recovering = d
        .samples
        .iter()
        .filter(|s| s.done_ns > t_down && s.done_ns <= t_done)
        .count();
    Ok(Cycle {
        degraded: (gap.1, t_down),
        recovering_tps: recovering as f64 / ((t_done - t_down) as f64 / 1e9),
        recover_s: (t_done - t_down) as f64 / 1e9,
        gap_ms: (gap.1 - gap.0) as f64 / 1e6,
    })
}

/// Counters scraped from every site, summed (high water: the maximum).
fn scrape_all(sut: &mut Sut, sites: u8) -> Option<(Scrape, f64)> {
    let mut total = Scrape::default();
    let mut ms = Vec::new();
    for s in 0..sites {
        let t0 = Instant::now();
        let one = sut.scrape(SiteId(s))?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        total.committed += one.committed;
        total.aborts_site_down += one.aborts_site_down;
        total.aborts_participant_failed += one.aborts_participant_failed;
        total.retransmits += one.retransmits;
        total.lock_waits += one.lock_waits;
        total.lock_grants_immediate += one.lock_grants_immediate;
        total.reconnects += one.reconnects;
        total.inflight_high_water = total.inflight_high_water.max(one.inflight_high_water);
    }
    Some((total, median(&ms)))
}

/// After a durable cluster was terminated: launch it again from the same
/// directory, bring every site back, and commit one update. Returns the
/// system and the seconds from the launch call to that commit.
fn restart(spec: &SutSpec, ledger: &mut Ledger) -> Result<(Sut, f64), String> {
    let t0 = Instant::now();
    let mut sut = Sut::launch(spec).map_err(|e| format!("relaunch: {e}"))?;
    // The site with the highest committed transaction comes up
    // operational, the others down; a one-read probe tells which.
    let mut down = Vec::new();
    for s in 0..spec.n_sites {
        let id = sut.next_txn_id();
        let probe = Transaction::new(id, vec![Operation::Read(ItemId(0))]);
        match sut.run_at(SiteId(s), probe, COMMIT_PATIENCE) {
            Some(r) if r.committed => {}
            Some(_) => down.push(s),
            None => return Err(format!("site {s} did not answer after the restart")),
        }
    }
    let Some(up) = (0..spec.n_sites).find(|s| !down.contains(s)) else {
        return Err("no site came up operational after the restart".into());
    };
    for s in &down {
        if !sut.recover(SiteId(*s), RECOVER_PATIENCE) {
            return Err(format!("site {s} did not rejoin after the restart"));
        }
    }
    let id = sut.next_txn_id_from_clock();
    let first = Transaction::new(id, vec![Operation::Write(ItemId(1), id.0)]);
    match sut.run_at(SiteId(up), first, COMMIT_PATIENCE) {
        Some(r) if r.committed => {}
        other => return Err(format!("first commit after the restart failed: {other:?}")),
    }
    ledger.acked[1] = id.0;
    Ok((sut, t0.elapsed().as_secs_f64()))
}

/// `fail-recover`'s measured phase: three cycles, failing each site in
/// turn, replace the saturated phase.
fn fail_cycles(
    d: &mut Driver,
    w: &Workload,
    sites: u8,
    seconds: u64,
    e2e: &mut Values,
    layers: &mut Values,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let down_txns = down_txns(seconds) as usize;
    d.begin(w.clients);
    let mut cycles = Vec::new();
    for site in 0..sites as usize {
        settle(d, w.clients)?;
        cycles.push(cycle(d, site, w.clients, down_txns)?);
    }
    settle(d, w.clients)?;
    // The general metrics are taken where the load is steady: in the
    // degraded periods, so `degraded_tps` is this workload's `commit_tps`.
    // Recovery is not steady (it speeds up as fail-locks clear): the
    // median of the three cycles.
    let bounds: Vec<(u64, u64)> = cycles
        .iter()
        .flat_map(|c| phase_windows(c.degraded))
        .collect();
    phase_metrics(e2e, layers, notes, &d.samples, &bounds);
    e2e.insert("degraded_tps", e2e["commit_tps"]);
    let med = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<f64>>());
    e2e.insert("recovering_tps", med(|c| c.recovering_tps));
    e2e.insert("recover_s", med(|c| c.recover_s));
    e2e.insert("failover_gap_ms", med(|c| c.gap_ms));
    notes.push(format!(
        "{} cycles of {down_txns} commits with one site down; recover_s per cycle: {}",
        cycles.len(),
        cycles
            .iter()
            .map(|c| format!("{:.3}", c.recover_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(())
}

/// Site, WAL and generator counters before and after the measured phase.
type CounterSet = (Scrape, WalTotals, Counts);

/// The per-layer metrics that are differences of public counters over
/// the measured phase (or, with nothing read before it, over the run).
fn phase_counters(layers: &mut Values, before: CounterSet, after: CounterSet) {
    let ((s0, wal0, c0), (s1, wal1, c1)) = (before, after);
    let commits = c1.attempted - c1.failed - (c0.attempted - c0.failed);
    let waits = s1.lock_waits - s0.lock_waits;
    let grants = s1.lock_grants_immediate - s0.lock_grants_immediate;
    layers.insert("core.lock_wait_share", ratio(waits, waits + grants));
    layers.insert("core.inflight_high_water", s1.inflight_high_water as f64);
    layers.insert("core.aborts_site_down", s1.aborts_site_down as f64);
    layers.insert(
        "core.aborts_participant_failed",
        s1.aborts_participant_failed as f64,
    );
    layers.insert("net.reconnects", s1.reconnects as f64);
    layers.insert("net.retransmits", s1.retransmits as f64);
    let fsyncs = wal1.fsyncs - wal0.fsyncs;
    let bytes = wal1.bytes - wal0.bytes;
    layers.insert("storage.fsyncs_per_txn", ratio(fsyncs, commits));
    layers.insert(
        "storage.commits_per_fsync",
        ratio(wal1.commits - wal0.commits, fsyncs),
    );
    layers.insert("storage.wal_bytes_per_txn", ratio(bytes, commits));
    // User data is the 8-byte value of each committed write; the log
    // holds it once per site, framed, keyed and versioned.
    layers.insert(
        "storage.write_amp",
        ratio(bytes, 8 * (c1.committed_writes - c0.committed_writes)),
    );
}

/// Where a workload has no restart image, no failure or one group only,
/// the metric is its general counterpart (README.md): the driver takes
/// every end-to-end metric from every workload.
fn general_counterparts(e2e: &mut Values) {
    for (metric, counterpart, scale) in [
        ("restart_s", "setup_s", 1.0),
        ("recover_s", "restart_s", 1.0),
        ("degraded_tps", "commit_tps", 1.0),
        ("recovering_tps", "commit_tps", 1.0),
        ("failover_gap_ms", "commit_p95_us", 1e-3),
    ] {
        if let (None, Some(v)) = (e2e.get(metric), e2e.get(counterpart).copied()) {
            e2e.insert(metric, v * scale);
        }
    }
}

/// The restart side of `storage`, on the log one site's run left.
fn storage_after_run(layers: &mut Values, site_dir: &Path, db_size: u32) -> std::io::Result<()> {
    layers.insert(
        "storage.log_bytes_after_run",
        std::fs::metadata(site_dir.join("site.redo")).map_or(0, |m| m.len()) as f64,
    );
    let t0 = Instant::now();
    let mut store = Store::open(site_dir, db_size)?;
    layers.insert("storage.open_scan_ms", t0.elapsed().as_secs_f64() * 1e3);
    let items = store.pending_items();
    let t0 = Instant::now();
    store.hydrate_all();
    layers.insert(
        "storage.hydrate_ns_per_item",
        ratio(t0.elapsed().as_nanos() as u64, items as u64),
    );
    Ok(())
}

/// The layer walk, without and with spans; writes the span file.
fn layer_walk(
    args: &Args,
    spec: &SutSpec,
    run_dir: &Path,
    layers: &mut Values,
    notes: &mut Vec<String>,
) -> std::io::Result<()> {
    let w = args.workload;
    let fail = (w.kind == Kind::FailRecover).then(|| FailPlan {
        down_txns: down_txns(args.seconds),
    });
    let pass = |dir: &str, spans: bool| {
        let mut stream = w.stream(args.seed);
        walk(
            spec,
            &mut stream,
            w.walk_txns,
            &run_dir.join(dir),
            spans,
            fail,
        )
    };
    let plain = pass("walk-plain", false)?;
    let traced = pass("walk", true)?;
    layers.insert(
        "walk.span_overhead_pct",
        (traced.wall_ns as f64 / plain.wall_ns as f64 - 1.0) * 100.0,
    );
    layers.extend(traced.metrics);
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (span, own) in traced.spans.iter().zip(self_times(&traced.spans)) {
        *by_layer.entry(span.layer).or_default() += own;
    }
    let total: u64 = by_layer.values().sum();
    notes.push(format!(
        "walk self time by layer: {}",
        by_layer
            .iter()
            .map(|(l, ns)| format!("{l} {:.1} %", ratio(*ns, total) * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let file = args.out.join(format!("trace-{}.jsonl", w.name));
    write_jsonl(&file, &traced.spans)?;
    notes.push(format!(
        "{} spans in {}",
        traced.spans.len(),
        file.display()
    ));
    Ok(())
}

pub fn run(args: &Args) -> std::io::Result<Outcome> {
    let w = args.workload;
    let run_dir = RunDir(args.out.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&run_dir.0)?;
    let needs_ports = w.kind == Kind::Tcp || args.trace;
    let base_port = if needs_ports { free_port_block()? } else { 0 };
    let mut e2e = Values::new();
    let mut layers = Values::new();
    let mut notes = Vec::new();

    // ---- set-up, several times; the last launch is the one measured ----
    let mut setup_s = Vec::new();
    let mut launch_ms = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let spec = w.sut(
            &run_dir.0.join(format!("wal-{k}")),
            base_port + 4 * k as u16,
        );
        let (sut, launch, loaded, ledger) = set_up(&spec)?;
        setup_s.push(loaded.as_secs_f64());
        launch_ms.push(launch.as_secs_f64() * 1e3);
        if k + 1 < SETUPS {
            sut.terminate();
            if let Topology::Durable { dir } = &spec.topology {
                let _ = std::fs::remove_dir_all(dir);
            }
        } else {
            kept = Some((sut, spec, ledger));
        }
    }
    let (mut sut, spec, ledger) = kept.expect("the last launch is kept");
    e2e.insert("setup_s", quantile(&setup_s, BETTER));
    layers.insert("cluster.launch_ms", quantile(&launch_ms, BETTER));

    // ---- timed phases ----------------------------------------------------
    let secs = args.seconds as f64;
    let mut stream = w.stream(args.seed);
    let mut d = Driver::new(
        &mut sut,
        &mut stream,
        spec.groups(),
        spec.physical_sites(),
        ledger,
        args.trace,
    );

    d.begin(1);
    let (a, b) = d.run_for(Duration::from_secs_f64(secs * UNLOADED));
    let unloaded = windows(&d.samples, &phase_windows((a, b)));
    e2e.insert("unloaded_p50_us", over(&unloaded, BETTER, |w| w.p50));
    notes.push(format!(
        "unloaded phase: {} windows, {} samples in the smallest",
        unloaded.len(),
        unloaded.iter().map(|w| w.samples).min().unwrap_or(0)
    ));

    d.begin(w.clients);
    d.run_for(Duration::from_secs_f64(secs * WARM_UP));

    let mut before: Option<CounterSet> = None;
    let mut gen_spans = GenSpans::default();
    let mut measured_ns = 0;
    let mut failure = None;
    if w.kind == Kind::FailRecover {
        failure = fail_cycles(
            &mut d,
            w,
            spec.n_sites,
            args.seconds,
            &mut e2e,
            &mut layers,
            &mut notes,
        )
        .err();
        d.quiesce();
    } else {
        if args.trace {
            // Counters are read around the saturated phase, with nothing
            // in flight, so their differences belong to it alone.
            d.quiesce();
            let sites = spec.physical_sites();
            if let Some((scrape, _)) = scrape_all(d.sut, sites) {
                before = Some((scrape, d.sut.wal_totals(), d.counts));
            }
        }
        d.begin(w.clients);
        let phase = d.run_for(Duration::from_secs_f64(secs * SATURATED));
        measured_ns = phase.1 - phase.0;
        gen_spans = d.spans.unwrap_or_default();
        phase_metrics(
            &mut e2e,
            &mut layers,
            &mut notes,
            &d.samples,
            &phase_windows(phase),
        );
        d.quiesce();
    }
    let counts = d.counts;
    let mut ledger = std::mem::take(&mut d.ledger);
    drop(d);

    // ---- counters of the measured phase (traced runs) ---------------------
    if args.trace {
        if let Some((scrape, scrape_ms)) = scrape_all(&mut sut, spec.physical_sites()) {
            layers.insert("obs.scrape_ms", scrape_ms);
            let after = (scrape, sut.wal_totals(), counts);
            phase_counters(&mut layers, before.unwrap_or_default(), after);
        }
        let x = sut.xcounts();
        layers.insert("shard.vote_timeouts", x.aborted as f64);
        layers.insert("shard.redrives", x.redrives as f64);
        if measured_ns > 0 {
            layers.insert(
                "cluster.submit_ns_per_txn",
                ratio(gen_spans.submit_ns, gen_spans.submit_calls),
            );
            layers.insert(
                "cluster.drain_ns_per_report",
                ratio(gen_spans.drain_ns, gen_spans.drain_reports),
            );
            layers.insert(
                "cluster.generator_busy_share",
                1.0 - ratio(gen_spans.parked_ns, measured_ns),
            );
        }
    }
    layers.insert(
        "cluster.failed_share",
        ratio(counts.aborted, counts.submitted),
    );
    notes.push(format!(
        "failed_share: {} aborted or unreported of {} submissions; {} of {} logical transactions never committed",
        counts.aborted, counts.submitted, counts.failed, counts.attempted
    ));

    // ---- correctness, restart --------------------------------------------
    let mut correct = match failure {
        Some(e) => Err(e),
        None => check(&mut sut, &spec, &ledger).map(|_| ()),
    };
    sut.terminate();
    if w.kind == Kind::Durable && correct.is_ok() {
        match restart(&spec, &mut ledger) {
            Ok((mut again, restart_s)) => {
                e2e.insert("restart_s", restart_s);
                correct = check(&mut again, &spec, &ledger).map(|_| ());
                again.terminate();
            }
            Err(e) => correct = Err(e),
        }
    }
    general_counterparts(&mut e2e);

    // ---- the rest of the traced run ----------------------------------------
    if args.trace {
        if let Topology::Durable { dir } = &spec.topology {
            storage_after_run(&mut layers, &dir.join("site-0"), spec.db_size)?;
        }
        micro(&mut layers, base_port + 4 * SETUPS as u16)?;
        if w.name == "mem-rw" {
            let tps = tracer_on_tps(w, args, secs)?;
            layers.insert("obs.tracer_on_tps_ratio", tps / e2e["commit_tps"]);
        }
        layer_walk(args, &spec, &run_dir.0, &mut layers, &mut notes)?;
        if let Some(path) = layers.get("walk.blocking_path_p50_us") {
            layers.insert("cluster.unattributed_us", e2e["unloaded_p50_us"] - path);
        }
    }

    Ok(Outcome {
        correct,
        attempted: counts.attempted,
        failed: counts.failed,
        end_to_end: e2e,
        per_layer: layers,
        notes,
    })
}

/// Workload-independent micro-measurements on benchmark-owned objects.
fn micro(layers: &mut Values, base_port: u16) -> std::io::Result<()> {
    const ROUNDS: usize = 2_000;
    let msg = sample_copy_update();
    let hop_us = |pair: &Pair| {
        let mut halves = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            if !pair.ping_pong(&msg) {
                return f64::NAN;
            }
            halves.push(t0.elapsed().as_nanos() as f64 / 2e3);
        }
        median(&halves)
    };
    layers.insert("net.chan_hop_us", hop_us(&Pair::channel()));
    layers.insert("net.tcp_hop_us", hop_us(&Pair::tcp(base_port)?));
    const RECORDS: u64 = 1_000_000;
    let mut hist = Hist::new();
    let t0 = Instant::now();
    for k in 0..RECORDS {
        hist.record(std::hint::black_box(k % 4096));
    }
    let ns = t0.elapsed().as_nanos() as u64;
    layers.insert(
        "obs.hist_record_ns",
        ratio(ns, std::hint::black_box(hist.count())),
    );
    Ok(())
}

/// Saturated `mem-rw` throughput with a tracer on every engine.
fn tracer_on_tps(w: &Workload, args: &Args, secs: f64) -> std::io::Result<f64> {
    let mut spec = w.sut(Path::new(""), 0);
    spec.topology = Topology::Observed;
    let (mut sut, _, _, ledger) = set_up(&spec)?;
    let mut stream = w.stream(args.seed);
    let mut d = Driver::new(&mut sut, &mut stream, 1, spec.n_sites, ledger, false);
    d.begin(w.clients);
    d.run_for(Duration::from_secs_f64(secs * WARM_UP));
    d.begin(w.clients);
    let phase = d.run_for(Duration::from_secs_f64(secs * SATURATED / 2.0));
    let tps = over(
        &windows(&d.samples, &phase_windows(phase)),
        1.0 - BETTER,
        |w| w.tps,
    );
    d.quiesce();
    drop(d);
    sut.terminate();
    Ok(tps)
}
