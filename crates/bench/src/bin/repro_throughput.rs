//! Throughput benchmark for the pipelined transaction engine.
//!
//! Sweeps `ProtocolConfig::max_inflight` over {1, 2, 4, 8} against a
//! threaded channel cluster with a fixed per-send intersite latency
//! (scaled down from the paper's measured 9 ms so the sweep stays
//! fast). Transactions are submitted open-loop, sharded so that each
//! coordinator's in-flight window is conflict-free: with serial
//! admission (`max_inflight = 1`, the paper's configuration) a
//! coordinator pays the full two-phase-commit latency per transaction;
//! with a deeper pipeline those rounds overlap and the transport
//! coalesces concurrent messages into batched frames.
//!
//! After the pipeline sweep, a second sweep drives the cluster
//! **open-loop at fixed target rates** through
//! [`miniraid_obs::OpenLoopRecorder`]: the submission schedule is fixed
//! in advance, and every completion is measured both against its actual
//! submission (service time — what a closed-loop driver would report)
//! and against its intended slot (response time — what a punctual
//! client would have experienced, queue wait included). Above the
//! sustainable rate the two diverge sharply; reporting only the former
//! is the *coordinated omission* mistake. See DESIGN.md §12.
//!
//! Run: `cargo run --release -p miniraid-bench --bin repro_throughput`
//!
//! Writes `BENCH_throughput.json` and `BENCH_openloop.json` in the
//! working directory.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use miniraid_cluster::{ClusterBuilder, ClusterTiming, Launched, Tracing};
use miniraid_core::config::ProtocolConfig;
use miniraid_core::ids::{ItemId, SiteId, TxnId};
use miniraid_core::ops::{Operation, Transaction};
use miniraid_obs::{LatencyHistogram, OpenLoopRecorder};

/// Sites in the cluster (the paper's mini-RAID ran on 4 SUN-3s; one is
/// the managing site, so 3 database sites).
const N_SITES: u8 = 3;
/// Transactions submitted per coordinating site.
const TXNS_PER_SITE: u64 = 150;
/// Per-send intersite latency (the paper measured 9 ms; scaled down to
/// keep the four-point sweep under a minute).
const LATENCY: Duration = Duration::from_millis(2);
/// Items per coordinator shard. Larger than the deepest pipeline, so
/// cycling item choice keeps every in-flight window conflict-free.
const SHARD: u32 = 32;
/// Writes per transaction.
const WRITES_PER_TXN: u32 = 2;

struct SweepPoint {
    max_inflight: usize,
    committed: u64,
    aborted: u64,
    elapsed: Duration,
    /// Sorted commit latencies.
    latencies: Vec<Duration>,
    /// Log₂-bucketed commit-latency histogram (microseconds).
    hist: LatencyHistogram,
}

impl SweepPoint {
    fn txns_per_sec(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64()
    }

    fn abort_rate(&self) -> f64 {
        let total = self.committed + self.aborted;
        if total == 0 {
            0.0
        } else {
            self.aborted as f64 / total as f64
        }
    }

    fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let rank = ((self.latencies.len() - 1) as f64 * p).round() as usize;
        self.latencies[rank].as_secs_f64() * 1e3
    }
}

/// The k-th transaction coordinated by `site`: `WRITES_PER_TXN` writes
/// into the site's own item shard, cycling so no two transactions in
/// any window of `SHARD` share an item.
fn workload_txn(site: SiteId, k: u64, id: TxnId) -> Transaction {
    let base = site.0 as u32 * SHARD * WRITES_PER_TXN;
    let ops = (0..WRITES_PER_TXN)
        .map(|w| {
            let item = base + w * SHARD + (k as u32 % SHARD);
            Operation::Write(ItemId(item), id.0)
        })
        .collect();
    Transaction::new(id, ops)
}

/// A cluster with `LATENCY` on every intersite send. Every engine gets
/// a null-sink tracer: the benchmark measures the full event-emission
/// path (clock stamp + dynamic dispatch into a sink that discards), so
/// its numbers bound the tracing overhead a real deployment pays.
fn with_latency(config: ProtocolConfig) -> ClusterBuilder {
    ClusterBuilder::new(config, ClusterTiming::default())
        .latency(LATENCY)
        .tracing(Tracing::NullSink)
}

fn run_sweep_point(max_inflight: usize) -> SweepPoint {
    let config = ProtocolConfig {
        db_size: N_SITES as u32 * SHARD * WRITES_PER_TXN,
        n_sites: N_SITES,
        max_inflight,
        ..ProtocolConfig::default()
    };
    let Launched {
        cluster,
        mut client,
        ..
    } = with_latency(config).launch().expect("launch cluster");

    let total = TXNS_PER_SITE * N_SITES as u64;
    let mut submitted_at: HashMap<TxnId, Instant> = HashMap::new();
    let mut latencies = Vec::with_capacity(total as usize);
    let mut committed = 0u64;
    let mut aborted = 0u64;

    // Open loop: submit everything up front, round-robin over
    // coordinators. Each site queues what it cannot admit yet and keeps
    // `max_inflight` transactions in its pipeline.
    let start = Instant::now();
    for k in 0..TXNS_PER_SITE {
        for s in 0..N_SITES {
            let site = SiteId(s);
            let id = client.next_txn_id();
            submitted_at.insert(id, Instant::now());
            client.submit_txn(site, workload_txn(site, k, id));
        }
    }

    let mut collected = 0u64;
    let deadline = start + Duration::from_secs(120);
    while collected < total && Instant::now() < deadline {
        let reports = client.drain_reports();
        if reports.is_empty() {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        let now = Instant::now();
        for report in reports {
            collected += 1;
            if report.outcome.is_committed() {
                committed += 1;
                if let Some(at) = submitted_at.get(&report.txn) {
                    latencies.push(now.duration_since(*at));
                }
            } else {
                aborted += 1;
            }
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(
        collected, total,
        "max_inflight={max_inflight}: only {collected}/{total} reports arrived"
    );

    client.terminate_all();
    cluster.join(Duration::from_secs(5));

    latencies.sort();
    let mut hist = LatencyHistogram::new();
    for latency in &latencies {
        hist.record(latency.as_micros() as u64);
    }
    SweepPoint {
        max_inflight,
        committed,
        aborted,
        elapsed,
        latencies,
        hist,
    }
}

/// One fixed-rate open-loop measurement.
struct OpenLoopPoint {
    target_tps: f64,
    issued: u64,
    committed: u64,
    aborted: u64,
    elapsed: Duration,
    /// Completion − actual submission (the closed-loop illusion).
    service: LatencyHistogram,
    /// Completion − intended slot (coordinated-omission-corrected).
    response: LatencyHistogram,
}

impl OpenLoopPoint {
    fn achieved_tps(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64()
    }
}

/// The driver's connection-pool bound: like any real client, it holds
/// at most this many transactions outstanding (the cluster's aggregate
/// pipeline depth). Under overload the *schedule* keeps its fixed
/// arrival times while the pool forces actual submissions to drift
/// later and later — exactly the stall a closed-loop driver silently
/// omits from its latency record.
const MAX_OUTSTANDING: usize = 12;

/// Drive the cluster at a fixed arrival rate: one transaction every
/// `1e6 / target_tps` microseconds on a schedule fixed before the run,
/// regardless of how far behind the pipeline falls. Pipeline depth is
/// the sweep's best point (`max_inflight = 4`).
fn run_open_loop_point(target_tps: f64, total: u64) -> OpenLoopPoint {
    let config = ProtocolConfig {
        db_size: N_SITES as u32 * SHARD * WRITES_PER_TXN,
        n_sites: N_SITES,
        max_inflight: 4,
        ..ProtocolConfig::default()
    };
    let Launched {
        cluster,
        mut client,
        ..
    } = with_latency(config).launch().expect("launch cluster");

    let interval_us = (1e6 / target_tps).round().max(1.0) as u64;
    let mut rec = OpenLoopRecorder::new(0, interval_us);
    // Txn id → (intended slot, actual submission), both µs since epoch.
    let mut meta: HashMap<TxnId, (u64, u64)> = HashMap::new();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut per_site_k = vec![0u64; N_SITES as usize];

    let epoch = Instant::now();
    let now_us = |epoch: &Instant| epoch.elapsed().as_micros() as u64;

    let mut collected = 0u64;
    while rec.issued() < total {
        let intended = rec.next_intended();
        // Wait for the schedule slot AND a free pool slot, draining
        // completions meanwhile. Past the sustainable rate the pool is
        // what stalls: the intended slot is long gone by the time a
        // transaction can actually be submitted, and only the
        // response-time histogram remembers that.
        loop {
            for report in client.drain_reports() {
                collected += 1;
                let done = now_us(&epoch);
                if let Some((slot, sent)) = meta.remove(&report.txn) {
                    if report.outcome.is_committed() {
                        committed += 1;
                        rec.record(slot, sent, done);
                    } else {
                        aborted += 1;
                    }
                }
            }
            if now_us(&epoch) >= intended && meta.len() < MAX_OUTSTANDING {
                break;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        let site = SiteId((rec.issued() as u8 - 1) % N_SITES);
        let k = &mut per_site_k[site.index()];
        let id = client.next_txn_id();
        meta.insert(id, (intended, now_us(&epoch)));
        client.submit_txn(site, workload_txn(site, *k, id));
        *k += 1;
    }
    // Drain the tail.
    let deadline = Instant::now() + Duration::from_secs(120);
    while collected < total && Instant::now() < deadline {
        let reports = client.drain_reports();
        if reports.is_empty() {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        let done = now_us(&epoch);
        for report in reports {
            collected += 1;
            if let Some((slot, sent)) = meta.remove(&report.txn) {
                if report.outcome.is_committed() {
                    committed += 1;
                    rec.record(slot, sent, done);
                } else {
                    aborted += 1;
                }
            }
        }
    }
    let elapsed = epoch.elapsed();
    assert_eq!(
        collected, total,
        "open loop at {target_tps:.0} tps: only {collected}/{total} reports arrived"
    );

    client.terminate_all();
    cluster.join(Duration::from_secs(5));

    OpenLoopPoint {
        target_tps,
        issued: total,
        committed,
        aborted,
        elapsed,
        service: rec.service().clone(),
        response: rec.response().clone(),
    }
}

fn openloop_json(points: &[OpenLoopPoint], sustainable_tps: f64) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"repro_openloop\",\n");
    json.push_str(&format!("  \"n_sites\": {N_SITES},\n"));
    json.push_str(&format!(
        "  \"intersite_latency_ms\": {},\n",
        LATENCY.as_millis()
    ));
    json.push_str(&format!("  \"writes_per_txn\": {WRITES_PER_TXN},\n"));
    json.push_str("  \"max_inflight\": 4,\n");
    json.push_str(&format!(
        "  \"sustainable_tps_closed_loop\": {sustainable_tps:.1},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let (s50, s90, s99, smax) = p.service.summary();
        let (r50, r90, r99, rmax) = p.response.summary();
        json.push_str(&format!(
            "    {{\"target_tps\": {:.1}, \"achieved_tps\": {:.1}, \
             \"issued\": {}, \"committed\": {}, \"aborted\": {}, \
             \"service_us\": {{\"p50\": {s50}, \"p90\": {s90}, \"p99\": {s99}, \"max\": {smax}}}, \
             \"response_us\": {{\"p50\": {r50}, \"p90\": {r90}, \"p99\": {r99}, \"max\": {rmax}}}}}{}\n",
            p.target_tps,
            p.achieved_tps(),
            p.issued,
            p.committed,
            p.aborted,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

fn main() {
    println!(
        "pipelined-throughput sweep: {N_SITES} sites, {TXNS_PER_SITE} txns/site, \
         {}ms intersite latency, {WRITES_PER_TXN} writes/txn",
        LATENCY.as_millis()
    );
    println!(
        "{:>12} {:>10} {:>8} {:>12} {:>10} {:>10}",
        "max_inflight", "committed", "aborted", "txns/sec", "p50 ms", "p99 ms"
    );

    let mut points = Vec::new();
    for max_inflight in [1usize, 2, 4, 8] {
        let point = run_sweep_point(max_inflight);
        println!(
            "{:>12} {:>10} {:>8} {:>12.1} {:>10.1} {:>10.1}",
            point.max_inflight,
            point.committed,
            point.aborted,
            point.txns_per_sec(),
            point.percentile_ms(0.50),
            point.percentile_ms(0.99),
        );
        points.push(point);
    }

    let base = points[0].txns_per_sec();
    let at4 = points
        .iter()
        .find(|p| p.max_inflight == 4)
        .expect("sweep includes 4")
        .txns_per_sec();
    let speedup = at4 / base;
    println!("speedup at max_inflight=4 over serial: {speedup:.2}x");

    // Hand-rolled JSON: flat structure, no serializer dependency needed.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"repro_throughput\",\n");
    json.push_str(&format!("  \"n_sites\": {N_SITES},\n"));
    json.push_str(&format!("  \"txns_per_site\": {TXNS_PER_SITE},\n"));
    json.push_str(&format!(
        "  \"intersite_latency_ms\": {},\n",
        LATENCY.as_millis()
    ));
    json.push_str(&format!("  \"writes_per_txn\": {WRITES_PER_TXN},\n"));
    json.push_str(&format!("  \"speedup_mi4_over_mi1\": {speedup:.3},\n"));
    json.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        // Additive vs. earlier schema: the log₂-bucketed histogram rides
        // along as "latency_hist_us"; buckets are
        // [bucket_upper_bound_micros, count] pairs.
        let (h50, h90, h99, hmax) = p.hist.summary();
        let buckets: Vec<String> = p
            .hist
            .nonzero_buckets()
            .into_iter()
            .map(|(bucket, n)| format!("[{bucket}, {n}]"))
            .collect();
        json.push_str(&format!(
            "    {{\"max_inflight\": {}, \"committed\": {}, \"aborted\": {}, \
             \"txns_per_sec\": {:.1}, \"abort_rate\": {:.4}, \
             \"p50_latency_ms\": {:.2}, \"p99_latency_ms\": {:.2}, \
             \"latency_hist_us\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \
             \"p99\": {}, \"max\": {}, \"mean\": {:.1}, \"buckets\": [{}]}}}}{}\n",
            p.max_inflight,
            p.committed,
            p.aborted,
            p.txns_per_sec(),
            p.abort_rate(),
            p.percentile_ms(0.50),
            p.percentile_ms(0.99),
            p.hist.count(),
            h50,
            h90,
            h99,
            hmax,
            p.hist.mean(),
            buckets.join(", "),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");

    // ---- open-loop (coordinated-omission-free) sweep -------------------
    // Rates are anchored to the *measured* closed-loop throughput at
    // max_inflight = 4: well under, near, and deliberately above it.
    // The overloaded point is where coordinated omission would lie.
    let sustainable = at4;
    println!("\nopen-loop sweep (max_inflight=4, sustainable ≈ {sustainable:.0} tps closed-loop)");
    println!(
        "{:>10} {:>10} {:>9} {:>12} {:>12} {:>13} {:>13}",
        "target", "achieved", "committed", "svc p50 µs", "svc p99 µs", "resp p50 µs", "resp p99 µs"
    );
    let mut ol_points = Vec::new();
    for factor in [0.5, 0.9, 1.4] {
        let target = (sustainable * factor).max(10.0);
        let point = run_open_loop_point(target, 240);
        println!(
            "{:>10.0} {:>10.0} {:>9} {:>12} {:>12} {:>13} {:>13}",
            point.target_tps,
            point.achieved_tps(),
            point.committed,
            point.service.quantile(0.5),
            point.service.quantile(0.99),
            point.response.quantile(0.5),
            point.response.quantile(0.99),
        );
        ol_points.push(point);
    }
    let overload = ol_points.last().expect("sweep ran");
    assert!(
        overload.response.quantile(0.99) > overload.service.quantile(0.99),
        "above the sustainable rate, coordinated-omission-corrected p99 \
         ({}) must exceed the service-time p99 ({})",
        overload.response.quantile(0.99),
        overload.service.quantile(0.99),
    );
    println!(
        "above sustainable rate: response p99 = {}µs vs service p99 = {}µs \
         ({}x — the gap closed-loop reporting hides)",
        overload.response.quantile(0.99),
        overload.service.quantile(0.99),
        overload.response.quantile(0.99) / overload.service.quantile(0.99).max(1),
    );

    std::fs::write(
        "BENCH_openloop.json",
        openloop_json(&ol_points, sustainable),
    )
    .expect("write BENCH_openloop.json");
    println!("wrote BENCH_openloop.json");
}
