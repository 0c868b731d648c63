//! Group-commit WAL benchmark: durable vs in-memory throughput, fsyncs
//! and allocations per committed transaction.
//!
//! Sweeps `max_inflight` over {1, 4, 8} across two storage modes on a
//! zero-latency channel cluster (so the fsync cost, not the intersite
//! latency, dominates the durable numbers):
//!
//! * `inmem` — no durable store at all (upper bound);
//! * `durable` — the REDO WAL with group commit: every event-loop drain
//!   that appended ends with one fsync covering all its commit records,
//!   before the drain's messages (participant ACKs among them) leave.
//!
//! A counting global allocator reports `allocs_per_committed_txn`
//! (process-wide, all site threads, measured from first submission to
//! last report), and the instrumented durable launch exposes each
//! site's WAL counters for `fsyncs_per_committed_txn`.
//!
//! Run: `cargo run --release -p miniraid-bench --bin repro_wal`
//! (`MINIRAID_WAL_TXNS` overrides transactions per site, for CI smoke.)
//!
//! Writes `BENCH_wal.json` in the working directory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use miniraid_cluster::{Cluster, ClusterTiming};
use miniraid_core::config::ProtocolConfig;
use miniraid_core::ids::{ItemId, SiteId, TxnId};
use miniraid_core::ops::{Operation, Transaction};

/// Counts every heap allocation in the process (allocations only, not
/// frees — the hot-path question is "how often do we allocate per
/// committed transaction").
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Sites in the cluster (paper topology: 3 database sites).
const N_SITES: u8 = 3;
/// Items per coordinator shard; cycling keeps in-flight windows
/// conflict-free.
const SHARD: u32 = 32;
/// Writes per transaction.
const WRITES_PER_TXN: u32 = 2;

/// Pre-PR reference, measured with this same harness before the
/// group-commit WAL landed (one fsync per Persist, eager restart,
/// allocating hot path): allocations and throughput at `max_inflight =
/// 4`, 3 sites, durable, zero intersite latency.
const PRE_PR_ALLOCS_PER_TXN: f64 = 90.7;
const PRE_PR_TXNS_PER_SEC_MI4_DURABLE: f64 = 1800.0;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    InMem,
    Durable,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::InMem => "inmem",
            Mode::Durable => "durable",
        }
    }
}

struct Point {
    mode: Mode,
    max_inflight: usize,
    committed: u64,
    aborted: u64,
    elapsed: Duration,
    allocs: u64,
    fsyncs: u64,
    commit_records: u64,
    wal_records: u64,
    /// Sorted commit latencies.
    latencies: Vec<Duration>,
}

impl Point {
    fn txns_per_sec(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64()
    }

    fn allocs_per_txn(&self) -> f64 {
        self.allocs as f64 / self.committed.max(1) as f64
    }

    fn fsyncs_per_txn(&self) -> f64 {
        self.fsyncs as f64 / self.committed.max(1) as f64
    }

    fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let rank = ((self.latencies.len() - 1) as f64 * p).round() as usize;
        self.latencies[rank].as_secs_f64() * 1e3
    }
}

/// The k-th transaction coordinated by `site`: conflict-free sharded
/// writes (same shape as `repro_throughput`).
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

fn run_point(mode: Mode, max_inflight: usize, txns_per_site: u64) -> Point {
    let config = ProtocolConfig {
        db_size: N_SITES as u32 * SHARD * WRITES_PER_TXN,
        n_sites: N_SITES,
        max_inflight,
        ..ProtocolConfig::default()
    };

    let dir = std::env::temp_dir().join(format!(
        "miniraid-bench-wal-{}-{}-mi{max_inflight}",
        std::process::id(),
        mode.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (cluster, mut client, counters) = match mode {
        Mode::InMem => {
            let (cluster, client) =
                Cluster::launch_with_latency(config, ClusterTiming::default(), Duration::ZERO);
            (cluster, client, Vec::new())
        }
        Mode::Durable => {
            Cluster::launch_durable_instrumented(config, ClusterTiming::default(), &dir)
                .expect("launch durable cluster")
        }
    };

    let total = txns_per_site * N_SITES as u64;
    let mut submitted_at: HashMap<TxnId, Instant> = HashMap::new();
    let mut latencies = Vec::with_capacity(total as usize);
    let mut committed = 0u64;
    let mut aborted = 0u64;

    let fsyncs0: u64 = counters.iter().map(|c| c.fsyncs()).sum();
    let commits0: u64 = counters.iter().map(|c| c.commits()).sum();
    let records0: u64 = counters.iter().map(|c| c.records()).sum();
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    for k in 0..txns_per_site {
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
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let fsyncs: u64 = counters.iter().map(|c| c.fsyncs()).sum::<u64>() - fsyncs0;
    let commit_records: u64 = counters.iter().map(|c| c.commits()).sum::<u64>() - commits0;
    let wal_records: u64 = counters.iter().map(|c| c.records()).sum::<u64>() - records0;
    assert_eq!(
        collected,
        total,
        "{} mi={max_inflight}: only {collected}/{total} reports arrived",
        mode.name()
    );

    client.terminate_all();
    cluster.join(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&dir);

    latencies.sort();
    Point {
        mode,
        max_inflight,
        committed,
        aborted,
        elapsed,
        allocs,
        fsyncs,
        commit_records,
        wal_records,
        latencies,
    }
}

fn main() {
    let txns_per_site: u64 = std::env::var("MINIRAID_WAL_TXNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    println!(
        "group-commit WAL sweep: {N_SITES} sites, {txns_per_site} txns/site, \
         zero intersite latency, {WRITES_PER_TXN} writes/txn"
    );
    println!(
        "{:>16} {:>4} {:>9} {:>10} {:>11} {:>11} {:>8} {:>8}",
        "mode", "mi", "committed", "txns/sec", "allocs/txn", "fsyncs/txn", "p50 ms", "p99 ms"
    );

    let mut points = Vec::new();
    for max_inflight in [1usize, 4, 8] {
        for mode in [Mode::InMem, Mode::Durable] {
            let p = run_point(mode, max_inflight, txns_per_site);
            println!(
                "{:>16} {:>4} {:>9} {:>10.1} {:>11.1} {:>11.3} {:>8.2} {:>8.2}",
                p.mode.name(),
                p.max_inflight,
                p.committed,
                p.txns_per_sec(),
                p.allocs_per_txn(),
                p.fsyncs_per_txn(),
                p.percentile_ms(0.50),
                p.percentile_ms(0.99),
            );
            points.push(p);
        }
    }

    let d4 = points
        .iter()
        .find(|p| p.mode == Mode::Durable && p.max_inflight == 4)
        .expect("sweep point");
    println!(
        "allocs/txn (durable, mi=4): {:.1} (pre-PR baseline {PRE_PR_ALLOCS_PER_TXN})",
        d4.allocs_per_txn()
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"repro_wal\",\n");
    json.push_str(&format!("  \"n_sites\": {N_SITES},\n"));
    json.push_str(&format!("  \"txns_per_site\": {txns_per_site},\n"));
    json.push_str(&format!("  \"writes_per_txn\": {WRITES_PER_TXN},\n"));
    json.push_str("  \"intersite_latency_ms\": 0,\n");
    json.push_str(&format!(
        "  \"pre_pr_baseline\": {{\"allocs_per_committed_txn\": {PRE_PR_ALLOCS_PER_TXN}, \
         \"txns_per_sec_mi4_durable\": {PRE_PR_TXNS_PER_SEC_MI4_DURABLE}, \
         \"note\": \"one fsync per Persist, eager restart, allocating hot path\"}},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"max_inflight\": {}, \"committed\": {}, \
             \"aborted\": {}, \"txns_per_sec\": {:.1}, \
             \"allocs_per_committed_txn\": {:.2}, \"wal_fsyncs\": {}, \
             \"wal_commit_records\": {}, \"wal_records\": {}, \
             \"fsyncs_per_committed_txn\": {:.4}, \
             \"p50_latency_ms\": {:.2}, \"p99_latency_ms\": {:.2}}}{}\n",
            p.mode.name(),
            p.max_inflight,
            p.committed,
            p.aborted,
            p.txns_per_sec(),
            p.allocs_per_txn(),
            p.fsyncs,
            p.commit_records,
            p.wal_records,
            p.fsyncs_per_txn(),
            p.percentile_ms(0.50),
            p.percentile_ms(0.99),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_wal.json", &json).expect("write BENCH_wal.json");
    println!("wrote BENCH_wal.json");
}
