//! Shard-scaling benchmark for the sharded replication-group subsystem.
//!
//! Sweeps the number of replication groups over {1, 2, 4} (each group a
//! 3-site ROWAA cluster, the paper's database-site count) crossed with a
//! cross-shard transaction mix of {0%, 10%, 30%}, at a fixed per-group
//! pipeline depth (`max_inflight`) and a fixed per-send intersite
//! latency. Transactions are submitted through the sharded managing
//! client with a bounded outstanding window, conflict-free by
//! construction: single-group transactions cycle a per-group item range,
//! cross-shard transactions cycle a disjoint range in each of their two
//! branch groups.
//!
//! With zero cross-shard mix the groups are fully independent pipelines,
//! so throughput should scale near-linearly with the group count — that
//! is the subsystem's reason to exist. Cross-shard transactions pay the
//! extra top-level prepare/decide round trip through the client-side
//! coordinator and hold their branch's pipeline slot while parked, so
//! rising mix erodes the scaling — the sweep quantifies by how much.
//!
//! Run: `cargo run --release -p miniraid-bench --bin repro_shard_scaling`
//!
//! Writes `BENCH_shard.json` in the working directory.

use std::time::{Duration, Instant};

use miniraid_cluster::{ClusterBuilder, ClusterTiming, Launched};
use miniraid_core::config::ProtocolConfig;
use miniraid_core::ids::{ItemId, TxnId};
use miniraid_core::ops::{Operation, Transaction};
use miniraid_shard::ShardSpec;

/// Sites per replication group (the paper's mini-RAID ran 3 database
/// sites plus the managing site).
const SITES_PER_GROUP: u8 = 3;
/// Items per group. Single-group transactions cycle locals [0, 64),
/// cross-shard branches cycle locals [64, 96) — disjoint, so the two
/// workload classes never contend.
const GROUP_DB_SIZE: u32 = 128;
/// Per-coordinator pipeline depth, held constant across every sweep
/// point (the acceptance criterion compares group counts at equal
/// `max_inflight`).
const MAX_INFLIGHT: usize = 4;
/// Per-send intersite latency (scaled down from the paper's measured
/// 9 ms, as in `repro_throughput`).
const LATENCY: Duration = Duration::from_millis(2);
/// Transactions submitted per group — total work scales with the group
/// count, so elapsed time measures parallel capacity.
const TXNS_PER_GROUP: u64 = 250;
/// Writes per single-group transaction.
const WRITES_PER_TXN: u32 = 2;

struct SweepPoint {
    n_groups: u8,
    cross_pct: u32,
    committed: u64,
    aborted: u64,
    cross_committed: u64,
    cross_aborted: u64,
    elapsed: Duration,
    single_p50_us: u64,
    single_p99_us: u64,
    cross_p50_us: u64,
    cross_p99_us: u64,
    per_group_p50_us: Vec<u64>,
}

impl SweepPoint {
    fn txns_per_sec(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64()
    }
}

/// Deterministic split-mix step — the sweep is reproducible run to run.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

struct Workload {
    spec: ShardSpec,
    cross_pct: u32,
    rng: u64,
    /// Per-group cycling counter for single-group transactions.
    single_cursor: Vec<u32>,
    /// Per-group cycling counter for cross-shard branch items.
    cross_cursor: Vec<u32>,
    /// Round-robin group choice for single-group transactions.
    next_group: u8,
}

impl Workload {
    fn new(spec: ShardSpec, cross_pct: u32, seed: u64) -> Self {
        Workload {
            spec,
            cross_pct,
            rng: seed,
            single_cursor: vec![0; spec.n_groups as usize],
            cross_cursor: vec![0; spec.n_groups as usize],
            next_group: 0,
        }
    }

    /// The next conflict-free transaction. Cross-shard with probability
    /// `cross_pct`% (two branches, one write each, in distinct groups);
    /// otherwise `WRITES_PER_TXN` writes confined to one group, groups
    /// taken round-robin.
    fn next_txn(&mut self, id: TxnId) -> Transaction {
        let n = self.spec.n_groups;
        let cross = n > 1 && next_rand(&mut self.rng) % 100 < self.cross_pct as u64;
        if cross {
            let g1 = (next_rand(&mut self.rng) % n as u64) as u8;
            let g2 = ((g1 as u64 + 1 + next_rand(&mut self.rng) % (n as u64 - 1)) % n as u64) as u8;
            let mut ops = Vec::with_capacity(2);
            for g in [g1.min(g2), g1.max(g2)] {
                let cursor = &mut self.cross_cursor[g as usize];
                let local = ItemId(64 + (*cursor % 32));
                *cursor += 1;
                ops.push(Operation::Write(self.spec.globalize(g, local), id.0));
            }
            Transaction::new(id, ops)
        } else {
            let g = self.next_group;
            self.next_group = (self.next_group + 1) % n;
            let cursor = &mut self.single_cursor[g as usize];
            let ops = (0..WRITES_PER_TXN)
                .map(|w| {
                    let local = ItemId(w * 32 + (*cursor % 32));
                    Operation::Write(self.spec.globalize(g, local), id.0)
                })
                .collect();
            *cursor += 1;
            Transaction::new(id, ops)
        }
    }
}

fn run_sweep_point(n_groups: u8, cross_pct: u32) -> SweepPoint {
    let spec = ShardSpec::new(n_groups, SITES_PER_GROUP, GROUP_DB_SIZE);
    let config = ProtocolConfig {
        max_inflight: MAX_INFLIGHT,
        ..ProtocolConfig::default()
    };
    let Launched {
        cluster,
        mut client,
        ..
    } = ClusterBuilder::new(config, ClusterTiming::default())
        .topology(spec)
        .latency(LATENCY)
        .launch()
        .expect("launch sharded cluster");

    let total = TXNS_PER_GROUP * n_groups as u64;
    // Enough outstanding work to keep every coordinator's pipeline full
    // (sites_per_group coordinators per group, round-robin), with 2x
    // headroom — but bounded, so queueing delay stays far below the
    // cross-shard vote timeout.
    let window = n_groups as u64 * SITES_PER_GROUP as u64 * MAX_INFLIGHT as u64 * 2;
    let mut workload = Workload::new(spec, cross_pct, 0x5eed + n_groups as u64);

    let mut submitted = 0u64;
    let mut collected = 0u64;
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut cross_committed = 0u64;
    let mut cross_aborted = 0u64;

    let start = Instant::now();
    let deadline = start + Duration::from_secs(120);
    while collected < total {
        while submitted < total && submitted - collected < window {
            let id = client.next_txn_id();
            let txn = workload.next_txn(id);
            client.submit(txn);
            submitted += 1;
        }
        let reports = client.drain_finished();
        if reports.is_empty() {
            client.pump_for(Duration::from_millis(1)).expect("pump");
            assert!(
                Instant::now() < deadline,
                "{n_groups} groups / {cross_pct}% cross: only {collected}/{total} reports arrived"
            );
            continue;
        }
        for report in reports {
            collected += 1;
            match (report.outcome.is_committed(), report.cross_shard) {
                (true, true) => {
                    committed += 1;
                    cross_committed += 1;
                }
                (true, false) => committed += 1,
                (false, true) => {
                    aborted += 1;
                    cross_aborted += 1;
                }
                (false, false) => aborted += 1,
            }
        }
    }
    let elapsed = start.elapsed();

    let snapshot = client.sharded_snapshot();
    let point = SweepPoint {
        n_groups,
        cross_pct,
        committed,
        aborted,
        cross_committed,
        cross_aborted,
        elapsed,
        single_p50_us: client.single_commit_latency.quantile(0.5),
        single_p99_us: client.single_commit_latency.quantile(0.99),
        cross_p50_us: client.cross_commit_latency.quantile(0.5),
        cross_p99_us: client.cross_commit_latency.quantile(0.99),
        per_group_p50_us: snapshot
            .per_shard
            .iter()
            .map(|hub| hub.commit_latency.quantile(0.5))
            .collect(),
    };

    client.terminate_all();
    cluster.join(Duration::from_secs(5));
    point
}

fn main() {
    println!(
        "shard-scaling sweep: {SITES_PER_GROUP} sites/group, {TXNS_PER_GROUP} txns/group, \
         max_inflight={MAX_INFLIGHT}, {}ms intersite latency",
        LATENCY.as_millis()
    );
    println!(
        "{:>8} {:>10} {:>10} {:>8} {:>12} {:>14} {:>13}",
        "n_groups",
        "cross_pct",
        "committed",
        "aborted",
        "txns/sec",
        "single p50 us",
        "cross p50 us"
    );

    let mut points = Vec::new();
    for n_groups in [1u8, 2, 4] {
        for cross_pct in [0u32, 10, 30] {
            if n_groups == 1 && cross_pct > 0 {
                continue; // one group cannot host a cross-shard txn
            }
            let point = run_sweep_point(n_groups, cross_pct);
            println!(
                "{:>8} {:>10} {:>10} {:>8} {:>12.1} {:>14} {:>13}",
                point.n_groups,
                point.cross_pct,
                point.committed,
                point.aborted,
                point.txns_per_sec(),
                point.single_p50_us,
                point.cross_p50_us,
            );
            points.push(point);
        }
    }

    let tps = |groups: u8, pct: u32| {
        points
            .iter()
            .find(|p| p.n_groups == groups && p.cross_pct == pct)
            .expect("sweep point present")
            .txns_per_sec()
    };
    let speedup_4g = tps(4, 0) / tps(1, 0);
    let speedup_2g = tps(2, 0) / tps(1, 0);
    println!("speedup at 0% cross mix: 2 groups {speedup_2g:.2}x, 4 groups {speedup_4g:.2}x");
    assert!(
        speedup_4g >= 2.5,
        "4-group throughput must scale >= 2.5x over 1 group at 0% cross mix, got {speedup_4g:.2}x"
    );

    // Hand-rolled JSON, same flat style as the other repro benches.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"repro_shard_scaling\",\n");
    json.push_str(&format!("  \"sites_per_group\": {SITES_PER_GROUP},\n"));
    json.push_str(&format!("  \"group_db_size\": {GROUP_DB_SIZE},\n"));
    json.push_str(&format!("  \"max_inflight\": {MAX_INFLIGHT},\n"));
    json.push_str(&format!(
        "  \"intersite_latency_ms\": {},\n",
        LATENCY.as_millis()
    ));
    json.push_str(&format!("  \"txns_per_group\": {TXNS_PER_GROUP},\n"));
    json.push_str(&format!(
        "  \"speedup_2g_over_1g_0cross\": {speedup_2g:.3},\n"
    ));
    json.push_str(&format!(
        "  \"speedup_4g_over_1g_0cross\": {speedup_4g:.3},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let per_group: Vec<String> = p.per_group_p50_us.iter().map(u64::to_string).collect();
        json.push_str(&format!(
            "    {{\"n_groups\": {}, \"cross_pct\": {}, \"committed\": {}, \"aborted\": {}, \
             \"cross_committed\": {}, \"cross_aborted\": {}, \"txns_per_sec\": {:.1}, \
             \"single_p50_us\": {}, \"single_p99_us\": {}, \
             \"cross_p50_us\": {}, \"cross_p99_us\": {}, \
             \"per_group_commit_p50_us\": [{}]}}{}\n",
            p.n_groups,
            p.cross_pct,
            p.committed,
            p.aborted,
            p.cross_committed,
            p.cross_aborted,
            p.txns_per_sec(),
            p.single_p50_us,
            p.single_p99_us,
            p.cross_p50_us,
            p.cross_p99_us,
            per_group.join(", "),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("wrote BENCH_shard.json");
}
