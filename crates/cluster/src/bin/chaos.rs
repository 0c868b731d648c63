//! Chaos harness CLI: run a seeded randomized schedule of site kills,
//! recoveries, partitions, and transport faults against a live cluster,
//! checking invariants continuously. Exits 0 when every invariant held;
//! exits 1 and writes the JSONL trace on a violation, printing the seed
//! for deterministic replay.
//!
//! ```text
//! chaos thread [--seed N] [--steps N] [--sites N] [--drop P] [--dup P]
//!              [--shards N] [--sites-per-group N] [--cross-pct N]
//!              [--kill-coordinator] [--kill-point POINT]
//!              [--reshard] [--reshard-kill donor|recipient|resharder]
//!              [--vote-timeout-ms N] [--redrive-ms N]
//!              [--no-reliable] [--trace-out FILE]
//! chaos proc   [--seed N] [--kills N] [--sites N] [--drop P] [--dup P]
//!              [--base-port N] [--no-reliable] [--trace-out FILE]
//! ```
//!
//! `thread` drives an in-process channel cluster (site kills are
//! protocol-level Fail commands; partitions are one-way link blocks).
//! With `--shards N` (N ≥ 2) it drives a *sharded* cluster instead: N
//! replication groups with single- and cross-shard traffic, and the
//! oracle additionally checks cross-shard atomicity. With
//! `--kill-coordinator` the cross-shard coordinator itself is
//! repeatedly killed at `--kill-point` (`after-prepare`, `after-votes`,
//! or `mid-decide`; default `after-votes`) and a successor must take
//! over from the replicated decision log — the atomicity oracle still
//! has to hold. With `--reshard` it runs a *live resharding* schedule
//! instead: a mapped cluster migrates a seed-chosen item range between
//! groups under foreground traffic, optionally killing a donor member,
//! a recipient member, or the resharder itself mid-copy
//! (`--reshard-kill`); the oracle checks no item is lost and no item
//! ends up double-owned.
//! `proc` drives real `miniraid-site` OS processes over TCP with
//! WAL-backed stores: kills are SIGKILL mid-transaction, restarts
//! replay the WAL — the paper's site failure model made literal.
//!
//! `MINIRAID_CHAOS_TRACE_DIR=<dir>` makes a `thread` run write per-site
//! protocol traces (and, sharded or resharding, the client's
//! `client.jsonl`) under `<dir>`; a traced sharded run also backs its
//! sites with the WAL.

use std::path::PathBuf;

use miniraid_cluster::chaos::{
    run_process_chaos, run_reshard_chaos, run_sharded_chaos, run_thread_chaos, ChaosOptions,
    ChaosOutcome, ProcChaosOptions, ReshardChaosOptions, ShardChaosOptions,
};
use miniraid_cluster::{CoordKillPoint, ReshardKillPoint};

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn finish(outcome: ChaosOutcome, trace_out: Option<PathBuf>, seed: u64) -> ! {
    let violated = !outcome.passed();
    // Always write the trace when asked; on violation, write it even
    // unasked so the schedule is never lost.
    let trace_path =
        trace_out.or_else(|| violated.then(|| PathBuf::from(format!("chaos-trace-{seed}.jsonl"))));
    if let Some(path) = trace_path {
        let body = outcome.trace.join("\n") + "\n";
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("chaos: failed to write trace {}: {e}", path.display());
        } else {
            eprintln!("chaos: trace written to {}", path.display());
        }
    }
    println!(
        "chaos: seed={seed} committed={} in_doubt={} aborted={} violations={}",
        outcome.committed_writes,
        outcome.in_doubt_writes,
        outcome.aborted,
        outcome.violations.len()
    );
    for v in &outcome.violations {
        println!("chaos: VIOLATION: {v}");
    }
    if violated {
        println!("chaos: FAILED (replay with --seed {seed})");
        std::process::exit(1);
    }
    println!("chaos: all invariants held");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("thread");
    let seed: u64 = parse_flag(&args, "--seed").unwrap_or(1);
    let sites: u8 = parse_flag(&args, "--sites").unwrap_or(4);
    let drop: f64 = parse_flag(&args, "--drop").unwrap_or(0.10);
    let dup: f64 = parse_flag(&args, "--dup").unwrap_or(0.05);
    let with_reliable = !args.iter().any(|a| a == "--no-reliable");
    let trace_out: Option<PathBuf> = parse_flag(&args, "--trace-out");
    let trace_dir = std::env::var_os("MINIRAID_CHAOS_TRACE_DIR").map(PathBuf::from);

    match mode {
        "thread" => {
            let shards: u8 = parse_flag(&args, "--shards").unwrap_or(1);
            if args.iter().any(|a| a == "--reshard") {
                let kill_name: Option<String> = parse_flag(&args, "--reshard-kill");
                let kill = match kill_name.as_deref() {
                    None => None,
                    Some(name) => match ReshardKillPoint::parse(name) {
                        Some(kp) => Some(kp),
                        None => {
                            eprintln!(
                                "chaos: unknown --reshard-kill {name:?} \
                                 (use donor, recipient, or resharder)"
                            );
                            std::process::exit(2);
                        }
                    },
                };
                let opts = ReshardChaosOptions {
                    seed,
                    n_groups: shards.max(2),
                    sites_per_group: parse_flag(&args, "--sites-per-group").unwrap_or(2),
                    db_size: parse_flag(&args, "--db-size").unwrap_or(48),
                    kill,
                    // Reshard runs default to a clean network: the
                    // schedule's faults are the kills, and the oracle's
                    // read rounds assume recoveries eventually land.
                    drop: parse_flag(&args, "--drop").unwrap_or(0.0),
                    duplicate: parse_flag(&args, "--dup").unwrap_or(0.0),
                    with_reliable,
                    trace_dir,
                };
                eprintln!("chaos: reshard thread mode, {opts:?}");
                let outcome = run_reshard_chaos(opts);
                println!(
                    "chaos: reshard items_migrated={} map_epoch={} stale_bounces={} resumes={}",
                    outcome.items_migrated,
                    outcome.map_epoch,
                    outcome.stale_bounces,
                    outcome.resharder_resumes
                );
                finish(outcome, trace_out, seed);
            }
            if shards > 1 {
                let kill_name: Option<String> = parse_flag(&args, "--kill-point");
                let kill_coordinator =
                    if args.iter().any(|a| a == "--kill-coordinator") || kill_name.is_some() {
                        let name = kill_name.as_deref().unwrap_or("after-votes");
                        match CoordKillPoint::parse(name) {
                            Some(kp) => Some(kp),
                            None => {
                                eprintln!(
                                    "chaos: unknown --kill-point {name:?} \
                                 (use after-prepare, after-votes, or mid-decide)"
                                );
                                std::process::exit(2);
                            }
                        }
                    } else {
                        None
                    };
                let opts = ShardChaosOptions {
                    seed,
                    steps: parse_flag(&args, "--steps").unwrap_or(60),
                    n_groups: shards,
                    sites_per_group: parse_flag(&args, "--sites-per-group").unwrap_or(2),
                    group_db_size: parse_flag(&args, "--db-size").unwrap_or(8),
                    cross_pct: parse_flag(&args, "--cross-pct").unwrap_or(30),
                    drop,
                    duplicate: dup,
                    with_reliable,
                    kill_coordinator,
                    shard_vote_timeout_ms: parse_flag(&args, "--vote-timeout-ms"),
                    shard_redrive_interval_ms: parse_flag(&args, "--redrive-ms"),
                    trace_dir,
                };
                eprintln!("chaos: sharded thread mode, {opts:?}");
                finish(run_sharded_chaos(opts), trace_out, seed);
            }
            let opts = ChaosOptions {
                seed,
                steps: parse_flag(&args, "--steps").unwrap_or(60),
                n_sites: sites,
                db_size: parse_flag(&args, "--db-size").unwrap_or(16),
                drop,
                duplicate: dup,
                with_reliable,
                trace_dir,
            };
            eprintln!("chaos: thread mode, {opts:?}");
            finish(run_thread_chaos(opts), trace_out, seed);
        }
        "proc" => {
            // `miniraid-site` sits next to this binary in the target dir.
            let site_bin = std::env::current_exe()
                .expect("current exe")
                .with_file_name("miniraid-site");
            if !site_bin.exists() {
                eprintln!(
                    "chaos: {} not found (build with `cargo build --bin miniraid-site`)",
                    site_bin.display()
                );
                std::process::exit(2);
            }
            let durable_dir =
                std::env::temp_dir().join(format!("miniraid-chaos-{}-{seed}", std::process::id()));
            let opts = ProcChaosOptions {
                seed,
                kills: parse_flag(&args, "--kills").unwrap_or(3),
                writes_per_round: parse_flag(&args, "--writes").unwrap_or(6),
                n_sites: sites,
                db_size: parse_flag(&args, "--db-size").unwrap_or(16),
                base_port: parse_flag(&args, "--base-port")
                    .unwrap_or_else(|| 27000 + (std::process::id() % 500) as u16 * 8),
                site_bin,
                durable_dir: durable_dir.clone(),
                drop,
                duplicate: dup,
                with_reliable,
            };
            eprintln!("chaos: proc mode, {opts:?}");
            let outcome = run_process_chaos(&opts);
            let _ = std::fs::remove_dir_all(&durable_dir);
            finish(outcome, trace_out, seed);
        }
        other => {
            eprintln!("chaos: unknown mode {other:?} (use `thread` or `proc`)");
            std::process::exit(2);
        }
    }
}
