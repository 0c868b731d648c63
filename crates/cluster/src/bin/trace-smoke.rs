//! Trace smoke test: run a short 3-site cluster scenario with JSONL
//! tracing enabled, then validate that every emitted line parses back
//! under the trace schema and that the analyzer produces a report.
//!
//! ```text
//! trace-smoke [trace_dir]            # default: target/trace-smoke
//! trace-smoke --sharded [trace_dir]  # default: target/trace-smoke-sharded
//! ```
//!
//! `--sharded` runs a 2-group × 2-site topology with causal tracing,
//! WAL-backed durability and the reliable layer, drives cross-shard
//! transactions around a mid-run site kill/recover (annotated into the
//! client's trace stream), then reassembles the traces into span trees
//! and asserts a committed cross-shard transaction shows the client's
//! 2PC milestones, branch work on both groups, and a covering WAL
//! fsync — all from one JSONL stream set.
//!
//! Exits non-zero if any trace line fails to parse or no commits were
//! traced. CI runs this and uploads the trace directory as an artifact.

use std::time::Duration;

use miniraid_cluster::{Cluster, ClusterBuilder, ClusterTiming, Launched, Tracing};
use miniraid_core::config::ProtocolConfig;
use miniraid_core::ids::{ItemId, SiteId};
use miniraid_core::messages::TxnOutcome;
use miniraid_core::ops::{Operation, Transaction};

const WAIT: Duration = Duration::from_secs(10);

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sharded = args.iter().any(|a| a == "--sharded");
    args.retain(|a| a != "--sharded");
    if sharded {
        let dir = args
            .first()
            .cloned()
            .unwrap_or_else(|| "target/trace-smoke-sharded".to_string());
        sharded_smoke(std::path::PathBuf::from(dir));
        return;
    }
    let dir = args
        .first()
        .cloned()
        .unwrap_or_else(|| "target/trace-smoke".to_string());
    let dir = std::path::PathBuf::from(dir);

    let config = ProtocolConfig {
        n_sites: 3,
        db_size: 20,
        max_inflight: 4,
        ..ProtocolConfig::default()
    };
    let (cluster, mut client, hubs) =
        Cluster::launch_observed(config, ClusterTiming::default(), Some(&dir))
            .expect("launch observed cluster");

    // Phase 1: all sites up.
    let mut committed = 0u64;
    for i in 0..20u64 {
        let txn = Transaction::new(
            client.next_txn_id(),
            vec![
                Operation::Read(ItemId((i % 20) as u32)),
                Operation::Write(ItemId(((i + 3) % 20) as u32), i),
            ],
        );
        let report = client
            .run_txn(SiteId((i % 3) as u8), txn, WAIT)
            .expect("transaction report");
        if report.outcome == TxnOutcome::Committed {
            committed += 1;
        }
    }

    // Phase 2: fail site 2, keep updating so fail-locks accumulate, then
    // recover it (type-1 control transaction + copier refresh).
    client.fail(SiteId(2));
    for i in 0..10u64 {
        let txn = Transaction::new(
            client.next_txn_id(),
            vec![Operation::Write(ItemId((i % 20) as u32), 1000 + i)],
        );
        let report = client
            .run_txn(SiteId((i % 2) as u8), txn, WAIT)
            .expect("transaction report");
        if report.outcome == TxnOutcome::Committed {
            committed += 1;
        }
    }
    let session = client.recover(SiteId(2), WAIT).expect("recovery");
    eprintln!("site 2 recovered in session {session}");

    // Phase 3: a few more transactions after recovery.
    for i in 0..10u64 {
        let txn = Transaction::new(
            client.next_txn_id(),
            vec![
                Operation::Read(ItemId((i % 20) as u32)),
                Operation::Write(ItemId((i % 20) as u32), 2000 + i),
            ],
        );
        let report = client
            .run_txn(SiteId((i % 3) as u8), txn, WAIT)
            .expect("transaction report");
        if report.outcome == TxnOutcome::Committed {
            committed += 1;
        }
    }

    client.terminate_all();
    cluster.join(Duration::from_secs(5));
    drop(hubs);

    // Validate: every line of every site's trace parses under the schema.
    let mut total_events = 0u64;
    let mut all_events = Vec::new();
    for i in 0..3 {
        let path = dir.join(format!("site-{i}.jsonl"));
        let events = miniraid_obs::read_trace(&path)
            .unwrap_or_else(|e| panic!("trace validation failed: {e}"));
        eprintln!(
            "site {i}: {} events parsed from {}",
            events.len(),
            path.display()
        );
        total_events += events.len() as u64;
        all_events.extend(events);
    }

    let analysis = miniraid_obs::analyze(&all_events);
    print!("{}", miniraid_obs::render_report(&analysis));

    let traced_commits = analysis
        .event_counts
        .get("commit")
        .copied()
        .unwrap_or_default();
    assert!(committed > 0, "no transactions committed");
    assert_eq!(
        traced_commits, committed,
        "trace commit count must match reported commits"
    );
    assert!(
        analysis.event_counts.contains_key("faillocks_set"),
        "failure phase must set fail-locks"
    );
    assert!(
        analysis.event_counts.contains_key("control"),
        "recovery must run a control transaction"
    );
    eprintln!(
        "trace-smoke OK: {total_events} events, {committed} commits, traces in {}",
        dir.display()
    );
}

/// Cross-shard traced scenario: 2 groups × 2 sites, reliable layer and
/// WAL durability under `<dir>/wal`, causal tracing into `<dir>`.
/// Validates the whole observability plane end to end: the client's
/// cross-shard 2PC, both groups' branch work, the covering WAL fsync
/// and the chaos kill/recover annotations all reassemble from one set
/// of JSONL streams.
fn sharded_smoke(dir: std::path::PathBuf) {
    use miniraid_core::trace::{ChaosAction, EventKind};
    use miniraid_net::fault::FaultPlan;
    use miniraid_shard::ShardSpec;

    let _ = std::fs::remove_dir_all(&dir);

    let spec = ShardSpec::new(2, 2, 10);
    let config = ProtocolConfig {
        max_inflight: 4,
        ..ProtocolConfig::default()
    };
    let Launched {
        cluster,
        mut client,
        ..
    } = ClusterBuilder::new(config, ClusterTiming::default())
        .topology(spec)
        .faults(FaultPlan::none(7), true)
        .durable(&dir.join("wal"))
        .tracing(Tracing::Observed(Some(dir.clone())))
        .launch()
        .expect("launch sharded cluster");

    let run_cross = |client: &mut miniraid_cluster::ShardedClient<_, _>, i: u64| -> bool {
        // Items 2k and 2k+1 live in groups 0 and 1 respectively, so
        // every one of these transactions is cross-shard.
        let a = ItemId(((i * 2) % 20) as u32);
        let b = ItemId(((i * 2 + 1) % 20) as u32);
        let txn = Transaction::new(
            client.next_txn_id(),
            vec![Operation::Write(a, i), Operation::Write(b, 100 + i)],
        );
        let report = client.run_txn(txn, WAIT).expect("cross-shard report");
        report.committed()
    };

    let mut committed = 0u64;
    for i in 0..6 {
        committed += run_cross(&mut client, i) as u64;
    }

    // Kill group 0's second member mid-run, annotating the schedule into
    // the client's trace stream, and keep committing cross-shard work
    // while the group runs degraded.
    let victim = SiteId(1);
    client.tracer().emit_traced(
        None,
        0,
        EventKind::Chaos {
            action: ChaosAction::Kill,
            target: victim,
        },
    );
    client.fail(victim);
    for i in 6..12 {
        committed += run_cross(&mut client, i) as u64;
    }
    client.tracer().emit_traced(
        None,
        0,
        EventKind::Chaos {
            action: ChaosAction::Recover,
            target: victim,
        },
    );
    let session = client.recover(victim, WAIT).expect("sharded recovery");
    eprintln!("site {} recovered in session {session}", victim.0);
    for i in 12..16 {
        committed += run_cross(&mut client, i) as u64;
    }

    client.terminate_all();
    cluster.join(Duration::from_secs(5));
    // The client's JSONL sink buffers; only dropping the client flushes
    // its tail. Reading `client.jsonl` before this point silently loses
    // whatever sits past the last full buffer chunk.
    drop(client);
    assert!(committed > 0, "no cross-shard transactions committed");

    // Sharded engines run under group-local site ids (each group has its
    // own SiteId(0)); `read_trace_dir` re-stamps each stream with the
    // physical id from its file name before reassembly, so the two
    // groups' participants don't collapse onto each other in the span
    // tree.
    let all_events = miniraid_obs::read_trace_dir(&dir)
        .unwrap_or_else(|e| panic!("trace validation failed: {e}"));
    eprintln!(
        "{} events parsed from {} streams in {}",
        all_events.len(),
        spec.n_physical_sites() + 1,
        dir.display()
    );

    // The chaos schedule annotations landed in the same stream set.
    let kills = all_events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Chaos {
                    action: ChaosAction::Kill,
                    ..
                }
            )
        })
        .count();
    let recovers = all_events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Chaos {
                    action: ChaosAction::Recover,
                    ..
                }
            )
        })
        .count();
    assert!(kills > 0, "chaos kill annotation missing from trace stream");
    assert!(
        recovers > 0,
        "chaos recover annotation missing from trace stream"
    );

    let spans = miniraid_obs::assemble_spans(&all_events);
    print!("{}", miniraid_obs::render_spans(&spans));
    assert!(!spans.is_empty(), "no traced transactions reassembled");

    // At least one committed cross-shard trace must show the full
    // causal picture: client 2PC milestones, branch participants from
    // BOTH groups, and a covering WAL fsync.
    let full = spans.iter().find(|t| {
        if !t.committed {
            return false;
        }
        let client_ok = t.root.children.iter().any(|c| {
            c.label == "client"
                && c.events.iter().any(|e| e.starts_with("x_begin"))
                && c.events.iter().any(|e| e.starts_with("x_decide(commit)"))
        });
        let mut groups = std::collections::BTreeSet::new();
        let mut fsync = false;
        for branch in t
            .root
            .children
            .iter()
            .filter(|c| c.label.starts_with("branch"))
        {
            for site in &branch.children {
                let id: u8 = site
                    .label
                    .strip_prefix("site ")
                    .and_then(|s| s.parse().ok())
                    .expect("site label");
                groups.insert(spec.local_site(SiteId(id)).0);
                fsync |= site.events.iter().any(|e| e.starts_with("wal_fsync"));
            }
        }
        client_ok && groups.len() == 2 && fsync
    });
    let full = full.expect(
        "no committed trace with client 2PC, branches on both groups, and a covering wal_fsync",
    );
    eprintln!(
        "sharded trace-smoke OK: {committed} cross-shard commits, trace {:#x} spans {} txns across both groups, traces in {}",
        full.trace,
        full.txns.len(),
        dir.display()
    );
}
