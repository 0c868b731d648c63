//! Acceptance tests for the robustness stack: the reliable session layer
//! must make a lossy 4-site cluster behave exactly like a fault-free one
//! through a full fail/recover scenario — and the same scenario without
//! the layer must demonstrably fail (the negative control), because the
//! paper's protocol assumes reliable ordered delivery (§1.2 assumption 1).

use std::time::Duration;

use miniraid_cluster::control::ManagingClient;
use miniraid_cluster::{ClusterBuilder, ClusterTiming, Launched};
use miniraid_core::config::ProtocolConfig;
use miniraid_core::ids::{ItemId, SiteId, TxnId};
use miniraid_core::ops::{Operation, Transaction};
use miniraid_net::fault::FaultPlan;
use miniraid_net::{Mailbox, Transport};

const WAIT: Duration = Duration::from_secs(3);
const DB_SIZE: u32 = 12;
const N_SITES: u8 = 4;

/// Generous protocol timers: with 10% loss the reliable layer needs a
/// few 30 ms retransmission rounds before a 2PC step completes, and the
/// scenario requires every write to commit so the two runs stay
/// txn-id-aligned.
fn timing() -> ClusterTiming {
    ClusterTiming {
        ack_timeout: Duration::from_millis(400),
        commit_ack_timeout: Duration::from_millis(400),
        participant_timeout: Duration::from_millis(1500),
        copier_timeout: Duration::from_millis(400),
        read_timeout: Duration::from_millis(400),
        recovery_timeout: Duration::from_millis(600),
        batch_copier_delay: Duration::from_millis(10),
    }
}

struct ScenarioResult {
    /// Every write committed, the recovery succeeded, and all four
    /// sites returned identical full-database reads.
    clean: bool,
    /// First deviation observed, for the failure message.
    detail: String,
    /// The converged database image `(item, version, data)` — from the
    /// first site whose read committed.
    db: Vec<(u32, u64, u64)>,
}

fn write<T: Transport, M: Mailbox>(
    client: &mut ManagingClient<T, M>,
    site: u8,
    item: u32,
    data: u64,
) -> (TxnId, bool) {
    let id = client.next_txn_id();
    let committed = client
        .run_txn(
            SiteId(site),
            Transaction::new(id, vec![Operation::Write(ItemId(item), data)]),
            WAIT,
        )
        .map(|r| r.outcome.is_committed())
        .unwrap_or(false);
    (id, committed)
}

/// The fixed scenario: a burst of writes, a site failure (with the
/// protocol's detection abort), writes that fail-lock the down site's
/// copies, recovery, more writes, then a full-database read through
/// every site. Deterministic in its txn-id sequence as long as every
/// write behaves like the fault-free run.
fn run_scenario(drop: f64, duplicate: f64, with_reliable: bool) -> ScenarioResult {
    let config = ProtocolConfig {
        db_size: DB_SIZE,
        n_sites: N_SITES,
        ..ProtocolConfig::default()
    };
    let plan = FaultPlan {
        seed: 7,
        drop,
        duplicate,
        delay: 0.0,
        max_delay: Duration::ZERO,
    };
    let Launched {
        cluster,
        mut client,
        ..
    } = ClusterBuilder::new(config, timing())
        .faults(plan, with_reliable)
        .launch()
        .unwrap();

    let mut clean = true;
    let mut detail = String::new();
    let flag = |clean: &mut bool, detail: &mut String, msg: String| {
        if *clean {
            *detail = msg;
        }
        *clean = false;
    };

    // Phase A: eight writes spread over all four coordinators.
    for i in 0..8u32 {
        let site = (i % N_SITES as u32) as u8;
        let (id, committed) = write(&mut client, site, i % DB_SIZE, 100 + i as u64);
        if !committed {
            flag(
                &mut clean,
                &mut detail,
                format!("phase A write txn {} aborted", id.0),
            );
        }
    }

    // Site 2 fails. The next write detects it (the protocol's timeout
    // abort) — expected in the fault-free run too.
    client.fail(SiteId(2));
    let (_, committed) = write(&mut client, 0, 2, 555);
    if committed {
        flag(
            &mut clean,
            &mut detail,
            "detection write committed (failure not detected)".into(),
        );
    }

    // Phase B: six writes among the survivors; these set fail-locks on
    // site 2's copies.
    for i in 0..6u32 {
        let site = [0u8, 1, 3][(i % 3) as usize];
        let (id, committed) = write(&mut client, site, (2 + i) % DB_SIZE, 200 + i as u64);
        if !committed {
            flag(
                &mut clean,
                &mut detail,
                format!("phase B write txn {} aborted", id.0),
            );
        }
    }

    // Recover site 2: the type-1 control transaction re-integrates it and
    // copier refreshes clear its fail-locks.
    if let Err(e) = client.recover(SiteId(2), WAIT) {
        flag(&mut clean, &mut detail, format!("recovery failed: {e}"));
    }

    // Phase C: four writes with everyone back.
    for i in 0..4u32 {
        let site = (i % N_SITES as u32) as u8;
        let (id, committed) = write(&mut client, site, (6 + i) % DB_SIZE, 300 + i as u64);
        if !committed {
            flag(
                &mut clean,
                &mut detail,
                format!("phase C write txn {} aborted", id.0),
            );
        }
    }

    // Full-database read through every site; all must agree.
    let all_items: Vec<Operation> = (0..DB_SIZE).map(|i| Operation::Read(ItemId(i))).collect();
    let mut db: Vec<(u32, u64, u64)> = Vec::new();
    for site in 0..N_SITES {
        let id = client.next_txn_id();
        match client.run_txn(SiteId(site), Transaction::new(id, all_items.clone()), WAIT) {
            Ok(r) if r.outcome.is_committed() => {
                let image: Vec<(u32, u64, u64)> = r
                    .read_results
                    .iter()
                    .map(|(item, v)| (item.0, v.version, v.data))
                    .collect();
                if db.is_empty() {
                    db = image;
                } else if db != image {
                    flag(
                        &mut clean,
                        &mut detail,
                        format!("site {site} diverged: {image:?} != {db:?}"),
                    );
                }
            }
            other => {
                flag(
                    &mut clean,
                    &mut detail,
                    format!("full read at site {site} failed: {other:?}"),
                );
            }
        }
    }

    client.terminate_all();
    cluster.join(WAIT);
    ScenarioResult { clean, detail, db }
}

/// Acceptance: with 10% drop + 5% duplication under the reliable layer,
/// the scenario commits everything and converges to the *identical*
/// final database as the fault-free control run.
#[test]
fn lossy_reliable_run_matches_fault_free_run() {
    let fault_free = run_scenario(0.0, 0.0, true);
    assert!(
        fault_free.clean,
        "fault-free control run deviated: {}",
        fault_free.detail
    );

    let lossy = run_scenario(0.10, 0.05, true);
    assert!(
        lossy.clean,
        "lossy run with reliable layer deviated: {}",
        lossy.detail
    );
    assert_eq!(
        lossy.db, fault_free.db,
        "final database differs from the fault-free run"
    );
}

/// Negative control: the same lossy schedule WITHOUT the reliable layer
/// must fail — lost/duplicated frames break commits, recovery, or
/// convergence, which is exactly the gap the session layer closes.
#[test]
fn lossy_run_without_reliable_layer_fails() {
    let lossy = run_scenario(0.10, 0.05, false);
    assert!(
        !lossy.clean,
        "expected the raw lossy run to violate the scenario, but it ran clean"
    );
}

/// Smoke test for the sharded chaos mode (`chaos thread --shards 2`):
/// a seeded randomized schedule against two replication groups under
/// lossy links, with single- and cross-shard traffic, must hold every
/// invariant — per-group convergence, no lost committed write, and
/// cross-shard atomicity (no globally aborted transaction's version on
/// any item).
#[test]
fn sharded_chaos_run_holds_invariants() {
    let outcome = miniraid_cluster::run_sharded_chaos(miniraid_cluster::ShardChaosOptions {
        seed: 5,
        steps: 40,
        ..Default::default()
    });
    assert!(
        outcome.passed(),
        "sharded chaos violations: {:?}\ntrace tail: {:?}",
        outcome.violations,
        outcome.trace.iter().rev().take(20).collect::<Vec<_>>()
    );
    assert!(
        outcome.committed_writes > 0,
        "schedule committed nothing — not a meaningful run"
    );
}

/// The tentpole scenario of the decision-log work: the cross-shard
/// coordinator is repeatedly killed *between prepare and decide*
/// (`after-votes` — the classic 2PC blocking window) and a successor
/// must take over from the replicated decision log. Atomicity and
/// convergence must hold, no transaction may stay in doubt, and the
/// run must actually have exercised takeovers.
#[test]
fn sharded_chaos_survives_coordinator_kills() {
    let outcome = miniraid_cluster::run_sharded_chaos(miniraid_cluster::ShardChaosOptions {
        seed: 5,
        steps: 30,
        kill_coordinator: Some(miniraid_cluster::CoordKillPoint::AfterVotes),
        ..Default::default()
    });
    assert!(
        outcome.passed(),
        "coordinator-kill chaos violations: {:?}\ntrace tail: {:?}",
        outcome.violations,
        outcome.trace.iter().rev().take(20).collect::<Vec<_>>()
    );
    let crashed = outcome
        .trace
        .iter()
        .any(|l| l.contains("\"observed\":\"coordinator_crash\""));
    assert!(
        crashed,
        "schedule never killed the coordinator — not a meaningful run"
    );
    let summary = outcome.trace.last().expect("summary line");
    assert!(
        !summary.contains("\"takeovers\":0,"),
        "coordinator died but no takeover ran: {summary}"
    );
}
