//! End-to-end tests of the threaded cluster: real threads, real
//! transports, the full failure/recovery protocol.

use std::time::Duration;

use miniraid_cluster::{Cluster, ClusterTiming};
use miniraid_core::config::{ProtocolConfig, TwoStepRecovery};
use miniraid_core::ids::{ItemId, SiteId};
use miniraid_core::ops::{Operation, Transaction};

const WAIT: Duration = Duration::from_secs(5);

fn config(n_sites: u8) -> ProtocolConfig {
    ProtocolConfig {
        db_size: 20,
        n_sites,
        ..ProtocolConfig::default()
    }
}

#[test]
fn commit_and_read_across_threaded_sites() {
    let (cluster, mut client) = Cluster::launch(config(3), ClusterTiming::default());
    let id = client.next_txn_id();
    let report = client
        .run_txn(
            SiteId(0),
            Transaction::new(id, vec![Operation::Write(ItemId(4), 99)]),
            WAIT,
        )
        .unwrap();
    assert!(report.outcome.is_committed());

    // Read it back from a different coordinator.
    let id = client.next_txn_id();
    let report = client
        .run_txn(
            SiteId(2),
            Transaction::new(id, vec![Operation::Read(ItemId(4))]),
            WAIT,
        )
        .unwrap();
    assert!(report.outcome.is_committed());
    assert_eq!(report.read_results[0].1.data, 99);

    client.terminate_all();
    cluster.join(WAIT);
}

#[test]
fn failure_recovery_and_copier_on_threads() {
    let mut cfg = config(2);
    cfg.two_step_recovery = Some(TwoStepRecovery {
        threshold: 1.0,
        batch_size: 20,
    });
    let (cluster, mut client) = Cluster::launch(cfg, ClusterTiming::default());

    client.fail(SiteId(0));
    // First write detects the failure (abort), second commits.
    let id = client.next_txn_id();
    let r1 = client
        .run_txn(
            SiteId(1),
            Transaction::new(id, vec![Operation::Write(ItemId(1), 7)]),
            WAIT,
        )
        .unwrap();
    assert!(!r1.outcome.is_committed());
    let id = client.next_txn_id();
    let r2 = client
        .run_txn(
            SiteId(1),
            Transaction::new(id, vec![Operation::Write(ItemId(1), 7)]),
            WAIT,
        )
        .unwrap();
    assert!(r2.outcome.is_committed());
    assert_eq!(r2.stats.faillocks_set, 1, "site 0 missed the update");

    // Recover site 0: type-1 control transaction, then batch copiers
    // refresh everything.
    let session = client.recover(SiteId(0), WAIT).unwrap();
    assert_eq!(session.0, 2);
    client.wait_data_recovered(WAIT).unwrap();

    // Site 0 now serves the refreshed item.
    let id = client.next_txn_id();
    let r3 = client
        .run_txn(
            SiteId(0),
            Transaction::new(id, vec![Operation::Read(ItemId(1))]),
            WAIT,
        )
        .unwrap();
    assert!(r3.outcome.is_committed());
    assert_eq!(r3.read_results[0].1.data, 7);
    assert_eq!(r3.stats.copier_requests, 0, "already refreshed in batch");

    client.terminate_all();
    cluster.join(WAIT);
}

#[test]
fn on_demand_copier_over_threads() {
    let (cluster, mut client) = Cluster::launch(config(2), ClusterTiming::default());

    client.fail(SiteId(0));
    for _ in 0..2 {
        let id = client.next_txn_id();
        let _ = client.run_txn(
            SiteId(1),
            Transaction::new(id, vec![Operation::Write(ItemId(3), 42)]),
            WAIT,
        );
    }
    client.recover(SiteId(0), WAIT).unwrap();
    // No batch mode configured: the stale read triggers a copier.
    let id = client.next_txn_id();
    let report = client
        .run_txn(
            SiteId(0),
            Transaction::new(id, vec![Operation::Read(ItemId(3))]),
            WAIT,
        )
        .unwrap();
    assert!(report.outcome.is_committed());
    assert_eq!(report.stats.copier_requests, 1);
    assert_eq!(report.read_results[0].1.data, 42);

    client.terminate_all();
    cluster.join(WAIT);
}

#[test]
fn tcp_cluster_commits() {
    let base_port = 24000 + (std::process::id() % 1000) as u16;
    let (cluster, mut client) =
        Cluster::launch_tcp(config(2), ClusterTiming::default(), base_port).unwrap();
    let id = client.next_txn_id();
    let report = client
        .run_txn(
            SiteId(1),
            Transaction::new(
                id,
                vec![Operation::Write(ItemId(0), 5), Operation::Read(ItemId(0))],
            ),
            WAIT,
        )
        .unwrap();
    assert!(report.outcome.is_committed());
    client.terminate_all();
    cluster.join(WAIT);
}

/// The value of series `name` in a site's exposition text.
fn series(text: &str, name: &str) -> u64 {
    let line = text
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with('{'))
        .unwrap_or_else(|| panic!("{name} not exposed"));
    line.rsplit_once(' ').unwrap().1.parse().unwrap()
}

/// The site loop's timer queues hold about the waits in flight, however
/// many timers were armed, and still fire the one that matters on time.
#[test]
fn dead_timers_are_dropped_and_live_ones_fire_on_time() {
    use miniraid_core::error::AbortReason;
    use miniraid_core::messages::TxnOutcome;
    use std::time::Instant;

    const N_SITES: u8 = 3;
    const MAX_INFLIGHT: usize = 8;
    const CLIENTS: usize = 16;
    let timeout = Duration::from_millis(300);
    let timing = ClusterTiming {
        ack_timeout: timeout,
        commit_ack_timeout: timeout,
        // A participant must outwait its coordinator (see `ClusterTiming`).
        participant_timeout: 2 * timeout,
        copier_timeout: timeout,
        read_timeout: timeout,
        recovery_timeout: timeout,
        batch_copier_delay: Duration::from_millis(1),
    };
    let cfg = ProtocolConfig {
        max_inflight: MAX_INFLIGHT,
        two_step_recovery: Some(TwoStepRecovery {
            threshold: 1.0,
            batch_size: 20,
        }),
        ..config(N_SITES)
    };
    let db_size = cfg.db_size;
    let (cluster, mut client) = Cluster::launch(cfg, timing);

    // Closed loop of update transactions (every one a full 2PC round, so
    // every one arms four timers), `CLIENTS` outstanding, coordinators in
    // turn among `sites`.
    type Client = miniraid_cluster::ManagingClient<
        miniraid_net::ChannelTransport,
        miniraid_net::ChannelMailbox,
    >;
    let submit = |client: &mut Client, sites: &[u8]| {
        let id = client.next_txn_id();
        let item = |k: u64| ItemId(((id.0 * 7 + k * 3) % db_size as u64) as u32);
        let ops = vec![
            Operation::Write(item(0), id.0),
            Operation::Write(item(1), id.0),
        ];
        let site = SiteId(sites[id.0 as usize % sites.len()]);
        client.submit_txn(site, Transaction::new(id, ops));
    };
    let all = [0u8, 1, 2];
    for _ in 0..CLIENTS {
        submit(&mut client, &all);
    }
    // 1.5 s is five coordinator-timeout lifetimes: the timers of most of
    // the run have come due by the end, dead.
    let start = Instant::now();
    let mut committed = 0usize;
    while start.elapsed() < 5 * timeout {
        for report in client.drain_reports() {
            assert!(report.outcome.is_committed(), "{:?}", report.outcome);
            committed += 1;
            submit(&mut client, &all);
        }
        std::thread::yield_now();
    }
    assert!(committed > 100, "load ran: {committed} commits");
    // Scraped under load: the queues hold live waits (at most four per
    // in-flight transaction a site coordinates or takes part in), not
    // the timers of 1.5 s of commits.
    for s in 0..N_SITES {
        let text = client.fetch_metrics(SiteId(s), WAIT).unwrap();
        let pending = series(&text, "miniraid_timers_pending");
        let dropped = series(&text, "miniraid_timers_dropped_dead_total");
        assert!(
            pending <= 4 * MAX_INFLIGHT as u64 * N_SITES as u64,
            "site {s}: {pending} timers pending after {committed} commits"
        );
        assert!(dropped > 0, "site {s} dropped no dead timer");
        assert!(
            !text.contains("miniraid_tcp_"),
            "a channel site has no sockets"
        );
    }

    // Fail site 2 under the same load. Every outstanding transaction
    // needs its ack, so nothing finishes until a survivor's timeout
    // excludes it: the first abort that blames a participant marks that
    // moment. (A timer armed just before `failed_at` may fire that much
    // before `failed_at + timeout`, hence the slack below.)
    let failed_at = Instant::now();
    client.fail(SiteId(2));
    let survivors = [0u8, 1];
    let mut excluded_after = None;
    while excluded_after.is_none() {
        assert!(failed_at.elapsed() < WAIT, "the failure was never detected");
        for report in client.drain_reports() {
            if report.outcome == TxnOutcome::Aborted(AbortReason::ParticipantFailed) {
                excluded_after.get_or_insert(failed_at.elapsed());
            }
            if report.coordinator != SiteId(2) {
                submit(&mut client, &survivors);
            }
        }
        std::thread::yield_now();
    }
    let excluded_after = excluded_after.unwrap();
    assert!(
        excluded_after >= timeout - Duration::from_millis(10),
        "excluded after {excluded_after:?}, before the {timeout:?} timeout"
    );
    assert!(
        excluded_after <= timeout + Duration::from_millis(100),
        "excluded after {excluded_after:?}, long after the {timeout:?} timeout"
    );

    // Let the survivors' load run out (and their participant timeouts for
    // what site 2 was coordinating fire), bring site 2 back, and check
    // that the run converged: every copy of every item readable and equal.
    let quiet = Instant::now();
    while quiet.elapsed() < 2 * timeout {
        if !client.drain_reports().is_empty() {
            continue;
        }
        std::thread::yield_now();
    }
    // A survivor that had prepared a transaction site 2 coordinated
    // cannot know its outcome and marks its own copy suspect; where both
    // did, only a later write makes the item readable again. Write them
    // all once, as continued load would.
    for item in 0..db_size {
        let id = client.next_txn_id();
        let write = Transaction::new(id, vec![Operation::Write(ItemId(item), id.0)]);
        let report = client.run_txn(SiteId(0), write, WAIT).unwrap();
        assert!(report.outcome.is_committed(), "{:?}", report.outcome);
    }
    client.recover(SiteId(2), WAIT).unwrap();
    client.wait_data_recovered(WAIT).unwrap();
    for item in 0..db_size {
        let mut copies = Vec::new();
        for s in 0..N_SITES {
            let id = client.next_txn_id();
            let read = Transaction::new(id, vec![Operation::Read(ItemId(item))]);
            let report = client.run_txn(SiteId(s), read, WAIT).unwrap();
            assert!(report.outcome.is_committed());
            copies.push(report.read_results[0].1);
        }
        assert!(
            copies.iter().all(|c| *c == copies[0]),
            "item {item}: {copies:?}"
        );
    }

    client.terminate_all();
    cluster.join(WAIT);
}
