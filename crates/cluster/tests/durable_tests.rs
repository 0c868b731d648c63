//! Durable cluster tests: committed state survives full-process
//! restarts; restarted sites rejoin through the recovery protocol.

use std::path::Path;
use std::time::Duration;

use miniraid_cluster::cluster::restore;
use miniraid_cluster::{ClusterBuilder, ClusterTiming, Launched, ManagingClient};
use miniraid_core::config::{ProtocolConfig, TwoStepRecovery};
use miniraid_core::engine::{Input, Output, SiteEngine};
use miniraid_core::ids::{ItemId, SiteId, TxnId};
use miniraid_core::messages::Command;
use miniraid_core::ops::{Operation, Transaction};
use miniraid_net::{Mailbox, Transport};
use miniraid_obs::watch::parse_site_sample;
use miniraid_storage::snapshot::Snapshot;
use miniraid_storage::{DurableStore, ItemValue, MemStore, LOG_PER_SNAPSHOT};

const WAIT: Duration = Duration::from_secs(5);

/// Generous protocol timers: these tests exercise durability and
/// restart, not failure detection, and the default 150/500 ms timeouts
/// misfire as false failure suspicions when the whole workspace's test
/// binaries compete for cores (an unscheduled site loop looks dead).
fn timing() -> ClusterTiming {
    ClusterTiming {
        ack_timeout: Duration::from_millis(600),
        commit_ack_timeout: Duration::from_millis(600),
        participant_timeout: Duration::from_millis(2000),
        copier_timeout: Duration::from_millis(600),
        read_timeout: Duration::from_millis(600),
        recovery_timeout: Duration::from_millis(400),
        ..ClusterTiming::default()
    }
}

fn config() -> ProtocolConfig {
    ProtocolConfig {
        db_size: 12,
        n_sites: 3,
        two_step_recovery: Some(TwoStepRecovery {
            threshold: 1.0,
            batch_size: 12,
        }),
        ..ProtocolConfig::default()
    }
}

/// A durable cluster under `dir` with this file's timers.
fn durable(config: ProtocolConfig, dir: &std::path::Path) -> ClusterBuilder {
    ClusterBuilder::new(config, timing()).durable(dir)
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "miniraid-durable-cluster-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn committed_writes_survive_a_full_cluster_restart() {
    let dir = tmpdir("full-restart");

    // First incarnation: commit some writes, shut down cleanly.
    {
        let Launched {
            cluster,
            mut client,
            ..
        } = durable(config(), &dir).launch().unwrap();
        for item in 0..5u32 {
            let id = client.next_txn_id();
            let report = client
                .run_txn(
                    SiteId((item % 3) as u8),
                    Transaction::new(id, vec![Operation::Write(ItemId(item), 100 + item as u64)]),
                    WAIT,
                )
                .unwrap();
            assert!(report.outcome.is_committed());
        }
        client.terminate_all();
        cluster.join(WAIT);
    }

    // Second incarnation: the bootstrap site serves immediately; the
    // others rejoin through recovery.
    {
        let Launched {
            cluster,
            mut client,
            ..
        } = durable(config(), &dir).launch().unwrap();
        // Bring the two non-bootstrap sites back. recover() on the
        // already-up bootstrap site times out harmlessly at the engine
        // level, and a site mid-rejoin can miss one fixed-size window
        // when the whole workspace's tests run in parallel — so the
        // wait is condition-based: keep retrying every site until two
        // distinct sites have rejoined, bounded only by an overall
        // deadline.
        let mut recovered = std::collections::HashSet::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while recovered.len() < 2 && std::time::Instant::now() < deadline {
            for s in 0..3u8 {
                if !recovered.contains(&s)
                    && client.recover(SiteId(s), Duration::from_secs(2)).is_ok()
                {
                    recovered.insert(s);
                }
            }
        }
        assert_eq!(
            recovered.len(),
            2,
            "two restarted sites rejoined (got {recovered:?})"
        );
        // Every site (including restarted ones) serves the durable data.
        for s in 0..3u8 {
            for item in 0..5u32 {
                let id = client.next_txn_id();
                let report = client
                    .run_txn(
                        SiteId(s),
                        Transaction::new(id, vec![Operation::Read(ItemId(item))]),
                        WAIT,
                    )
                    .unwrap();
                assert!(report.outcome.is_committed());
                assert_eq!(
                    report.read_results[0].1.data,
                    100 + item as u64,
                    "site {s} item {item}"
                );
            }
        }
        client.terminate_all();
        cluster.join(WAIT);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn instant_restart_serves_reads_during_background_replay() {
    let dir = tmpdir("instant-restart");
    let config = ProtocolConfig {
        db_size: 600,
        ..config()
    };

    // Incarnation 1: commit 600 items in 100 multi-write transactions,
    // so the REDO log holds far more items than one background
    // hydration chunk replays per loop iteration.
    {
        let Launched {
            cluster,
            mut client,
            ..
        } = durable(config.clone(), &dir).launch().unwrap();
        for k in 0..100u32 {
            let id = client.next_txn_id();
            let writes: Vec<Operation> = (0..6)
                .map(|j| {
                    let item = k * 6 + j;
                    Operation::Write(ItemId(item), 1000 + item as u64)
                })
                .collect();
            let report = client
                .run_txn(SiteId((k % 3) as u8), Transaction::new(id, writes), WAIT)
                .unwrap();
            assert!(report.outcome.is_committed());
        }
        client.terminate_all();
        cluster.join(WAIT);
    }

    // Incarnation 2: the bootstrap site is operational immediately,
    // while its WAL image is still replaying in the background. Reads
    // issued right away — in reverse commit order, so the first probes
    // target items the background sweep reaches last — must already see
    // the committed values (on-demand chain replay).
    {
        let Launched {
            cluster,
            mut client,
            ..
        } = durable(config, &dir).launch().unwrap();
        let bootstrap = (0..3u8)
            .find(|s| {
                let id = client.next_txn_id();
                client
                    .run_txn(
                        SiteId(*s),
                        Transaction::new(id, vec![Operation::Read(ItemId(599))]),
                        WAIT,
                    )
                    .is_ok_and(|r| {
                        r.outcome.is_committed() && r.read_results[0].1.data == 1000 + 599
                    })
            })
            .expect("one site bootstraps operational and serves reads instantly");
        for item in (0..599u32).rev().step_by(7) {
            let id = client.next_txn_id();
            let report = client
                .run_txn(
                    SiteId(bootstrap),
                    Transaction::new(id, vec![Operation::Read(ItemId(item))]),
                    WAIT,
                )
                .unwrap();
            assert!(report.outcome.is_committed());
            assert_eq!(
                report.read_results[0].1.data,
                1000 + item as u64,
                "item {item} read during background replay"
            );
        }
        client.terminate_all();
        cluster.join(WAIT);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restart_after_missing_commits_refreshes_via_recovery() {
    let dir = tmpdir("stale-restart");

    // Incarnation 1: write v1 everywhere, then keep writing while one
    // site is "failed" so its durable image goes stale.
    {
        let Launched {
            cluster,
            mut client,
            ..
        } = durable(config(), &dir).launch().unwrap();
        let id = client.next_txn_id();
        client
            .run_txn(
                SiteId(0),
                Transaction::new(id, vec![Operation::Write(ItemId(0), 1)]),
                WAIT,
            )
            .unwrap();
        client.fail(SiteId(2));
        // One detection abort, then a commit site 2 misses.
        for _ in 0..2 {
            let id = client.next_txn_id();
            let _ = client.run_txn(
                SiteId(0),
                Transaction::new(id, vec![Operation::Write(ItemId(0), 2)]),
                WAIT,
            );
        }
        client.terminate_all();
        cluster.join(WAIT);
    }

    // Incarnation 2: site 2's durable image still has v1; the bootstrap
    // authority (site 0 or 1, which saw txn further) serves v2, and site
    // 2's recovery + batch copiers bring it to v2.
    {
        let Launched {
            cluster,
            mut client,
            ..
        } = durable(config(), &dir).launch().unwrap();
        for s in 0..3u8 {
            let _ = client.recover(SiteId(s), Duration::from_secs(2));
        }
        // Drain data-recovery notifications so reads go to settled state.
        while client
            .wait_data_recovered(Duration::from_millis(600))
            .is_ok()
        {}
        let id = client.next_txn_id();
        let report = client
            .run_txn(
                SiteId(2),
                Transaction::new(id, vec![Operation::Read(ItemId(0))]),
                WAIT,
            )
            .unwrap();
        assert!(report.outcome.is_committed());
        assert_eq!(report.read_results[0].1.data, 2, "stale restart refreshed");
        client.terminate_all();
        cluster.join(WAIT);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_log_stays_a_few_snapshots_long_and_a_relaunch_reads_everything() {
    const ITEMS: u32 = 200;
    const WRITES: u32 = 10;
    let dir = tmpdir("bounded-log");
    let config = ProtocolConfig {
        db_size: ITEMS,
        ..config()
    };
    let mut want = vec![0u64; ITEMS as usize];

    // Incarnation 1: commit until every site has checkpointed five times.
    {
        let Launched {
            cluster,
            mut client,
            wal,
            ..
        } = durable(config.clone(), &dir).launch().unwrap();
        let mut k = 0u32;
        while wal.iter().any(|c| c.checkpoints() < 5) {
            assert!(k < 2_000, "checkpoints after {k} txns: {:?}", {
                wal.iter().map(|c| c.checkpoints()).collect::<Vec<_>>()
            });
            let id = client.next_txn_id();
            let first = k * WRITES % ITEMS;
            let writes = (first..first + WRITES)
                .map(|item| Operation::Write(ItemId(item), id.0 * 1000 + item as u64))
                .collect();
            let report = client
                .run_txn(SiteId((k % 3) as u8), Transaction::new(id, writes), WAIT)
                .unwrap();
            assert!(report.outcome.is_committed(), "txn {k}");
            for item in first..first + WRITES {
                want[item as usize] = id.0 * 1000 + item as u64;
            }
            k += 1;
        }
        client.terminate_all();
        cluster.join(WAIT);
    }

    // A serial client's drain appends at most one commit record.
    let one_drain = 8 + 17 + 28 * WRITES as u64;
    let bound = LOG_PER_SNAPSHOT * Snapshot::encoded_len(ITEMS) + one_drain;
    for s in 0..3 {
        let site = dir.join(format!("site-{s}"));
        let log = std::fs::metadata(site.join("site.redo")).unwrap().len();
        assert!(log <= bound, "site {s}: {log} log bytes > {bound}");
        assert!(
            !site.join("site.redo.prev").exists(),
            "site {s}: .prev left"
        );
    }

    // Incarnation 2: the bootstrap site reads every committed value.
    {
        let Launched {
            cluster,
            mut client,
            ..
        } = durable(config, &dir).launch().unwrap();
        let reads = |first: u32| {
            (first..first + 20)
                .map(|i| Operation::Read(ItemId(i)))
                .collect()
        };
        let bootstrap = (0..3u8)
            .find(|s| {
                let id = client.next_txn_id();
                client
                    .run_txn(SiteId(*s), Transaction::new(id, reads(0)), WAIT)
                    .is_ok_and(|r| r.outcome.is_committed())
            })
            .expect("one site bootstraps operational");
        for first in (0..ITEMS).step_by(20) {
            let id = client.next_txn_id();
            let report = client
                .run_txn(SiteId(bootstrap), Transaction::new(id, reads(first)), WAIT)
                .unwrap();
            assert!(report.outcome.is_committed());
            for (item, value) in report.read_results {
                assert_eq!(value.data, want[item.0 as usize], "item {}", item.0);
            }
        }
        client.terminate_all();
        cluster.join(WAIT);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bring `sites` back through recovery, retrying each until it rejoins:
/// a site mid-rejoin can miss one fixed-size window when the whole
/// workspace's tests run in parallel.
fn rejoin<T: Transport, M: Mailbox>(client: &mut ManagingClient<T, M>, sites: &[u8]) {
    let mut recovered = std::collections::HashSet::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while recovered.len() < sites.len() && std::time::Instant::now() < deadline {
        for &s in sites {
            if !recovered.contains(&s) && client.recover(SiteId(s), Duration::from_secs(2)).is_ok()
            {
                recovered.insert(s);
            }
        }
    }
    assert_eq!(recovered.len(), sites.len(), "rejoined: {recovered:?}");
}

#[test]
fn a_type1_install_keeps_its_faillocks_across_a_total_failure() {
    let dir = tmpdir("type1-words");
    // Copies refresh only when read, so site 2's stale copy of x is still
    // stale when every site fails.
    let config = ProtocolConfig {
        two_step_recovery: None,
        ..config()
    };
    let (x, z) = (ItemId(4), ItemId(7));
    let write = |item, value| vec![Operation::Write(item, value)];

    // Incarnation 1: sites 1 and 2 fail and x commits at site 0 without
    // them. Site 2 recovers through type-1 and learns the fail-locks of
    // sites 1 and 2 on x; then it commits z with site 0, so the two tie
    // on the last transaction and site 2, the last of them, is the
    // bootstrap authority of the relaunch.
    {
        let Launched {
            cluster,
            mut client,
            ..
        } = durable(config.clone(), &dir).launch().unwrap();
        client.fail(SiteId(1));
        client.fail(SiteId(2));
        let committed = (0..4).any(|_| {
            let id = client.next_txn_id();
            client
                .run_txn(SiteId(0), Transaction::new(id, write(x, 44)), WAIT)
                .is_ok_and(|r| r.outcome.is_committed())
        });
        assert!(committed, "x commits once site 0 has noticed the failures");
        rejoin(&mut client, &[2]);
        let id = client.next_txn_id();
        let report = client
            .run_txn(SiteId(2), Transaction::new(id, write(z, 77)), WAIT)
            .unwrap();
        assert!(report.outcome.is_committed());
        client.terminate_all();
        cluster.join(WAIT);
    }

    // Incarnation 2: site 2 restores x's fail-locks from its own log, so
    // it does not serve its stale copy, and sites 0 and 1, which adopt its
    // table through type-1, keep knowing that theirs is fresh or stale.
    {
        let Launched {
            cluster,
            mut client,
            ..
        } = durable(config, &dir).launch().unwrap();
        rejoin(&mut client, &[0, 1]);
        for s in 0..3u8 {
            let id = client.next_txn_id();
            let report = client
                .run_txn(
                    SiteId(s),
                    Transaction::new(id, vec![Operation::Read(x)]),
                    WAIT,
                )
                .unwrap();
            assert!(report.outcome.is_committed(), "site {s}: {report:?}");
            assert_eq!(report.read_results[0].1.data, 44, "site {s} reads x");
        }
        client.terminate_all();
        cluster.join(WAIT);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- the engine's table is the only table ---------------------------------

/// A lone site's engine on the store in `dir`, restored the way every
/// launcher restores one.
fn lone_site(dir: &Path, db_size: u32) -> (SiteEngine, DurableStore) {
    let mut store = DurableStore::open(dir, db_size).unwrap();
    let config = ProtocolConfig {
        db_size,
        n_sites: 1,
        emit_persistence: true,
        ..ProtocolConfig::default()
    };
    let mut engine = SiteEngine::new(SiteId(0), config);
    restore(&mut engine, &mut store);
    (engine, store)
}

/// Commit `writes` at the lone site and log what it persists, as the
/// site loop does.
fn commit(engine: &mut SiteEngine, store: &mut DurableStore, id: u64, writes: &[(u32, u64)]) {
    let ops = writes
        .iter()
        .map(|(item, value)| Operation::Write(ItemId(*item), *value))
        .collect();
    let begin = Command::Begin(Transaction::new(TxnId(id), ops));
    let mut logged = false;
    for output in engine.handle_owned(Input::Control(begin)) {
        if let Output::Persist {
            txn,
            writes,
            faillocks,
        } = output
        {
            let writes: Vec<_> = writes.iter().map(|(item, v)| (item.0, *v)).collect();
            let words: Vec<_> = faillocks.iter().map(|(item, w)| (item.0, *w)).collect();
            store.commit_with_locks(txn.0, &writes, &words).unwrap();
            logged = true;
        }
    }
    assert!(logged, "txn {id} committed");
    store.sync().unwrap();
}

/// The table a reopen of `dir` recovers, fully hydrated.
fn recovered_table(dir: &Path, db_size: u32) -> MemStore {
    let mut found = DurableStore::open(dir, db_size)
        .unwrap()
        .take_recovered()
        .unwrap();
    found.hydrate_all().unwrap();
    found.table
}

#[test]
fn a_write_to_an_item_pending_hydration_wins_over_its_logged_value() {
    let dir = tmpdir("supersede");
    {
        let (mut engine, mut store) = lone_site(&dir, 8);
        commit(&mut engine, &mut store, 1, &[(3, 30), (5, 50)]);
    }
    {
        // Instant restart: both logged items are still pending when item
        // 3 is written again, and the checkpoint comes before either
        // hydrates in the background.
        let (mut engine, mut store) = lone_site(&dir, 8);
        assert_eq!(engine.hydration_remaining(), 2);
        commit(&mut engine, &mut store, 2, &[(3, 31)]);
        assert_eq!(engine.hydration_remaining(), 1, "item 5 still pending");
        store.checkpoint(engine.checkpoint_view()).unwrap();
    }
    let table = recovered_table(&dir, 8);
    assert_eq!(
        table.get(3).unwrap(),
        ItemValue::new(31, 2),
        "the new value"
    );
    assert_eq!(table.get(5).unwrap(), ItemValue::new(50, 1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checkpoint_mid_hydration_snapshots_the_fully_hydrated_table() {
    const ITEMS: u32 = 600;
    let dir = tmpdir("mid-hydration");
    {
        let (mut engine, mut store) = lone_site(&dir, ITEMS);
        for k in 0..ITEMS / 6 {
            let writes: Vec<_> = (k * 6..k * 6 + 6).map(|i| (i, 1000 + i as u64)).collect();
            commit(&mut engine, &mut store, k as u64 + 1, &writes);
        }
    }
    let (mut engine, mut store) = lone_site(&dir, ITEMS);
    assert_eq!(engine.hydration_remaining(), ITEMS);
    engine.hydrate_step(ITEMS / 3);
    assert!(engine.hydration_remaining() > 0, "mid-hydration");
    store.checkpoint(engine.checkpoint_view()).unwrap();
    engine.hydrate_step(ITEMS);
    assert_eq!(engine.hydration_remaining(), 0);
    let snapshot = Snapshot::read_from(&dir.join("site.snap"))
        .unwrap()
        .unwrap();
    assert_eq!(
        &snapshot.store,
        engine.db(),
        "the snapshot is the hydrated table"
    );
    drop(store);
    assert_eq!(&recovered_table(&dir, ITEMS), engine.db());
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- one restore path ------------------------------------------------------

/// Give `sites` stores under `dir` a session and fail-lock words but no
/// commit: site `i`'s copies of items 1 and 2 are stale.
fn log_protocol_state_only(dir: &Path, sites: u8) {
    for i in 0..sites {
        let mut store = DurableStore::open(&dir.join(format!("site-{i}")), 12).unwrap();
        store.log_session(5).unwrap();
        store
            .log_faillocks(&[(1, 1 << i), (2, 1 << i), (3, 0)])
            .unwrap();
    }
}

/// Scrape `site` and check it restored the session and both words.
fn assert_restored<T: Transport, M: Mailbox>(client: &mut ManagingClient<T, M>, site: u8) {
    let text = client.fetch_metrics(SiteId(site), WAIT).unwrap();
    let sample = parse_site_sample(site, &text);
    assert_eq!(
        (sample.session, sample.stale),
        (5, 2),
        "site {site}: session and own fail-locked copies"
    );
}

#[test]
fn the_builder_restores_a_session_and_faillocks_without_a_commit() {
    let dir = tmpdir("restore-builder");
    log_protocol_state_only(&dir, 3);
    let Launched {
        cluster,
        mut client,
        ..
    } = durable(config(), &dir).launch().unwrap();
    for s in 0..3 {
        assert_restored(&mut client, s);
    }
    client.terminate_all();
    cluster.join(WAIT);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_site_process_restores_a_session_and_faillocks_without_a_commit() {
    use miniraid_net::tcp::{AddressPlan, TcpEndpoint};

    let dir = tmpdir("restore-process");
    log_protocol_state_only(&dir, 1);
    let base_port = 36000 + (std::process::id() % 500) as u16 * 4;
    let mut site = Reap(
        std::process::Command::new(env!("CARGO_BIN_EXE_miniraid-site"))
            .args(["0", "1", &base_port.to_string(), "12"])
            .arg(&dir)
            .spawn()
            .expect("spawn site process"),
    );
    let (transport, mailbox) =
        TcpEndpoint::bind(SiteId(1), AddressPlan { base_port }).expect("bind manager");
    let mut client = ManagingClient::new(transport, mailbox, 1);
    // The process binds its port after opening the store; retry until
    // it answers.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client
        .fetch_metrics(SiteId(0), Duration::from_millis(200))
        .is_err()
    {
        assert!(std::time::Instant::now() < deadline, "site never answered");
    }
    assert_restored(&mut client, 0);
    client.terminate_all();
    let _ = site.0.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reaps a site process however the test ends.
struct Reap(std::process::Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}
