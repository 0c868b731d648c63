//! Cross-crate integration: simulator + workload generators + durable
//! storage + codec working together.

use miniraid::core::ids::SiteId;
use miniraid::core::ProtocolConfig;
use miniraid::sim::{CostModel, Manager, ProcessorModel, Routing, SimConfig, Simulation};
use miniraid::storage::{DurableStore, ItemValue};
use miniraid::txn::et1::{Et1Gen, Et1Scale};
use miniraid::txn::wisconsin::WisconsinGen;
use miniraid::txn::workload::ZipfGen;

fn sim(db_size: u32, n_sites: u8) -> Simulation {
    let protocol = ProtocolConfig {
        db_size,
        n_sites,
        ..ProtocolConfig::default()
    };
    let mut config = SimConfig::paper(protocol);
    config.cost = CostModel::zero_cpu();
    config.processor = ProcessorModel::PerSite;
    Simulation::new(config)
}

#[test]
fn et1_workload_through_failure_and_recovery_converges() {
    let scale = Et1Scale::tiny();
    let sim = sim(scale.db_size(), 3);
    let mut manager = Manager::new(sim, Et1Gen::new(42, scale));

    manager.run_many(&Routing::RoundRobinUp, 30);
    manager.sim.fail_site(SiteId(1), true);
    manager.run_many(&Routing::RoundRobinUp, 30);
    assert!(manager.sim.recover_site(SiteId(1)));
    manager.run_until(&Routing::RoundRobinUp, 2000, |sim| {
        sim.faillock_counts().iter().all(|c| *c == 0)
    });

    assert!(manager.sim.up_sites_converged());
    // All ET1 transactions are updates; no aborts besides none expected
    // here (failure was announced).
    let aborted = manager.series.iter().filter(|p| !p.committed).count();
    assert_eq!(aborted, 0);
}

#[test]
fn wisconsin_workload_runs_range_queries_over_replicas() {
    let sim = sim(1000, 2);
    let mut manager = Manager::new(sim, WisconsinGen::new(9, 1000));
    let records = manager.run_many(&Routing::RoundRobinUp, 40);
    assert!(records.iter().all(|r| r.report.outcome.is_committed()));
    // Range selections return as many results as distinct items read.
    for r in &records {
        if r.report.stats.writes == 0 {
            assert!(r.report.read_results.len() == 10 || r.report.read_results.len() == 100);
        }
    }
    assert!(manager.sim.up_sites_converged());
}

#[test]
fn zipf_workload_hot_items_survive_failures() {
    let sim = sim(100, 3);
    let mut manager = Manager::new(sim, ZipfGen::new(5, 100, 6, 0.99, 0.5));
    manager.run_many(&Routing::RoundRobinUp, 50);
    manager.sim.fail_site(SiteId(2), true);
    manager.run_many(&Routing::RoundRobinUp, 50);
    assert!(manager.sim.recover_site(SiteId(2)));
    manager.run_until(&Routing::RoundRobinUp, 3000, |sim| {
        sim.faillock_counts().iter().all(|c| *c == 0)
    });
    assert!(manager.sim.up_sites_converged());
    // Zipf skew means the hot head clears fast: after recovery item 0
    // (the hottest) must be fresh everywhere.
    for s in 0..3u8 {
        assert!(!manager
            .sim
            .engine(SiteId(s))
            .faillocks()
            .is_locked(miniraid::core::ids::ItemId(0), SiteId(s)));
    }
}

#[test]
fn committed_state_can_be_made_durable_and_recovered() {
    // Drive the replicated simulator, then persist one site's committed
    // state through the WAL-backed store and verify crash recovery
    // reproduces the same database image.
    let sim_instance = sim(20, 2);
    let mut manager = Manager::new(
        sim_instance,
        miniraid::txn::workload::UniformGen::new(3, 20, 5),
    );
    let records = manager.run_many(&Routing::RoundRobinUp, 40);

    let mut dir = std::env::temp_dir();
    dir.push(format!("miniraid-e2e-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = DurableStore::open(&dir, 20).unwrap();
        for r in &records {
            if r.report.outcome.is_committed() {
                // Reconstruct the write set from the engine's db is not
                // possible post-hoc; use the report's txn id with the
                // coordinator engine instead: replay through commits.
                let _ = r;
            }
        }
        // Persist the final replicated image (a snapshot-style commit).
        let engine_db = manager.sim.engine(SiteId(0)).db();
        let writes: Vec<(u32, ItemValue)> = engine_db.iter().collect();
        store.commit(9999, &writes).unwrap();
    } // crash
    let mut store = DurableStore::open(&dir, 20).unwrap();
    // Restart is instant: the image hydrates lazily, so force full
    // replay before digesting the recovered table.
    let mut found = store.take_recovered().unwrap();
    found.hydrate_all().unwrap();
    assert_eq!(
        found.table.digest(),
        manager.sim.engine(SiteId(0)).db().digest(),
        "durable recovery must reproduce the replicated image"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn simulator_and_threaded_cluster_agree_on_a_scripted_run() {
    use miniraid::cluster::{Cluster, ClusterTiming};
    use miniraid::core::ids::{ItemId, TxnId};
    use miniraid::core::ops::{Operation, Transaction};
    use std::time::Duration;

    let script: Vec<Transaction> = (1..=10u64)
        .map(|i| {
            Transaction::new(
                TxnId(i),
                vec![
                    Operation::Write(ItemId((i % 8) as u32), i * 10),
                    Operation::Read(ItemId(((i + 1) % 8) as u32)),
                ],
            )
        })
        .collect();

    // Simulator run.
    let mut s = sim(8, 2);
    let mut sim_reads = Vec::new();
    for txn in &script {
        let rec = s.run_txn(SiteId((txn.id.0 % 2) as u8), txn.clone());
        assert!(rec.report.outcome.is_committed());
        sim_reads.push(rec.report.read_results.clone());
    }

    // Threaded cluster run of the same script.
    let config = ProtocolConfig {
        db_size: 8,
        n_sites: 2,
        ..ProtocolConfig::default()
    };
    let (cluster, mut client) = Cluster::launch(config, ClusterTiming::default());
    let mut cluster_reads = Vec::new();
    for txn in &script {
        let report = client
            .run_txn(
                SiteId((txn.id.0 % 2) as u8),
                txn.clone(),
                Duration::from_secs(5),
            )
            .unwrap();
        assert!(report.outcome.is_committed());
        cluster_reads.push(report.read_results.clone());
    }
    client.terminate_all();
    cluster.join(Duration::from_secs(5));

    // Same engine, same script, same serial order => identical reads.
    assert_eq!(sim_reads, cluster_reads);
}
