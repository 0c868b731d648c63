//! Deterministic tests for the pipelined (multi-transaction) engine:
//! conflict-serializable histories under `max_inflight > 1`, and the
//! convergence invariant across failure/recovery schedules.
//!
//! The engines are driven by a hand-rolled deterministic pump: messages
//! flow through one global FIFO queue; timers fire (in armed order)
//! only when no message can make progress, which is exactly the
//! quiescent moment a timeout models.

use std::collections::VecDeque;

use miniraid::core::config::ProtocolConfig;
use miniraid::core::engine::{Input, Output, SiteEngine, TimerId};
use miniraid::core::ids::{ItemId, SiteId, TxnId};
use miniraid::core::messages::{Command, TxnReport};
use miniraid::core::ops::{Operation, Transaction};
use miniraid::core::session::SiteStatus;
use miniraid::txn::history::{HistoryOp, PrecedenceGraph};
use proptest::prelude::*;

struct Pump {
    engines: Vec<SiteEngine>,
    queue: VecDeque<(SiteId, Input)>,
    timers: VecDeque<(SiteId, TimerId)>,
    /// Every timer any engine ever armed, fired or not (see `input`).
    armed: Vec<(SiteId, TimerId)>,
    reports: Vec<TxnReport>,
    /// Per-site apply history: one `HistoryOp` per persisted write, in
    /// the order the site applied them.
    histories: Vec<Vec<HistoryOp>>,
}

impl Pump {
    fn new(config: ProtocolConfig) -> Self {
        let n = config.n_sites;
        let mut config = config;
        // Persist outputs are this harness's observation channel: each
        // one is an atomic application of a transaction's (fresher)
        // writes at one site.
        config.emit_persistence = true;
        let engines = (0..n)
            .map(|i| SiteEngine::new(SiteId(i), config.clone()))
            .collect();
        Pump {
            engines,
            queue: VecDeque::new(),
            timers: VecDeque::new(),
            armed: Vec::new(),
            reports: Vec::new(),
            histories: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    fn collect(&mut self, at: SiteId, out: Vec<Output>) {
        for output in out {
            match output {
                Output::Send { to, msg } => {
                    self.queue.push_back((to, Input::Deliver { from: at, msg }));
                }
                Output::SetTimer(id) => {
                    self.timers.push_back((at, id));
                    if !self.armed.contains(&(at, id)) {
                        self.armed.push((at, id));
                    }
                }
                Output::Report(report) => self.reports.push(report),
                Output::Persist { txn, writes, .. } => {
                    self.histories[at.index()].extend(writes.iter().map(|(item, _)| HistoryOp {
                        txn,
                        item: *item,
                        is_write: true,
                    }));
                }
                _ => {}
            }
        }
    }

    /// Feed one input, then check that `timer_live` is exact in the
    /// direction a driver relies on: every timer the site ever armed that
    /// it now reports dead is a no-op when fired — no output, no counter
    /// moved, status unchanged — with up to `max_inflight` transactions
    /// in every phase at once.
    fn input(&mut self, site: SiteId, input: Input) {
        let out = self.engines[site.index()].handle_owned(input);
        self.collect(site, out);
        let engine = &mut self.engines[site.index()];
        for (_, id) in self.armed.iter().filter(|(s, _)| *s == site) {
            if engine.timer_live(id) {
                continue;
            }
            let before = (*engine.metrics(), engine.status());
            let out = engine.handle_owned(Input::Timer(*id));
            assert!(out.is_empty(), "dead {id:?} at {site} emitted {out:?}");
            assert_eq!((*engine.metrics(), engine.status()), before);
        }
    }

    fn begin(&mut self, site: SiteId, txn: Transaction) {
        self.queue
            .push_back((site, Input::Control(Command::Begin(txn))));
    }

    /// Drain messages; once drained, fire the oldest armed timer and
    /// drain again. Quiescent when both queues are empty.
    fn run_to_quiescence(&mut self) {
        let mut steps = 0usize;
        loop {
            while let Some((site, input)) = self.queue.pop_front() {
                self.input(site, input);
                steps += 1;
                assert!(steps < 1_000_000, "pump did not quiesce");
            }
            match self.timers.pop_front() {
                Some((site, id)) => self.input(site, Input::Timer(id)),
                None => return,
            }
        }
    }

    fn up_count(&self) -> usize {
        self.engines
            .iter()
            .filter(|e| e.status() == SiteStatus::Up)
            .count()
    }

    /// Digest equality over sites that are up with no stale copies.
    fn converged(&self) -> bool {
        let mut digests = self
            .engines
            .iter()
            .filter(|e| e.status() == SiteStatus::Up && e.own_stale_count() == 0)
            .map(|e| e.db().digest());
        match digests.next() {
            Some(first) => digests.all(|d| d == first),
            None => true,
        }
    }
}

fn write_txn(id: u64, items: &[u32]) -> Transaction {
    Transaction::new(
        TxnId(id),
        items
            .iter()
            .map(|item| Operation::Write(ItemId(*item), id))
            .collect(),
    )
}

fn config(n_sites: u8, db_size: u32, max_inflight: usize) -> ProtocolConfig {
    ProtocolConfig {
        db_size,
        n_sites,
        max_inflight,
        ..ProtocolConfig::default()
    }
}

/// Assert every site's apply history is conflict-serializable, and that
/// transaction-id order (versions are transaction ids) is an equivalent
/// serial order of each — one shared serial order across all replicas.
fn assert_histories_serializable(pump: &Pump) {
    for (site, history) in pump.histories.iter().enumerate() {
        let graph = PrecedenceGraph::build(history);
        assert!(
            graph.is_serializable(),
            "site {site}: apply history not conflict-serializable"
        );
        let mut txns: Vec<TxnId> = history.iter().map(|op| op.txn).collect();
        txns.sort_unstable();
        txns.dedup();
        for (i, a) in txns.iter().enumerate() {
            for b in &txns[i + 1..] {
                assert!(
                    !graph.requires(*b, *a),
                    "site {site}: history orders {b} before {a}, against id order"
                );
            }
        }
    }
}

#[test]
fn pipelined_conflicting_histories_are_serializable() {
    let mut pump = Pump::new(config(3, 64, 4));
    // 24 transactions at one coordinator with heavily overlapping write
    // sets: every window of 4 conflicts somewhere, so the pipeline must
    // serialize through the lock table.
    for k in 0..24u64 {
        let items = [(k % 4) as u32, 8 + (k % 3) as u32, 16 + k as u32];
        pump.begin(SiteId(0), write_txn(k + 1, &items));
    }
    pump.run_to_quiescence();

    assert_eq!(pump.reports.len(), 24);
    assert!(
        pump.reports.iter().all(|r| r.outcome.is_committed()),
        "all conflicting pipelined transactions commit"
    );
    assert_histories_serializable(&pump);
    assert!(pump.converged(), "replicas diverged");

    let m = pump.engines[0].metrics();
    assert!(
        m.inflight_high_water >= 2,
        "pipeline never overlapped (high water {})",
        m.inflight_high_water
    );
    assert!(
        m.lock_waits > 0,
        "conflicting write sets never waited for locks"
    );
}

#[test]
fn disjoint_pipeline_admits_full_window() {
    let mut pump = Pump::new(config(3, 64, 4));
    for k in 0..16u64 {
        // Pairwise-disjoint write sets: nothing ever waits.
        pump.begin(
            SiteId(0),
            write_txn(k + 1, &[k as u32 * 4, k as u32 * 4 + 1]),
        );
    }
    pump.run_to_quiescence();

    assert!(pump.reports.iter().all(|r| r.outcome.is_committed()));
    assert_histories_serializable(&pump);
    let m = pump.engines[0].metrics();
    assert_eq!(m.lock_waits, 0);
    assert_eq!(m.inflight_high_water, 4, "admission should fill the window");
}

#[test]
fn pipelined_commits_survive_fail_and_recover() {
    let mut pump = Pump::new(config(3, 32, 4));
    for k in 0..6u64 {
        pump.begin(SiteId(0), write_txn(k + 1, &[k as u32, 16 + k as u32]));
    }
    pump.run_to_quiescence();

    // Site 1 crashes silently: the next wave sets fail-locks for it
    // (the coordinator detects the failure by ack timeout).
    pump.input(SiteId(1), Input::Control(Command::Fail));
    for k in 6..18u64 {
        let items = [(k % 8) as u32, 16 + (k % 8) as u32];
        pump.begin(SiteId(0), write_txn(k + 1, &items));
    }
    pump.run_to_quiescence();
    // The operational sites track which of site 1's copies went stale.
    assert!(
        pump.engines[0].faillocks().count_locked_for(SiteId(1)) > 0,
        "failure left no fail-locks behind"
    );

    pump.input(SiteId(1), Input::Control(Command::Recover));
    pump.run_to_quiescence();
    assert_eq!(pump.engines[1].status(), SiteStatus::Up);

    // Touch every item once more: writes refresh stale copies and clear
    // the remaining fail-locks.
    for k in 0..16u64 {
        pump.begin(SiteId(2), write_txn(100 + k, &[k as u32, 16 + k as u32]));
    }
    pump.run_to_quiescence();

    assert_eq!(pump.engines[1].own_stale_count(), 0);
    assert_histories_serializable(&pump);
    assert!(pump.converged(), "replicas diverged after recovery");
    let committed = pump
        .reports
        .iter()
        .filter(|r| r.outcome.is_committed())
        .count();
    assert!(committed >= 22, "only {committed} commits");
}

/// One schedule action, decoded from proptest-generated bytes.
#[derive(Debug, Clone, Copy)]
enum Action {
    Submit { site: u8, a: u8, b: u8 },
    Fail(u8),
    Recover(u8),
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(site, a, b)| Action::Submit {
            site,
            a,
            b
        }),
        any::<u8>().prop_map(Action::Fail),
        any::<u8>().prop_map(Action::Recover),
    ]
}

proptest! {
    /// Convergence under random fail/recover schedules with a deep
    /// pipeline: after every site is recovered and every item written
    /// once more, all replicas hold identical databases.
    #[test]
    fn convergence_under_random_fail_recover(
        actions in proptest::collection::vec(arb_action(), 0..12),
        max_inflight in 1usize..6,
    ) {
        const N: u8 = 3;
        const DB: u32 = 16;
        let mut pump = Pump::new(config(N, DB, max_inflight));
        let mut next_txn = 1u64;

        for action in actions {
            pump.run_to_quiescence();
            match action {
                Action::Submit { site, a, b } => {
                    let site = SiteId(site % N);
                    let items = [a as u32 % DB, b as u32 % DB];
                    let items = if items[0] == items[1] {
                        &items[..1]
                    } else {
                        &items[..]
                    };
                    let txn = write_txn(next_txn, items);
                    next_txn += 1;
                    pump.begin(site, txn);
                }
                Action::Fail(site) => {
                    let site = SiteId(site % N);
                    // Never fail the last operational site (the paper's
                    // total-failure case needs operator intervention).
                    if pump.engines[site.index()].status() == SiteStatus::Up
                        && pump.up_count() >= 2
                    {
                        pump.input(site, Input::Control(Command::Fail));
                    }
                }
                Action::Recover(site) => {
                    let site = SiteId(site % N);
                    if pump.engines[site.index()].status() == SiteStatus::Down {
                        pump.input(site, Input::Control(Command::Recover));
                    }
                }
            }
        }
        pump.run_to_quiescence();

        // Bring everyone back, then write every item once: refreshes
        // every stale copy and clears every fail-lock.
        for i in 0..N {
            pump.run_to_quiescence();
            if pump.engines[i as usize].status() == SiteStatus::Down {
                pump.input(SiteId(i), Input::Control(Command::Recover));
                pump.run_to_quiescence();
            }
        }
        for item in 0..DB {
            pump.begin(SiteId(0), write_txn(1000 + item as u64, &[item]));
        }
        pump.run_to_quiescence();

        for i in 0..N {
            prop_assert_eq!(pump.engines[i as usize].status(), SiteStatus::Up);
            prop_assert_eq!(pump.engines[i as usize].own_stale_count(), 0);
        }
        let first = pump.engines[0].db().digest();
        for engine in &pump.engines[1..] {
            prop_assert_eq!(engine.db().digest(), first);
        }
        assert_histories_serializable(&pump);
    }
}
