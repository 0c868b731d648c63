//! A minimal synchronous pump for driving several [`SiteEngine`]s in
//! tests, independent of the full simulator crate.
//!
//! Policy: after each injected command the cluster is run to quiescence —
//! all deliveries drained first; when the queue is empty, any armed
//! timers fire once (the engine is stale-safe, so firing a timer whose
//! condition resolved is a no-op); repeat until no deliveries remain and
//! firing timers produces none.

// Each test binary compiles this module and uses its own API subset.
#![allow(dead_code)]

use std::collections::VecDeque;

use miniraid_core::engine::{Input, Output, SiteEngine, TimerId};
use miniraid_core::messages::{Command, Message, TxnReport};
use miniraid_core::ops::Transaction;
use miniraid_core::partial::ReplicationMap;
use miniraid_core::{ItemId, ProtocolConfig, SiteId};

/// Non-send outputs observed while pumping.
#[derive(Debug, Default)]
pub struct Observed {
    pub reports: Vec<TxnReport>,
    pub became_operational: Vec<SiteId>,
    pub data_recovered: Vec<SiteId>,
    pub recovery_failed: Vec<SiteId>,
    /// Fail-lock words each site emitted for its log, in output order.
    pub logged_words: Vec<(SiteId, ItemId, u64)>,
}

pub struct Pump {
    pub engines: Vec<SiteEngine>,
    queue: VecDeque<(SiteId, SiteId, Message)>, // (to, from, msg)
    /// Armed timers, globally FIFO: a timer armed earlier fires earlier
    /// (real drivers additionally give participant timeouts longer
    /// durations than coordinator timeouts).
    timers: VecDeque<(SiteId, TimerId)>,
    /// Every timer any engine ever armed, fired or not (see
    /// `assert_dead_timers_are_noops`).
    armed: Vec<(SiteId, TimerId)>,
    pub observed: Observed,
    /// Messages delivered in total (for traffic assertions).
    pub delivered: usize,
}

impl Pump {
    #[allow(dead_code)] // each test binary uses its own subset of the API
    pub fn new(config: ProtocolConfig) -> Self {
        let engines = (0..config.n_sites)
            .map(|i| SiteEngine::new(SiteId(i), config.clone()))
            .collect::<Vec<_>>();
        Self::from_engines(engines)
    }

    #[allow(dead_code)] // used by protocol.rs, not by every test binary
    pub fn with_replication(config: ProtocolConfig, map: ReplicationMap) -> Self {
        let engines = (0..config.n_sites)
            .map(|i| SiteEngine::with_replication(SiteId(i), config.clone(), map.clone()))
            .collect::<Vec<_>>();
        Self::from_engines(engines)
    }

    fn from_engines(engines: Vec<SiteEngine>) -> Self {
        Pump {
            engines,
            queue: VecDeque::new(),
            timers: VecDeque::new(),
            armed: Vec::new(),
            observed: Observed::default(),
            delivered: 0,
        }
    }

    fn absorb(&mut self, site: SiteId, outputs: Vec<Output>) {
        for out in outputs {
            match out {
                Output::Send { to, msg } => self.queue.push_back((to, site, msg)),
                Output::SetTimer(id) => {
                    self.timers.push_back((site, id));
                    if !self.armed.contains(&(site, id)) {
                        self.armed.push((site, id));
                    }
                }
                Output::Report(r) => self.observed.reports.push(r),
                Output::BecameOperational { .. } => self.observed.became_operational.push(site),
                Output::DataRecoveryComplete => self.observed.data_recovered.push(site),
                Output::RecoveryFailed => self.observed.recovery_failed.push(site),
                Output::Persist { faillocks, .. } => self
                    .observed
                    .logged_words
                    .extend(faillocks.into_iter().map(|(item, word)| (site, item, word))),
                Output::Work(_) => {}
            }
        }
    }

    fn drain_deliveries(&mut self) {
        while let Some((to, from, msg)) = self.queue.pop_front() {
            self.delivered += 1;
            let outputs = self.engines[to.index()].handle_owned(Input::Deliver { from, msg });
            self.absorb(to, outputs);
            self.assert_dead_timers_are_noops(to);
        }
    }

    /// `timer_live` is exact in the direction a driver relies on: every
    /// timer `site` ever armed that it now reports dead is a no-op when
    /// fired — no output, no counter moved, status unchanged — so
    /// dropping it unfired cannot be observed. Checked after every input
    /// the pump feeds.
    fn assert_dead_timers_are_noops(&mut self, site: SiteId) {
        let engine = &mut self.engines[site.index()];
        for (_, id) in self.armed.iter().filter(|(s, _)| *s == site) {
            if engine.timer_live(id) {
                continue;
            }
            let before = (*engine.metrics(), engine.status());
            let outputs = engine.handle_owned(Input::Timer(*id));
            assert!(
                outputs.is_empty(),
                "dead {id:?} at {site} emitted {outputs:?}"
            );
            assert_eq!(
                (*engine.metrics(), engine.status()),
                before,
                "dead {id:?} at {site}"
            );
        }
    }

    /// Run to quiescence: drain all deliveries; then fire the oldest
    /// armed timer; repeat. The engine is stale-safe, so firing a timer
    /// whose condition already resolved is a no-op.
    pub fn settle(&mut self) {
        loop {
            self.drain_deliveries();
            match self.timers.pop_front() {
                Some((site, id)) => {
                    let outputs = self.engines[site.index()].handle_owned(Input::Timer(id));
                    self.absorb(site, outputs);
                    self.assert_dead_timers_are_noops(site);
                }
                None => break,
            }
        }
    }

    /// Inject one protocol message as if delivered from `from`, then
    /// drain all resulting deliveries WITHOUT firing timers — for paths
    /// where a timer firing would be premature rather than stale-safe: a
    /// cross-shard branch parked at its local commit point is a
    /// legitimate indefinite wait, and firing the participant timeout
    /// there models a coordinator failure, not quiescence.
    #[allow(dead_code)] // each test binary uses its own subset of the API
    pub fn deliver(&mut self, to: SiteId, from: SiteId, msg: Message) {
        self.queue.push_back((to, from, msg));
        self.drain_deliveries();
    }

    /// Inject a command and drain deliveries WITHOUT firing timers, so a
    /// test can step a recovery one batch-copier round at a time.
    pub fn command_quiet(&mut self, site: SiteId, cmd: Command) {
        let outputs = self.engines[site.index()].handle_owned(Input::Control(cmd));
        self.absorb(site, outputs);
        self.drain_deliveries();
    }

    /// Fire one timer at `site`, drain the deliveries it causes (no other
    /// timer fires) and return what the engine emitted for it.
    pub fn fire(&mut self, site: SiteId, timer: TimerId) -> Vec<Output> {
        let outputs = self.engines[site.index()].handle_owned(Input::Timer(timer));
        self.absorb(site, outputs.clone());
        self.drain_deliveries();
        outputs
    }

    pub fn command(&mut self, site: SiteId, cmd: Command) {
        let outputs = self.engines[site.index()].handle_owned(Input::Control(cmd));
        self.absorb(site, outputs);
        self.assert_dead_timers_are_noops(site);
        self.settle();
    }

    pub fn fail(&mut self, site: SiteId) {
        self.command(site, Command::Fail);
    }

    pub fn recover(&mut self, site: SiteId) {
        self.command(site, Command::Recover);
    }

    pub fn run_txn(&mut self, site: SiteId, txn: Transaction) -> TxnReport {
        let id = txn.id;
        self.command(site, Command::Begin(txn));
        self.observed
            .reports
            .iter()
            .rev()
            .find(|r| r.txn == id)
            .expect("transaction reported")
            .clone()
    }

    pub fn engine(&self, site: SiteId) -> &SiteEngine {
        &self.engines[site.index()]
    }

    /// All operational sites' databases are identical.
    #[allow(dead_code)] // not every test binary uses each assertion
    pub fn assert_up_sites_converged(&self) {
        let ups: Vec<&SiteEngine> = self.engines.iter().filter(|e| e.is_up()).collect();
        assert!(!ups.is_empty(), "no operational site");
        // With partial replication, compare only commonly held items.
        for a in &ups {
            for b in &ups {
                for raw in 0..a.config().db_size {
                    let item = miniraid_core::ItemId(raw);
                    if a.replication().holds(item, a.id())
                        && b.replication().holds(item, b.id())
                        && !a.faillocks().is_locked(item, a.id())
                        && !b.faillocks().is_locked(item, b.id())
                    {
                        assert_eq!(
                            a.db().get(raw).unwrap(),
                            b.db().get(raw).unwrap(),
                            "divergence on item {raw} between {} and {}",
                            a.id(),
                            b.id()
                        );
                    }
                }
            }
        }
    }

    /// The table's per-site counts equal a recount of its bits, at every
    /// site and for every subject site (`own_stale_count` included).
    pub fn assert_faillock_counts(&self) {
        for e in &self.engines {
            let table = e.faillocks();
            let items = || (0..table.n_items()).map(miniraid_core::ItemId);
            for k in (0..table.n_sites()).map(SiteId) {
                let recount = items().filter(|i| table.is_locked(*i, k)).count() as u32;
                assert_eq!(
                    table.count_locked_for(k),
                    recount,
                    "count for {k} drifted at {}",
                    e.id()
                );
            }
            assert_eq!(e.own_stale_count(), table.count_locked_for(e.id()));
            let bits: u32 = items().map(|i| table.word(i).count_ones()).sum();
            assert_eq!(table.total_set(), bits, "total drifted at {}", e.id());
        }
    }

    /// Fail-lock exactness: on every operational site's table, the bit
    /// for (item, k) is set iff site k's copy is older than the freshest
    /// copy anywhere. Requires `piggyback_clears` off (the optimization
    /// can leave conservative false positives at peers after aborts).
    #[allow(dead_code)] // not every test binary uses each assertion
    pub fn assert_faillock_exactness(&self) {
        let n = self.engines.len();
        for raw in 0..self.engines[0].config().db_size {
            let item = miniraid_core::ItemId(raw);
            let holders: Vec<usize> = (0..n)
                .filter(|i| self.engines[*i].replication().holds(item, SiteId(*i as u8)))
                .collect();
            let freshest = holders
                .iter()
                .map(|i| self.engines[*i].db().get(raw).unwrap().version)
                .max()
                .unwrap_or(0);
            for observer in self.engines.iter().filter(|e| e.is_up()) {
                for &k in &holders {
                    let stale = self.engines[k].db().get(raw).unwrap().version < freshest;
                    let locked = observer.faillocks().is_locked(item, SiteId(k as u8));
                    assert_eq!(
                        locked, stale,
                        "exactness violated at observer {} for (item {raw}, site {k}): locked={locked} stale={stale}",
                        observer.id()
                    );
                }
            }
        }
    }
}
