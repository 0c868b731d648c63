//! The site protocol engine: a pure (sans-IO) state machine.
//!
//! A [`SiteEngine`] holds everything one database site owns in the paper's
//! system — its copy of the database, its nominal session vector, its
//! replicated fail-lock table — and implements every protocol role: 2PC
//! coordinator and participant (Appendix A), copier-transaction client and
//! server, and control transactions of types 1, 2 and 3.
//!
//! The engine performs no I/O and reads no clock: drivers feed it
//! [`Input`]s (delivered messages, timer expiries, management commands)
//! and execute the [`Output`]s it returns (sends, timer arms, reports).
//! The deterministic simulator (`miniraid-sim`) and the threaded cluster
//! (`miniraid-cluster`) drive the *same* engine, so behaviour validated
//! under simulation is the behaviour deployed on real threads and sockets.
//!
//! Timer handling is *stale-safe*: the engine never needs timers
//! cancelled; a fired timer whose condition no longer holds is ignored.
//! [`SiteEngine::timer_live`] is the one statement of those conditions:
//! `handle` consults it before dispatching a timer, and a driver may
//! consult it to forget armed timers nothing waits on any more.

mod control;
mod coordinator;
mod copier;
mod participant;
mod recovery;

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::config::ProtocolConfig;
use crate::faillock::FailLockTable;
use crate::ids::{ItemId, ReqId, SessionNumber, SiteId, TxnId};
use crate::locks::LockManager;
use crate::messages::{Command, Message, TxnReport, TxnStats};
use crate::metrics::EngineMetrics;
use crate::ops::Transaction;
use crate::partial::ReplicationMap;
use crate::session::{SessionVector, SiteStatus};
use crate::trace::{EventKind, Tracer};
use miniraid_storage::{ItemValue, MemStore};

pub use self::coordinator::CoordPhase;

/// How many committed participant decisions are remembered for
/// re-acking redelivered `Commit` messages. Retransmission windows are
/// short (a few round trips), so a small bound suffices.
const RECENT_PART_CAP: usize = 128;

/// `expect` message of the timer handlers: they run only behind
/// `handle_timer`'s [`SiteEngine::timer_live`] guard, which established
/// that the state they look up is there.
const TIMER_LIVE: &str = "handle_timer checked timer_live";

/// An event fed into the engine by its driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A message delivered from another site.
    Deliver {
        /// The sender.
        from: SiteId,
        /// The message.
        msg: Message,
    },
    /// A previously armed timer fired.
    Timer(TimerId),
    /// A command from the managing site.
    Control(Command),
}

/// Timers the engine arms. Durations are the driver's business
/// (see `TimingConfig` in the drivers); identity is the engine's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerId {
    /// Waiting for phase-one acks of a coordinated transaction.
    AckTimeout(TxnId),
    /// Waiting for phase-two commit acks.
    CommitAckTimeout(TxnId),
    /// Participant waiting for the coordinator's commit/abort.
    ParticipantTimeout(TxnId),
    /// Waiting for a copy response (copier transaction).
    CopierTimeout(ReqId),
    /// Waiting for a remote read response (partial replication).
    ReadTimeout(ReqId),
    /// Waiting for `RecoveryInfo` during a type-1 control transaction;
    /// the payload is the attempt number.
    RecoveryInfoTimeout(u32),
    /// Next batch-copier round (two-step recovery, step two).
    BatchCopier,
}

/// CPU work the engine performed, for the simulator's cost accounting.
/// The threaded cluster ignores these (its CPU cost is real).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Receiving and setting up a new transaction.
    TxnSetup,
    /// Executing `n` local read operations.
    ReadOps(u32),
    /// Applying `n` writes to the local database copy.
    ApplyWrites(u32),
    /// Commit-time fail-lock maintenance over `n` written items.
    FailLockMaintain(u32),
    /// Clearing fail-lock bits for `n` items on request.
    FailLockClear(u32),
    /// Installing a received fail-lock snapshot of `n` items.
    FailLockInstall(u32),
    /// Installing a received session vector.
    SessionInstall,
    /// Formatting session vector + fail-locks of `n` items for a
    /// recovering site (type-1 control transaction, operational side).
    FormatRecoveryState(u32),
    /// Serving a copy request covering `n` items.
    CopierService(u32),
    /// Buffering `n` tentative writes in phase one.
    BufferWrites(u32),
    /// Local commit bookkeeping.
    CommitLocal,
    /// Updating the session vector for `n` sites marked down (type-2
    /// control transaction processing).
    FailureUpdate(u32),
}

/// An action the driver must carry out.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Send `msg` to site `to`.
    Send {
        /// Destination.
        to: SiteId,
        /// Payload.
        msg: Message,
    },
    /// Arm a timer (durations are configured in the driver).
    SetTimer(TimerId),
    /// Account the given CPU work (simulator cost model).
    Work(Work),
    /// A coordinated transaction finished.
    Report(TxnReport),
    /// This site completed a type-1 control transaction and is
    /// operational again.
    BecameOperational {
        /// The new session.
        session: SessionNumber,
    },
    /// Recovery could not complete (no operational site answered).
    RecoveryFailed,
    /// All of this site's fail-locks are cleared: its database copy is
    /// fully up to date ("completely recovered" in the paper's terms).
    DataRecoveryComplete,
    /// Durably persist these applied writes (emitted only when
    /// [`crate::config::ProtocolConfig::emit_persistence`] is set; the
    /// driver owns the durable store).
    Persist {
        /// The committing transaction (or refresh source).
        txn: TxnId,
        /// Writes applied to the local copy.
        writes: Vec<(ItemId, ItemValue)>,
        /// Post-maintenance fail-lock bitmap words of affected items
        /// (fail-locks are protocol state and must survive restarts).
        faillocks: Vec<(ItemId, u64)>,
    },
}

/// One in-flight coordinated transaction. With the default
/// `max_inflight = 1` exactly one exists at a time (the paper processes
/// transactions serially, assumption 2); larger values pipeline several,
/// keyed by transaction id and serialized through the engine's
/// conservative strict-2PL lock manager.
#[derive(Debug)]
pub(crate) struct CoordTxn {
    pub txn: Transaction,
    pub snapshot: Vec<SessionNumber>,
    /// Operational-site bitmap backing the participant choice, shipped
    /// in `CopyUpdate` so commit-time fail-lock maintenance is identical
    /// at every participant (see `Message::CopyUpdate::up_mask`).
    pub up_mask: u64,
    pub phase: CoordPhase,
    /// Participants of the current 2PC round.
    pub participants: BTreeSet<SiteId>,
    /// Participants we are still waiting on (acks or commit-acks).
    pub waiting: BTreeSet<SiteId>,
    /// Version-stamped effective write set.
    pub writes: Vec<(ItemId, ItemValue)>,
    /// In-flight copy requests: req -> (target, items).
    pub pending_copiers: HashMap<ReqId, (SiteId, Vec<ItemId>)>,
    /// In-flight remote reads (partial replication): req -> (target, items).
    pub pending_reads: HashMap<ReqId, (SiteId, Vec<ItemId>)>,
    /// Items this transaction refreshed via copiers (their fail-locks for
    /// this site must be cleared everywhere).
    pub refreshed: Vec<ItemId>,
    /// Values obtained by remote reads.
    pub remote_values: HashMap<ItemId, ItemValue>,
    /// Read results (local + remote), populated at read execution.
    pub read_results: Vec<(ItemId, ItemValue)>,
    pub stats: TxnStats,
    /// A participant failed during phase two (txn still commits).
    pub phase2_failure: bool,
    /// Quorum reads: peer responses required beyond our own copy
    /// (0 outside majority-quorum mode).
    pub quorum_needed: usize,
    /// Quorum reads: peer responses received so far.
    pub quorum_got: usize,
}

/// Pending participant context: writes buffered in phase one.
#[derive(Debug)]
pub(crate) struct PendingTxn {
    pub coordinator: SiteId,
    pub writes: Vec<(ItemId, ItemValue)>,
    pub clears: Vec<(ItemId, SiteId)>,
    /// Coordinator's operational-site bitmap from the `CopyUpdate`.
    pub up_mask: u64,
}

/// Recovery progress (type-1 control transaction + data refresh phase).
#[derive(Debug)]
pub(crate) struct RecoveryState {
    /// Candidate responders, in ask order.
    pub candidates: Vec<SiteId>,
    /// Current attempt (index into `candidates`).
    pub attempt: u32,
    /// The session being recovered into.
    pub session: SessionNumber,
}

/// Data-refresh progress after becoming operational.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RefreshMode {
    /// Not recovering (no stale copies).
    Idle,
    /// Step one: refresh on demand only (the paper's implementation).
    OnDemand,
    /// Step two: batch copier mode (paper §3.2 proposal).
    Batch {
        /// A batch round is in flight or armed.
        armed: bool,
    },
}

/// One database site's protocol engine. See the module docs.
#[derive(Debug)]
pub struct SiteEngine {
    id: SiteId,
    config: ProtocolConfig,
    vector: SessionVector,
    db: MemStore,
    faillocks: FailLockTable,
    replication: ReplicationMap,
    metrics: EngineMetrics,
    /// Protocol event emission handle (disabled by default).
    pub(crate) tracer: Tracer,

    /// Coordinated transactions in flight, keyed by id
    /// (at most `config.max_inflight`, counting lock waiters).
    pub(crate) coords: HashMap<TxnId, CoordTxn>,
    /// Admitted transactions whose predeclared locks are not all granted
    /// yet; they start as soon as earlier conflicting transactions finish.
    pub(crate) lock_waiting: HashMap<TxnId, Transaction>,
    /// FIFO admission order of the lock waiters.
    pub(crate) lock_wait_order: VecDeque<TxnId>,
    /// Transactions queued for an admission slot.
    pub(crate) queued: VecDeque<Transaction>,
    /// Owning transaction of every in-flight copier / remote-read
    /// request, for routing responses in pipelined mode.
    pub(crate) req_owner: HashMap<ReqId, TxnId>,
    /// Conservative strict-2PL lock table serializing conflicting
    /// in-flight transactions at this coordinator.
    pub(crate) locks: LockManager,
    /// Cross-shard branches this engine coordinates on behalf of a
    /// top-level shard coordinator: txn → where the `ShardVote` goes.
    /// Entries live from `ShardPrepare` until the vote is sent (no) or
    /// the `ShardDecide` resolves the parked branch (yes).
    pub(crate) held: HashMap<TxnId, SiteId>,
    /// Participant contexts keyed by transaction.
    pub(crate) pending: HashMap<TxnId, PendingTxn>,
    /// Recently committed participant decisions, kept so a redelivered
    /// `Commit` is re-acked instead of silently dropped (the coordinator
    /// may be retransmitting because our first `CommitAck` was lost).
    /// Bounded FIFO; see [`RECENT_PART_CAP`].
    pub(crate) recent_part: VecDeque<(TxnId, SiteId)>,
    /// CT1 progress, while status is WaitingToRecover.
    pub(crate) recovery: Option<RecoveryState>,
    /// Candidates asked for state during the last type-1 round whose
    /// `RecoveryInfo` has not arrived yet; late responses are merged in
    /// to cross-check the first responder (see `on_late_recovery_info`).
    pub(crate) late_donors: Vec<SiteId>,
    /// Data refresh mode after recovery.
    pub(crate) refresh: RefreshMode,
    /// In-flight standalone (batch) copiers: req -> (target, items).
    pub(crate) standalone_copiers: HashMap<ReqId, (SiteId, Vec<ItemId>)>,
    /// Next request id.
    pub(crate) next_req: u64,
    /// Not-yet-replayed committed image after an instant restart (see
    /// [`SiteEngine::preload_lazy`]). `None` once replay completes, so
    /// the steady-state cost is one branch per database access.
    lazy: Option<miniraid_storage::LazyImage>,
    /// Reused buffer for predeclared lock plans (admission and waiter
    /// readiness checks allocate nothing in steady state).
    pub(crate) lock_plan_scratch: Vec<(ItemId, crate::locks::LockMode)>,
}

impl SiteEngine {
    /// Create an engine for a fully replicated database.
    pub fn new(id: SiteId, config: ProtocolConfig) -> Self {
        let map = ReplicationMap::full(config.db_size, config.n_sites);
        Self::with_replication(id, config, map)
    }

    /// Create an engine with an explicit replication map (partial
    /// replication; enables type-3 control transactions when configured).
    pub fn with_replication(id: SiteId, config: ProtocolConfig, map: ReplicationMap) -> Self {
        assert!(id.0 < config.n_sites, "site id out of range");
        assert_eq!(map.n_items(), config.db_size);
        assert_eq!(map.n_sites(), config.n_sites);
        SiteEngine {
            id,
            vector: SessionVector::new(config.n_sites as usize),
            db: MemStore::new(config.db_size),
            faillocks: FailLockTable::new(config.db_size, config.n_sites),
            replication: map,
            metrics: EngineMetrics::default(),
            tracer: Tracer::disabled(),
            coords: HashMap::new(),
            lock_waiting: HashMap::new(),
            lock_wait_order: VecDeque::new(),
            queued: VecDeque::new(),
            req_owner: HashMap::new(),
            locks: LockManager::new(),
            held: HashMap::new(),
            pending: HashMap::new(),
            recent_part: VecDeque::new(),
            recovery: None,
            late_donors: Vec::new(),
            refresh: RefreshMode::Idle,
            standalone_copiers: HashMap::new(),
            next_req: 1,
            lazy: None,
            lock_plan_scratch: Vec::new(),
            config,
        }
    }

    /// Take over the table a durable store recovered (e.g. after a
    /// process restart): a move, not a copy. Call before processing any
    /// input. A restarted process is logically a recovering site — pair
    /// this with [`SiteEngine::assume_failed`] unless the site is the
    /// bootstrap authority of a full-cluster restart; the session vector
    /// and fail-locks are then re-learned through a type-1 control
    /// transaction, and copier transactions refresh whatever the
    /// preloaded copy still misses.
    pub fn preload_table(&mut self, table: MemStore) {
        assert_eq!(table.size(), self.config.db_size, "preloaded table size");
        self.db = table;
    }

    /// Preload the local database copy *lazily* from a REDO-log image
    /// (instant restart): the engine becomes operational immediately and
    /// replays items on first access, while the driver pumps
    /// [`SiteEngine::hydrate_step`] in the background.
    pub fn preload_lazy(&mut self, image: miniraid_storage::LazyImage) {
        self.lazy = (image.remaining() > 0).then_some(image);
    }

    /// What a durable checkpoint writes: this site's table, the restart
    /// image it has not hydrated yet, its fail-lock words (none to scan
    /// when no bit is set) and its session.
    pub fn checkpoint_view(&self) -> miniraid_storage::SiteView<'_> {
        let words = match self.faillocks.total_set() {
            0 => &[][..],
            _ => self.faillocks.words(),
        };
        miniraid_storage::SiteView {
            table: &self.db,
            pending: self.lazy.as_ref(),
            words,
            session: self.session().0,
        }
    }

    /// Items still awaiting background replay (0 = fully hydrated).
    pub fn hydration_remaining(&self) -> u32 {
        self.lazy.as_ref().map(|l| l.remaining()).unwrap_or(0)
    }

    /// Background replay: hydrate up to `max` items from the restart
    /// image, returning how many remain afterwards.
    pub fn hydrate_step(&mut self, max: u32) -> u32 {
        let Some(lazy) = self.lazy.as_mut() else {
            return 0;
        };
        for _ in 0..max {
            match lazy.take_next() {
                Some((item, value)) => {
                    let _ = self.db.put_if_fresher(item, value);
                }
                None => break,
            }
        }
        let remaining = lazy.remaining();
        if remaining == 0 {
            self.lazy = None;
        }
        remaining
    }

    /// On-demand chain replay of one item, called before every database
    /// access. A no-op (single branch) once the restart image is drained.
    #[inline]
    pub(crate) fn hydrate(&mut self, item: ItemId) {
        if let Some(lazy) = self.lazy.as_mut() {
            if let Some(value) = lazy.take(item.0) {
                let _ = self.db.put_if_fresher(item.0, value);
            }
            if lazy.remaining() == 0 {
                self.lazy = None;
            }
        }
    }

    /// Preload fail-lock bitmap words recovered from durable storage.
    pub fn preload_faillocks(&mut self, words: impl IntoIterator<Item = (ItemId, u64)>) {
        for (item, word) in words {
            self.faillocks.set_word(item, word);
        }
    }

    /// Preload this site's own session number from durable storage (so
    /// session numbers stay monotone across process restarts).
    pub fn preload_session(&mut self, session: SessionNumber) {
        let status = self.status();
        self.vector
            .set_record(self.id, crate::session::SiteRecord { session, status });
    }

    /// Mark this site down before any input is processed (a restarted
    /// process must rejoin via a `Recover` command and its type-1
    /// control transaction).
    pub fn assume_failed(&mut self) {
        let session = self.session();
        self.vector.set_record(
            self.id,
            crate::session::SiteRecord {
                session,
                status: SiteStatus::Down,
            },
        );
    }

    // ---- accessors -----------------------------------------------------

    /// This site's id.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// This site's nominal session vector.
    pub fn vector(&self) -> &SessionVector {
        &self.vector
    }

    /// This site's database copy.
    pub fn db(&self) -> &MemStore {
        &self.db
    }

    /// This site's (replicated) fail-lock table.
    pub fn faillocks(&self) -> &FailLockTable {
        &self.faillocks
    }

    /// The replication map (all-ones when fully replicated).
    pub fn replication(&self) -> &ReplicationMap {
        &self.replication
    }

    /// Cumulative counters.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Bind a protocol-event tracer (see [`crate::trace`]). The default
    /// is [`Tracer::disabled`], which costs one branch per would-be
    /// event.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The bound tracer (disabled unless [`SiteEngine::set_tracer`] was
    /// called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Record a multi-message transport frame. The engine is sans-IO and
    /// cannot see coalescing, so the driving loop reports it here.
    pub fn note_batch_frame(&mut self, messages: usize) {
        self.metrics.batch_frames_sent += 1;
        self.metrics.batched_messages_sent += messages as u64;
    }

    /// Fold cumulative transport-layer counters (retransmissions,
    /// duplicate drops, reconnect attempts) into the engine metrics so
    /// they appear in the site's exposition. Values are absolute; the
    /// driving loop calls this before rendering metrics.
    pub fn note_transport(&mut self, retransmits: u64, dup_drops: u64, reconnects: u64) {
        self.metrics.transport_retransmits = retransmits;
        self.metrics.transport_dup_drops = dup_drops;
        self.metrics.transport_reconnects = reconnects;
    }

    /// Fold cumulative REDO-WAL counters (group-commit fsyncs, commit
    /// records, records of any kind) into the engine metrics so they
    /// appear in the site's exposition. Values are absolute; the driving
    /// loop calls this before rendering metrics.
    pub fn note_wal(&mut self, fsyncs: u64, commit_records: u64, records: u64) {
        self.metrics.wal_fsyncs = fsyncs;
        self.metrics.wal_commit_records = commit_records;
        self.metrics.wal_records = records;
    }

    /// Fold the driving loop's timer accounting into the engine metrics
    /// so it appears in the site's exposition: timers armed and still
    /// queued (a gauge), and cumulative counts of timers fired and of
    /// timers dropped dead (see [`SiteEngine::timer_live`]). Values are
    /// absolute; the driving loop calls this before rendering metrics.
    pub fn note_timers(&mut self, pending: u64, fired: u64, dropped_dead: u64) {
        self.metrics.timers_pending = pending;
        self.metrics.timers_fired = fired;
        self.metrics.timers_dropped_dead = dropped_dead;
    }

    /// Remember a committed participant decision for duplicate-`Commit`
    /// re-acking, evicting the oldest entry beyond the bound.
    pub(crate) fn note_recent_participant(&mut self, txn: TxnId, coordinator: SiteId) {
        if self.recent_part.len() >= RECENT_PART_CAP {
            self.recent_part.pop_front();
        }
        self.recent_part.push_back((txn, coordinator));
    }

    /// This site's own status.
    pub fn status(&self) -> SiteStatus {
        self.vector.status(self.id)
    }

    /// True if this site is operational.
    pub fn is_up(&self) -> bool {
        self.status().is_up()
    }

    /// This site's current session number.
    pub fn session(&self) -> SessionNumber {
        self.vector.session(self.id)
    }

    /// Number of this site's own copies currently fail-locked (stale).
    pub fn own_stale_count(&self) -> u32 {
        self.faillocks.count_locked_for(self.id)
    }

    // ---- main dispatch --------------------------------------------------

    /// Process one input, appending required actions to `out`.
    pub fn handle(&mut self, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Control(cmd) => self.handle_command(cmd, out),
            // A traced frame is transparent to the protocol: bind the
            // payload's transaction to its causal trace, then handle the
            // payload as if it arrived bare (including the Mgmt
            // intercept below). Codec nesting rules make this one level.
            Input::Deliver {
                from,
                msg: Message::Traced { trace, inner },
            } => {
                if let Some(txn) = inner.txn_id() {
                    self.tracer.register_trace(txn, trace);
                }
                self.handle(Input::Deliver { from, msg: *inner }, out);
            }
            // Management commands reach a site in any state (the managing
            // site is how failures and recoveries are injected at all).
            Input::Deliver {
                msg: Message::Mgmt(cmd),
                ..
            } => self.handle_command(cmd, out),
            Input::Deliver { from, msg } => {
                // A down site does not participate in any system action
                // (paper §1.2); a terminating site neither.
                match self.status() {
                    SiteStatus::Down | SiteStatus::Terminating => return,
                    SiteStatus::WaitingToRecover => {
                        // Only recovery traffic is processed before the
                        // type-1 control transaction completes.
                        self.metrics.msgs_received += 1;
                        self.handle_while_recovering(from, msg, out);
                        return;
                    }
                    SiteStatus::Up => {}
                }
                self.metrics.msgs_received += 1;
                self.handle_message(from, msg, out);
            }
            Input::Timer(id) => self.handle_timer(id, out),
        }
    }

    /// Convenience wrapper returning a fresh output vector.
    pub fn handle_owned(&mut self, input: Input) -> Vec<Output> {
        let mut out = Vec::new();
        self.handle(input, &mut out);
        out
    }

    /// Freeze: drop all protocol state; keep db, vector, fail-locks as
    /// they stood (they survive in "stable storage" across the failure).
    /// In-flight coordinated transactions simply vanish with us;
    /// participants time out and announce our failure. Invoked by the
    /// managing site's `Fail` command, and by the engine itself when it
    /// learns the operational sites excluded it under its current
    /// session (a false failure detection — see `on_failure_announce`).
    pub(crate) fn step_down(&mut self, out: &mut Vec<Output>) {
        self.vector.mark_down(self.id);
        self.tracer.emit(
            None,
            EventKind::SessionChange {
                site: self.id,
                session: self.session(),
                up: false,
            },
        );
        // In-flight coordinated transactions still before the commit
        // decision abort with a report — their clients must not wait
        // forever for an answer this site can no longer produce. A
        // transaction already past the decision stays unreported (in
        // doubt): its outcome is fixed, and claiming "aborted" could
        // contradict a commit the participants already applied.
        let undecided: Vec<TxnId> = self
            .coords
            .iter()
            .filter(|(_, s)| s.phase != CoordPhase::WaitCommitAcks)
            .map(|(id, _)| *id)
            .collect();
        for id in undecided {
            let stats = self.coords.remove(&id).expect("listed above").stats;
            self.report_stepdown_abort(id, stats, out);
        }
        // Transactions that never started (waiting on locks or the
        // serial admission queue) abort the same way.
        let waiting: Vec<TxnId> = self.lock_wait_order.iter().copied().collect();
        for id in waiting {
            if self.lock_waiting.remove(&id).is_some() {
                self.report_stepdown_abort(id, TxnStats::default(), out);
            }
        }
        let queued: Vec<TxnId> = self.queued.iter().map(|t| t.id).collect();
        for id in queued {
            self.report_stepdown_abort(id, TxnStats::default(), out);
        }
        // Prepared participant entries are about to be discarded, and a
        // down site processes no timers, so the participant-timeout
        // in-doubt handling will never run for them. Their commit
        // decisions may still land elsewhere: mark our copies of their
        // write sets suspect first (and tell the peers), exactly as the
        // timeout path would. If the transaction aborted, the refresh
        // this forces is merely redundant.
        if self.config.fail_locks_enabled && !self.pending.is_empty() {
            let me = self.id;
            let mut items: Vec<ItemId> = self
                .pending
                .values()
                .flat_map(|p| p.writes.iter().map(|(item, _)| *item))
                .filter(|item| self.replication.holds(*item, me))
                .collect();
            items.sort_unstable_by_key(|i| i.0);
            items.dedup();
            if !items.is_empty() {
                self.on_set_faillocks(me, items.clone(), out);
                for peer in self.vector.operational_peers(me) {
                    self.send_unattributed(
                        peer,
                        Message::SetFailLocks {
                            site: me,
                            items: items.clone(),
                        },
                        out,
                    );
                }
            }
        }
        self.coords.clear();
        self.lock_waiting.clear();
        self.lock_wait_order.clear();
        self.queued.clear();
        self.req_owner.clear();
        self.locks = LockManager::new();
        self.held.clear();
        self.pending.clear();
        self.recent_part.clear();
        self.recovery = None;
        self.late_donors.clear();
        self.refresh = RefreshMode::Idle;
        self.standalone_copiers.clear();
    }

    fn report_stepdown_abort(&mut self, id: TxnId, stats: TxnStats, out: &mut Vec<Output>) {
        self.vote_no_if_held(id, out);
        let reason = crate::error::AbortReason::SiteNotOperational;
        self.metrics.aborts.record(reason);
        self.tracer.emit(Some(id), EventKind::Abort { reason });
        out.push(Output::Report(TxnReport {
            txn: id,
            coordinator: self.id,
            outcome: crate::messages::TxnOutcome::Aborted(reason),
            stats,
            read_results: Vec::new(),
        }));
    }

    fn handle_command(&mut self, cmd: Command, out: &mut Vec<Output>) {
        match cmd {
            Command::Fail => self.step_down(out),
            Command::Recover => self.begin_recovery(out),
            Command::Bootstrap => self.bootstrap_recovery(out),
            Command::Begin(txn) => self.begin_transaction(txn, out),
            Command::Terminate => {
                self.vector.set_record(
                    self.id,
                    crate::session::SiteRecord {
                        session: self.session(),
                        status: SiteStatus::Terminating,
                    },
                );
                self.coords.clear();
                self.lock_waiting.clear();
                self.lock_wait_order.clear();
                self.queued.clear();
                self.req_owner.clear();
                self.locks = LockManager::new();
                self.held.clear();
                self.pending.clear();
                self.recent_part.clear();
            }
        }
    }

    fn handle_message(&mut self, from: SiteId, msg: Message, out: &mut Vec<Output>) {
        match msg {
            // 2PC participant side
            Message::CopyUpdate {
                txn,
                writes,
                snapshot,
                clears,
                up_mask,
            } => self.on_copy_update(from, txn, writes, snapshot, clears, up_mask, out),
            Message::Commit { txn } => self.on_commit(from, txn, out),
            Message::AbortTxn { txn } => self.on_abort(txn),
            // 2PC coordinator side
            Message::UpdateAck { txn, ok } => self.on_update_ack(from, txn, ok, out),
            Message::CommitAck { txn } => self.on_commit_ack(from, txn, out),
            // copier traffic
            Message::CopyRequest { req, items } => self.serve_copy_request(from, req, items, out),
            Message::CopyResponse { req, ok, copies } => {
                self.on_copy_response(from, req, ok, copies, out)
            }
            Message::ClearFailLocks { site, items } => self.on_clear_faillocks(site, items, out),
            Message::SetFailLocks { site, items } => self.on_set_faillocks(site, items, out),
            // control transactions
            Message::RecoveryAnnounce {
                session,
                want_state,
            } => self.on_recovery_announce(from, session, want_state, out),
            Message::RecoveryInfo {
                vector, faillocks, ..
            } => {
                // The type-1 round already completed on the first
                // response; merge the other asked candidates' answers.
                self.on_late_recovery_info(from, vector, faillocks, out);
            }
            Message::FailureAnnounce { failed } => self.on_failure_announce(failed, out),
            // partial replication
            Message::ReadRequest { req, items } => self.serve_read_request(from, req, items, out),
            Message::ReadResponse { req, ok, values } => {
                self.on_read_response(from, req, ok, values, out)
            }
            Message::CreateBackup { item, value } => self.on_create_backup(from, item, value, out),
            Message::BackupCreated { item, site } => {
                self.replication.add_holder(item, site, true);
            }
            Message::BackupDropped { item, site } => {
                self.replication.remove_holder(item, site);
            }
            // cross-shard two-phase commit (crates/shard)
            Message::ShardPrepare { txn } => self.on_shard_prepare(from, txn, out),
            Message::ShardDecide { txn, commit } => self.on_shard_decide(txn, commit, out),
            // Votes are consumed by the top-level shard coordinator (the
            // router), never by an engine; a shard envelope is unwrapped
            // by the sharded site host before delivery. Decision-log
            // traffic is served by the site loop (the log replica lives
            // beside the engine, like metrics serving), not the engine.
            // Live-reshard map frames are likewise site-loop business:
            // the map store answers them even while the engine is down.
            Message::ShardVote { .. }
            | Message::ShardEnv { .. }
            | Message::XLogAppend { .. }
            | Message::XLogAck { .. }
            | Message::XLogQuery { .. }
            | Message::XLogReply { .. }
            | Message::XLogRetire { .. }
            | Message::MapChange { .. }
            | Message::MapChangeAck { .. }
            | Message::MapQuery
            | Message::MapReply { .. }
            | Message::WrongEpoch { .. } => {}
            // `Mgmt` is intercepted in `handle`; reports and metrics
            // scrapes are driver business
            Message::Mgmt(_)
            | Message::MgmtReport(_)
            | Message::MgmtRecovered { .. }
            | Message::MgmtDataRecovered { .. }
            | Message::MetricsRequest
            | Message::MetricsResponse { .. } => {}
            // Session-layer frames are transport business: the reliable
            // mailbox unwraps `Seq` and consumes `SeqAck` before delivery.
            // Reaching the engine means no reliable layer is installed —
            // deliver the payload as-is rather than losing it.
            Message::Seq { inner, .. } => self.handle_message(from, *inner, out),
            Message::SeqAck { .. } => {}
            // Normally unwrapped in `handle`; reached only via a `Seq`
            // payload — same treatment: register and unwrap.
            Message::Traced { trace, inner } => {
                if let Some(txn) = inner.txn_id() {
                    self.tracer.register_trace(txn, trace);
                }
                self.handle_message(from, *inner, out);
            }
        }
    }

    /// Traffic accepted while a type-1 control transaction is in flight.
    fn handle_while_recovering(&mut self, from: SiteId, msg: Message, out: &mut Vec<Output>) {
        match msg {
            Message::RecoveryInfo {
                vector,
                faillocks,
                holders,
                backups,
            } => self.on_recovery_info(from, vector, faillocks, holders, backups, out),
            Message::CopyUpdate { txn, .. } => {
                // Not ready: reject so the coordinator aborts rather than
                // committing without us (we are already marked Up in its
                // vector once it processed our announcement).
                self.send(from, Message::UpdateAck { txn, ok: false }, out);
            }
            Message::FailureAnnounce { failed } => {
                for (site, session) in failed {
                    if site != self.id {
                        self.vector.apply_failure_announcement(site, session);
                    }
                }
            }
            Message::RecoveryAnnounce {
                session,
                want_state,
            } => {
                // Another site recovering concurrently: note its session,
                // but we cannot serve state while not operational.
                let _ = want_state;
                if from != self.id {
                    self.vector.apply_recovery_announcement(from, session);
                }
            }
            _ => {}
        }
    }

    /// True exactly when `Input::Timer(id)` would do something: the wait
    /// the timer was armed for is still outstanding. The handlers rely on
    /// it instead of re-checking (they are reached only through
    /// `handle_timer`), so a driver that drops timers for which this is
    /// false changes nothing the engine can observe.
    pub fn timer_live(&self, id: &TimerId) -> bool {
        // A down or terminating site processes no timers.
        if !matches!(self.status(), SiteStatus::Up | SiteStatus::WaitingToRecover) {
            return false;
        }
        let coord_waits = |txn: &TxnId, phase: CoordPhase| {
            self.coords
                .get(txn)
                .is_some_and(|s| s.phase == phase && !s.waiting.is_empty())
        };
        match id {
            TimerId::AckTimeout(txn) => coord_waits(txn, CoordPhase::WaitAcks),
            TimerId::CommitAckTimeout(txn) => coord_waits(txn, CoordPhase::WaitCommitAcks),
            TimerId::ParticipantTimeout(txn) => self.pending.contains_key(txn),
            // A transaction's copier, or a standalone (batch) one.
            TimerId::CopierTimeout(req) => match self.req_owner.get(req) {
                Some(owner) => self
                    .coords
                    .get(owner)
                    .is_some_and(|s| s.pending_copiers.contains_key(req)),
                None => self.standalone_copiers.contains_key(req),
            },
            TimerId::ReadTimeout(req) => self
                .req_owner
                .get(req)
                .and_then(|owner| self.coords.get(owner))
                .is_some_and(|s| s.pending_reads.contains_key(req)),
            TimerId::RecoveryInfoTimeout(attempt) => self
                .recovery
                .as_ref()
                .is_some_and(|r| r.attempt == *attempt),
            TimerId::BatchCopier => matches!(self.refresh, RefreshMode::Batch { .. }),
        }
    }

    fn handle_timer(&mut self, id: TimerId, out: &mut Vec<Output>) {
        if !self.timer_live(&id) {
            return;
        }
        match id {
            TimerId::AckTimeout(txn) => self.on_ack_timeout(txn, out),
            TimerId::CommitAckTimeout(txn) => self.on_commit_ack_timeout(txn, out),
            TimerId::ParticipantTimeout(txn) => self.on_participant_timeout(txn, out),
            TimerId::CopierTimeout(req) => self.on_copier_timeout(req, out),
            TimerId::ReadTimeout(req) => self.on_read_timeout(req, out),
            TimerId::RecoveryInfoTimeout(attempt) => self.on_recovery_timeout(attempt, out),
            TimerId::BatchCopier => self.on_batch_copier(out),
        }
    }

    // ---- shared helpers --------------------------------------------------

    pub(crate) fn send(&mut self, to: SiteId, msg: Message, out: &mut Vec<Output>) {
        self.metrics.msgs_sent += 1;
        // With one transaction in flight (serial mode) every send is
        // attributed to it, as in the paper's measurements. In pipelined
        // mode the sender is ambiguous here; owned sends go through
        // `send_for`.
        if self.coords.len() == 1 {
            if let Some(coord) = self.coords.values_mut().next() {
                coord.stats.messages_sent += 1;
            }
        }
        out.push(Output::Send { to, msg });
    }

    /// Send a message on behalf of coordinated transaction `owner`.
    pub(crate) fn send_for(
        &mut self,
        owner: TxnId,
        to: SiteId,
        msg: Message,
        out: &mut Vec<Output>,
    ) {
        self.metrics.msgs_sent += 1;
        if let Some(coord) = self.coords.get_mut(&owner) {
            coord.stats.messages_sent += 1;
        } else if self.coords.len() == 1 {
            if let Some(coord) = self.coords.values_mut().next() {
                coord.stats.messages_sent += 1;
            }
        }
        out.push(Output::Send { to, msg });
    }

    /// Send without attributing the message to the active transaction.
    pub(crate) fn send_unattributed(&mut self, to: SiteId, msg: Message, out: &mut Vec<Output>) {
        self.metrics.msgs_sent += 1;
        out.push(Output::Send { to, msg });
    }

    pub(crate) fn fresh_req(&mut self) -> ReqId {
        let id = ReqId(self.next_req);
        self.next_req += 1;
        id
    }

    /// Protocol traffic arrived from a site our vector marks Down. Under
    /// fail-stop that cannot happen; in practice it means the sender was
    /// excluded by a timeout it never learned about (message loss or a
    /// partition made the cluster give up on it while it kept running).
    /// Tell it directly: a failure announcement naming the sender under
    /// the session we have on record. If that session is still the
    /// sender's current one it steps down and re-integrates through a
    /// type-1 recovery; if the sender has since recovered to a newer
    /// session it ignores the stale notice.
    pub(crate) fn notify_excluded_sender(&mut self, from: SiteId, out: &mut Vec<Output>) {
        let session = self.vector.session(from);
        self.send_unattributed(
            from,
            Message::FailureAnnounce {
                failed: vec![(from, session)],
            },
            out,
        );
    }

    /// Apply a committed write set locally: database writes plus
    /// commit-time fail-lock maintenance (paper §1.2).
    pub(crate) fn apply_commit(
        &mut self,
        writes: &[(ItemId, ItemValue)],
        clears: &[(ItemId, SiteId)],
        up_mask: u64,
        out: &mut Vec<Output>,
    ) -> crate::faillock::MaintainCounts {
        let mut applied = 0u32;
        let mut persisted = Vec::new();
        for (item, value) in writes {
            if self.replication.holds(*item, self.id) {
                self.hydrate(*item);
                // Version-ordered apply (versions are transaction ids):
                // identical to an unconditional write under serial
                // processing, and makes copies converge to the freshest
                // version when pipelined commits from different
                // coordinators reach sites in different orders.
                let fresher = self
                    .db
                    .put_if_fresher(item.0, *value)
                    .expect("write set item within database universe");
                if fresher && self.config.emit_persistence {
                    persisted.push((*item, *value));
                }
                applied += 1;
            }
        }
        out.push(Output::Work(Work::ApplyWrites(applied)));

        let mut counts = crate::faillock::MaintainCounts::default();
        let mut lock_words = Vec::new();
        if self.faillocks_active() {
            for (item, _) in writes {
                let mask = self.replication.holder_mask(*item);
                // Use the coordinator's operational bitmap, not our own
                // vector: the fail-lock table is replicated state, and every
                // participant of this commit must apply the identical update
                // even if membership views diverge mid-transaction.
                let c = self.faillocks.maintain_on_commit_bits(*item, up_mask, mask);
                counts.set += c.set;
                counts.cleared += c.cleared;
            }
            for (item, site) in clears {
                if self.faillocks.clear(*item, *site) {
                    counts.cleared += 1;
                }
            }
            if self.config.emit_persistence {
                for (item, _) in writes {
                    lock_words.push((*item, self.faillocks.word(*item)));
                }
                for (item, _) in clears {
                    if !lock_words.iter().any(|(i, _)| i == item) {
                        lock_words.push((*item, self.faillocks.word(*item)));
                    }
                }
            }
            out.push(Output::Work(Work::FailLockMaintain(writes.len() as u32)));
            self.metrics.faillocks_set += counts.set as u64;
            self.metrics.faillocks_cleared += counts.cleared as u64;
            if counts.set > 0 {
                self.tracer
                    .emit(None, EventKind::FailLocksSet { count: counts.set });
            }
            if counts.cleared > 0 {
                self.tracer.emit(
                    None,
                    EventKind::FailLocksCleared {
                        count: counts.cleared,
                    },
                );
            }
            // A commit reaching every healthy holder may make our backup
            // copy of an item redundant (type-3 retirement, §3.2).
            let written: Vec<ItemId> = writes.iter().map(|(item, _)| *item).collect();
            self.maybe_retire_backups(&written, out);
        }
        if !persisted.is_empty() || !lock_words.is_empty() {
            // Writes of one commit share their version (the txn id); a
            // refresh batch may mix versions — take the max for the log.
            let txn = TxnId(persisted.iter().map(|(_, v)| v.version).max().unwrap_or(0));
            out.push(Output::Persist {
                txn,
                writes: persisted,
                faillocks: lock_words,
            });
        }
        out.push(Output::Work(Work::CommitLocal));
        self.after_own_locks_changed(out);
        counts
    }

    /// Fail-lock bookkeeping is live only under the paper's ROWAA
    /// strategy (plain ROWA never creates stale copies; majority quorum
    /// masks them with version comparison).
    pub(crate) fn faillocks_active(&self) -> bool {
        self.config.fail_locks_enabled
            && self.config.strategy == crate::config::ReplicationStrategy::RowaAvailable
    }

    /// Pick the lowest-id operational site (other than us) holding an
    /// up-to-date copy of `item`.
    pub(crate) fn up_to_date_source(&self, item: ItemId) -> Option<SiteId> {
        self.replication
            .holders_of(item)
            .find(|&s| s != self.id && self.vector.is_up(s) && !self.faillocks.is_locked(item, s))
    }

    /// React to changes in our own fail-lock bits: completion of data
    /// recovery, or transition to batch copier mode — the one place the
    /// two-step decision (§3.2, stale share ≤ threshold) is taken.
    pub(crate) fn after_own_locks_changed(&mut self, out: &mut Vec<Output>) {
        if self.refresh == RefreshMode::Idle {
            return;
        }
        let stale = self.own_stale_count();
        if stale == 0 {
            self.refresh = RefreshMode::Idle;
            out.push(Output::DataRecoveryComplete);
            return;
        }
        let batch_due = self
            .config
            .two_step_recovery
            .is_some_and(|t| stale as f64 / self.config.db_size as f64 <= t.threshold);
        if batch_due && self.refresh == RefreshMode::OnDemand {
            self.refresh = RefreshMode::Batch { armed: true };
            out.push(Output::SetTimer(TimerId::BatchCopier));
        }
    }
}
