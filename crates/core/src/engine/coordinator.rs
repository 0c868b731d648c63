//! Coordinating-site logic: Appendix A.1 of the paper.
//!
//! The coordinator receives a database transaction from the managing
//! site, refreshes any fail-locked copies it must read (copier
//! transactions), executes reads against its own copy ("read one"),
//! then drives two-phase commit over every operational site
//! ("write all available").
//!
//! ## Pipelining
//!
//! The paper processed transactions strictly serially (assumption 2);
//! `max_inflight = 1` (the default) reproduces that. With a larger
//! window, up to `max_inflight` transactions are admitted concurrently.
//! Admission is *conservative* strict 2PL: a transaction's read and
//! write sets are predeclared ([`crate::ops::Transaction`] carries the
//! full operation list), so every lock is requested at admission —
//! exclusive for written items, shared for read-only items. A
//! transaction whose locks are all granted starts immediately; one that
//! must wait parks until the conflicting earlier transactions finish.
//! Because a transaction only ever waits for transactions admitted
//! before it (all of whose requests were issued earlier), the wait-for
//! graph is ordered by admission time and local deadlock is impossible.

use std::collections::{BTreeSet, HashMap};

use crate::config::ReplicationStrategy;
use crate::error::AbortReason;
use crate::ids::{ItemId, SiteId, TxnId};
use crate::locks::{LockMode, LockResult};
use crate::messages::{Message, TxnOutcome, TxnReport, TxnStats};
use crate::ops::Transaction;
use crate::trace::EventKind;
use miniraid_storage::ItemValue;

use super::{CoordTxn, Output, SiteEngine, TimerId, Work, TIMER_LIVE};

/// Phase of a coordinated transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordPhase {
    /// Refreshing fail-locked copies / fetching remote reads.
    Refresh,
    /// Phase one: waiting for update acks.
    WaitAcks,
    /// Cross-shard branch, locally prepared: every participant buffered
    /// the write set and we voted yes — parked until the top-level shard
    /// coordinator's `ShardDecide`. The local commit point has *not*
    /// been passed, so a step-down in this phase aborts (with a no vote)
    /// exactly like `WaitAcks`.
    WaitGlobalDecision,
    /// Phase two: waiting for commit acks.
    WaitCommitAcks,
}

/// Compute the predeclared lock set of a transaction into a reused
/// buffer: exclusive on written items, shared on read-only items. The
/// engine keeps one scratch buffer so admission (and every waiter
/// readiness check) allocates nothing in steady state.
fn lock_plan_into(txn: &Transaction, plan: &mut Vec<(ItemId, LockMode)>) {
    plan.clear();
    for op in &txn.ops {
        match op {
            crate::ops::Operation::Write(item, _) => plan.push((*item, LockMode::Exclusive)),
            op => plan.push((op.item(), LockMode::Shared)),
        }
    }
    // Item order, exclusive first within an item; dedup keeps the first
    // entry, so a read of a written item folds into the exclusive lock.
    plan.sort_unstable_by_key(|(item, mode)| (item.0, matches!(mode, LockMode::Shared) as u8));
    plan.dedup_by_key(|(item, _)| *item);
}

impl SiteEngine {
    /// Entry point: the managing site handed us a database transaction.
    pub(super) fn begin_transaction(&mut self, txn: Transaction, out: &mut Vec<Output>) {
        // Duplicate submissions under an in-flight id are dropped
        // silently: cross-shard re-drives re-submit a branch's write
        // residue with the original id until some coordinator confirms,
        // and a re-drive that lands where the branch is still active
        // must not start a second coordination of it.
        if self.coords.contains_key(&txn.id)
            || self.lock_waiting.contains_key(&txn.id)
            || self.queued.iter().any(|t| t.id == txn.id)
        {
            return;
        }
        if !self.is_up() {
            self.vote_no_if_held(txn.id, out);
            out.push(Output::Report(TxnReport {
                txn: txn.id,
                coordinator: self.id(),
                outcome: TxnOutcome::Aborted(AbortReason::SiteNotOperational),
                stats: TxnStats::default(),
                read_results: Vec::new(),
            }));
            return;
        }
        if self.inflight_count() >= self.config.max_inflight.max(1) {
            // No admission slot: queue behind the in-flight window
            // (serial processing, paper assumption 2, when the window
            // is 1).
            self.queued.push_back(txn);
            return;
        }
        self.admit_transaction(txn, out);
    }

    /// Coordinated transactions currently admitted (running or waiting
    /// for locks).
    pub(crate) fn inflight_count(&self) -> usize {
        self.coords.len() + self.lock_waiting.len()
    }

    /// Acquire the predeclared locks and either start the transaction or
    /// park it until earlier conflicting transactions release.
    fn admit_transaction(&mut self, txn: Transaction, out: &mut Vec<Output>) {
        let inflight = (self.inflight_count() + 1) as u64;
        self.metrics.inflight_high_water = self.metrics.inflight_high_water.max(inflight);
        self.tracer.emit(Some(txn.id), EventKind::TxnAdmit);

        let mut all_granted = true;
        let mut plan = std::mem::take(&mut self.lock_plan_scratch);
        lock_plan_into(&txn, &mut plan);
        for (item, mode) in plan.drain(..) {
            match self.locks.acquire(txn.id, item, mode) {
                LockResult::Granted => {}
                LockResult::Waiting => all_granted = false,
                LockResult::Deadlock => {
                    // Unreachable with conservative admission-ordered
                    // acquisition (waits only ever point at
                    // earlier-admitted transactions); park defensively —
                    // the blocking transactions' release wakes us.
                    debug_assert!(false, "conservative admission cannot deadlock");
                    all_granted = false;
                }
            }
        }
        self.lock_plan_scratch = plan;
        if all_granted {
            self.metrics.lock_grants_immediate += 1;
            self.start_transaction(txn, out);
        } else {
            self.metrics.lock_waits += 1;
            self.tracer.emit(Some(txn.id), EventKind::LockWait);
            self.lock_wait_order.push_back(txn.id);
            self.lock_waiting.insert(txn.id, txn);
        }
    }

    fn start_transaction(&mut self, txn: Transaction, out: &mut Vec<Output>) {
        out.push(Output::Work(Work::TxnSetup));
        self.metrics.txns_coordinated += 1;
        self.tracer.emit(Some(txn.id), EventKind::LockGrant);
        self.tracer.emit(Some(txn.id), EventKind::TxnStart);

        let id = self.id();
        let txn_id = txn.id;
        let writes: Vec<(ItemId, ItemValue)> = txn
            .write_set()
            .into_iter()
            .map(|(item, value)| (item, ItemValue::new(value, txn_id.0)))
            .collect();
        let mut stats = TxnStats {
            reads: txn.read_op_count() as u32,
            writes: writes.len() as u32,
            ..TxnStats::default()
        };

        // Strategy gates (availability ablation X6): plain ROWA blocks
        // writes unless *every* site is up; majority quorum blocks both
        // reads and writes without a majority.
        let majority = self.config.n_sites as usize / 2 + 1;
        match self.config.strategy {
            ReplicationStrategy::Rowa => {
                if !writes.is_empty() && self.vector.up_count() < self.config.n_sites as usize {
                    self.report_abort_new(txn_id, stats, AbortReason::DataUnavailable, out);
                    return;
                }
            }
            ReplicationStrategy::MajorityQuorum => {
                if self.vector.up_count() < majority {
                    self.report_abort_new(txn_id, stats, AbortReason::DataUnavailable, out);
                    return;
                }
            }
            ReplicationStrategy::RowaAvailable => {}
        }

        // Identify copies we must refresh before reading (paper: "if
        // transaction contains read operation for a fail-locked copy then
        // run copier transaction"), and reads we hold no copy of at all
        // (partial replication; ROWAA only).
        let mut stale_local: Vec<ItemId> = Vec::new();
        let mut remote: Vec<ItemId> = Vec::new();
        if self.config.strategy == ReplicationStrategy::RowaAvailable {
            for item in txn.read_items() {
                if self.replication.holds(item, id) {
                    if self.config.fail_locks_enabled && self.faillocks.is_locked(item, id) {
                        stale_local.push(item);
                    }
                } else {
                    remote.push(item);
                }
            }
        }

        // Group refresh work by source site; abort if any item has no
        // operational up-to-date copy anywhere (the paper's data
        // unavailability abort, Experiment 3 scenario 1).
        let mut copier_groups: HashMap<SiteId, Vec<ItemId>> = HashMap::new();
        for item in &stale_local {
            match self.up_to_date_source(*item) {
                Some(src) => copier_groups.entry(src).or_default().push(*item),
                None => {
                    self.report_abort_new(txn_id, stats, AbortReason::DataUnavailable, out);
                    return;
                }
            }
        }
        let mut read_groups: HashMap<SiteId, Vec<ItemId>> = HashMap::new();
        for item in &remote {
            match self.up_to_date_source(*item) {
                Some(src) => read_groups.entry(src).or_default().push(*item),
                None => {
                    self.report_abort_new(txn_id, stats, AbortReason::DataUnavailable, out);
                    return;
                }
            }
        }

        stats.copier_requests = copier_groups.len() as u32;
        self.metrics.copier_requests += copier_groups.len() as u64;

        let mut state = CoordTxn {
            txn,
            snapshot: self.vector.session_snapshot(),
            up_mask: self.vector.up_mask(),
            phase: CoordPhase::Refresh,
            participants: BTreeSet::new(),
            waiting: BTreeSet::new(),
            writes,
            pending_copiers: HashMap::new(),
            pending_reads: HashMap::new(),
            refreshed: Vec::new(),
            remote_values: HashMap::new(),
            read_results: Vec::new(),
            stats,
            phase2_failure: false,
            quorum_needed: 0,
            quorum_got: 0,
        };

        // Issue copier transactions and remote reads (ROWAA)...
        let mut sends = Vec::new();
        for (target, items) in copier_groups {
            let req = self.fresh_req();
            state.pending_copiers.insert(req, (target, items.clone()));
            self.req_owner.insert(req, txn_id);
            self.tracer
                .emit(Some(txn_id), EventKind::CopierRequest { target });
            sends.push((target, Message::CopyRequest { req, items }));
            out.push(Output::SetTimer(TimerId::CopierTimeout(req)));
        }
        for (target, items) in read_groups {
            let req = self.fresh_req();
            state.pending_reads.insert(req, (target, items.clone()));
            self.req_owner.insert(req, txn_id);
            sends.push((target, Message::ReadRequest { req, items }));
            out.push(Output::SetTimer(TimerId::ReadTimeout(req)));
        }

        // ... or a quorum read round (majority quorum): every read is
        // answered by a majority of copies; the freshest version wins.
        let read_items = state.txn.read_items();
        if self.config.strategy == ReplicationStrategy::MajorityQuorum && !read_items.is_empty() {
            // Seed with our own copies; peer responses merge over them.
            for item in &read_items {
                self.hydrate(*item);
                let own = self.db.get(item.0).expect("item in universe");
                state.remote_values.insert(*item, own);
            }
            state.quorum_needed = majority - 1;
            if state.quorum_needed > 0 {
                let peers = self.vector.operational_peers(id);
                for peer in peers {
                    let req = self.fresh_req();
                    state.pending_reads.insert(req, (peer, read_items.clone()));
                    self.req_owner.insert(req, txn_id);
                    sends.push((
                        peer,
                        Message::ReadRequest {
                            req,
                            items: read_items.clone(),
                        },
                    ));
                    out.push(Output::SetTimer(TimerId::ReadTimeout(req)));
                }
            }
        }

        let refresh_done = state.pending_copiers.is_empty() && state.pending_reads.is_empty();
        self.coords.insert(txn_id, state);
        for (to, msg) in sends {
            self.send_for(txn_id, to, msg, out);
        }
        if refresh_done {
            self.proceed_after_refresh(txn_id, out);
        }
    }

    /// Copier/remote-read phase finished: clear fail-locks at other
    /// sites, execute reads, then start phase one.
    pub(super) fn proceed_after_refresh(&mut self, txn_id: TxnId, out: &mut Vec<Output>) {
        let id = self.id();
        let Some(state) = self.coords.get_mut(&txn_id) else {
            return;
        };
        debug_assert_eq!(state.phase, CoordPhase::Refresh);

        // Fail-locks cleared by copier transactions were already
        // propagated per copy response (the paper's "special
        // transaction"); in piggyback mode they ride the CopyUpdate
        // below instead.
        let refreshed = state.refreshed.clone();

        // Execute reads: own copy for held items ("read one"), fetched
        // values for remote items. Hydrate restart-image items before
        // borrowing the transaction state (instant restart; no-op
        // otherwise).
        if self.hydration_remaining() > 0 {
            let items = self
                .coords
                .get(&txn_id)
                .expect("transaction in flight")
                .txn
                .read_items();
            for item in items {
                self.hydrate(item);
            }
        }
        let quorum = self.config.strategy == ReplicationStrategy::MajorityQuorum;
        let state = self.coords.get_mut(&txn_id).expect("transaction in flight");
        let read_items = state.txn.read_items();
        out.push(Output::Work(Work::ReadOps(read_items.len() as u32)));
        for item in read_items {
            let value = if quorum {
                // Freshest version among the read quorum (own copy was
                // seeded before the round).
                *state
                    .remote_values
                    .get(&item)
                    .expect("quorum read merged during refresh")
            } else if self.replication.holds(item, id) {
                self.db.get(item.0).expect("read item within universe")
            } else {
                *state
                    .remote_values
                    .get(&item)
                    .expect("remote read fetched during refresh")
            };
            state.read_results.push((item, value));
        }

        // Read-only transactions commit locally by default (an empty
        // write-all round is vacuous). A cross-shard branch parks
        // instead: even with nothing left to do locally, its fate is the
        // global decision's.
        if state.writes.is_empty() && !self.config.two_phase_read_only {
            if self.park_if_held(txn_id, out) {
                return;
            }
            self.finish_commit(txn_id, out);
            return;
        }

        // Phase one: copy update to every operational site (paper
        // Appendix A.1). Fail-locks are fully replicated, so all
        // operational sites participate even under partial replication.
        let participants: BTreeSet<SiteId> =
            self.vector.operational_peers(id).into_iter().collect();
        if participants.is_empty() {
            if self.park_if_held(txn_id, out) {
                return;
            }
            self.finish_commit(txn_id, out);
            return;
        }
        self.tracer.emit(
            Some(txn_id),
            EventKind::PreparePhase {
                participants: participants.len().min(u8::MAX as usize) as u8,
            },
        );
        let up_mask = self.vector.up_mask();
        let state = self.coords.get_mut(&txn_id).expect("transaction in flight");
        state.participants = participants.clone();
        state.waiting = participants.clone();
        state.phase = CoordPhase::WaitAcks;
        // Refresh the operational bitmap alongside the participant set: the
        // mask shipped in the CopyUpdate must describe exactly the view that
        // chose the participants, so every site's commit-time fail-lock
        // maintenance is identical.
        state.up_mask = up_mask;
        let writes = state.writes.clone();
        let snapshot = state.snapshot.clone();
        let clears: Vec<(ItemId, SiteId)> = if self.config.piggyback_clears {
            refreshed.iter().map(|i| (*i, id)).collect()
        } else {
            Vec::new()
        };
        for peer in participants {
            self.send_for(
                txn_id,
                peer,
                Message::CopyUpdate {
                    txn: txn_id,
                    writes: writes.clone(),
                    snapshot: snapshot.clone(),
                    clears: clears.clone(),
                    up_mask,
                },
                out,
            );
        }
        out.push(Output::SetTimer(TimerId::AckTimeout(txn_id)));
    }

    /// Phase-one acknowledgement from a participant.
    pub(super) fn on_update_ack(
        &mut self,
        from: SiteId,
        txn: TxnId,
        ok: bool,
        out: &mut Vec<Output>,
    ) {
        let Some(state) = self.coords.get_mut(&txn) else {
            return;
        };
        if state.phase != CoordPhase::WaitAcks {
            return;
        }
        self.tracer.emit(Some(txn), EventKind::Vote { from, ok });
        let state = self.coords.get_mut(&txn).expect("checked above");
        if !ok {
            // Session mismatch (or a not-yet-operational recovering site):
            // abort everywhere.
            let participants: Vec<SiteId> = state.participants.iter().copied().collect();
            for peer in participants {
                self.send_for(txn, peer, Message::AbortTxn { txn }, out);
            }
            self.report_abort_active(txn, AbortReason::SessionMismatch, out);
            return;
        }
        state.waiting.remove(&from);
        if state.waiting.is_empty() {
            // Cross-shard branch: locally prepared — park and vote yes
            // instead of committing; `ShardDecide` resumes phase two.
            if self.park_if_held(txn, out) {
                return;
            }
            // Phase two: commit indication to all participants.
            let state = self.coords.get_mut(&txn).expect("checked above");
            state.phase = CoordPhase::WaitCommitAcks;
            state.waiting = state.participants.clone();
            let participants: Vec<SiteId> = state.participants.iter().copied().collect();
            self.tracer.emit(Some(txn), EventKind::Decide);
            for peer in participants {
                self.send_for(txn, peer, Message::Commit { txn }, out);
            }
            out.push(Output::SetTimer(TimerId::CommitAckTimeout(txn)));
        }
    }

    /// Phase-two acknowledgement from a participant.
    pub(super) fn on_commit_ack(&mut self, from: SiteId, txn: TxnId, out: &mut Vec<Output>) {
        let Some(state) = self.coords.get_mut(&txn) else {
            return;
        };
        if state.phase != CoordPhase::WaitCommitAcks {
            return;
        }
        state.waiting.remove(&from);
        if state.waiting.is_empty() {
            self.finish_commit(txn, out);
        }
    }

    /// Some participant never acknowledged phase one: announce its
    /// failure and abort (paper Appendix A.1, phase-one else branch).
    pub(super) fn on_ack_timeout(&mut self, txn: TxnId, out: &mut Vec<Output>) {
        let state = self.coords.get(&txn).expect(TIMER_LIVE);
        let failed: Vec<SiteId> = state.waiting.iter().copied().collect();
        let acked: Vec<SiteId> = state
            .participants
            .iter()
            .filter(|p| !state.waiting.contains(p))
            .copied()
            .collect();
        self.announce_failures(&failed, out);
        for peer in acked {
            self.send_for(txn, peer, Message::AbortTxn { txn }, out);
        }
        self.report_abort_active(txn, AbortReason::ParticipantFailed, out);
    }

    /// Some participant never acknowledged commit: announce the failure
    /// but still commit (paper Appendix A.1: "if commit ack not received
    /// from all participating sites then run control type 2 transaction
    /// ... commit database data items").
    pub(super) fn on_commit_ack_timeout(&mut self, txn: TxnId, out: &mut Vec<Output>) {
        let state = self.coords.get_mut(&txn).expect(TIMER_LIVE);
        state.phase2_failure = true;
        let failed: Vec<SiteId> = state.waiting.iter().copied().collect();
        // The CopyUpdate's up_mask still shows the failed sites up, so
        // commit-time maintenance would *clear* their fail-lock bits on
        // the very items they just missed. Correct our own mask before
        // finish_commit runs it (the paper sequences the type-2 control
        // transaction before the commit for this reason), and send the
        // corrective set to the participants that already committed with
        // the optimistic mask.
        let mut failed_mask = 0u64;
        for site in &failed {
            failed_mask |= 1u64 << site.0;
        }
        state.up_mask &= !failed_mask;
        let items: Vec<ItemId> = state.writes.iter().map(|(i, _)| *i).collect();
        let acked: Vec<SiteId> = state
            .participants
            .iter()
            .filter(|p| !state.waiting.contains(p))
            .copied()
            .collect();
        self.announce_failures(&failed, out);
        for peer in &acked {
            for site in &failed {
                self.send_unattributed(
                    *peer,
                    Message::SetFailLocks {
                        site: *site,
                        items: items.clone(),
                    },
                    out,
                );
            }
        }
        self.finish_commit(txn, out);
    }

    /// Commit locally and report the outcome: apply the write set, run
    /// commit-time fail-lock maintenance, surface statistics.
    pub(super) fn finish_commit(&mut self, txn_id: TxnId, out: &mut Vec<Output>) {
        let state = self.retire(txn_id).expect("transaction in flight");
        let counts = self.apply_commit(&state.writes, &[], state.up_mask, out);
        let mut stats = state.stats;
        stats.faillocks_set += counts.set;
        stats.faillocks_cleared += counts.cleared;
        stats.participant_failed_phase_two = state.phase2_failure;
        self.metrics.txns_committed += 1;
        self.tracer.emit(Some(txn_id), EventKind::Commit);
        out.push(Output::Report(TxnReport {
            txn: state.txn.id,
            coordinator: self.id(),
            outcome: TxnOutcome::Committed,
            stats,
            read_results: state.read_results,
        }));
        self.after_transaction_finished(txn_id, out);
    }

    /// Abort an in-flight transaction and report.
    pub(super) fn report_abort_active(
        &mut self,
        txn_id: TxnId,
        reason: AbortReason,
        out: &mut Vec<Output>,
    ) {
        self.vote_no_if_held(txn_id, out);
        let state = self.retire(txn_id).expect("transaction in flight");
        self.metrics.aborts.record(reason);
        self.tracer.emit(Some(txn_id), EventKind::Abort { reason });
        out.push(Output::Report(TxnReport {
            txn: state.txn.id,
            coordinator: self.id(),
            outcome: TxnOutcome::Aborted(reason),
            stats: state.stats,
            read_results: Vec::new(),
        }));
        self.after_transaction_finished(txn_id, out);
    }

    /// Abort during startup, before coordinator state was installed.
    fn report_abort_new(
        &mut self,
        txn: TxnId,
        stats: TxnStats,
        reason: AbortReason,
        out: &mut Vec<Output>,
    ) {
        self.vote_no_if_held(txn, out);
        self.metrics.aborts.record(reason);
        self.tracer.emit(Some(txn), EventKind::Abort { reason });
        out.push(Output::Report(TxnReport {
            txn,
            coordinator: self.id(),
            outcome: TxnOutcome::Aborted(reason),
            stats,
            read_results: Vec::new(),
        }));
        self.after_transaction_finished(txn, out);
    }

    /// Remove a transaction's coordinator state and its request routes.
    fn retire(&mut self, txn_id: TxnId) -> Option<CoordTxn> {
        let state = self.coords.remove(&txn_id)?;
        for req in state
            .pending_copiers
            .keys()
            .chain(state.pending_reads.keys())
        {
            self.req_owner.remove(req);
        }
        Some(state)
    }

    /// A transaction left the in-flight window: release its locks, start
    /// any waiters whose lock sets completed, and refill admission slots
    /// from the queue.
    fn after_transaction_finished(&mut self, txn_id: TxnId, out: &mut Vec<Output>) {
        self.locks.release_all(txn_id);
        self.start_ready_lock_waiters(out);
        self.fill_admission_slots(out);
    }

    /// Start lock waiters (in admission order) whose predeclared locks
    /// are now all held.
    fn start_ready_lock_waiters(&mut self, out: &mut Vec<Output>) {
        let mut i = 0;
        while i < self.lock_wait_order.len() {
            let id = self.lock_wait_order[i];
            let mut plan = std::mem::take(&mut self.lock_plan_scratch);
            let ready = match self.lock_waiting.get(&id) {
                Some(txn) => {
                    lock_plan_into(txn, &mut plan);
                    plan.iter()
                        .all(|(item, mode)| self.locks.holds(id, *item, *mode))
                }
                None => false,
            };
            self.lock_plan_scratch = plan;
            if ready {
                self.lock_wait_order.remove(i);
                let txn = self.lock_waiting.remove(&id).expect("waiter present");
                self.start_transaction(txn, out);
                // An immediate abort inside start_transaction re-enters
                // this function and may mutate the queue; rescan from the
                // front. Terminates: each start consumes one waiter.
                i = 0;
            } else {
                i += 1;
            }
        }
    }

    /// Admit queued transactions while the in-flight window has room.
    fn fill_admission_slots(&mut self, out: &mut Vec<Output>) {
        while self.inflight_count() < self.config.max_inflight.max(1) {
            let Some(txn) = self.queued.pop_front() else {
                break;
            };
            self.admit_transaction(txn, out);
        }
    }

    // ---- Cross-shard branch coordination (crates/shard) -----------------
    //
    // A multi-shard transaction is split by the shard router into one
    // branch per replication group. Each branch runs the ordinary ROWAA
    // protocol here up to the local commit point, then *parks* in
    // `CoordPhase::WaitGlobalDecision` and votes to the top-level
    // coordinator instead of committing. `ShardDecide` resumes phase two
    // (commit) or aborts the branch. The top-level coordinator plays the
    // paper's managing-site role — outside the site failure model — so
    // no timer guards the parked state: the router's own vote timeout
    // plus the participants' `ParticipantTimeout` bound every wait.

    /// `ShardPrepare`: run `txn` as a held cross-shard branch. The vote
    /// goes back to `from` (the router's local alias).
    pub(super) fn on_shard_prepare(
        &mut self,
        from: SiteId,
        txn: Transaction,
        out: &mut Vec<Output>,
    ) {
        let id = txn.id;
        if self.held.contains_key(&id)
            || self.coords.contains_key(&id)
            || self.lock_waiting.contains_key(&id)
            || self.queued.iter().any(|t| t.id == id)
        {
            return; // duplicate prepare
        }
        self.held.insert(id, from);
        self.begin_transaction(txn, out);
    }

    /// `ShardDecide`: the top-level coordinator resolved the branch.
    pub(super) fn on_shard_decide(&mut self, txn: TxnId, commit: bool, out: &mut Vec<Output>) {
        if commit {
            let parked = self
                .coords
                .get(&txn)
                .is_some_and(|s| s.phase == CoordPhase::WaitGlobalDecision);
            if !parked {
                // We never voted yes under this incarnation (stepped down
                // after voting, or the prepare never ran): the router's
                // re-drive path resubmits the branch as an ordinary
                // transaction instead.
                self.held.remove(&txn);
                return;
            }
            self.held.remove(&txn);
            let state = self.coords.get_mut(&txn).expect("parked above");
            if state.participants.is_empty() {
                self.finish_commit(txn, out);
                return;
            }
            state.phase = CoordPhase::WaitCommitAcks;
            state.waiting = state.participants.clone();
            let peers: Vec<SiteId> = state.participants.iter().copied().collect();
            self.tracer.emit(Some(txn), EventKind::Decide);
            for peer in peers {
                self.send_for(txn, peer, Message::Commit { txn }, out);
            }
            out.push(Output::SetTimer(TimerId::CommitAckTimeout(txn)));
            return;
        }
        // Global abort. The branch may be parked, still in refresh or
        // phase one (the router aborts on its vote timeout without
        // waiting for stragglers), or not yet admitted — all of which are
        // before the local commit point, so aborting is always safe.
        self.held.remove(&txn);
        if let Some(state) = self.coords.get(&txn) {
            if state.phase == CoordPhase::WaitCommitAcks {
                return; // decision already applied; never undo a commit
            }
            let peers: Vec<SiteId> = state.participants.iter().copied().collect();
            for peer in peers {
                self.send_for(txn, peer, Message::AbortTxn { txn }, out);
            }
            self.report_abort_active(txn, AbortReason::GlobalAbort, out);
            return;
        }
        if self.lock_waiting.remove(&txn).is_some() {
            self.lock_wait_order.retain(|t| *t != txn);
            self.abort_unstarted(txn, out);
            return;
        }
        if let Some(pos) = self.queued.iter().position(|t| t.id == txn) {
            self.queued.remove(pos);
            self.abort_unstarted(txn, out);
        }
    }

    /// Park a held branch at its local commit point and vote yes.
    fn park_if_held(&mut self, txn: TxnId, out: &mut Vec<Output>) -> bool {
        let Some(&home) = self.held.get(&txn) else {
            return false;
        };
        let state = self.coords.get_mut(&txn).expect("transaction in flight");
        state.phase = CoordPhase::WaitGlobalDecision;
        state.waiting.clear();
        self.send_unattributed(home, Message::ShardVote { txn, ok: true }, out);
        true
    }

    /// If `txn` is a held branch, tell the top-level coordinator it
    /// failed locally (any local abort path lands here).
    pub(super) fn vote_no_if_held(&mut self, txn: TxnId, out: &mut Vec<Output>) {
        if let Some(home) = self.held.remove(&txn) {
            self.send_unattributed(home, Message::ShardVote { txn, ok: false }, out);
        }
    }

    /// Abort a branch that was aborted globally before it even started
    /// (it sat in the lock-wait set or the admission queue).
    fn abort_unstarted(&mut self, txn: TxnId, out: &mut Vec<Output>) {
        let reason = AbortReason::GlobalAbort;
        self.metrics.aborts.record(reason);
        self.tracer.emit(Some(txn), EventKind::Abort { reason });
        out.push(Output::Report(TxnReport {
            txn,
            coordinator: self.id(),
            outcome: TxnOutcome::Aborted(reason),
            stats: TxnStats::default(),
            read_results: Vec::new(),
        }));
        self.after_transaction_finished(txn, out);
    }
}
