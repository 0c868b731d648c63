//! Copier transactions and fail-lock clearing (paper §1.2), plus remote
//! reads for partially replicated databases.
//!
//! "A copier transaction causes a read from a good data item on another
//! operational site and a write to the data item on the recovering site."
//! Copiers run in two contexts: on demand, before phase one of a database
//! transaction that reads a fail-locked copy (Appendix A.1), and in batch
//! mode during step two of the two-step recovery the paper proposes
//! (§3.2).

use crate::config::ReplicationStrategy;
use crate::error::AbortReason;
use crate::ids::{ItemId, ReqId, SiteId};
use crate::messages::Message;
use crate::trace::EventKind;
use miniraid_storage::ItemValue;

use crate::ids::TxnId;

use super::{CoordPhase, Output, SiteEngine, Work, TIMER_LIVE};

/// Log id for a refresh batch: the freshest version it carries.
fn refresh_log_txn(writes: &[(ItemId, ItemValue)]) -> TxnId {
    TxnId(writes.iter().map(|(_, v)| v.version).max().unwrap_or(0))
}

impl SiteEngine {
    /// Serve a copy request: ship up-to-date copies of the requested
    /// items. The paper measured this service cost at 25 ms.
    pub(super) fn serve_copy_request(
        &mut self,
        from: SiteId,
        req: ReqId,
        items: Vec<ItemId>,
        out: &mut Vec<Output>,
    ) {
        let me = self.id();
        // A requester our vector marks Down was excluded without knowing
        // it; refuse (its fail-lock view is stale) and tell it directly.
        if !self.vector.is_up(from) {
            self.notify_excluded_sender(from, out);
            self.send(
                from,
                Message::CopyResponse {
                    req,
                    ok: false,
                    copies: Vec::new(),
                },
                out,
            );
            return;
        }
        let mut copies = Vec::with_capacity(items.len());
        let mut ok = true;
        for item in &items {
            // We can serve only copies we hold and that are up to date.
            if self.replication.holds(*item, me) && !self.faillocks.is_locked(*item, me) {
                self.hydrate(*item);
                copies.push((*item, self.db.get(item.0).expect("item in universe")));
            } else {
                ok = false;
                break;
            }
        }
        if !ok {
            copies.clear();
        }
        out.push(Output::Work(Work::CopierService(items.len() as u32)));
        self.metrics.copy_requests_served += 1;
        self.tracer
            .emit(None, EventKind::CopierServe { site: from });
        self.send(from, Message::CopyResponse { req, ok, copies }, out);
    }

    /// A copy response arrived — for the active transaction's refresh
    /// phase, or for a standalone (batch recovery) copier.
    pub(super) fn on_copy_response(
        &mut self,
        _from: SiteId,
        req: ReqId,
        ok: bool,
        copies: Vec<(ItemId, ItemValue)>,
        out: &mut Vec<Output>,
    ) {
        // Transaction-scoped copier? Responses are routed to the owning
        // transaction (several may refresh concurrently when pipelined).
        if let Some(owner) = self.req_owner.get(&req).copied() {
            let removed = self
                .coords
                .get_mut(&owner)
                .and_then(|state| state.pending_copiers.remove(&req).map(|e| (e, state.phase)));
            if let Some(((_target, items), phase)) = removed {
                self.req_owner.remove(&req);
                if phase != CoordPhase::Refresh {
                    return; // stale response
                }
                if !ok {
                    // The source lost its up-to-date copy: the paper
                    // aborts the database transaction.
                    self.report_abort_active(owner, AbortReason::DataUnavailable, out);
                    return;
                }
                let cleared = self.apply_refresh(&copies, out);
                let state = self.coords.get_mut(&owner).expect("transaction in flight");
                state.stats.faillocks_cleared += cleared;
                state.refreshed.extend(items.iter().copied());
                // Propagate the clears for THIS refresh immediately (one
                // special transaction per copier): if a later copier of
                // the same transaction fails and aborts it, the applied
                // refresh is still real and peers must learn its
                // fail-locks are gone. (Piggyback mode instead rides the
                // eventual CopyUpdate.)
                if !self.config.piggyback_clears {
                    let me = self.id();
                    let peers = self.vector.operational_peers(me);
                    for peer in peers {
                        self.send_for(
                            owner,
                            peer,
                            Message::ClearFailLocks {
                                site: me,
                                items: items.clone(),
                            },
                            out,
                        );
                        self.metrics.clear_messages_sent += 1;
                    }
                }
                let state = self.coords.get_mut(&owner).expect("transaction in flight");
                if state.pending_copiers.is_empty() && state.pending_reads.is_empty() {
                    self.proceed_after_refresh(owner, out);
                }
            }
            return;
        }
        // Standalone (batch recovery) copier?
        if let Some((_target, items)) = self.standalone_copiers.remove(&req) {
            if ok {
                self.apply_refresh(&copies, out);
                // Inform the other operational sites (the "special
                // transaction" clearing fail-locks for copier refreshes).
                let me = self.id();
                let peers = self.vector.operational_peers(me);
                for peer in peers {
                    self.send(
                        peer,
                        Message::ClearFailLocks {
                            site: me,
                            items: items.clone(),
                        },
                        out,
                    );
                    self.metrics.clear_messages_sent += 1;
                }
            }
            self.continue_batch_recovery(out);
        }
    }

    /// Apply fetched copies locally and clear our own fail-locks for
    /// them. Returns the number of bits cleared.
    pub(super) fn apply_refresh(
        &mut self,
        copies: &[(ItemId, ItemValue)],
        out: &mut Vec<Output>,
    ) -> u32 {
        let me = self.id();
        let mut cleared = 0u32;
        let mut persisted = Vec::new();
        for (item, value) in copies {
            self.hydrate(*item);
            let applied = self
                .db
                .put_if_fresher(item.0, *value)
                .expect("item in universe");
            if applied && self.config().emit_persistence {
                persisted.push((*item, *value));
            }
            if self.faillocks.clear(*item, me) {
                cleared += 1;
            }
        }
        if !persisted.is_empty() {
            let txn = refresh_log_txn(&persisted);
            let faillocks = persisted
                .iter()
                .map(|(item, _)| (*item, self.faillocks().word(*item)))
                .collect();
            out.push(Output::Persist {
                txn,
                writes: persisted,
                faillocks,
            });
        }
        out.push(Output::Work(Work::ApplyWrites(copies.len() as u32)));
        out.push(Output::Work(Work::FailLockClear(cleared)));
        self.metrics.faillocks_cleared += cleared as u64;
        if cleared > 0 {
            self.tracer
                .emit(None, EventKind::FailLocksCleared { count: cleared });
        }
        self.after_own_locks_changed(out);
        cleared
    }

    /// The copier's target never answered: it has failed. Announce and —
    /// for a transaction copier — abort (paper Appendix A.1).
    pub(super) fn on_copier_timeout(&mut self, req: ReqId, out: &mut Vec<Output>) {
        if let Some(owner) = self.req_owner.remove(&req) {
            let state = self.coords.get_mut(&owner).expect(TIMER_LIVE);
            let (target, _items) = state.pending_copiers.remove(&req).expect(TIMER_LIVE);
            self.announce_failures(&[target], out);
            self.report_abort_active(owner, AbortReason::CopierTargetFailed, out);
        } else {
            let (target, _items) = self.standalone_copiers.remove(&req).expect(TIMER_LIVE);
            self.announce_failures(&[target], out);
            self.continue_batch_recovery(out);
        }
    }

    /// Clear fail-lock bits on behalf of `site`, which refreshed `items`
    /// via copier transactions. The paper measured this at 20 ms per site.
    pub(super) fn on_clear_faillocks(
        &mut self,
        site: SiteId,
        items: Vec<ItemId>,
        out: &mut Vec<Output>,
    ) {
        if !self.config.fail_locks_enabled {
            return;
        }
        let mut cleared = 0u32;
        for item in &items {
            if self.faillocks.clear(*item, site) {
                cleared += 1;
            }
        }
        out.push(Output::Work(Work::FailLockClear(items.len() as u32)));
        self.metrics.faillocks_cleared += cleared as u64;
        if cleared > 0 {
            self.tracer
                .emit(None, EventKind::FailLocksCleared { count: cleared });
        }
        if cleared > 0 && self.config().emit_persistence {
            let faillocks = items
                .iter()
                .map(|item| (*item, self.faillocks().word(*item)))
                .collect();
            out.push(Output::Persist {
                txn: TxnId(0),
                writes: Vec::new(),
                faillocks,
            });
        }
        if site == self.id() {
            self.after_own_locks_changed(out);
        }
        self.maybe_retire_backups(&items, out);
    }

    /// Set fail-lock bits on behalf of `site`, which a coordinator
    /// determined missed a commit after phase one (its CommitAck never
    /// arrived): our own commit-time maintenance ran with an `up_mask`
    /// still showing `site` operational and *cleared* these bits — undo
    /// that so the replicated table records the stale copies.
    pub(super) fn on_set_faillocks(
        &mut self,
        site: SiteId,
        items: Vec<ItemId>,
        out: &mut Vec<Output>,
    ) {
        if !self.config.fail_locks_enabled {
            return;
        }
        let mut set = 0u32;
        for item in &items {
            if self.replication.holds(*item, site) && self.faillocks.set(*item, site) {
                set += 1;
            }
        }
        out.push(Output::Work(Work::FailureUpdate(items.len() as u32)));
        self.metrics.faillocks_set += set as u64;
        if set > 0 {
            self.tracer
                .emit(None, EventKind::FailLocksSet { count: set });
        }
        if set > 0 && self.config().emit_persistence {
            let faillocks = items
                .iter()
                .map(|item| (*item, self.faillocks().word(*item)))
                .collect();
            out.push(Output::Persist {
                txn: TxnId(0),
                writes: Vec::new(),
                faillocks,
            });
        }
    }

    // ---- remote reads (partial replication) ---------------------------

    /// Serve a read request for items the requester holds no copy of.
    pub(super) fn serve_read_request(
        &mut self,
        from: SiteId,
        req: ReqId,
        items: Vec<ItemId>,
        out: &mut Vec<Output>,
    ) {
        let me = self.id();
        // Same exclusion notice as `serve_copy_request`: a reader our
        // vector marks Down would hand stale values to its clients.
        if !self.vector.is_up(from) {
            self.notify_excluded_sender(from, out);
            self.send(
                from,
                Message::ReadResponse {
                    req,
                    ok: false,
                    values: Vec::new(),
                },
                out,
            );
            return;
        }
        let quorum = self.config().strategy == ReplicationStrategy::MajorityQuorum;
        let mut values = Vec::with_capacity(items.len());
        let mut ok = true;
        for item in &items {
            self.hydrate(*item);
            if quorum {
                // Quorum reads want every copy's version; the merger at
                // the coordinator discards stale ones.
                values.push((*item, self.db.get(item.0).expect("item in universe")));
            } else if self.replication.holds(*item, me) && !self.faillocks.is_locked(*item, me) {
                values.push((*item, self.db.get(item.0).expect("item in universe")));
            } else {
                ok = false;
                break;
            }
        }
        if !ok {
            values.clear();
        }
        out.push(Output::Work(Work::ReadOps(items.len() as u32)));
        self.send(from, Message::ReadResponse { req, ok, values }, out);
    }

    /// A remote-read response for the active transaction: a quorum-read
    /// vote (majority quorum) or a fetched remote value (ROWAA partial
    /// replication).
    pub(super) fn on_read_response(
        &mut self,
        _from: SiteId,
        req: ReqId,
        ok: bool,
        values: Vec<(ItemId, ItemValue)>,
        out: &mut Vec<Output>,
    ) {
        let quorum = self.config().strategy == ReplicationStrategy::MajorityQuorum;
        let Some(owner) = self.req_owner.get(&req).copied() else {
            return;
        };
        let Some(state) = self.coords.get_mut(&owner) else {
            return;
        };
        let Some((_target, _items)) = state.pending_reads.remove(&req) else {
            return;
        };
        self.req_owner.remove(&req);
        if state.phase != CoordPhase::Refresh {
            return;
        }
        if quorum {
            // Merge: freshest version per item wins.
            for (item, value) in values {
                let slot = state.remote_values.entry(item).or_insert(value);
                if value.version > slot.version {
                    *slot = value;
                }
            }
            state.quorum_got += 1;
            if state.quorum_got >= state.quorum_needed {
                // Quorum reached; stragglers are ignored (stale-safe).
                let stragglers: Vec<ReqId> = state.pending_reads.drain().map(|(r, _)| r).collect();
                let copiers_done = state.pending_copiers.is_empty();
                for r in stragglers {
                    self.req_owner.remove(&r);
                }
                if copiers_done {
                    self.proceed_after_refresh(owner, out);
                }
            }
            return;
        }
        if !ok {
            self.report_abort_active(owner, AbortReason::DataUnavailable, out);
            return;
        }
        let state = self.coords.get_mut(&owner).expect("transaction in flight");
        for (item, value) in values {
            state.remote_values.insert(item, value);
        }
        if state.pending_copiers.is_empty() && state.pending_reads.is_empty() {
            self.proceed_after_refresh(owner, out);
        }
    }

    /// The remote-read target failed: announce, and abort unless a read
    /// quorum is still reachable.
    pub(super) fn on_read_timeout(&mut self, req: ReqId, out: &mut Vec<Output>) {
        let quorum = self.config().strategy == ReplicationStrategy::MajorityQuorum;
        let owner = self.req_owner.remove(&req).expect(TIMER_LIVE);
        let state = self.coords.get_mut(&owner).expect(TIMER_LIVE);
        let (target, _items) = state.pending_reads.remove(&req).expect(TIMER_LIVE);
        if quorum {
            let got = state.quorum_got;
            let needed = state.quorum_needed;
            let still_possible = got + state.pending_reads.len() >= needed;
            self.announce_failures(&[target], out);
            if !still_possible {
                self.report_abort_active(owner, AbortReason::DataUnavailable, out);
            }
            return;
        }
        self.announce_failures(&[target], out);
        self.report_abort_active(owner, AbortReason::DataUnavailable, out);
    }
}
