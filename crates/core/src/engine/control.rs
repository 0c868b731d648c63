//! Control transactions (paper §1.1 and §3.2).
//!
//! Type 1: issued by a recovering site — announces its new session to the
//! operational sites and obtains a session vector and fail-lock table
//! from one of them. Type 2: issued by any site that determines another
//! site has failed — updates the nominal session vectors of the remaining
//! operational sites. Type 3 (proposed in §3.2, implemented here): a site
//! holding the last operational up-to-date copy of an item creates a
//! backup copy on a site holding none.

use crate::ids::{ItemId, SessionNumber, SiteId, TxnId};
use crate::messages::Message;
use crate::packed::PackedSiteTable;
use crate::session::{SiteRecord, SiteStatus};
use crate::trace::EventKind;
use miniraid_storage::ItemValue;

use super::{Output, RecoveryState, RefreshMode, SiteEngine, TimerId, Work, TIMER_LIVE};

impl SiteEngine {
    // ---- type 1: recovery ------------------------------------------------

    /// Begin a type-1 control transaction (managing site said `Recover`).
    pub(super) fn begin_recovery(&mut self, out: &mut Vec<Output>) {
        if self.status() != SiteStatus::Down {
            return; // already up or already recovering
        }
        let me = self.id();
        let session = self.session().next();
        self.vector.set_record(
            me,
            SiteRecord {
                session,
                status: SiteStatus::WaitingToRecover,
            },
        );
        self.metrics.control_type1 += 1;
        self.tracer.emit(None, EventKind::ControlTxn { ctype: 1 });

        // Candidate responders: sites we last believed operational first,
        // then the rest — our vector may be stale after our down period.
        let mut candidates: Vec<SiteId> = self.vector.operational_peers(me);
        for s in 0..self.config.n_sites {
            let site = SiteId(s);
            if site != me && !candidates.contains(&site) {
                candidates.push(site);
            }
        }

        if candidates.is_empty() {
            // Single-site system: trivially operational again.
            self.vector.set_record(
                me,
                SiteRecord {
                    session,
                    status: SiteStatus::Up,
                },
            );
            self.tracer.emit(
                None,
                EventKind::SessionChange {
                    site: me,
                    session,
                    up: true,
                },
            );
            out.push(Output::BecameOperational { session });
            self.init_data_refresh(out);
            return;
        }

        // With `recovery_cross_check`, ask EVERY candidate for state,
        // not just a designated donor. Any single responder may itself
        // be stale — a falsely excluded site does not know it was
        // excluded and will happily serve a table missing bits the real
        // operational group holds. The first response completes the
        // control transaction (latency unchanged); the rest are merged
        // in as they arrive (`on_late_recovery_info`). Without the flag,
        // only `candidates[0]` formats state — the paper's protocol and
        // its measured type-1 cost.
        let designated = candidates[0];
        let cross_check = self.config.recovery_cross_check;
        self.recovery = Some(RecoveryState {
            candidates: candidates.clone(),
            attempt: 0,
            session,
        });
        for site in candidates {
            self.send_unattributed(
                site,
                Message::RecoveryAnnounce {
                    session,
                    want_state: cross_check || site == designated,
                },
                out,
            );
        }
        out.push(Output::SetTimer(TimerId::RecoveryInfoTimeout(0)));
    }

    /// Recover without a donor (managing site said `Bootstrap`): total
    /// failure left no operational site to run a type-1 against, and the
    /// managing site certifies we were in the last operational set — our
    /// fail-lock table and session vector are as complete as any. Come up
    /// in a fresh session with every peer marked down; they rejoin via
    /// ordinary type-1 recovery with us as the donor. Items our table
    /// shows stale at us stay fail-locked until their fresh holders are
    /// back, so no stale copy is ever served.
    pub(super) fn bootstrap_recovery(&mut self, out: &mut Vec<Output>) {
        if self.is_up() {
            return;
        }
        let me = self.id();
        let session = self.session().next();
        self.recovery = None;
        for s in 0..self.config.n_sites {
            let site = SiteId(s);
            if site != me {
                self.vector.mark_down(site);
            }
        }
        self.vector.set_record(
            me,
            SiteRecord {
                session,
                status: SiteStatus::Up,
            },
        );
        self.metrics.control_type1 += 1;
        self.tracer.emit(None, EventKind::ControlTxn { ctype: 1 });
        self.tracer.emit(
            None,
            EventKind::SessionChange {
                site: me,
                session,
                up: true,
            },
        );
        out.push(Output::BecameOperational { session });
        self.init_data_refresh(out);
    }

    /// An operational site processes a recovery announcement: update the
    /// vector and, if designated, ship session vector + fail-locks.
    pub(super) fn on_recovery_announce(
        &mut self,
        from: SiteId,
        session: SessionNumber,
        want_state: bool,
        out: &mut Vec<Output>,
    ) {
        self.vector.apply_recovery_announcement(from, session);
        self.tracer.emit(
            None,
            EventKind::SessionChange {
                site: from,
                session,
                up: true,
            },
        );
        if want_state {
            // The paper measured this at 50 ms on the operational site:
            // formatting and sending session vector and fail-locks; the
            // cost grows with database size.
            self.tracer
                .emit(None, EventKind::RecoveryServe { site: from });
            out.push(Output::Work(Work::FormatRecoveryState(self.config.db_size)));
            let vector: Vec<SiteRecord> = (0..self.config.n_sites)
                .map(|s| self.vector.record(SiteId(s)))
                .collect();
            let faillocks = self.faillocks.snapshot();
            let (holders, backups) = self.replication.snapshot();
            self.send_unattributed(
                from,
                Message::RecoveryInfo {
                    vector,
                    faillocks,
                    holders,
                    backups,
                },
                out,
            );
        }
        // A newly announced recovery may unblock a stalled batch round.
        self.maybe_rearm_batch(out);
    }

    /// The recovering site installs the received state and becomes
    /// operational.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_recovery_info(
        &mut self,
        from: SiteId,
        vector: Vec<SiteRecord>,
        faillocks: PackedSiteTable,
        holders: PackedSiteTable,
        backups: PackedSiteTable,
        out: &mut Vec<Output>,
    ) {
        let Some(recovery) = self.recovery.take() else {
            self.tracer.emit(
                None,
                EventKind::RecoveryMerge {
                    from,
                    merged: false,
                },
            );
            return; // stale (e.g. second responder after a retry)
        };
        self.tracer
            .emit(None, EventKind::RecoveryMerge { from, merged: true });
        // The remaining candidates were also asked for state; their
        // responses cross-check this one when they arrive.
        self.late_donors = recovery
            .candidates
            .iter()
            .copied()
            .filter(|&s| s != from)
            .collect();
        let me = self.id();
        out.push(Output::Work(Work::SessionInstall));
        out.push(Output::Work(Work::FailLockInstall(self.config.db_size)));

        // Adopt the donor's vector wholesale (paper §3.2): whatever we
        // believed before failing — or accumulated while partitioned away —
        // is obsolete. Only the late cross-check responses merge by
        // dominance, so a stale first responder cannot silently resurrect
        // a legitimately excluded site (see `on_late_recovery_info`).
        for (i, rec) in vector.iter().enumerate() {
            self.vector.set_record(SiteId(i as u8), *rec);
        }
        self.vector.set_record(
            me,
            SiteRecord {
                session: recovery.session,
                status: SiteStatus::Up,
            },
        );
        if self.config.fail_locks_enabled {
            // The installed snapshot replaces our (stale) table wholesale.
            // If this responder was itself stale, the other candidates'
            // responses union the missing bits back in (see
            // `on_late_recovery_info`).
            let before = self.faillocks.total_set();
            self.change_logged_words(|table| table.install_snapshot(&faillocks), out);
            self.account_faillock_delta(before);
        }
        // The replication map is replicated state too: adopt the
        // responder's (we missed any type-3 backup creations/retirements
        // while down).
        self.replication.install_snapshot(&holders, &backups);
        self.tracer.emit(
            None,
            EventKind::SessionChange {
                site: me,
                session: recovery.session,
                up: true,
            },
        );
        out.push(Output::BecameOperational {
            session: recovery.session,
        });
        self.init_data_refresh(out);
    }

    /// A `RecoveryInfo` from one of the other candidates asked during the
    /// type-1 control transaction, arriving after the first response
    /// already completed it.
    ///
    /// The first responder is not guaranteed authoritative: it may have
    /// been falsely excluded from the operational group without knowing
    /// it, and its table may be missing fail-lock bits that protect
    /// committed writes we missed. Merging every answered snapshot makes
    /// one honest responder sufficient. Fail-locks merge by union (a
    /// spurious bit costs a redundant refresh; a lost bit loses a
    /// committed write) and the vector merges by session dominance, so
    /// in the failure-free case — identical responses — this is a no-op.
    pub(super) fn on_late_recovery_info(
        &mut self,
        from: SiteId,
        vector: Vec<SiteRecord>,
        faillocks: PackedSiteTable,
        out: &mut Vec<Output>,
    ) {
        let Some(pos) = self.late_donors.iter().position(|&s| s == from) else {
            self.tracer.emit(
                None,
                EventKind::RecoveryMerge {
                    from,
                    merged: false,
                },
            );
            return; // not a response to our current recovery round
        };
        self.late_donors.swap_remove(pos);
        self.tracer
            .emit(None, EventKind::RecoveryMerge { from, merged: true });
        let me = self.id();
        let mut received = crate::session::SessionVector::new(vector.len());
        for (i, rec) in vector.iter().enumerate() {
            received.set_record(SiteId(i as u8), *rec);
        }
        self.vector.install_from(&received, me);
        if self.config.fail_locks_enabled {
            let before = self.faillocks.total_set();
            self.change_logged_words(|table| table.union_snapshot(&faillocks), out);
            if self.account_faillock_delta(before) > 0 {
                out.push(Output::Work(Work::FailLockInstall(self.config.db_size)));
            }
        }
    }

    /// Apply a received snapshot to the fail-lock table through `change`
    /// and, when this site logs, persist every word it changed, so the
    /// words a restart reads from the log stay exactly the engine's.
    fn change_logged_words(
        &mut self,
        change: impl FnOnce(&mut crate::faillock::FailLockTable),
        out: &mut Vec<Output>,
    ) {
        let before = self
            .config
            .emit_persistence
            .then(|| self.faillocks.words().to_vec());
        change(&mut self.faillocks);
        let Some(before) = before else {
            return;
        };
        let faillocks: Vec<(ItemId, u64)> = (0u32..)
            .zip(before.iter().zip(self.faillocks.words()))
            .filter(|(_, (was, now))| was != now)
            .map(|(item, (_, now))| (ItemId(item), *now))
            .collect();
        if !faillocks.is_empty() {
            out.push(Output::Persist {
                txn: TxnId(0),
                writes: Vec::new(),
                faillocks,
            });
        }
    }

    /// A received snapshot changed the table wholesale: account the net
    /// bit delta since `before` (the table's per-site counts make both
    /// totals free) so the cumulative counters keep satisfying
    /// `faillocks_set − faillocks_cleared == bits set`. Returns the
    /// number of bits gained.
    fn account_faillock_delta(&mut self, before: u32) -> u32 {
        let after = self.faillocks.total_set();
        if after > before {
            let count = after - before;
            self.metrics.faillocks_set += count as u64;
            self.tracer.emit(None, EventKind::FailLocksSet { count });
        } else if before > after {
            let count = before - after;
            self.metrics.faillocks_cleared += count as u64;
            self.tracer
                .emit(None, EventKind::FailLocksCleared { count });
        }
        after.saturating_sub(before)
    }

    /// No `RecoveryInfo` arrived: ask the next candidate, or give up.
    pub(super) fn on_recovery_timeout(&mut self, attempt: u32, out: &mut Vec<Output>) {
        let recovery = self.recovery.as_ref().expect(TIMER_LIVE);
        let next = attempt + 1;
        if (next as usize) < recovery.candidates.len() {
            let target = recovery.candidates[next as usize];
            let session = recovery.session;
            self.recovery.as_mut().expect("recovery active").attempt = next;
            self.send_unattributed(
                target,
                Message::RecoveryAnnounce {
                    session,
                    want_state: true,
                },
                out,
            );
            out.push(Output::SetTimer(TimerId::RecoveryInfoTimeout(next)));
        } else {
            // No operational site exists to recover from. Stay down; a
            // later `Recover` command can retry.
            let me = self.id();
            let session = recovery.session;
            self.recovery = None;
            self.vector.set_record(
                me,
                SiteRecord {
                    session,
                    status: SiteStatus::Down,
                },
            );
            out.push(Output::RecoveryFailed);
        }
    }

    /// Enter the data-refresh phase after becoming operational: decide
    /// between on-demand copiers (the paper's implementation) and the
    /// two-step scheme (§3.2).
    pub(super) fn init_data_refresh(&mut self, out: &mut Vec<Output>) {
        self.refresh = RefreshMode::OnDemand;
        self.after_own_locks_changed(out);
    }

    // ---- type 2: failure announcement -------------------------------------

    /// This site determined that `failed` sites are down: update the local
    /// vector and announce to the remaining operational sites.
    pub(super) fn announce_failures(&mut self, failed: &[SiteId], out: &mut Vec<Output>) {
        let mut newly_down: Vec<(SiteId, SessionNumber)> = Vec::new();
        for site in failed {
            let session = self.vector.session(*site);
            if self.vector.mark_down(*site) {
                newly_down.push((*site, session));
            }
        }
        if newly_down.is_empty() {
            return;
        }
        out.push(Output::Work(Work::FailureUpdate(newly_down.len() as u32)));
        self.metrics.control_type2 += 1;
        self.tracer.emit(None, EventKind::ControlTxn { ctype: 2 });
        for (site, session) in &newly_down {
            self.tracer.emit(
                None,
                EventKind::SessionChange {
                    site: *site,
                    session: *session,
                    up: false,
                },
            );
        }
        let me = self.id();
        let peers = self.vector.operational_peers(me);
        for peer in peers {
            self.send_unattributed(
                peer,
                Message::FailureAnnounce {
                    failed: newly_down.clone(),
                },
                out,
            );
        }
        self.check_endangered_items(out);
    }

    /// Another site announced failures: adopt (unless our perceived
    /// session for the site is newer — it must have recovered since).
    pub(super) fn on_failure_announce(
        &mut self,
        failed: Vec<(SiteId, SessionNumber)>,
        out: &mut Vec<Output>,
    ) {
        let me = self.id();
        let mut changed = 0u32;
        for (site, session) in failed {
            if site == me {
                // The cluster excluded *us* under our current session:
                // a timeout fired somewhere while we kept running (false
                // detection under message loss, or a partition). Our
                // session is dead — no operational site will accept our
                // transactions, and every write committed without us set
                // fail-locks against our copies. Honour the fail-stop
                // model by actually stepping down; a later `Recover`
                // re-integrates us under a fresh session number. A
                // notice for an older session is stale — we already
                // recovered past it — and is ignored.
                if session == self.session() && self.is_up() {
                    self.step_down(out);
                }
                continue;
            }
            if self.vector.apply_failure_announcement(site, session) {
                changed += 1;
                self.tracer.emit(
                    None,
                    EventKind::SessionChange {
                        site,
                        session,
                        up: false,
                    },
                );
            }
        }
        if changed > 0 {
            out.push(Output::Work(Work::FailureUpdate(changed)));
            self.check_endangered_items(out);
        }
    }

    // ---- type 3: backup copies (partial replication) ----------------------

    /// After a failure, look for items whose only operational up-to-date
    /// copy is ours and create a backup copy elsewhere (paper §3.2).
    pub(super) fn check_endangered_items(&mut self, out: &mut Vec<Output>) {
        if !self.config.backup_on_last_copy || !self.is_up() {
            return;
        }
        let me = self.id();
        let mut actions: Vec<(ItemId, SiteId, ItemValue)> = Vec::new();
        for raw in 0..self.config.db_size {
            let item = ItemId(raw);
            if !self.replication.holds(item, me) || self.faillocks.is_locked(item, me) {
                continue;
            }
            let up_to_date_holders = self
                .replication
                .holders_of(item)
                .filter(|&s| self.vector.is_up(s) && !self.faillocks.is_locked(item, s))
                .count();
            if up_to_date_holders != 1 {
                continue; // not endangered (or we are not the survivor)
            }
            // Choose the lowest operational non-holder as the backup site.
            let backup = (0..self.config.n_sites)
                .map(SiteId)
                .find(|&s| self.vector.is_up(s) && !self.replication.holds(item, s));
            if let Some(backup) = backup {
                self.hydrate(item);
                let value = self.db.get(item.0).expect("item in universe");
                actions.push((item, backup, value));
            }
        }
        for (item, backup, value) in actions {
            self.metrics.control_type3 += 1;
            self.tracer.emit(None, EventKind::ControlTxn { ctype: 3 });
            self.replication.add_holder(item, backup, true);
            self.send_unattributed(backup, Message::CreateBackup { item, value }, out);
            let me = self.id();
            let peers: Vec<SiteId> = self
                .vector
                .operational_peers(me)
                .into_iter()
                .filter(|&s| s != backup)
                .collect();
            for peer in peers {
                self.send_unattributed(peer, Message::BackupCreated { item, site: backup }, out);
            }
        }
    }

    /// We were asked to host a backup copy.
    pub(super) fn on_create_backup(
        &mut self,
        _from: SiteId,
        item: ItemId,
        value: ItemValue,
        out: &mut Vec<Output>,
    ) {
        self.hydrate(item);
        self.db
            .put_if_fresher(item.0, value)
            .expect("item in universe");
        self.replication.add_holder(item, self.id(), true);
        // Our new copy is up to date by construction.
        let me = self.id();
        if self.faillocks.clear(item, me) {
            self.metrics.faillocks_cleared += 1;
            self.tracer
                .emit(None, EventKind::FailLocksCleared { count: 1 });
        }
        out.push(Output::Work(Work::ApplyWrites(1)));
    }

    /// Retire our backup copies of `items` once enough original holders
    /// are healthy again (§3.2: "the cost of removing copies ... once
    /// these additional copies were not needed any more").
    pub(super) fn maybe_retire_backups(&mut self, items: &[ItemId], out: &mut Vec<Output>) {
        if !self.config.backup_on_last_copy || !self.is_up() {
            return;
        }
        let me = self.id();
        for item in items {
            if !self.replication.is_backup(*item, me) {
                continue;
            }
            let healthy_originals = self
                .replication
                .holders_of(*item)
                .filter(|&s| {
                    s != me
                        && !self.replication.is_backup(*item, s)
                        && self.vector.is_up(s)
                        && !self.faillocks.is_locked(*item, s)
                })
                .count();
            if healthy_originals >= 2 {
                self.replication.remove_holder(*item, me);
                let peers = self.vector.operational_peers(me);
                for peer in peers {
                    self.send_unattributed(
                        peer,
                        Message::BackupDropped {
                            item: *item,
                            site: me,
                        },
                        out,
                    );
                }
            }
        }
    }
}
