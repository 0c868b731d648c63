//! Participating-site logic: Appendix A.2 of the paper.

use crate::ids::{ItemId, SessionNumber, SiteId, TxnId};
use crate::messages::Message;
use crate::trace::EventKind;
use miniraid_storage::ItemValue;

use super::{Output, PendingTxn, SiteEngine, TimerId, Work, TIMER_LIVE};

impl SiteEngine {
    /// Phase one: the coordinator ships the transaction's write set.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_copy_update(
        &mut self,
        from: SiteId,
        txn: TxnId,
        writes: Vec<(ItemId, ItemValue)>,
        snapshot: Vec<SessionNumber>,
        clears: Vec<(ItemId, SiteId)>,
        up_mask: u64,
        out: &mut Vec<Output>,
    ) {
        // The session-number consistency check (paper §1.1): if the
        // coordinator's view of us, or our view of the coordinator, is
        // from a different session, the system status changed during the
        // transaction — reject, forcing an abort. A coordinator we have
        // on record as Down is rejected even when the session numbers
        // match: its number never advanced because it never actually
        // crashed — it was excluded by a timeout it hasn't learned about
        // yet — and the fail-stop model requires it to step down, not
        // keep committing against a membership view the rest of the
        // system has already revoked.
        let me = self.id();
        let coordinator_up = self.vector.is_up(from);
        let consistent = coordinator_up
            && snapshot.len() == self.vector.len()
            && snapshot[me.index()] == self.vector.session(me)
            && snapshot[from.index()] == self.vector.session(from);
        if !consistent {
            self.send(from, Message::UpdateAck { txn, ok: false }, out);
            if !coordinator_up {
                self.notify_excluded_sender(from, out);
            }
            return;
        }
        // Redelivered CopyUpdate (retransmission, or duplication below the
        // reliable layer): re-ack without buffering or counting twice, and
        // push the participant timeout out again.
        if self.pending.contains_key(&txn) {
            self.send(from, Message::UpdateAck { txn, ok: true }, out);
            out.push(Output::SetTimer(TimerId::ParticipantTimeout(txn)));
            return;
        }
        // Redelivered after we already committed: the coordinator missed
        // our CommitAck, not our UpdateAck — re-acking the commit is
        // handled in `on_commit`; here just re-confirm phase one.
        if self.recent_part.iter().any(|(t, _)| *t == txn) {
            self.send(from, Message::UpdateAck { txn, ok: true }, out);
            return;
        }
        out.push(Output::Work(Work::BufferWrites(writes.len() as u32)));
        self.metrics.txns_participated += 1;
        self.tracer.emit(
            Some(txn),
            EventKind::ParticipantPrepared { coordinator: from },
        );
        self.pending.insert(
            txn,
            PendingTxn {
                coordinator: from,
                writes,
                clears,
                up_mask,
            },
        );
        self.send(from, Message::UpdateAck { txn, ok: true }, out);
        out.push(Output::SetTimer(TimerId::ParticipantTimeout(txn)));
    }

    /// Phase two: commit indication — apply buffered writes, run
    /// fail-lock maintenance, acknowledge.
    pub(super) fn on_commit(&mut self, from: SiteId, txn: TxnId, out: &mut Vec<Output>) {
        let Some(pending) = self.pending.remove(&txn) else {
            // Redelivered commit for an already-applied transaction: the
            // coordinator is retransmitting because our CommitAck was
            // lost — re-ack idempotently. Post-abort commits (impossible
            // from a correct coordinator) still fall through to ignore.
            if let Some((_, coordinator)) =
                self.recent_part.iter().find(|(t, _)| *t == txn).copied()
            {
                self.send(coordinator, Message::CommitAck { txn }, out);
            }
            return;
        };
        self.tracer.emit(Some(txn), EventKind::ParticipantCommitted);
        self.apply_commit(&pending.writes, &pending.clears, pending.up_mask, out);
        let _ = from;
        self.note_recent_participant(txn, pending.coordinator);
        self.send(pending.coordinator, Message::CommitAck { txn }, out);
    }

    /// Abort indication — discard the buffered updates.
    pub(super) fn on_abort(&mut self, txn: TxnId) {
        self.pending.remove(&txn);
    }

    /// Neither commit nor abort arrived: the coordinating site has failed
    /// (paper Appendix A.2 final branch) — discard and announce.
    ///
    /// Discarding alone is not enough: the decision may have been COMMIT.
    /// The coordinator can decide, report to its client, and crash before
    /// our Commit indication is (re)delivered — then our copies of the
    /// write set are stale with no fail-lock bit anywhere to say so. Mark
    /// our own bits on the write set and tell the survivors, so whichever
    /// way the decision went a copier or recovery refresh brings us back
    /// in line. If the transaction actually aborted, the refresh copies
    /// an identical value and clears the bits — harmless.
    pub(super) fn on_participant_timeout(&mut self, txn: TxnId, out: &mut Vec<Output>) {
        let pending = self.pending.remove(&txn).expect(TIMER_LIVE);
        let coordinator = pending.coordinator;
        self.announce_failures(&[coordinator], out);
        if self.config.fail_locks_enabled {
            let me = self.id();
            let items: Vec<ItemId> = pending
                .writes
                .iter()
                .map(|(item, _)| *item)
                .filter(|item| self.replication.holds(*item, me))
                .collect();
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
    }
}
