//! Per-site protocol counters, queryable by the experiment harness.

use crate::error::AbortReason;

/// Aborted-transaction counts broken down by [`AbortReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortBreakdown {
    /// No operational site held an up-to-date copy of a read item.
    pub data_unavailable: u64,
    /// A copy request's target failed before responding.
    pub copier_target_failed: u64,
    /// A participant failed during phase one of two-phase commit.
    pub participant_failed: u64,
    /// A participant rejected the update on a session-vector mismatch.
    pub session_mismatch: u64,
    /// The transaction arrived at a non-operational site.
    pub site_not_operational: u64,
    /// A cross-shard coordinator decided global abort for this branch.
    pub global_abort: u64,
    /// The transaction was routed under a stale shard map (live
    /// resharding) and rejected for retry at the current owner.
    pub stale_shard_map: u64,
}

impl AbortBreakdown {
    /// Count one abort for `reason`.
    pub fn record(&mut self, reason: AbortReason) {
        *self.slot(reason) += 1;
    }

    /// The count for `reason`.
    pub fn get(&self, reason: AbortReason) -> u64 {
        match reason {
            AbortReason::DataUnavailable => self.data_unavailable,
            AbortReason::CopierTargetFailed => self.copier_target_failed,
            AbortReason::ParticipantFailed => self.participant_failed,
            AbortReason::SessionMismatch => self.session_mismatch,
            AbortReason::SiteNotOperational => self.site_not_operational,
            AbortReason::GlobalAbort => self.global_abort,
            AbortReason::StaleShardMap => self.stale_shard_map,
        }
    }

    /// Total aborts across all reasons.
    pub fn total(&self) -> u64 {
        self.data_unavailable
            + self.copier_target_failed
            + self.participant_failed
            + self.session_mismatch
            + self.site_not_operational
            + self.global_abort
            + self.stale_shard_map
    }

    /// `(short label, count)` pairs for non-zero reasons, in enum order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        [
            ("data-unavail", self.data_unavailable),
            ("copier-failed", self.copier_target_failed),
            ("participant-failed", self.participant_failed),
            ("session-mismatch", self.session_mismatch),
            ("site-down", self.site_not_operational),
            ("global-abort", self.global_abort),
            ("stale-map", self.stale_shard_map),
        ]
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .collect()
    }

    fn slot(&mut self, reason: AbortReason) -> &mut u64 {
        match reason {
            AbortReason::DataUnavailable => &mut self.data_unavailable,
            AbortReason::CopierTargetFailed => &mut self.copier_target_failed,
            AbortReason::ParticipantFailed => &mut self.participant_failed,
            AbortReason::SessionMismatch => &mut self.session_mismatch,
            AbortReason::SiteNotOperational => &mut self.site_not_operational,
            AbortReason::GlobalAbort => &mut self.global_abort,
            AbortReason::StaleShardMap => &mut self.stale_shard_map,
        }
    }
}

/// Cumulative counters maintained by a [`crate::engine::SiteEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Messages sent (all kinds).
    pub msgs_sent: u64,
    /// Messages received and processed.
    pub msgs_received: u64,
    /// Transactions this site coordinated.
    pub txns_coordinated: u64,
    /// ... of which committed.
    pub txns_committed: u64,
    /// ... of which aborted, broken down by reason.
    pub aborts: AbortBreakdown,
    /// Transactions this site participated in (phase one entered).
    pub txns_participated: u64,
    /// Fail-lock bits set by this site's maintenance.
    pub faillocks_set: u64,
    /// Fail-lock bits cleared by this site (maintenance, copier refresh,
    /// or clear-fail-lock messages).
    pub faillocks_cleared: u64,
    /// Copier transactions (copy requests) issued by this site.
    pub copier_requests: u64,
    /// Copy requests served for other sites.
    pub copy_requests_served: u64,
    /// Standalone clear-fail-lock transactions sent (not piggybacked).
    pub clear_messages_sent: u64,
    /// Type-1 control transactions initiated (recoveries attempted).
    pub control_type1: u64,
    /// Type-2 control transactions initiated (failures announced).
    pub control_type2: u64,
    /// Type-3 control transactions initiated (backup copies created).
    pub control_type3: u64,
    /// Highest number of coordinated transactions simultaneously in
    /// flight (admitted and not yet finished) on this site.
    pub inflight_high_water: u64,
    /// Admitted transactions that had to wait for a predeclared lock
    /// held by an earlier in-flight transaction.
    pub lock_waits: u64,
    /// Transactions admitted with every predeclared lock granted
    /// immediately (no conflict with the in-flight set).
    pub lock_grants_immediate: u64,
    /// Transport frames that carried more than one message (threaded
    /// deployments only; the driving loop records these).
    pub batch_frames_sent: u64,
    /// Messages that travelled inside multi-message frames.
    pub batched_messages_sent: u64,
    /// Session-layer retransmissions performed by this site's transport
    /// (folded in by the driving loop via `note_transport`).
    pub transport_retransmits: u64,
    /// Duplicate or stale sequenced frames dropped by the reliable
    /// mailbox before delivery.
    pub transport_dup_drops: u64,
    /// TCP reconnect attempts made after a peer connection died.
    pub transport_reconnects: u64,
    /// Group-commit fsyncs issued by this site's REDO WAL (durable
    /// deployments only; folded in by the driving loop via `note_wal`).
    pub wal_fsyncs: u64,
    /// Commit records appended to the REDO WAL.
    pub wal_commit_records: u64,
    /// REDO WAL records of any kind appended.
    pub wal_records: u64,
    /// Timers armed in the driving loop and neither fired nor dropped yet
    /// (a gauge; threaded deployments only, folded in via `note_timers`).
    pub timers_pending: u64,
    /// Timers that came due while something still waited on them and
    /// were handed to the engine.
    pub timers_fired: u64,
    /// Timers the driving loop dropped unfired because the engine
    /// reported them dead (`SiteEngine::timer_live`): the wait they
    /// guarded had already ended.
    pub timers_dropped_dead: u64,
}

impl EngineMetrics {
    /// Total transactions aborted (all reasons).
    pub fn txns_aborted(&self) -> u64 {
        self.aborts.total()
    }

    /// Mean messages per multi-message frame, or 0.0 if none were sent.
    pub fn batched_messages_per_frame(&self) -> f64 {
        if self.batch_frames_sent == 0 {
            0.0
        } else {
            self.batched_messages_sent as f64 / self.batch_frames_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let m = EngineMetrics::default();
        assert_eq!(m.msgs_sent, 0);
        assert_eq!(m.control_type1, 0);
        assert_eq!(m.txns_aborted(), 0);
    }

    #[test]
    fn abort_breakdown_totals() {
        let mut b = AbortBreakdown::default();
        b.record(AbortReason::DataUnavailable);
        b.record(AbortReason::DataUnavailable);
        b.record(AbortReason::SessionMismatch);
        assert_eq!(b.total(), 3);
        assert_eq!(b.get(AbortReason::DataUnavailable), 2);
        assert_eq!(b.get(AbortReason::ParticipantFailed), 0);
        assert_eq!(
            b.nonzero(),
            vec![("data-unavail", 2), ("session-mismatch", 1)]
        );
    }
}
