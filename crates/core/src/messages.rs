//! Wire protocol between sites.
//!
//! Every intersite interaction of the paper appears here: the two-phase
//! commit traffic (Appendix A), copier transactions and the "special"
//! clear-fail-lock transactions (§1.2), control transactions of types 1
//! and 2 (§1.1), and the proposed type 3 for partially replicated
//! databases (§3.2). `Mgmt`/`MgmtReport` carry managing-site traffic when
//! sites run as real processes/threads rather than inside the simulator.

use crate::error::AbortReason;
use crate::ids::{ItemId, ReqId, SessionNumber, SiteId, TxnId};
use crate::packed::PackedSiteTable;
use crate::session::{SiteRecord, SiteStatus};
use miniraid_storage::ItemValue;

/// Commands the managing site issues to a database site (paper §1.2: the
/// managing site "was used to cause sites to fail and recover and to
/// initiate a database transaction to a site").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Stop participating in any further system action.
    Fail,
    /// Begin recovery (type-1 control transaction).
    Recover,
    /// Recover without a donor: total-failure bootstrap. The managing
    /// site certifies this site was in the last operational set, so its
    /// local state is authoritative; it comes up in a fresh session with
    /// every peer marked down, and they rejoin through ordinary type-1
    /// recovery with it as the donor.
    Bootstrap,
    /// Coordinate this database transaction.
    Begin(crate::ops::Transaction),
    /// Shut down permanently.
    Terminate,
}

/// Final outcome of a database transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed at every available copy.
    Committed,
    /// Aborted for the given reason.
    Aborted(AbortReason),
}

impl TxnOutcome {
    /// True if committed.
    pub fn is_committed(self) -> bool {
        matches!(self, TxnOutcome::Committed)
    }
}

/// Per-transaction statistics reported with the outcome (what the paper's
/// managing site recorded for each transaction: fail-locks set/cleared,
/// copier transactions requested).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Read operations executed.
    pub reads: u32,
    /// Write operations in the effective write set.
    pub writes: u32,
    /// Copy requests (copier transactions) issued.
    pub copier_requests: u32,
    /// Fail-lock bits set during commit maintenance (at the coordinator).
    pub faillocks_set: u32,
    /// Fail-lock bits cleared (maintenance + copier refresh, coordinator).
    pub faillocks_cleared: u32,
    /// Messages the coordinator sent on behalf of this transaction.
    pub messages_sent: u32,
    /// True if a participant failed in phase two (the transaction still
    /// commits per Appendix A.1, after announcing the failure).
    pub participant_failed_phase_two: bool,
}

/// Outcome report delivered to whoever submitted the transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnReport {
    /// The transaction.
    pub txn: TxnId,
    /// The coordinating site.
    pub coordinator: SiteId,
    /// Commit or abort.
    pub outcome: TxnOutcome,
    /// Counters.
    pub stats: TxnStats,
    /// Values observed by the transaction's reads (committed transactions
    /// only; used by consistency verification and by applications).
    pub read_results: Vec<(ItemId, ItemValue)>,
}

/// One cross-shard transaction's entry in the replicated coordinator
/// decision log (`XDecisionLog` protocol). The coordinator appends a
/// *begin* record (`outcome = None`, branches only) before releasing any
/// `ShardPrepare`, and a *commit* record (`outcome = Some(true)`, votes
/// included) before sending any `ShardDecide { commit: true }`. A
/// successor that reads the log back can therefore always classify an
/// in-doubt transaction: no record → prepares never left the
/// coordinator; begin record only → presumed abort (no participant has
/// committed); commit record → re-drive the commit idempotently.
/// Aborts are never logged (presumed abort).
#[derive(Debug, Clone, PartialEq)]
pub struct XDecisionRecord {
    /// The cross-shard transaction id (shared by every branch).
    pub txn: TxnId,
    /// The per-group branch transactions, `(group, branch)`, exactly as
    /// handed to the coordinator — enough for a successor to re-drive
    /// write-only residues to a failed branch coordinator's peers.
    pub branches: Vec<(u8, crate::ops::Transaction)>,
    /// PREPARED votes collected so far, `(group, ok)`.
    pub votes: Vec<(u8, bool)>,
    /// `None` while in doubt at the coordinator, `Some(true)` once the
    /// global commit decision is made. (`Some(false)` is representable
    /// for completeness but never replicated — aborts are presumed.)
    pub outcome: Option<bool>,
}

/// One key range in flight between two replication groups during a live
/// reshard: items `lo..hi` (half-open, global names) are moving from
/// group `donor` to group `recipient`. The range passes through two
/// wire-visible sub-states — copying (`frozen = false`: the donor still
/// serves reads *and* writes, every committed write is written through
/// to the recipient) and frozen (`frozen = true`: the donor is
/// read-only so the resharder's final sweep races no writer) — before
/// the cutover map retires it and the recipient owns the range alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigratingRange {
    /// First item of the range (inclusive, global id).
    pub lo: u32,
    /// One past the last item of the range (exclusive, global id).
    pub hi: u32,
    /// The group that owns the range today.
    pub donor: u8,
    /// The group the range is moving to.
    pub recipient: u8,
    /// True once the donor has been made read-only for the final sweep.
    pub frozen: bool,
}

impl MigratingRange {
    /// True when `item` falls inside this range.
    pub fn contains(&self, item: u32) -> bool {
        self.lo <= item && item < self.hi
    }
}

/// Messages exchanged between sites (and, for `Mgmt`/`MgmtReport`,
/// between the managing site and database sites over a real transport).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // ---- Two-phase commit (Appendix A) -------------------------------
    /// Phase one: the coordinator ships the write set to a participant.
    /// `snapshot` is the coordinator's perceived session numbers, letting
    /// the participant detect status changes mid-transaction. `clears`
    /// piggybacks fail-lock clearing information when
    /// [`crate::config::ProtocolConfig::piggyback_clears`] is on.
    CopyUpdate {
        /// Transaction being committed.
        txn: TxnId,
        /// Effective write set with version-stamped values.
        writes: Vec<(ItemId, ItemValue)>,
        /// Coordinator's session-number snapshot.
        snapshot: Vec<SessionNumber>,
        /// Piggybacked fail-lock clears: `(item, refreshed_site)`.
        clears: Vec<(ItemId, SiteId)>,
        /// Bitmap of the sites the *coordinator* considered operational
        /// (bit `s` = site `s` up). Commit-time fail-lock maintenance
        /// runs against this mask rather than each participant's own
        /// vector: the fail-lock table is replicated state, and it stays
        /// replicated only if every participant applies the *identical*
        /// update — local vectors can diverge transiently (a failure
        /// announcement in flight reaches sites at different times).
        up_mask: u64,
    },
    /// Participant acknowledgement of `CopyUpdate`. `ok = false` rejects
    /// (session mismatch or not operational) and aborts the transaction.
    UpdateAck {
        /// Transaction.
        txn: TxnId,
        /// Accepted?
        ok: bool,
    },
    /// Phase two: commit indication.
    Commit {
        /// Transaction.
        txn: TxnId,
    },
    /// Participant acknowledgement of commit.
    CommitAck {
        /// Transaction.
        txn: TxnId,
    },
    /// Abort indication: discard buffered updates.
    AbortTxn {
        /// Transaction.
        txn: TxnId,
    },

    // ---- Copier transactions (§1.2) -----------------------------------
    /// Request up-to-date copies of `items` from a site believed to hold
    /// them.
    CopyRequest {
        /// Correlation id.
        req: ReqId,
        /// Items to refresh.
        items: Vec<ItemId>,
    },
    /// Response to `CopyRequest`. `ok = false` means the responder could
    /// not serve an up-to-date copy of every requested item.
    CopyResponse {
        /// Correlation id.
        req: ReqId,
        /// Served successfully?
        ok: bool,
        /// The copies (empty when `ok = false`).
        copies: Vec<(ItemId, ItemValue)>,
    },
    /// The "special transaction" informing other sites of fail-lock bits
    /// cleared by copier transactions: `site`'s copies of `items` are now
    /// up to date.
    ClearFailLocks {
        /// The refreshed site.
        site: SiteId,
        /// The refreshed items.
        items: Vec<ItemId>,
    },
    /// Corrective fail-lock set after a phase-two failure: the sender
    /// committed a transaction whose `CopyUpdate` carried an `up_mask`
    /// still showing `site` operational, but `site` never acknowledged
    /// the commit — its copies of `items` must be marked stale at every
    /// participant that already ran the (clearing) commit-time
    /// maintenance. Paper Appendix A.1 sequences the type-2 control
    /// transaction *before* the commit for exactly this reason.
    SetFailLocks {
        /// The site that missed the commit.
        site: SiteId,
        /// The items it missed.
        items: Vec<ItemId>,
    },

    // ---- Control transactions (§1.1) ----------------------------------
    /// Type 1, announce phase: the sender is preparing to become
    /// operational in session `session`. If `want_state` is set, the
    /// receiver replies with `RecoveryInfo`.
    RecoveryAnnounce {
        /// The recovering site's new session number.
        session: SessionNumber,
        /// Should the receiver ship its session vector and fail-locks?
        want_state: bool,
    },
    /// Type 1, state transfer: session vector, fail-locks, and the
    /// replication map from an operational site (the recovering site
    /// missed any type-3 backup creations/retirements while down).
    RecoveryInfo {
        /// The responder's nominal session vector records, in site order.
        vector: Vec<SiteRecord>,
        /// The responder's fail-lock table.
        faillocks: PackedSiteTable,
        /// The responder's replication map: holder bits per item.
        holders: PackedSiteTable,
        /// ... and which of those holdings are type-3 backups.
        backups: PackedSiteTable,
    },
    /// Type 2: the sender determined that the listed sites, last seen in
    /// the given sessions, have failed.
    FailureAnnounce {
        /// `(failed_site, session in which it was seen up)`.
        failed: Vec<(SiteId, SessionNumber)>,
    },

    // ---- Partial replication & control transaction type 3 (§3.2) ------
    /// Read request for items the coordinator holds no copy of
    /// (partially replicated databases only).
    ReadRequest {
        /// Correlation id.
        req: ReqId,
        /// Items to read.
        items: Vec<ItemId>,
    },
    /// Response to `ReadRequest`.
    ReadResponse {
        /// Correlation id.
        req: ReqId,
        /// Served successfully?
        ok: bool,
        /// The values read.
        values: Vec<(ItemId, ItemValue)>,
    },
    /// Type 3: the sender holds the last operational up-to-date copy of
    /// `item` and asks the receiver to become a backup holder.
    CreateBackup {
        /// The endangered item.
        item: ItemId,
        /// Its current value.
        value: ItemValue,
    },
    /// Broadcast: `site` is now a holder of `item` (replication map
    /// update after a successful `CreateBackup`).
    BackupCreated {
        /// The item.
        item: ItemId,
        /// The new holder.
        site: SiteId,
    },
    /// Broadcast: `site` is no longer a holder of `item` (the extra copy
    /// created by a type-3 control transaction is being retired).
    BackupDropped {
        /// The item.
        item: ItemId,
        /// The retiring holder.
        site: SiteId,
    },

    // ---- Managing-site traffic over real transports --------------------
    /// A command from the managing site.
    Mgmt(Command),
    /// A transaction outcome reported back to the managing site.
    MgmtReport(TxnReport),
    /// Notification to the managing site that the sender completed a
    /// type-1 control transaction and is operational again.
    MgmtRecovered {
        /// The recovered site's session.
        session: SessionNumber,
    },
    /// Notification to the managing site that the sender finished data
    /// recovery (all of its fail-locks cleared — "completely recovered").
    MgmtDataRecovered {
        /// The recovered site's session.
        session: SessionNumber,
    },
    /// Ask a site for its metrics exposition (management plane; answered
    /// by the driving loop, not the engine).
    MetricsRequest,
    /// Prometheus-style text exposition of a site's counters and latency
    /// histograms.
    MetricsResponse {
        /// The rendered exposition text.
        text: String,
    },

    // ---- Sharded replication groups (crates/shard) ----------------------
    /// Routing envelope for sharded deployments: a physical site hosting
    /// one engine per replication group unwraps this and hands `inner` to
    /// the engine of group `shard`. Never nested inside another
    /// `ShardEnv`; the reliable layer may wrap it in `Seq`, not vice
    /// versa.
    ShardEnv {
        /// The replication group the payload belongs to.
        shard: u8,
        /// The group-local message.
        inner: Box<Message>,
    },
    /// Cross-shard two-phase commit, phase one: the top-level coordinator
    /// (the sharded router) asks a group's branch coordinator to run the
    /// group-local part of a multi-shard transaction up to the point of
    /// commit and hold it there, replying with `ShardVote`.
    ShardPrepare {
        /// The group-local branch transaction (items already localized).
        txn: crate::ops::Transaction,
    },
    /// Branch coordinator's vote: the branch is prepared (`ok`) and
    /// parked awaiting `ShardDecide`, or it aborted locally (`!ok`).
    ShardVote {
        /// The branch transaction.
        txn: TxnId,
        /// Prepared successfully?
        ok: bool,
    },
    /// Cross-shard two-phase commit, phase two: commit or abort the
    /// parked branch.
    ShardDecide {
        /// The branch transaction.
        txn: TxnId,
        /// Commit (`true`) or global abort (`false`).
        commit: bool,
    },

    // ---- XDecisionLog: replicated coordinator decision log --------------
    /// Append (or supersede) one transaction's decision record at a log
    /// replica. Sent by the acting cross-shard coordinator to every
    /// member of the designated log group; the coordinator proceeds only
    /// once a quorum has acknowledged. A record with `outcome = Some`
    /// supersedes the begin record of the same transaction. `epoch`
    /// fences: replicas reject appends from a coordinator older than the
    /// highest epoch they have seen.
    XLogAppend {
        /// The appending coordinator's epoch.
        epoch: u64,
        /// The record.
        record: XDecisionRecord,
    },
    /// A log replica's acknowledgement of `XLogAppend`. `ok = false`
    /// means the append was fenced off by a higher coordinator epoch.
    XLogAck {
        /// The appended transaction.
        txn: TxnId,
        /// The highest coordinator epoch the replica has seen.
        epoch: u64,
        /// Accepted?
        ok: bool,
        /// Whether the acknowledged record carried an outcome (commit
        /// record) or not (begin record). Management frames are
        /// retried, not sequenced, so a duplicated begin append's ack
        /// can arrive while the coordinator is counting the *commit*
        /// record's quorum — without this bit the two are
        /// indistinguishable and a begin-only replica could be counted
        /// toward the commit quorum.
        decided: bool,
    },
    /// A successor coordinator's log read: announce `epoch` (fencing off
    /// any older coordinator still running) and ask for every stored
    /// decision record.
    XLogQuery {
        /// The successor's epoch.
        epoch: u64,
    },
    /// A log replica's reply to `XLogQuery`: everything it holds.
    XLogReply {
        /// The highest coordinator epoch the replica has seen.
        epoch: u64,
        /// All stored records, in unspecified order.
        records: Vec<XDecisionRecord>,
    },

    // ---- Live resharding: epoch-versioned shard maps --------------------
    /// Control-transaction-type-3-style map announcement (§3.2 scaled to
    /// key ranges): install shard map `epoch` with the given per-item
    /// group assignment and in-flight migrating ranges. Served by the
    /// site loop beside the metrics server — a down engine still learns
    /// the new map. Installs are idempotent and monotonic: a site
    /// accepts iff `epoch` is newer than what it holds, so the resharder
    /// can retry announcements indefinitely and resume after a crash.
    MapChange {
        /// The new map's epoch.
        epoch: u64,
        /// Owning group per item, indexed by global item id.
        assignment: Vec<u8>,
        /// Ranges currently in flight between groups.
        migrating: Vec<MigratingRange>,
    },
    /// A site's acknowledgement of `MapChange`. `ok = false` means the
    /// site already holds this epoch or a newer one (the install was a
    /// stale duplicate — harmless, but not counted toward the
    /// announcement quorum at the older epoch).
    MapChangeAck {
        /// The epoch the site now holds.
        epoch: u64,
        /// Did this frame advance the site's map?
        ok: bool,
    },
    /// Ask a site for its installed shard map (clients refresh through
    /// this after a `WrongEpoch` rejection; a restarted resharder
    /// re-derives the plan phase from the highest installed epoch).
    MapQuery,
    /// Reply to `MapQuery`: the site's installed map, if any.
    MapReply {
        /// The installed map's epoch (0 = no map installed).
        epoch: u64,
        /// Owning group per item.
        assignment: Vec<u8>,
        /// Ranges in flight.
        migrating: Vec<MigratingRange>,
    },
    /// Rejection of a `Mgmt(Begin)` routed under a stale shard map: the
    /// receiving group's installed epoch says this site no longer (or
    /// not yet) owns some item the transaction touches. The submitter
    /// refreshes its map and retries against the current owner.
    WrongEpoch {
        /// The rejected transaction.
        txn: TxnId,
        /// The rejecting site's installed map epoch.
        epoch: u64,
    },
    /// Garbage-collect a finished transaction's decision record at a log
    /// replica (`XLogStore::retire`): sent by the acting coordinator
    /// once every branch of the transaction has confirmed its outcome.
    /// Carries the coordinator's epoch so a deposed coordinator cannot
    /// retire a record its successor still needs.
    XLogRetire {
        /// The retiring coordinator's epoch.
        epoch: u64,
        /// The finished transaction.
        txn: TxnId,
    },

    // ---- Causal trace propagation (observability plane) -----------------
    /// A protocol message annotated with the causal [`TraceId`] of the
    /// client-submitted transaction it belongs to. Purely additive: a
    /// frame without the wrapper decodes exactly as before (zero cost
    /// when absent), and the driving site loop unwraps it — registering
    /// the id with the engine's tracer — before the engine ever sees
    /// it. Legal nesting mirrors `ShardEnv`: `Seq{ShardEnv{Traced{..}}}`
    /// from outermost to innermost.
    ///
    /// [`TraceId`]: crate::trace::TraceId
    Traced {
        /// The causal trace id (never 0 on the wire).
        trace: u64,
        /// The annotated message.
        inner: Box<Message>,
    },

    // ---- Reliable session layer (transport decorator) ------------------
    /// A protocol message wrapped with a per-link sequence number by the
    /// reliable session layer. `epoch` distinguishes sequence spaces
    /// across sender restarts. The engine never sees this variant: the
    /// reliable mailbox unwraps it (dedup + reorder) before delivery.
    Seq {
        /// The sender's session-layer epoch (restart counter).
        epoch: u64,
        /// Per-(sender, receiver) monotonic sequence number, from 1.
        seq: u64,
        /// The sequenced payload (never itself `Seq`/`SeqAck`).
        inner: Box<Message>,
    },
    /// Cumulative acknowledgement: the receiver has delivered every
    /// sequenced message of `epoch` up to and including `cumulative`.
    /// Acks are themselves unsequenced (loss-tolerant by redundancy).
    SeqAck {
        /// The acked sender epoch.
        epoch: u64,
        /// Highest contiguously delivered sequence number.
        cumulative: u64,
        /// The *receiver's* own session-layer epoch. A sender that sees
        /// this change knows the peer restarted (lost its receive state)
        /// and must renumber its unacked frames from 1.
        receiver: u64,
    },
}

impl Message {
    /// Short human-readable tag for logs and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::CopyUpdate { .. } => "CopyUpdate",
            Message::UpdateAck { .. } => "UpdateAck",
            Message::Commit { .. } => "Commit",
            Message::CommitAck { .. } => "CommitAck",
            Message::AbortTxn { .. } => "AbortTxn",
            Message::CopyRequest { .. } => "CopyRequest",
            Message::CopyResponse { .. } => "CopyResponse",
            Message::ClearFailLocks { .. } => "ClearFailLocks",
            Message::SetFailLocks { .. } => "SetFailLocks",
            Message::RecoveryAnnounce { .. } => "RecoveryAnnounce",
            Message::RecoveryInfo { .. } => "RecoveryInfo",
            Message::FailureAnnounce { .. } => "FailureAnnounce",
            Message::ReadRequest { .. } => "ReadRequest",
            Message::ReadResponse { .. } => "ReadResponse",
            Message::CreateBackup { .. } => "CreateBackup",
            Message::BackupCreated { .. } => "BackupCreated",
            Message::BackupDropped { .. } => "BackupDropped",
            Message::Mgmt(_) => "Mgmt",
            Message::MgmtReport(_) => "MgmtReport",
            Message::MgmtRecovered { .. } => "MgmtRecovered",
            Message::MgmtDataRecovered { .. } => "MgmtDataRecovered",
            Message::MetricsRequest => "MetricsRequest",
            Message::MetricsResponse { .. } => "MetricsResponse",
            Message::ShardEnv { .. } => "ShardEnv",
            Message::ShardPrepare { .. } => "ShardPrepare",
            Message::ShardVote { .. } => "ShardVote",
            Message::ShardDecide { .. } => "ShardDecide",
            Message::XLogAppend { .. } => "XLogAppend",
            Message::XLogAck { .. } => "XLogAck",
            Message::XLogQuery { .. } => "XLogQuery",
            Message::XLogReply { .. } => "XLogReply",
            Message::MapChange { .. } => "MapChange",
            Message::MapChangeAck { .. } => "MapChangeAck",
            Message::MapQuery => "MapQuery",
            Message::MapReply { .. } => "MapReply",
            Message::WrongEpoch { .. } => "WrongEpoch",
            Message::XLogRetire { .. } => "XLogRetire",
            Message::Traced { .. } => "Traced",
            Message::Seq { .. } => "Seq",
            Message::SeqAck { .. } => "SeqAck",
        }
    }

    /// The transaction this message belongs to, when it names exactly
    /// one. Used by the driving layers to attribute outbound messages
    /// to a causal trace (wrap-on-send) and to register inbound trace
    /// ids with the engine's tracer. Envelope variants delegate.
    pub fn txn_id(&self) -> Option<TxnId> {
        match self {
            Message::CopyUpdate { txn, .. }
            | Message::UpdateAck { txn, .. }
            | Message::Commit { txn }
            | Message::CommitAck { txn }
            | Message::AbortTxn { txn }
            | Message::ShardVote { txn, .. }
            | Message::ShardDecide { txn, .. }
            | Message::XLogAck { txn, .. }
            | Message::WrongEpoch { txn, .. }
            | Message::XLogRetire { txn, .. } => Some(*txn),
            Message::XLogAppend { record, .. } => Some(record.txn),
            Message::ShardPrepare { txn } => Some(txn.id),
            Message::Mgmt(Command::Begin(txn)) => Some(txn.id),
            Message::MgmtReport(report) => Some(report.txn),
            Message::ShardEnv { inner, .. }
            | Message::Traced { inner, .. }
            | Message::Seq { inner, .. } => inner.txn_id(),
            _ => None,
        }
    }
}

// Re-export SiteStatus here for codec convenience.
pub use crate::session::SiteStatus as WireSiteStatus;

#[allow(unused_imports)]
use crate::session::SiteStatus as _SiteStatusUsed; // doc linkage

impl std::fmt::Display for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind())
    }
}

/// Helper: is this a management-plane message?
///
/// The cross-shard 2PC trio (`ShardPrepare`/`ShardVote`/`ShardDecide`)
/// and the `XDecisionLog` quartet count as management traffic: the
/// acting coordinator's exchange with branch coordinators and log
/// replicas must not be sequenced into a per-link session that dies
/// with a site — the coordinator itself can now crash and be replaced
/// (its successor speaks from a new epoch), so these frames carry their
/// own idempotence (version-stamped re-drives, epoch-fenced appends)
/// and are simply retried rather than retransmitted. A `ShardEnv` is
/// whatever its payload is.
pub fn is_management(msg: &Message) -> bool {
    match msg {
        Message::Mgmt(_)
        | Message::MgmtReport(_)
        | Message::MgmtRecovered { .. }
        | Message::MgmtDataRecovered { .. }
        | Message::MetricsRequest
        | Message::MetricsResponse { .. }
        | Message::ShardPrepare { .. }
        | Message::ShardVote { .. }
        | Message::ShardDecide { .. }
        | Message::XLogAppend { .. }
        | Message::XLogAck { .. }
        | Message::XLogQuery { .. }
        | Message::XLogReply { .. }
        | Message::MapChange { .. }
        | Message::MapChangeAck { .. }
        | Message::MapQuery
        | Message::MapReply { .. }
        | Message::WrongEpoch { .. }
        | Message::XLogRetire { .. } => true,
        Message::ShardEnv { inner, .. } | Message::Traced { inner, .. } => is_management(inner),
        _ => false,
    }
}

/// Helper: status used when encoding site records.
pub fn status_code(status: SiteStatus) -> u8 {
    match status {
        SiteStatus::Up => 0,
        SiteStatus::Down => 1,
        SiteStatus::WaitingToRecover => 2,
        SiteStatus::Terminating => 3,
    }
}

/// Inverse of [`status_code`].
pub fn status_from_code(code: u8) -> Option<SiteStatus> {
    Some(match code {
        0 => SiteStatus::Up,
        1 => SiteStatus::Down,
        2 => SiteStatus::WaitingToRecover,
        3 => SiteStatus::Terminating,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every message moved through the engine, the site loop and the
    /// transports is as large as the largest variant; the rare, big
    /// state-transfer payloads must stay behind pointers.
    #[test]
    fn message_stays_small() {
        assert!(std::mem::size_of::<Message>() <= 96);
    }

    #[test]
    fn kinds_are_distinct_for_core_messages() {
        let msgs = [
            Message::Commit { txn: TxnId(1) },
            Message::CommitAck { txn: TxnId(1) },
            Message::AbortTxn { txn: TxnId(1) },
        ];
        let kinds: std::collections::HashSet<_> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds.len(), msgs.len());
    }

    #[test]
    fn status_codes_roundtrip() {
        for s in [
            SiteStatus::Up,
            SiteStatus::Down,
            SiteStatus::WaitingToRecover,
            SiteStatus::Terminating,
        ] {
            assert_eq!(status_from_code(status_code(s)), Some(s));
        }
        assert_eq!(status_from_code(9), None);
    }

    #[test]
    fn management_predicate() {
        assert!(is_management(&Message::Mgmt(Command::Fail)));
        assert!(!is_management(&Message::Commit { txn: TxnId(0) }));
    }

    #[test]
    fn shard_management_predicate() {
        assert!(is_management(&Message::ShardVote {
            txn: TxnId(1),
            ok: true,
        }));
        assert!(is_management(&Message::ShardDecide {
            txn: TxnId(1),
            commit: false,
        }));
        // ShardEnv takes its plane from the payload.
        assert!(is_management(&Message::ShardEnv {
            shard: 0,
            inner: Box::new(Message::Mgmt(Command::Fail)),
        }));
        assert!(!is_management(&Message::ShardEnv {
            shard: 0,
            inner: Box::new(Message::Commit { txn: TxnId(0) }),
        }));
    }

    #[test]
    fn traced_delegates_management_and_txn_id() {
        let traced = Message::Traced {
            trace: 9,
            inner: Box::new(Message::Mgmt(Command::Begin(crate::ops::Transaction::new(
                TxnId(4),
                vec![],
            )))),
        };
        assert!(is_management(&traced));
        assert_eq!(traced.txn_id(), Some(TxnId(4)));
        let nested = Message::ShardEnv {
            shard: 1,
            inner: Box::new(Message::Traced {
                trace: 9,
                inner: Box::new(Message::Commit { txn: TxnId(8) }),
            }),
        };
        assert!(!is_management(&nested));
        assert_eq!(nested.txn_id(), Some(TxnId(8)));
        assert_eq!(Message::MetricsRequest.txn_id(), None);
    }

    #[test]
    fn xlog_frames_are_management_and_carry_txn_ids() {
        let record = XDecisionRecord {
            txn: TxnId(12),
            branches: vec![(0, crate::ops::Transaction::new(TxnId(12), vec![]))],
            votes: vec![(0, true)],
            outcome: Some(true),
        };
        let append = Message::XLogAppend {
            epoch: 7,
            record: record.clone(),
        };
        let ack = Message::XLogAck {
            txn: TxnId(12),
            epoch: 7,
            ok: true,
            decided: true,
        };
        let query = Message::XLogQuery { epoch: 8 };
        let reply = Message::XLogReply {
            epoch: 8,
            records: vec![record],
        };
        for m in [&append, &ack, &query, &reply] {
            assert!(is_management(m), "{} must be management-plane", m.kind());
        }
        assert_eq!(append.txn_id(), Some(TxnId(12)));
        assert_eq!(ack.txn_id(), Some(TxnId(12)));
        assert_eq!(query.txn_id(), None);
        assert_eq!(reply.txn_id(), None);
    }

    #[test]
    fn map_frames_are_management_and_carry_txn_ids() {
        let range = MigratingRange {
            lo: 4,
            hi: 8,
            donor: 0,
            recipient: 1,
            frozen: false,
        };
        assert!(range.contains(4) && range.contains(7));
        assert!(!range.contains(8) && !range.contains(3));
        let change = Message::MapChange {
            epoch: 3,
            assignment: vec![0, 0, 1, 1],
            migrating: vec![range],
        };
        let ack = Message::MapChangeAck { epoch: 3, ok: true };
        let query = Message::MapQuery;
        let reply = Message::MapReply {
            epoch: 3,
            assignment: vec![0, 0, 1, 1],
            migrating: vec![range],
        };
        let wrong = Message::WrongEpoch {
            txn: TxnId(9),
            epoch: 3,
        };
        let retire = Message::XLogRetire {
            epoch: 5,
            txn: TxnId(9),
        };
        for m in [&change, &ack, &query, &reply, &wrong, &retire] {
            assert!(is_management(m), "{} must be management-plane", m.kind());
        }
        assert_eq!(wrong.txn_id(), Some(TxnId(9)));
        assert_eq!(retire.txn_id(), Some(TxnId(9)));
        assert_eq!(change.txn_id(), None);
        assert_eq!(reply.txn_id(), None);
    }

    #[test]
    fn outcome_predicate() {
        assert!(TxnOutcome::Committed.is_committed());
        assert!(!TxnOutcome::Aborted(AbortReason::DataUnavailable).is_committed());
    }
}
