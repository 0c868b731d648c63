//! Error and abort types for the replication protocol.

use crate::ids::{SiteId, TxnId};

/// Why a database transaction aborted (paper Appendix A abort paths plus
/// the session-number consistency check of §1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// A fail-locked read had no operational site holding an up-to-date
    /// copy — the cause of the 13 aborts in the paper's Experiment 3,
    /// scenario 1.
    DataUnavailable,
    /// The site a copy request was sent to failed before responding
    /// (Appendix A.1, copier branch).
    CopierTargetFailed,
    /// A participant failed during phase one of two-phase commit
    /// (Appendix A.1, phase-one branch).
    ParticipantFailed,
    /// A participant rejected the update because the coordinator's session
    /// snapshot no longer matched its state (§1.1: session numbers detect
    /// status changes during execution).
    SessionMismatch,
    /// The transaction arrived at a site that is not operational.
    SiteNotOperational,
    /// A cross-shard coordinator decided global abort: some other branch
    /// of the multi-shard transaction voted no or timed out, so this
    /// branch — locally prepared and ready to commit — must discard.
    GlobalAbort,
    /// The transaction was routed under a shard map older than the one
    /// the receiving group has installed (live resharding, §3.2's type-3
    /// map changes generalized to ranges): the submitter must refresh
    /// its map and retry against the current owner.
    StaleShardMap,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AbortReason::DataUnavailable => "no up-to-date copy available",
            AbortReason::CopierTargetFailed => "copier target site failed",
            AbortReason::ParticipantFailed => "participant failed in phase one",
            AbortReason::SessionMismatch => "session vector mismatch",
            AbortReason::SiteNotOperational => "coordinating site not operational",
            AbortReason::GlobalAbort => "aborted by cross-shard coordinator",
            AbortReason::StaleShardMap => "rejected by a newer shard-map epoch",
        };
        f.write_str(s)
    }
}

/// Protocol-level errors (driver misuse, capacity limits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// More sites than the 64 the fail-lock bitmaps support.
    TooManySites {
        /// The number of sites requested.
        requested: usize,
    },
    /// A transaction was submitted while this site already coordinates one
    /// and queuing is disabled.
    CoordinatorBusy {
        /// The busy site.
        site: SiteId,
        /// The transaction it is coordinating.
        active: TxnId,
    },
    /// A referenced item is outside the database universe.
    UnknownItem {
        /// The offending item id.
        item: u32,
        /// The database universe size.
        size: u32,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::TooManySites { requested } => {
                write!(
                    f,
                    "{requested} sites requested; fail-lock bitmaps support at most 64"
                )
            }
            ProtocolError::CoordinatorBusy { site, active } => {
                write!(f, "{site} already coordinates {active}")
            }
            ProtocolError::UnknownItem { item, size } => {
                write!(f, "item {item} outside database universe of {size}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_reasons_render() {
        for r in [
            AbortReason::DataUnavailable,
            AbortReason::CopierTargetFailed,
            AbortReason::ParticipantFailed,
            AbortReason::SessionMismatch,
            AbortReason::SiteNotOperational,
            AbortReason::GlobalAbort,
            AbortReason::StaleShardMap,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn protocol_errors_render() {
        let e = ProtocolError::CoordinatorBusy {
            site: SiteId(1),
            active: TxnId(5),
        };
        assert!(e.to_string().contains("T5"));
    }
}
