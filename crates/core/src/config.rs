//! Protocol configuration.
//!
//! The flags mirror the paper's experimental knobs: fail-lock maintenance
//! can be compiled out (Experiment 1 measured "with" vs. "without"),
//! clear-fail-lock information can be piggybacked on two-phase commit
//! (the optimization §2.2.3 estimates would remove ~30 % of copier
//! overhead), and recovery can run the two-step batch-copier scheme the
//! paper proposes in §3.2.

/// Two-step recovery parameters (paper §3.2 proposal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStepRecovery {
    /// Fraction of the database fail-locked below which the recovering
    /// site switches to batch copier mode ("step two").
    pub threshold: f64,
    /// Stale items refreshed per batch copier round.
    pub batch_size: u32,
}

impl Default for TwoStepRecovery {
    fn default() -> Self {
        TwoStepRecovery {
            threshold: 0.2,
            batch_size: 5,
        }
    }
}

/// The replicated-copy control strategy a coordinator follows.
///
/// The paper's contribution is [`ReplicationStrategy::RowaAvailable`];
/// the other two are the classic baselines it is measured against in
/// this repository's availability ablation (X6): plain
/// read-one/write-*all* (blocks whenever any site is down, but needs no
/// fail-locks or copiers) and majority quorum (partition-safe, but pays
/// quorum reads and loses minority-side availability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationStrategy {
    /// Read-one/write-all-available with session vectors, fail-locks,
    /// copier and control transactions (the paper's protocol).
    RowaAvailable,
    /// Read-one/write-all: a transaction with writes aborts unless every
    /// site in the system is operational.
    Rowa,
    /// Majority quorum: writes require a majority of sites operational
    /// (and reach all of them); reads consult a majority of copies and
    /// take the freshest version, so no fail-locks are needed.
    MajorityQuorum,
}

/// Static configuration of one site's protocol engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Number of data items in the (frequently referenced) database.
    pub db_size: u32,
    /// Number of database sites (excluding the managing site).
    pub n_sites: u8,
    /// Maintain fail-locks at commit time. Disabling reproduces the
    /// "without fail-locks code" rows of Experiment 1; recovery then
    /// cannot identify stale copies, so only use it in failure-free runs.
    pub fail_locks_enabled: bool,
    /// Embed fail-lock clearing information in the two-phase commit
    /// messages instead of running standalone clear-fail-lock
    /// transactions after each copier (paper §2.2.3's suggested
    /// optimization; ablation X2).
    pub piggyback_clears: bool,
    /// Two-step recovery (paper §3.2). `None` reproduces the paper's
    /// implementation: copiers are issued on demand only.
    pub two_step_recovery: Option<TwoStepRecovery>,
    /// Run read-only transactions through two-phase commit as well.
    /// The paper's pseudo-code always runs the protocol; with an empty
    /// write set the commit is vacuous, so the default commits read-only
    /// transactions locally.
    pub two_phase_read_only: bool,
    /// Issue type-3 control transactions (paper §3.2): when a site finds
    /// it holds the last operational up-to-date copy of an item, it
    /// creates a backup copy on a site that holds none. Only meaningful
    /// with a partially replicated database.
    pub backup_on_last_copy: bool,
    /// Emit [`crate::engine::Output::Persist`] for every locally applied
    /// write set, letting the driver maintain a durable store. Off by
    /// default (the paper keeps copies in memory and factors I/O out).
    pub emit_persistence: bool,
    /// The copy-control strategy (default: the paper's ROWAA).
    pub strategy: ReplicationStrategy,
    /// Maximum coordinated transactions this site runs concurrently.
    /// `1` (the default) reproduces the paper's serial processing
    /// (assumption 2) exactly; larger values pipeline independent
    /// transactions, serializing conflicting ones through a conservative
    /// strict-2PL lock manager whose read/write sets are predeclared at
    /// admission.
    pub max_inflight: usize,
    /// During a type-1 control transaction, request state from EVERY
    /// operational candidate and merge the late responses into the first
    /// (fail-locks by union, session vector by dominance), instead of
    /// the paper's single designated donor. One honest responder then
    /// suffices even if the first responder was itself falsely excluded
    /// and serving a stale table. On (the default) everywhere except the
    /// paper-reproduction scenarios, whose measured type-1 cost assumes
    /// a single responder formats state.
    pub recovery_cross_check: bool,
    /// Cross-shard 2PC: how long the top-level coordinator (the sharded
    /// client) waits for branch votes before counting stragglers as no,
    /// in milliseconds. Must stay below the engines' participant
    /// timeout, so a parked branch's participants never declare its
    /// coordinator failed while the global decision is still pending
    /// under healthy links.
    pub shard_vote_timeout_ms: u64,
    /// Cross-shard 2PC: interval between re-drive rounds for
    /// committed-but-unconfirmed branches, in milliseconds. Longer than
    /// a healthy commit round-trip, so re-drives only fire when
    /// something actually failed.
    pub shard_redrive_interval_ms: u64,
}

fn default_shard_vote_timeout_ms() -> u64 {
    400
}

fn default_shard_redrive_interval_ms() -> u64 {
    700
}

impl ProtocolConfig {
    /// The configuration of the paper's Experiment 1 (db = 50 items,
    /// 4 sites); transaction size is a workload property, not an engine one.
    pub fn paper_experiment_1() -> Self {
        ProtocolConfig {
            db_size: 50,
            n_sites: 4,
            ..ProtocolConfig::default()
        }
    }

    /// The configuration of Experiments 2 and 3 scenario 1 (db = 50,
    /// 2 sites).
    pub fn paper_two_sites() -> Self {
        ProtocolConfig {
            db_size: 50,
            n_sites: 2,
            ..ProtocolConfig::default()
        }
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            db_size: 50,
            n_sites: 4,
            fail_locks_enabled: true,
            piggyback_clears: false,
            two_step_recovery: None,
            two_phase_read_only: false,
            backup_on_last_copy: false,
            emit_persistence: false,
            strategy: ReplicationStrategy::RowaAvailable,
            max_inflight: 1,
            recovery_cross_check: true,
            shard_vote_timeout_ms: default_shard_vote_timeout_ms(),
            shard_redrive_interval_ms: default_shard_redrive_interval_ms(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_implementation_choices() {
        let c = ProtocolConfig::default();
        assert!(c.fail_locks_enabled);
        assert!(
            !c.piggyback_clears,
            "paper ran standalone clear transactions"
        );
        assert!(
            c.two_step_recovery.is_none(),
            "paper used on-demand copiers only"
        );
        assert_eq!(c.max_inflight, 1, "paper processed transactions serially");
    }

    #[test]
    fn shard_timer_defaults_respect_participant_timeout() {
        let c = ProtocolConfig::default();
        assert_eq!(c.shard_vote_timeout_ms, 400);
        assert_eq!(c.shard_redrive_interval_ms, 700);
        assert!(
            c.shard_vote_timeout_ms < 500,
            "vote timeout must undercut the 500 ms participant timeout"
        );
        assert!(c.shard_redrive_interval_ms > c.shard_vote_timeout_ms);
    }

    #[test]
    fn default_strategy_is_the_papers() {
        assert_eq!(
            ProtocolConfig::default().strategy,
            ReplicationStrategy::RowaAvailable
        );
    }

    #[test]
    fn paper_presets() {
        assert_eq!(ProtocolConfig::paper_experiment_1().n_sites, 4);
        assert_eq!(ProtocolConfig::paper_two_sites().n_sites, 2);
        assert_eq!(ProtocolConfig::paper_two_sites().db_size, 50);
    }
}
