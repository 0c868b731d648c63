//! `SiteEngine::timer_live`, one test per `TimerId` kind: a timer is live
//! from the moment it is armed and dead as soon as the wait it guards has
//! ended — the last ack, the decision, the copy, the recovery state — or
//! was abandoned. (That a dead timer is a no-op when fired anyway is
//! checked after every input of the random schedules in `proptests.rs`
//! and `tests/pipeline.rs`.)

use std::collections::VecDeque;

use miniraid_core::config::{ProtocolConfig, ReplicationStrategy, TwoStepRecovery};
use miniraid_core::engine::{Input, Output, SiteEngine, TimerId};
use miniraid_core::messages::{Command, Message};
use miniraid_core::ops::{Operation, Transaction};
use miniraid_core::{ItemId, SiteId, TxnId};

/// Engines joined by one FIFO queue that is stepped by hand; timers only
/// fire when a test fires them.
struct Net {
    engines: Vec<SiteEngine>,
    queue: VecDeque<(SiteId, SiteId, Message)>, // (to, from, msg)
    armed: Vec<(SiteId, TimerId)>,
}

impl Net {
    fn new(config: ProtocolConfig) -> Net {
        Net {
            engines: (0..config.n_sites)
                .map(|i| SiteEngine::new(SiteId(i), config.clone()))
                .collect(),
            queue: VecDeque::new(),
            armed: Vec::new(),
        }
    }

    fn input(&mut self, site: SiteId, input: Input) {
        for output in self.engines[site.index()].handle_owned(input) {
            match output {
                Output::Send { to, msg } => self.queue.push_back((to, site, msg)),
                Output::SetTimer(id) => self.armed.push((site, id)),
                _ => {}
            }
        }
    }

    fn command(&mut self, site: SiteId, cmd: Command) {
        self.input(site, Input::Control(cmd));
    }

    fn fire(&mut self, site: SiteId, id: TimerId) {
        self.input(site, Input::Timer(id));
    }

    /// Deliver the message at the head of the queue.
    fn step(&mut self) {
        let (to, from, msg) = self.queue.pop_front().expect("a message in flight");
        self.input(to, Input::Deliver { from, msg });
    }

    /// Deliver until a message `stop` accepts is at the head (it stays
    /// queued) or nothing is in flight.
    fn run_until(&mut self, stop: impl Fn(&Message) -> bool) {
        while self.queue.front().is_some_and(|(_, _, msg)| !stop(msg)) {
            self.step();
        }
    }

    fn run(&mut self) {
        self.run_until(|_| false);
    }

    /// The timer `site` armed last among those `pick` accepts.
    fn armed(&self, site: SiteId, pick: impl Fn(&TimerId) -> bool) -> TimerId {
        let found = self
            .armed
            .iter()
            .rev()
            .find(|(s, id)| *s == site && pick(id));
        found.expect("such a timer was armed").1
    }

    fn live(&self, site: SiteId, id: TimerId) -> bool {
        self.engines[site.index()].timer_live(&id)
    }

    /// Site 2 goes down, misses a committed write of `item`, and comes
    /// back operational with that copy fail-locked.
    fn leave_site_2_stale_on(&mut self, item: u32) {
        self.command(S2, Command::Fail);
        // The first write detects the failure (its ack timeout fires and
        // aborts it); the second commits without site 2.
        self.command(S0, Command::Begin(write(1, item)));
        self.run();
        self.fire(S0, TimerId::AckTimeout(TxnId(1)));
        self.run();
        self.command(S0, Command::Begin(write(2, item)));
        self.run();
        self.command(S2, Command::Recover);
        self.run();
        assert!(self.engines[2].is_up());
        assert_eq!(self.engines[2].own_stale_count(), 1);
    }
}

const S0: SiteId = SiteId(0);
const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);

fn config() -> ProtocolConfig {
    ProtocolConfig {
        db_size: 8,
        n_sites: 3,
        ..ProtocolConfig::default()
    }
}

fn write(txn: u64, item: u32) -> Transaction {
    Transaction::new(TxnId(txn), vec![Operation::Write(ItemId(item), txn)])
}

fn read(txn: u64, item: u32) -> Transaction {
    Transaction::new(TxnId(txn), vec![Operation::Read(ItemId(item))])
}

#[test]
fn coordinator_timeouts_die_with_the_last_ack_of_their_phase() {
    let t = TxnId(1);
    let mut net = Net::new(config());
    net.command(S0, Command::Begin(write(1, 3)));
    assert!(net.live(S0, TimerId::AckTimeout(t)));
    assert!(!net.live(S0, TimerId::CommitAckTimeout(t)));

    // Both participants prepared; their acks are still in flight.
    net.run_until(|m| matches!(m, Message::UpdateAck { .. }));
    net.step();
    assert!(net.live(S0, TimerId::AckTimeout(t)), "one ack outstanding");
    net.step();
    assert!(!net.live(S0, TimerId::AckTimeout(t)), "phase one over");
    assert!(net.live(S0, TimerId::CommitAckTimeout(t)));

    net.run_until(|m| matches!(m, Message::CommitAck { .. }));
    net.step();
    assert!(
        net.live(S0, TimerId::CommitAckTimeout(t)),
        "one commit ack outstanding"
    );
    net.step();
    assert!(
        !net.live(S0, TimerId::CommitAckTimeout(t)),
        "committed and reported"
    );
}

#[test]
fn participant_timeout_dies_with_the_decision() {
    let mut net = Net::new(config());
    net.command(S0, Command::Begin(write(1, 3)));
    net.run_until(|m| matches!(m, Message::Commit { .. }));
    let id = TimerId::ParticipantTimeout(TxnId(1));
    assert!(net.live(S1, id) && net.live(S2, id), "prepared, undecided");
    net.run();
    assert!(!net.live(S1, id) && !net.live(S2, id), "commit received");

    // The other decision: site 2 is down, so the coordinator's ack
    // timeout aborts the transaction site 1 prepared.
    net.command(S2, Command::Fail);
    net.command(S0, Command::Begin(write(2, 3)));
    net.run();
    let id = TimerId::ParticipantTimeout(TxnId(2));
    assert!(net.live(S1, id));
    net.fire(S0, TimerId::AckTimeout(TxnId(2)));
    net.run();
    assert!(!net.live(S1, id), "abort received");
}

#[test]
fn copier_timeout_dies_when_the_copy_arrives() {
    let mut net = Net::new(config());
    net.leave_site_2_stale_on(5);
    // Reading the stale copy sends a copier transaction first.
    net.command(S2, Command::Begin(read(3, 5)));
    let id = net.armed(S2, |id| matches!(id, TimerId::CopierTimeout(_)));
    net.run_until(|m| matches!(m, Message::CopyResponse { .. }));
    assert!(net.live(S2, id), "copy requested, not yet received");
    net.step();
    assert!(!net.live(S2, id), "copy installed");
}

#[test]
fn batch_copier_and_its_copiers_die_when_refresh_completes() {
    let mut net = Net::new(ProtocolConfig {
        two_step_recovery: Some(TwoStepRecovery {
            threshold: 1.0,
            batch_size: 8,
        }),
        ..config()
    });
    assert!(!net.live(S2, TimerId::BatchCopier), "nothing to refresh");
    net.leave_site_2_stale_on(5);
    assert!(net.live(S2, TimerId::BatchCopier), "batch mode entered");

    net.fire(S2, TimerId::BatchCopier);
    let copier = net.armed(S2, |id| matches!(id, TimerId::CopierTimeout(_)));
    assert!(net.live(S2, copier), "standalone copier in flight");
    assert!(net.live(S2, TimerId::BatchCopier), "still in batch mode");
    net.run();
    assert_eq!(net.engines[2].own_stale_count(), 0);
    assert!(!net.live(S2, copier), "copy installed");
    assert!(
        !net.live(S2, TimerId::BatchCopier),
        "refresh left batch mode"
    );
}

#[test]
fn read_timeout_dies_with_its_response_or_its_transaction() {
    let mut net = Net::new(ProtocolConfig {
        strategy: ReplicationStrategy::MajorityQuorum,
        ..config()
    });
    // A quorum read asks both peers and needs one of them.
    net.command(S0, Command::Begin(read(1, 3)));
    let reads: Vec<TimerId> = net
        .armed
        .iter()
        .filter(|(_, id)| matches!(id, TimerId::ReadTimeout(_)))
        .map(|(_, id)| *id)
        .collect();
    assert_eq!(reads.len(), 2);
    net.run_until(|m| matches!(m, Message::ReadResponse { .. }));
    assert!(reads.iter().all(|id| net.live(S0, *id)));
    net.step();
    assert!(
        reads.iter().all(|id| !net.live(S0, *id)),
        "quorum reached: the read finished, the straggler's timer with it"
    );
}

#[test]
fn recovery_info_timeout_dies_with_its_attempt() {
    let mut net = Net::new(config());
    net.command(S2, Command::Fail);
    assert!(
        !net.live(S2, TimerId::RecoveryInfoTimeout(0)),
        "no recovery active"
    );
    net.command(S2, Command::Recover);
    assert!(net.live(S2, TimerId::RecoveryInfoTimeout(0)));
    assert!(!net.live(S2, TimerId::RecoveryInfoTimeout(1)));

    // No answer in time: the next candidate is asked under attempt 1.
    net.fire(S2, TimerId::RecoveryInfoTimeout(0));
    assert!(!net.live(S2, TimerId::RecoveryInfoTimeout(0)), "superseded");
    assert!(net.live(S2, TimerId::RecoveryInfoTimeout(1)));
    net.run();
    assert!(net.engines[2].is_up());
    assert!(
        !net.live(S2, TimerId::RecoveryInfoTimeout(1)),
        "recovery completed"
    );

    // A recovery abandoned half-way leaves nothing live behind.
    net.command(S2, Command::Fail);
    net.command(S2, Command::Recover);
    assert!(net.live(S2, TimerId::RecoveryInfoTimeout(0)));
    net.command(S2, Command::Fail);
    assert!(
        !net.live(S2, TimerId::RecoveryInfoTimeout(0)),
        "recovery abandoned"
    );
}
