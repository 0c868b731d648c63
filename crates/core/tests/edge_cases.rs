//! Edge-case and adversarial-delivery tests for the protocol engine:
//! duplicate and stale messages, failures at every protocol phase,
//! queueing, and the session-mismatch paths. The engine must be
//! stale-safe: any late or repeated input is ignored, never corrupting
//! state.

mod harness;

use harness::Pump;
use miniraid_core::engine::{Input, Output, TimerId};
use miniraid_core::error::AbortReason;
use miniraid_core::messages::{Command, Message, TxnOutcome};
use miniraid_core::ops::{Operation, Transaction};
use miniraid_core::session::SiteStatus;
use miniraid_core::{ItemId, ProtocolConfig, SessionNumber, SiteId, TxnId};

fn cfg(n_sites: u8) -> ProtocolConfig {
    ProtocolConfig {
        db_size: 10,
        n_sites,
        ..ProtocolConfig::default()
    }
}

fn write(item: u32, value: u64) -> Operation {
    Operation::Write(ItemId(item), value)
}

fn read(item: u32) -> Operation {
    Operation::Read(ItemId(item))
}

#[test]
fn duplicate_commit_message_is_ignored() {
    let mut pump = Pump::new(cfg(3));
    let report = pump.run_txn(SiteId(0), Transaction::new(TxnId(1), vec![write(2, 5)]));
    assert!(report.outcome.is_committed());
    let before = pump.engine(SiteId(1)).db().get(2).unwrap();
    // Redeliver a Commit for the already-finished transaction: the
    // participant re-acks idempotently (the coordinator retransmitting
    // means our CommitAck was lost) but must not re-apply the writes.
    let out = pump.engines[1].handle_owned(Input::Deliver {
        from: SiteId(0),
        msg: Message::Commit { txn: TxnId(1) },
    });
    let sends: Vec<_> = out
        .iter()
        .filter_map(|o| match o {
            Output::Send { to, msg } => Some((*to, msg)),
            _ => None,
        })
        .collect();
    assert!(
        matches!(
            sends.as_slice(),
            [(SiteId(0), Message::CommitAck { txn: TxnId(1) })]
        ),
        "duplicate commit re-acks (and does nothing else): {sends:?}"
    );
    assert_eq!(pump.engine(SiteId(1)).db().get(2).unwrap(), before);
}

#[test]
fn stale_update_ack_is_ignored() {
    let mut pump = Pump::new(cfg(3));
    pump.run_txn(SiteId(0), Transaction::new(TxnId(1), vec![write(2, 5)]));
    // An ack for a long-gone transaction must not disturb anything.
    let out = pump.engines[0].handle_owned(Input::Deliver {
        from: SiteId(1),
        msg: Message::UpdateAck {
            txn: TxnId(1),
            ok: true,
        },
    });
    assert!(out.is_empty());
    // And neither must a stale commit-ack.
    let out = pump.engines[0].handle_owned(Input::Deliver {
        from: SiteId(1),
        msg: Message::CommitAck { txn: TxnId(1) },
    });
    assert!(out.is_empty());
}

#[test]
fn abort_for_unknown_txn_is_a_noop() {
    let mut pump = Pump::new(cfg(2));
    let out = pump.engines[1].handle_owned(Input::Deliver {
        from: SiteId(0),
        msg: Message::AbortTxn { txn: TxnId(77) },
    });
    assert!(out.is_empty());
}

#[test]
fn copy_response_with_unknown_request_is_ignored() {
    let mut pump = Pump::new(cfg(2));
    let out = pump.engines[0].handle_owned(Input::Deliver {
        from: SiteId(1),
        msg: Message::CopyResponse {
            req: miniraid_core::ids::ReqId(999),
            ok: true,
            copies: vec![(ItemId(0), miniraid_core::ItemValue::new(1, 1))],
        },
    });
    assert!(out.is_empty());
    // The unsolicited copy must NOT have been applied.
    assert_eq!(pump.engine(SiteId(0)).db().get(0).unwrap().version, 0);
}

#[test]
fn stale_timers_never_fire_into_completed_state() {
    let mut pump = Pump::new(cfg(3));
    pump.run_txn(SiteId(0), Transaction::new(TxnId(1), vec![write(1, 1)]));
    // Fire every timer kind for the old transaction.
    for timer in [
        TimerId::AckTimeout(TxnId(1)),
        TimerId::CommitAckTimeout(TxnId(1)),
        TimerId::ParticipantTimeout(TxnId(1)),
        TimerId::CopierTimeout(miniraid_core::ids::ReqId(1)),
        TimerId::BatchCopier,
        TimerId::RecoveryInfoTimeout(0),
    ] {
        for e in 0..3usize {
            let out = pump.engines[e].handle_owned(Input::Timer(timer));
            assert!(
                out.is_empty(),
                "stale {timer:?} produced output at site {e}: {out:?}"
            );
        }
    }
}

#[test]
fn coordinator_failure_between_phases_discards_participant_state() {
    let mut pump = Pump::new(cfg(3));
    // Drive phase one manually: deliver a CopyUpdate to site 1 and let it
    // ack, but never send Commit.
    let out = pump.engines[1].handle_owned(Input::Deliver {
        from: SiteId(0),
        msg: Message::CopyUpdate {
            txn: TxnId(9),
            writes: vec![(ItemId(4), miniraid_core::ItemValue::new(44, 9))],
            snapshot: vec![SessionNumber(1); 3],
            clears: vec![],
            up_mask: 0b111,
        },
    });
    assert!(out.iter().any(|o| matches!(
        o,
        Output::Send {
            msg: Message::UpdateAck { ok: true, .. },
            ..
        }
    )));
    // The participant timeout fires: coordinator presumed dead.
    let out = pump.engines[1].handle_owned(Input::Timer(TimerId::ParticipantTimeout(TxnId(9))));
    // It must discard the buffered writes and announce the failure.
    assert!(out.iter().any(|o| matches!(
        o,
        Output::Send {
            msg: Message::FailureAnnounce { .. },
            ..
        }
    )));
    assert_eq!(pump.engine(SiteId(1)).db().get(4).unwrap().version, 0);
    assert!(!pump.engine(SiteId(1)).vector().is_up(SiteId(0)));
    // A very late Commit for that transaction is now a no-op.
    let out = pump.engines[1].handle_owned(Input::Deliver {
        from: SiteId(0),
        msg: Message::Commit { txn: TxnId(9) },
    });
    assert!(out.is_empty());
}

#[test]
fn participant_failure_in_phase_two_still_commits() {
    // Appendix A.1: "if commit ack not received from all participating
    // sites then run control type 2 transaction ... commit database data
    // items" — the transaction commits anyway.
    let mut pump = Pump::new(cfg(3));
    // Start a transaction manually so we can drop site 2 mid-protocol.
    let out = pump.engines[0].handle_owned(Input::Control(Command::Begin(Transaction::new(
        TxnId(5),
        vec![write(3, 33)],
    ))));
    // Deliver phase-one updates; both participants ack.
    let mut acks = Vec::new();
    for o in out {
        if let Output::Send { to, msg } = o {
            let replies = pump.engines[to.index()].handle_owned(Input::Deliver {
                from: SiteId(0),
                msg,
            });
            acks.extend(replies.into_iter().filter_map(|r| match r {
                Output::Send { msg, .. } => Some((to, msg)),
                _ => None,
            }));
        }
    }
    // Site 2 dies after acking phase one.
    pump.engines[2].handle_owned(Input::Control(Command::Fail));
    // Coordinator receives both acks and sends Commit to both.
    let mut commits = Vec::new();
    for (from, ack) in acks {
        let out = pump.engines[0].handle_owned(Input::Deliver { from, msg: ack });
        for o in out {
            if let Output::Send { to, msg } = o {
                commits.push((to, msg));
            }
        }
    }
    assert_eq!(commits.len(), 2);
    // Only site 1 answers; site 2 is dead (its delivery is dropped).
    let mut commit_acks = Vec::new();
    for (to, msg) in commits {
        if to == SiteId(1) {
            let out = pump.engines[1].handle_owned(Input::Deliver {
                from: SiteId(0),
                msg,
            });
            for o in out {
                if let Output::Send { msg, .. } = o {
                    commit_acks.push(msg);
                }
            }
        }
    }
    for msg in commit_acks {
        pump.engines[0].handle_owned(Input::Deliver {
            from: SiteId(1),
            msg,
        });
    }
    // Commit-ack timeout fires for the missing site 2.
    let out = pump.engines[0].handle_owned(Input::Timer(TimerId::CommitAckTimeout(TxnId(5))));
    let report = out
        .iter()
        .find_map(|o| match o {
            Output::Report(r) => Some(r.clone()),
            _ => None,
        })
        .expect("transaction reported");
    assert_eq!(report.outcome, TxnOutcome::Committed);
    assert!(report.stats.participant_failed_phase_two);
    // The write is durable at the survivors.
    assert_eq!(pump.engine(SiteId(0)).db().get(3).unwrap().data, 33);
    assert_eq!(pump.engine(SiteId(1)).db().get(3).unwrap().data, 33);
    // And site 2 was announced down.
    assert!(out.iter().any(|o| matches!(
        o,
        Output::Send {
            msg: Message::FailureAnnounce { .. },
            ..
        }
    )));
}

#[test]
fn session_mismatch_nack_aborts_the_transaction() {
    let mut pump = Pump::new(cfg(2));
    // Hand site 1 a CopyUpdate whose snapshot carries a stale session
    // number for site 1 itself.
    let out = pump.engines[1].handle_owned(Input::Deliver {
        from: SiteId(0),
        msg: Message::CopyUpdate {
            txn: TxnId(3),
            writes: vec![(ItemId(0), miniraid_core::ItemValue::new(1, 3))],
            snapshot: vec![SessionNumber(1), SessionNumber(99)],
            clears: vec![],
            up_mask: 0b11,
        },
    });
    assert!(
        out.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: Message::UpdateAck { ok: false, .. },
                ..
            }
        )),
        "{out:?}"
    );
    // Nothing was buffered.
    let out = pump.engines[1].handle_owned(Input::Deliver {
        from: SiteId(0),
        msg: Message::Commit { txn: TxnId(3) },
    });
    assert!(out.is_empty());
}

#[test]
fn begin_on_down_site_reports_not_operational() {
    let mut pump = Pump::new(cfg(2));
    pump.fail(SiteId(0));
    let report = pump.run_txn(SiteId(0), Transaction::new(TxnId(1), vec![read(0)]));
    assert_eq!(
        report.outcome,
        TxnOutcome::Aborted(AbortReason::SiteNotOperational)
    );
}

#[test]
fn coordinator_fail_mid_queue_drops_queued_transactions() {
    let mut pump = Pump::new(cfg(3));
    // Queue two transactions without settling, then fail the site.
    pump.engines[0].handle_owned(Input::Control(Command::Begin(Transaction::new(
        TxnId(1),
        vec![write(0, 1)],
    ))));
    pump.engines[0].handle_owned(Input::Control(Command::Begin(Transaction::new(
        TxnId(2),
        vec![write(1, 2)],
    ))));
    pump.engines[0].handle_owned(Input::Control(Command::Fail));
    assert_eq!(pump.engine(SiteId(0)).status(), SiteStatus::Down);
    // No writes leaked anywhere.
    pump.settle();
    for s in 0..3u8 {
        assert_eq!(pump.engine(SiteId(s)).db().get(0).unwrap().version, 0);
        assert_eq!(pump.engine(SiteId(s)).db().get(1).unwrap().version, 0);
    }
}

#[test]
fn terminate_stops_all_processing() {
    let mut pump = Pump::new(cfg(2));
    pump.command(SiteId(1), Command::Terminate);
    assert_eq!(pump.engine(SiteId(1)).status(), SiteStatus::Terminating);
    // Deliveries to a terminating site are ignored.
    let out = pump.engines[1].handle_owned(Input::Deliver {
        from: SiteId(0),
        msg: Message::Commit { txn: TxnId(1) },
    });
    assert!(out.is_empty());
    // So are transactions.
    let out = pump.engines[1].handle_owned(Input::Control(Command::Begin(Transaction::new(
        TxnId(9),
        vec![read(0)],
    ))));
    assert!(out
        .iter()
        .any(|o| matches!(o, Output::Report(r) if !r.outcome.is_committed())));
}

#[test]
fn reads_observe_pre_transaction_state() {
    // Writes apply at commit; a transaction reading an item it also
    // writes sees the pre-transaction value.
    let mut pump = Pump::new(cfg(2));
    pump.run_txn(SiteId(0), Transaction::new(TxnId(1), vec![write(4, 10)]));
    let report = pump.run_txn(
        SiteId(0),
        Transaction::new(TxnId(2), vec![read(4), write(4, 20), read(4)]),
    );
    assert!(report.outcome.is_committed());
    for (_, value) in &report.read_results {
        assert_eq!(value.data, 10, "reads see the pre-transaction state");
    }
    assert_eq!(pump.engine(SiteId(1)).db().get(4).unwrap().data, 20);
}

#[test]
fn piggybacked_clears_propagate_with_the_commit() {
    let mut config = cfg(2);
    config.piggyback_clears = true;
    let mut pump = Pump::new(config);
    pump.fail(SiteId(0));
    pump.run_txn(SiteId(1), Transaction::new(TxnId(1), vec![write(1, 5)])); // detect
    pump.run_txn(SiteId(1), Transaction::new(TxnId(2), vec![write(1, 5)]));
    pump.recover(SiteId(0));
    // A read+write txn at the recovered site: the copier refreshes item 1
    // and the clear rides the CopyUpdate instead of a standalone message.
    let report = pump.run_txn(
        SiteId(0),
        Transaction::new(TxnId(3), vec![read(1), write(2, 7)]),
    );
    assert!(report.outcome.is_committed());
    assert_eq!(pump.engine(SiteId(0)).metrics().clear_messages_sent, 0);
    assert!(!pump
        .engine(SiteId(1))
        .faillocks()
        .is_locked(ItemId(1), SiteId(0)));
}

#[test]
fn recovering_site_rejects_copy_updates_until_operational() {
    let mut pump = Pump::new(cfg(3));
    pump.fail(SiteId(2));
    pump.run_txn(SiteId(0), Transaction::new(TxnId(1), vec![write(0, 1)])); // detect
                                                                            // Put site 2 into WaitingToRecover without settling (so RecoveryInfo
                                                                            // hasn't arrived).
    pump.engines[2].handle_owned(Input::Control(Command::Recover));
    assert_eq!(
        pump.engine(SiteId(2)).status(),
        SiteStatus::WaitingToRecover
    );
    let out = pump.engines[2].handle_owned(Input::Deliver {
        from: SiteId(0),
        msg: Message::CopyUpdate {
            txn: TxnId(9),
            writes: vec![(ItemId(3), miniraid_core::ItemValue::new(9, 9))],
            snapshot: vec![SessionNumber(1), SessionNumber(1), SessionNumber(2)],
            clears: vec![],
            up_mask: 0b111,
        },
    });
    assert!(out.iter().any(|o| matches!(
        o,
        Output::Send {
            msg: Message::UpdateAck { ok: false, .. },
            ..
        }
    )));
}

#[test]
fn double_recover_command_is_idempotent() {
    let mut pump = Pump::new(cfg(2));
    pump.fail(SiteId(0));
    pump.run_txn(SiteId(1), Transaction::new(TxnId(1), vec![write(0, 1)])); // detect
    pump.recover(SiteId(0));
    let session = pump.engine(SiteId(0)).session();
    // Recover again while already up: no-op.
    pump.recover(SiteId(0));
    assert_eq!(pump.engine(SiteId(0)).session(), session);
    assert_eq!(pump.engine(SiteId(0)).metrics().control_type1, 1);
}

#[test]
fn copy_request_for_stale_copy_is_refused() {
    let mut pump = Pump::new(cfg(3));
    pump.fail(SiteId(2));
    pump.run_txn(SiteId(0), Transaction::new(TxnId(1), vec![write(5, 9)])); // detect
    pump.run_txn(SiteId(0), Transaction::new(TxnId(2), vec![write(5, 9)]));
    pump.recover(SiteId(2));
    // Site 2's copy of item 5 is stale; a copy request for it must be
    // refused rather than serving stale data.
    let out = pump.engines[2].handle_owned(Input::Deliver {
        from: SiteId(1),
        msg: Message::CopyRequest {
            req: miniraid_core::ids::ReqId(42),
            items: vec![ItemId(5)],
        },
    });
    assert!(out.iter().any(|o| matches!(
        o,
        Output::Send {
            msg: Message::CopyResponse { ok: false, .. },
            ..
        }
    )));
}

#[test]
fn partial_copier_abort_still_propagates_applied_clears() {
    // Regression (found by proptest): a transaction issuing TWO copier
    // requests, where one target dies mid-refresh. The refresh that DID
    // apply is real — its fail-lock clears must reach the peers even
    // though the transaction aborts, or the tables diverge (a permanent
    // false positive at the peers).
    let mut pump = Pump::new(ProtocolConfig {
        db_size: 12,
        n_sites: 3,
        ..ProtocolConfig::default()
    });
    pump.fail(SiteId(0));
    pump.fail(SiteId(1));
    // Site 2 alone commits three writes.
    for (t, item) in [(1u64, 0u32), (2, 1), (3, 2)] {
        pump.run_txn(SiteId(2), Transaction::new(TxnId(t), vec![write(item, 1)]));
    }
    // Site 1 recovers and refreshes item 1 only.
    pump.recover(SiteId(1));
    pump.run_txn(SiteId(1), Transaction::new(TxnId(4), vec![read(1)]));
    // Site 0 recovers (state from site 1), then site 1 dies silently.
    pump.recover(SiteId(0));
    pump.fail(SiteId(1));
    // Site 0 reads items 1 and 2: two copier groups (item 1 sourced from
    // the now-dead site 1, item 2 from site 2). The item-2 refresh
    // applies; the item-1 copier times out and aborts the transaction.
    let report = pump.run_txn(
        SiteId(0),
        Transaction::new(TxnId(5), vec![read(1), read(2)]),
    );
    assert_eq!(
        report.outcome,
        TxnOutcome::Aborted(AbortReason::CopierTargetFailed)
    );
    assert_eq!(report.stats.copier_requests, 2);
    // The applied refresh propagated: no operational site still believes
    // site 0's copy of item 2 is stale.
    assert!(!pump
        .engine(SiteId(2))
        .faillocks()
        .is_locked(ItemId(2), SiteId(0)));
    assert!(!pump
        .engine(SiteId(0))
        .faillocks()
        .is_locked(ItemId(2), SiteId(0)));
    pump.assert_faillock_exactness();
}

#[test]
fn recovering_site_learns_backup_holdings_via_ct1() {
    // Regression (found by the partial-replication proptest): type-3
    // backup creations that happen while a site is down must reach it at
    // recovery, or its commit-time maintenance uses a stale holder mask
    // and the fail-lock tables diverge — letting a stale backup copy be
    // served as fresh. The replication map now rides RecoveryInfo.
    use miniraid_core::partial::ReplicationMap;
    let mut config = cfg(3);
    config.db_size = 9;
    config.backup_on_last_copy = true;
    let map = ReplicationMap::round_robin(9, 3, 2);
    let mut pump = Pump::with_replication(config, map);

    // Item 1 is held by {1, 2}. Failing site 1 makes site 2 the last
    // operational holder: a type-3 backup lands on site 0.
    pump.fail(SiteId(1));
    pump.run_txn(SiteId(0), Transaction::new(TxnId(1), vec![write(0, 5)])); // detect
    pump.settle();
    assert!(pump
        .engine(SiteId(0))
        .replication()
        .is_backup(ItemId(1), SiteId(0)));

    // Site 1 recovers: CT1 must teach it about site 0's backup holding.
    pump.recover(SiteId(1));
    assert!(
        pump.engine(SiteId(1))
            .replication()
            .holds(ItemId(1), SiteId(0)),
        "recovered site must learn the backup holding"
    );

    // Now fail site 0 and write item 1 from site 1: with the transferred
    // map, site 1's maintenance covers site 0's backup copy.
    pump.fail(SiteId(0));
    pump.run_txn(SiteId(1), Transaction::new(TxnId(2), vec![write(8, 1)])); // detect
    let r = pump.run_txn(SiteId(1), Transaction::new(TxnId(3), vec![write(1, 99)]));
    assert!(r.outcome.is_committed());
    assert!(
        pump.engine(SiteId(1))
            .faillocks()
            .is_locked(ItemId(1), SiteId(0)),
        "the down backup holder's staleness is tracked"
    );
    // After site 0 recovers, its stale backup is never served as fresh.
    pump.recover(SiteId(0));
    assert!(pump
        .engine(SiteId(0))
        .faillocks()
        .is_locked(ItemId(1), SiteId(0)));
    let r = pump.run_txn(SiteId(0), Transaction::new(TxnId(4), vec![read(1)]));
    assert!(r.outcome.is_committed());
    assert_eq!(r.read_results[0].1.data, 99, "refreshed, not stale");
}

/// Pins the anomaly PR 11 found while building the benchmark (CHANGES.md,
/// PR 11, "FOUND while building"; ROADMAP item 3 owns the fix — this
/// test documents today's behaviour and must be inverted by it).
///
/// With a transaction in flight across a type-1 control transaction, the
/// commit's `up_mask` predates the recovery: the donors format
/// `RecoveryInfo` before the commit sets the fail-lock, the recovering
/// site is no participant of the commit, and nothing tells it afterwards.
/// It ends up operational with a stale copy its own table does not mark,
/// and read-one serves that copy. The paper processes transactions
/// serially system-wide and never meets this; `max_inflight > 1` (and
/// any driver that recovers a site under load) does.
#[test]
fn commit_spanning_a_type1_leaves_the_recovered_site_stale_without_a_faillock() {
    fn sends(out: Vec<Output>) -> Vec<(SiteId, Message)> {
        out.into_iter()
            .filter_map(|o| match o {
                Output::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }
    let mut pump = Pump::new(ProtocolConfig {
        max_inflight: 8,
        ..cfg(3)
    });
    // Site 2 is down and sites 0 and 1 know it.
    pump.fail(SiteId(2));
    let detect = pump.run_txn(SiteId(0), Transaction::new(TxnId(1), vec![write(9, 1)]));
    assert!(
        !detect.outcome.is_committed(),
        "first update meets the failure"
    );
    assert!(!pump.engine(SiteId(1)).vector().is_up(SiteId(2)));

    // T writes item 4 with up_mask {0, 1}; phase one reaches site 1, whose
    // ack is still on the wire ...
    let begin = Command::Begin(Transaction::new(TxnId(2), vec![write(4, 44)]));
    let mut to_one = sends(pump.engines[0].handle_owned(Input::Control(begin)));
    assert!(matches!(
        to_one.as_slice(),
        [(SiteId(1), Message::CopyUpdate { up_mask: 0b011, .. })]
    ));
    let (_, copy_update) = to_one.pop().unwrap();
    let mut ack = sends(pump.engines[1].handle_owned(Input::Deliver {
        from: SiteId(0),
        msg: copy_update,
    }));
    assert!(matches!(
        ack.as_slice(),
        [(SiteId(0), Message::UpdateAck { ok: true, .. })]
    ));

    // ... when site 2 runs its whole type-1 control transaction: both
    // donors format their state before T commits.
    pump.command_quiet(SiteId(2), Command::Recover);
    assert!(pump.engine(SiteId(2)).is_up());
    assert_eq!(pump.observed.data_recovered.last(), Some(&SiteId(2)));

    // T commits on the mask it was given.
    let (_, update_ack) = ack.pop().unwrap();
    pump.deliver(SiteId(0), SiteId(1), update_ack);
    let report = pump.observed.reports.last().unwrap();
    assert_eq!(
        (report.txn, report.outcome.is_committed()),
        (TxnId(2), true)
    );

    // The participants of the commit fail-locked (4, site 2) ...
    for s in [0, 1] {
        assert!(pump
            .engine(SiteId(s))
            .faillocks()
            .is_locked(ItemId(4), SiteId(2)));
        assert_eq!(pump.engine(SiteId(s)).db().get(4).unwrap().version, 2);
    }
    // ... but site 2 holds the old copy, no fail-lock of its own, and
    // believes its data recovery complete: a read there is stale.
    let recovered = pump.engine(SiteId(2));
    assert_eq!(recovered.db().get(4).unwrap().version, 0);
    assert!(!recovered.faillocks().is_locked(ItemId(4), SiteId(2)));
    assert_eq!(recovered.own_stale_count(), 0);
    let stale = pump.run_txn(SiteId(2), Transaction::new(TxnId(3), vec![read(4)]));
    assert!(stale.outcome.is_committed());
    assert_eq!(stale.read_results[0].1.version, 0, "ROADMAP item 3");
}

/// Every site's engine holds exactly the fail-lock words it last logged:
/// what a durable restart would read back.
fn assert_logged_words_are_the_engines(pump: &Pump) {
    for engine in &pump.engines {
        let mut logged = vec![0u64; engine.config().db_size as usize];
        for (_, item, word) in pump
            .observed
            .logged_words
            .iter()
            .filter(|(site, _, _)| *site == engine.id())
        {
            logged[item.index()] = *word;
        }
        let held: Vec<u64> = (0..engine.config().db_size)
            .map(|item| engine.faillocks().word(ItemId(item)))
            .collect();
        assert_eq!(logged, held, "logged words at {}", engine.id());
    }
}

#[test]
fn a_type1_install_logs_the_faillock_words_it_changes() {
    let mut pump = Pump::new(ProtocolConfig {
        emit_persistence: true,
        ..cfg(3)
    });
    // Sites 1 and 2 fail, and x = item 4 commits at site 0 without them.
    pump.fail(SiteId(1));
    pump.fail(SiteId(2));
    let committed = (1..=3u64).any(|id| {
        let report = pump.run_txn(SiteId(0), Transaction::new(TxnId(id), vec![write(4, 44)]));
        report.outcome.is_committed()
    });
    assert!(committed, "x commits once site 0 has noticed the failures");
    let site0 = pump.engine(SiteId(0)).faillocks();
    assert!(site0.is_locked(ItemId(4), SiteId(1)) && site0.is_locked(ItemId(4), SiteId(2)));

    // Site 2 recovers through type-1 and learns both bits on x, its own
    // included: it must log them, or a restart forgets its copy is stale.
    pump.recover(SiteId(2));
    let site2 = pump.engine(SiteId(2));
    assert!(site2.is_up());
    assert!(site2.faillocks().is_locked(ItemId(4), SiteId(1)));
    assert!(site2.faillocks().is_locked(ItemId(4), SiteId(2)));
    assert_logged_words_are_the_engines(&pump);

    // A later commit elsewhere keeps the two in step.
    let z = pump.run_txn(SiteId(2), Transaction::new(TxnId(9), vec![write(7, 77)]));
    assert!(z.outcome.is_committed());
    assert_logged_words_are_the_engines(&pump);
}

#[test]
fn a_late_recovery_response_logs_the_faillock_words_its_union_adds() {
    use miniraid_core::packed::PackedSiteTable;
    fn sends(out: Vec<Output>) -> Vec<(SiteId, Message)> {
        out.into_iter()
            .filter_map(|o| match o {
                Output::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }
    let mut pump = Pump::new(ProtocolConfig {
        emit_persistence: true,
        ..cfg(3)
    });
    // Site 2 fails, and x = item 4 commits at sites 0 and 1 without it.
    pump.fail(SiteId(2));
    let committed = (1..=3u64).any(|id| {
        let report = pump.run_txn(SiteId(0), Transaction::new(TxnId(id), vec![write(4, 44)]));
        report.outcome.is_committed()
    });
    assert!(committed, "x commits once site 0 has noticed the failure");

    // Site 2 asks both for state; both format it.
    let asks = sends(pump.engines[2].handle_owned(Input::Control(Command::Recover)));
    let mut answers: Vec<(SiteId, Message)> = Vec::new();
    for (donor, ask) in asks {
        let reply = pump.engines[donor.index()].handle_owned(Input::Deliver {
            from: SiteId(2),
            msg: ask,
        });
        answers.extend(sends(reply).into_iter().map(|(_, msg)| (donor, msg)));
    }
    assert_eq!(answers.len(), 2, "{answers:?}");

    // Site 0's answer arrives first but stale, with x's bit missing: the
    // install leaves site 2's copy of x unmarked ...
    let (first, mut stale) = answers.remove(0);
    if let Message::RecoveryInfo { faillocks, .. } = &mut stale {
        *faillocks = PackedSiteTable::pack(&[0; 10]);
    }
    pump.deliver(SiteId(2), first, stale);
    assert!(!pump
        .engine(SiteId(2))
        .faillocks()
        .is_locked(ItemId(4), SiteId(2)));

    // ... until the late, honest answer unions the bit back in. The word
    // it changed must reach the log as well.
    let (second, honest) = answers.remove(0);
    pump.deliver(SiteId(2), second, honest);
    assert!(pump
        .engine(SiteId(2))
        .faillocks()
        .is_locked(ItemId(4), SiteId(2)));
    assert_logged_words_are_the_engines(&pump);
}
