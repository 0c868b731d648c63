//! Property tests for the wire codec: every message round-trips; decoding
//! arbitrary bytes never panics.

use bytes::BytesMut;
use miniraid_core::error::AbortReason;
use miniraid_core::ids::{ItemId, ReqId, SessionNumber, SiteId, TxnId};
use miniraid_core::messages::{
    Command, Message, MigratingRange, TxnOutcome, TxnReport, TxnStats, XDecisionRecord,
};
use miniraid_core::ops::{Operation, Transaction};
use miniraid_core::packed::PackedSiteTable;
use miniraid_core::session::{SiteRecord, SiteStatus};
use miniraid_net::codec::{decode, decode_many, encode, encode_batch_into, encode_into};
use miniraid_storage::ItemValue;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = ItemValue> {
    (any::<u64>(), any::<u64>()).prop_map(|(d, v)| ItemValue::new(d, v))
}

fn arb_item_values() -> impl Strategy<Value = Vec<(ItemId, ItemValue)>> {
    proptest::collection::vec((any::<u32>().prop_map(ItemId), arb_value()), 0..8)
}

fn arb_items() -> impl Strategy<Value = Vec<ItemId>> {
    proptest::collection::vec(any::<u32>().prop_map(ItemId), 0..8)
}

fn arb_status() -> impl Strategy<Value = SiteStatus> {
    prop_oneof![
        Just(SiteStatus::Up),
        Just(SiteStatus::Down),
        Just(SiteStatus::WaitingToRecover),
        Just(SiteStatus::Terminating),
    ]
}

fn arb_operation() -> impl Strategy<Value = Operation> {
    prop_oneof![
        any::<u32>().prop_map(|i| Operation::Read(ItemId(i))),
        (any::<u32>(), any::<u64>()).prop_map(|(i, v)| Operation::Write(ItemId(i), v)),
    ]
}

fn arb_reason() -> impl Strategy<Value = AbortReason> {
    prop_oneof![
        Just(AbortReason::DataUnavailable),
        Just(AbortReason::CopierTargetFailed),
        Just(AbortReason::ParticipantFailed),
        Just(AbortReason::SessionMismatch),
        Just(AbortReason::SiteNotOperational),
        Just(AbortReason::GlobalAbort),
        Just(AbortReason::StaleShardMap),
    ]
}

fn arb_report() -> impl Strategy<Value = TxnReport> {
    (
        any::<u64>(),
        any::<u8>(),
        prop_oneof![
            Just(TxnOutcome::Committed),
            arb_reason().prop_map(TxnOutcome::Aborted)
        ],
        any::<[u32; 6]>(),
        any::<bool>(),
        arb_item_values(),
    )
        .prop_map(|(txn, coord, outcome, s, p2, reads)| TxnReport {
            txn: TxnId(txn),
            coordinator: SiteId(coord),
            outcome,
            stats: TxnStats {
                reads: s[0],
                writes: s[1],
                copier_requests: s[2],
                faillocks_set: s[3],
                faillocks_cleared: s[4],
                messages_sent: s[5],
                participant_failed_phase_two: p2,
            },
            read_results: reads,
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u64>(),
            arb_item_values(),
            proptest::collection::vec(any::<u64>().prop_map(SessionNumber), 0..8),
            proptest::collection::vec(
                (any::<u32>().prop_map(ItemId), any::<u8>().prop_map(SiteId)),
                0..8
            ),
            any::<u64>(),
        )
            .prop_map(
                |(txn, writes, snapshot, clears, up_mask)| Message::CopyUpdate {
                    txn: TxnId(txn),
                    writes,
                    snapshot,
                    clears,
                    up_mask,
                }
            ),
        (any::<u64>(), any::<bool>()).prop_map(|(t, ok)| Message::UpdateAck { txn: TxnId(t), ok }),
        any::<u64>().prop_map(|t| Message::Commit { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| Message::CommitAck { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| Message::AbortTxn { txn: TxnId(t) }),
        (any::<u64>(), arb_items()).prop_map(|(r, items)| Message::CopyRequest {
            req: ReqId(r),
            items
        }),
        (any::<u64>(), any::<bool>(), arb_item_values()).prop_map(|(r, ok, copies)| {
            Message::CopyResponse {
                req: ReqId(r),
                ok,
                copies,
            }
        }),
        (any::<u8>(), arb_items()).prop_map(|(s, items)| Message::ClearFailLocks {
            site: SiteId(s),
            items
        }),
        (any::<u8>(), arb_items()).prop_map(|(s, items)| Message::SetFailLocks {
            site: SiteId(s),
            items
        }),
        (any::<u64>(), any::<bool>()).prop_map(|(s, w)| Message::RecoveryAnnounce {
            session: SessionNumber(s),
            want_state: w,
        }),
        (
            proptest::collection::vec(
                (any::<u64>(), arb_status()).prop_map(|(s, st)| SiteRecord {
                    session: SessionNumber(s),
                    status: st
                }),
                0..8
            ),
            proptest::collection::vec(any::<u64>(), 0..16),
            proptest::collection::vec(any::<u64>(), 0..16),
            proptest::collection::vec(any::<u64>(), 0..16),
        )
            .prop_map(
                |(vector, faillocks, holders, backups)| Message::RecoveryInfo {
                    vector,
                    faillocks: PackedSiteTable::pack(&faillocks),
                    holders: PackedSiteTable::pack(&holders),
                    backups: PackedSiteTable::pack(&backups),
                }
            ),
        proptest::collection::vec(
            (
                any::<u8>().prop_map(SiteId),
                any::<u64>().prop_map(SessionNumber)
            ),
            0..8
        )
        .prop_map(|failed| Message::FailureAnnounce { failed }),
        (any::<u64>(), arb_items()).prop_map(|(r, items)| Message::ReadRequest {
            req: ReqId(r),
            items
        }),
        (any::<u64>(), any::<bool>(), arb_item_values()).prop_map(|(r, ok, values)| {
            Message::ReadResponse {
                req: ReqId(r),
                ok,
                values,
            }
        }),
        (any::<u32>(), arb_value()).prop_map(|(i, v)| Message::CreateBackup {
            item: ItemId(i),
            value: v
        }),
        (any::<u32>(), any::<u8>()).prop_map(|(i, s)| Message::BackupCreated {
            item: ItemId(i),
            site: SiteId(s)
        }),
        (any::<u32>(), any::<u8>()).prop_map(|(i, s)| Message::BackupDropped {
            item: ItemId(i),
            site: SiteId(s)
        }),
        prop_oneof![
            Just(Command::Fail),
            Just(Command::Recover),
            Just(Command::Terminate),
            Just(Command::Bootstrap),
            (
                any::<u64>(),
                proptest::collection::vec(arb_operation(), 0..12)
            )
                .prop_map(|(id, ops)| Command::Begin(Transaction::new(TxnId(id), ops))),
        ]
        .prop_map(Message::Mgmt),
        arb_report().prop_map(Message::MgmtReport),
        any::<u64>().prop_map(|s| Message::MgmtRecovered {
            session: SessionNumber(s)
        }),
        any::<u64>().prop_map(|s| Message::MgmtDataRecovered {
            session: SessionNumber(s)
        }),
        Just(Message::MetricsRequest),
        proptest::collection::vec(any::<u32>(), 0..64).prop_map(|codes| Message::MetricsResponse {
            // Exercise multi-byte UTF-8 by folding arbitrary u32s onto
            // valid scalar values.
            text: codes
                .into_iter()
                .filter_map(|c| char::from_u32(c % 0x11_0000))
                .collect(),
        }),
    ]
}

/// Session-layer frames: a `Seq` wrapping any plain message (the layer
/// never nests, and the codec rejects Seq-in-Seq), plus the cumulative
/// ack with all three fields — epoch, cumulative, and the receiver's own
/// epoch that signals a restart to the sender.
fn arb_wire_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_message(),
        (any::<u64>(), any::<u64>(), arb_message()).prop_map(|(epoch, seq, inner)| {
            Message::Seq {
                epoch,
                seq,
                inner: Box::new(inner),
            }
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(epoch, cumulative, receiver)| {
            Message::SeqAck {
                epoch,
                cumulative,
                receiver,
            }
        }),
    ]
}

/// A cross-shard decision record as the coordinator replicates it: the
/// begin form (`outcome = None`, no votes yet) through the commit form
/// (`outcome = Some(true)`, full vote set) — and the representable-but-
/// never-replicated `Some(false)`, which the codec must still carry.
fn arb_xdecision_record() -> impl Strategy<Value = XDecisionRecord> {
    (
        any::<u64>(),
        proptest::collection::vec(
            (
                any::<u8>(),
                any::<u64>(),
                proptest::collection::vec(arb_operation(), 0..6),
            )
                .prop_map(|(g, id, ops)| (g, Transaction::new(TxnId(id), ops))),
            0..4,
        ),
        proptest::collection::vec((any::<u8>(), any::<bool>()), 0..4),
        prop_oneof![Just(None), any::<bool>().prop_map(Some)],
    )
        .prop_map(|(txn, branches, votes, outcome)| XDecisionRecord {
            txn: TxnId(txn),
            branches,
            votes,
            outcome,
        })
}

/// The decision-log protocol frames (TAG 32–35): replicated append and
/// its disambiguating ack, plus the successor's query/reply pair.
fn arb_xlog_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), arb_xdecision_record())
            .prop_map(|(epoch, record)| Message::XLogAppend { epoch, record }),
        (any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>()).prop_map(
            |(txn, epoch, ok, decided)| Message::XLogAck {
                txn: TxnId(txn),
                epoch,
                ok,
                decided,
            }
        ),
        any::<u64>().prop_map(|epoch| Message::XLogQuery { epoch }),
        (
            any::<u64>(),
            proptest::collection::vec(arb_xdecision_record(), 0..4)
        )
            .prop_map(|(epoch, records)| Message::XLogReply { epoch, records }),
    ]
}

fn arb_migrating_ranges() -> impl Strategy<Value = Vec<MigratingRange>> {
    proptest::collection::vec(
        (
            any::<u32>(),
            any::<u32>(),
            any::<u8>(),
            any::<u8>(),
            any::<bool>(),
        )
            .prop_map(|(lo, hi, donor, recipient, frozen)| MigratingRange {
                lo,
                hi,
                donor,
                recipient,
                frozen,
            }),
        0..4,
    )
}

/// The live-resharding map frames (TAG 36–41): the epoch-versioned map
/// announcement and its ack, the query/reply pair a restarted client
/// refreshes from, the stale-route rejection, and the decision-log GC
/// frame that rides the same paths.
fn arb_map_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..32),
            arb_migrating_ranges(),
        )
            .prop_map(|(epoch, assignment, migrating)| Message::MapChange {
                epoch,
                assignment,
                migrating,
            }),
        (any::<u64>(), any::<bool>()).prop_map(|(epoch, ok)| Message::MapChangeAck { epoch, ok }),
        Just(Message::MapQuery),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..32),
            arb_migrating_ranges(),
        )
            .prop_map(|(epoch, assignment, migrating)| Message::MapReply {
                epoch,
                assignment,
                migrating,
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(txn, epoch)| Message::WrongEpoch {
            txn: TxnId(txn),
            epoch,
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(epoch, txn)| Message::XLogRetire {
            epoch,
            txn: TxnId(txn),
        }),
    ]
}

/// Payloads legal inside a shard envelope: any plain protocol message,
/// one of the cross-shard 2PC frames (TAG 28–30), or one of the
/// decision-log frames (TAG 32–35, which travel in the log group's
/// envelope). Never another envelope or session frame — the codec
/// rejects that nesting.
fn arb_shard_payload() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_message(),
        arb_xlog_message(),
        arb_map_message(),
        (
            any::<u64>(),
            proptest::collection::vec(arb_operation(), 0..12)
        )
            .prop_map(|(id, ops)| Message::ShardPrepare {
                txn: Transaction::new(TxnId(id), ops)
            }),
        (any::<u64>(), any::<bool>()).prop_map(|(t, ok)| Message::ShardVote { txn: TxnId(t), ok }),
        (any::<u64>(), any::<bool>()).prop_map(|(t, commit)| Message::ShardDecide {
            txn: TxnId(t),
            commit
        }),
    ]
}

/// A shard-tagged frame as the sharded transports emit it: the TAG 27
/// envelope around a legal payload, optionally wrapped by the session
/// layer (the legal nesting is `Seq { ShardEnv { .. } }`).
fn arb_shard_frame() -> impl Strategy<Value = Message> {
    let env = || {
        (any::<u8>(), arb_shard_payload()).prop_map(|(shard, inner)| Message::ShardEnv {
            shard,
            inner: Box::new(inner),
        })
    };
    prop_oneof![
        env(),
        (any::<u64>(), any::<u64>(), env()).prop_map(|(epoch, seq, inner)| Message::Seq {
            epoch,
            seq,
            inner: Box::new(inner),
        }),
    ]
}

/// A causal trace annotation (TAG 31) in every legal position: it sits
/// innermost, optionally under a shard envelope, optionally under the
/// session layer — the full stack being `Seq { ShardEnv { Traced { .. } } }`.
fn arb_traced_frame() -> impl Strategy<Value = Message> {
    let traced = || {
        (any::<u64>().prop_map(|t| t.max(1)), arb_message()).prop_map(|(trace, inner)| {
            Message::Traced {
                trace,
                inner: Box::new(inner),
            }
        })
    };
    prop_oneof![
        traced(),
        (any::<u8>(), traced()).prop_map(|(shard, inner)| Message::ShardEnv {
            shard,
            inner: Box::new(inner),
        }),
        (any::<u64>(), any::<u64>(), traced()).prop_map(|(epoch, seq, inner)| Message::Seq {
            epoch,
            seq,
            inner: Box::new(inner),
        }),
        (any::<u64>(), any::<u64>(), any::<u8>(), traced()).prop_map(
            |(epoch, seq, shard, inner)| Message::Seq {
                epoch,
                seq,
                inner: Box::new(Message::ShardEnv {
                    shard,
                    inner: Box::new(inner),
                }),
            }
        ),
    ]
}

/// A per-item site-bitmap table shaped like the real ones: some site
/// bits constant across the table (holders of a replicated database),
/// some sparse (fail-locks), any length — not only multiples of 64.
fn arb_site_table() -> impl Strategy<Value = PackedSiteTable> {
    let sparse = (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c)| a & b & c);
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(sparse, 0..200),
    )
        .prop_map(|(constant, varying, words)| {
            let words: Vec<u64> = words
                .into_iter()
                .map(|w| (constant & !varying) | (w & varying))
                .collect();
            let packed = PackedSiteTable::pack(&words);
            assert!(packed.words().eq(words), "packing changed the table");
            packed
        })
}

fn arb_recovery_info() -> impl Strategy<Value = Message> {
    (arb_site_table(), arb_site_table(), arb_site_table()).prop_map(
        |(faillocks, holders, backups)| Message::RecoveryInfo {
            vector: vec![
                SiteRecord {
                    session: SessionNumber(3),
                    status: SiteStatus::Up
                };
                3
            ],
            faillocks,
            holders,
            backups,
        },
    )
}

/// A `RecoveryInfo` frame whose fail-lock table header is written by
/// hand: `items`, `all`, `some`, then `sets` as the bit-set words.
fn recovery_info_with_table(items: u32, all: u64, some: u64, sets: &[u64]) -> Vec<u8> {
    let mut raw = vec![10u8]; // TAG_RECOVERY_INFO
    raw.extend_from_slice(&0u32.to_le_bytes()); // empty session vector
    raw.extend_from_slice(&items.to_le_bytes());
    raw.extend_from_slice(&all.to_le_bytes());
    raw.extend_from_slice(&some.to_le_bytes());
    for set in sets {
        raw.extend_from_slice(&set.to_le_bytes());
    }
    for _ in 0..2 {
        raw.extend_from_slice(&[0u8; 20]); // two empty tables
    }
    raw
}

#[test]
fn recovery_info_costs_what_is_stale_not_what_is_stored() {
    // The benchmark's fail-recover shape: 100 000 items, 3 sites, full
    // replication, 65 000 copies fail-locked for one site. The flat
    // layout shipped 24 B per item (2 400 0xx B per donor).
    const ITEMS: usize = 100_000;
    let vector = vec![
        SiteRecord {
            session: SessionNumber(2),
            status: SiteStatus::Up
        };
        3
    ];
    let mut faillocks = vec![0u64; ITEMS];
    for word in faillocks.iter_mut().take(65_000) {
        *word = 0b100;
    }
    let msg = Message::RecoveryInfo {
        vector: vector.clone(),
        faillocks: PackedSiteTable::pack(&faillocks),
        holders: PackedSiteTable::pack(&vec![0b111; ITEMS]),
        backups: PackedSiteTable::pack(&vec![0; ITEMS]),
    };
    let encoded = encode(&msg);
    assert!(encoded.len() <= 64 * 1024, "{} B", encoded.len());
    assert_eq!(decode(&encoded).expect("decodes"), msg);

    let clear = Message::RecoveryInfo {
        vector,
        faillocks: PackedSiteTable::pack(&vec![0; ITEMS]),
        holders: PackedSiteTable::pack(&vec![0b111; ITEMS]),
        backups: PackedSiteTable::pack(&vec![0; ITEMS]),
    };
    let encoded = encode(&clear);
    assert!(encoded.len() <= 256, "{} B", encoded.len());
    assert_eq!(decode(&encoded).expect("decodes"), clear);
}

#[test]
fn recovery_info_tables_are_validated_before_they_are_built() {
    // Well-formed: 70 items, site 1 everywhere, site 0 on items 0 and 69.
    let good = recovery_info_with_table(70, 0b10, 0b01, &[1, 1 << 5]);
    match decode(&good).expect("well-formed table decodes") {
        Message::RecoveryInfo { faillocks, .. } => {
            let words: Vec<u64> = faillocks.words().collect();
            assert_eq!(words.len(), 70);
            assert_eq!((words[0], words[1], words[69]), (0b11, 0b10, 0b11));
        }
        other => panic!("decoded {other:?}"),
    }
    // Declared item count above the cap (as before: 1 << 24).
    assert!(decode(&recovery_info_with_table((1 << 24) + 1, 0, 0, &[])).is_err());
    // A large table whose declared bit sets are not in the frame is
    // rejected from its header, not after allocating for it.
    assert!(decode(&recovery_info_with_table(1 << 24, 0, u64::MAX, &[])).is_err());
    // A bit set past the last item.
    assert!(decode(&recovery_info_with_table(70, 0, 0b01, &[1, 1 << 6])).is_err());
    // A site bit declared both constant and varying.
    assert!(decode(&recovery_info_with_table(70, 0b01, 0b01, &[1, 1])).is_err());
}

proptest! {
    #[test]
    fn recovery_info_tables_roundtrip(msg in arb_recovery_info()) {
        let encoded = encode(&msg);
        prop_assert_eq!(decode(&encoded).expect("well-formed message decodes"), msg.clone());
        // ... and coalesced with other traffic in one frame.
        let batch = vec![Message::Commit { txn: TxnId(7) }, msg.clone(), msg];
        let mut buf = BytesMut::new();
        encode_batch_into(&mut buf, &batch);
        prop_assert_eq!(decode_many(&buf).expect("well-formed batch decodes"), batch);
    }

    #[test]
    fn truncated_recovery_info_is_rejected(msg in arb_recovery_info(), cut in 1usize..4096) {
        // Every field is length-checked and the frame must be consumed
        // exactly, so no strict prefix is a valid frame.
        let encoded = encode(&msg);
        let keep = encoded.len().saturating_sub(cut);
        prop_assert!(decode(&encoded[..keep]).is_err());
    }

    #[test]
    fn every_message_roundtrips(msg in arb_wire_message()) {
        let encoded = encode(&msg);
        let decoded = decode(&encoded).expect("well-formed message decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&raw);
    }

    #[test]
    fn message_sequences_roundtrip_as_batch(msgs in proptest::collection::vec(arb_wire_message(), 0..6)) {
        let mut buf = BytesMut::new();
        encode_batch_into(&mut buf, &msgs);
        let decoded = decode_many(&buf).expect("well-formed batch decodes");
        prop_assert_eq!(decoded, msgs);
    }

    #[test]
    fn single_frames_roundtrip_via_decode_many(msg in arb_wire_message()) {
        let mut buf = BytesMut::new();
        encode_into(&mut buf, &msg);
        let decoded = decode_many(&buf).expect("single-message frame decodes");
        prop_assert_eq!(decoded, vec![msg]);
    }

    #[test]
    fn decode_many_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_many(&raw);
    }

    #[test]
    fn shard_frames_roundtrip(msg in arb_shard_frame()) {
        let encoded = encode(&msg);
        let decoded = decode(&encoded).expect("well-formed shard frame decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn shard_frames_interleave_in_batches(
        shard_frames in proptest::collection::vec(arb_shard_frame(), 1..4),
        plain_frames in proptest::collection::vec(arb_wire_message(), 1..4),
    ) {
        // A coalesced TAG-21 batch may mix shard-tagged traffic with
        // pre-existing frames (metrics requests/responses and every
        // other plain message); interleaving must round-trip in order.
        let mut msgs = Vec::new();
        let mut shards = shard_frames.into_iter();
        let mut plains = plain_frames.into_iter();
        loop {
            match (shards.next(), plains.next()) {
                (None, None) => break,
                (s, p) => {
                    msgs.extend(s);
                    msgs.extend(p);
                }
            }
        }
        let mut buf = BytesMut::new();
        encode_batch_into(&mut buf, &msgs);
        let decoded = decode_many(&buf).expect("interleaved batch decodes");
        prop_assert_eq!(decoded, msgs);
    }

    #[test]
    fn nested_shard_envelopes_are_rejected(
        outer in any::<u8>(),
        shard in any::<u8>(),
        inner in arb_shard_payload(),
    ) {
        // Envelope-in-envelope never appears on a legal wire; the
        // decoder must refuse it rather than recurse.
        let msg = Message::ShardEnv {
            shard: outer,
            inner: Box::new(Message::ShardEnv {
                shard,
                inner: Box::new(inner),
            }),
        };
        let encoded = encode(&msg);
        prop_assert!(decode(&encoded).is_err());
    }

    #[test]
    fn xlog_frames_roundtrip(msg in arb_xlog_message()) {
        let encoded = encode(&msg);
        let decoded = decode(&encoded).expect("well-formed xlog frame decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn xlog_frames_roundtrip_under_envelopes(
        shard in any::<u8>(),
        epoch in any::<u64>(),
        seq in any::<u64>(),
        msg in arb_xlog_message(),
    ) {
        // The coordinator ships log frames in the log group's envelope;
        // the session layer may wrap that on a reliable link — the full
        // legal stack being `Seq { ShardEnv { XLog* } }`.
        let enveloped = Message::ShardEnv {
            shard,
            inner: Box::new(msg),
        };
        let encoded = encode(&enveloped);
        prop_assert_eq!(&decode(&encoded).expect("enveloped xlog frame decodes"), &enveloped);

        let sequenced = Message::Seq {
            epoch,
            seq,
            inner: Box::new(enveloped),
        };
        let encoded = encode(&sequenced);
        prop_assert_eq!(decode(&encoded).expect("sequenced xlog frame decodes"), sequenced);
    }

    #[test]
    fn xlog_frames_interleave_in_batches(
        xlog_frames in proptest::collection::vec(arb_xlog_message(), 1..4),
        plain_frames in proptest::collection::vec(arb_wire_message(), 1..4),
    ) {
        // Append/query retries share coalesced batches with ordinary
        // replication traffic; interleaving must round-trip in order.
        let mut msgs = Vec::new();
        let mut xlogs = xlog_frames.into_iter();
        let mut plains = plain_frames.into_iter();
        loop {
            match (xlogs.next(), plains.next()) {
                (None, None) => break,
                (x, p) => {
                    msgs.extend(x);
                    msgs.extend(p);
                }
            }
        }
        let mut buf = BytesMut::new();
        encode_batch_into(&mut buf, &msgs);
        let decoded = decode_many(&buf).expect("interleaved xlog batch decodes");
        prop_assert_eq!(decoded, msgs);
    }

    #[test]
    fn xlog_frames_reject_nested_envelopes(
        outer in any::<u8>(),
        shard in any::<u8>(),
        msg in arb_xlog_message(),
    ) {
        // A log frame rides in exactly one envelope; envelope-in-envelope
        // around it is malformed like any other nested envelope.
        let nested = Message::ShardEnv {
            shard: outer,
            inner: Box::new(Message::ShardEnv {
                shard,
                inner: Box::new(msg),
            }),
        };
        prop_assert!(decode(&encode(&nested)).is_err());
    }

    #[test]
    fn map_frames_roundtrip(msg in arb_map_message()) {
        let encoded = encode(&msg);
        let decoded = decode(&encoded).expect("well-formed map frame decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn map_frames_roundtrip_under_envelopes(
        shard in any::<u8>(),
        epoch in any::<u64>(),
        seq in any::<u64>(),
        msg in arb_map_message(),
    ) {
        // The resharder announces maps in the target group's envelope;
        // the session layer may wrap that on a reliable link — the full
        // legal stack being `Seq { ShardEnv { Map* } }`.
        let enveloped = Message::ShardEnv {
            shard,
            inner: Box::new(msg),
        };
        let encoded = encode(&enveloped);
        prop_assert_eq!(&decode(&encoded).expect("enveloped map frame decodes"), &enveloped);

        let sequenced = Message::Seq {
            epoch,
            seq,
            inner: Box::new(enveloped),
        };
        let encoded = encode(&sequenced);
        prop_assert_eq!(decode(&encoded).expect("sequenced map frame decodes"), sequenced);
    }

    #[test]
    fn map_frames_interleave_in_batches(
        map_frames in proptest::collection::vec(arb_map_message(), 1..4),
        plain_frames in proptest::collection::vec(arb_wire_message(), 1..4),
    ) {
        // Map announcements and WrongEpoch rejections share coalesced
        // batches with foreground replication traffic during a live
        // migration; interleaving must round-trip in order.
        let mut msgs = Vec::new();
        let mut maps = map_frames.into_iter();
        let mut plains = plain_frames.into_iter();
        loop {
            match (maps.next(), plains.next()) {
                (None, None) => break,
                (m, p) => {
                    msgs.extend(m);
                    msgs.extend(p);
                }
            }
        }
        let mut buf = BytesMut::new();
        encode_batch_into(&mut buf, &msgs);
        let decoded = decode_many(&buf).expect("interleaved map batch decodes");
        prop_assert_eq!(decoded, msgs);
    }

    #[test]
    fn map_frames_reject_nested_envelopes(
        outer in any::<u8>(),
        shard in any::<u8>(),
        msg in arb_map_message(),
    ) {
        // Like every other payload, a map frame rides in exactly one
        // envelope; envelope-in-envelope around it is malformed.
        let nested = Message::ShardEnv {
            shard: outer,
            inner: Box::new(Message::ShardEnv {
                shard,
                inner: Box::new(msg),
            }),
        };
        prop_assert!(decode(&encode(&nested)).is_err());
    }

    #[test]
    fn traced_frames_roundtrip(msg in arb_traced_frame()) {
        let encoded = encode(&msg);
        let decoded = decode(&encoded).expect("well-formed traced frame decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn traced_envelope_is_a_pure_prefix(trace in any::<u64>().prop_map(|t| t.max(1)), msg in arb_message()) {
        // Back-compat by construction: the trace annotation is exactly a
        // 9-byte prefix (tag 31 + little-endian id) over the untraced
        // encoding, so trace-absent frames are bit-identical to a build
        // that has never heard of tracing, and stripping the prefix
        // recovers the plain frame byte for byte.
        let plain = encode(&msg);
        let traced = encode(&Message::Traced {
            trace,
            inner: Box::new(msg),
        });
        prop_assert_eq!(traced.len(), plain.len() + 9);
        prop_assert_eq!(traced[0], 31u8);
        prop_assert_eq!(&traced[1..9], &trace.to_le_bytes()[..]);
        prop_assert_eq!(&traced[9..], &plain[..]);
    }

    #[test]
    fn traced_frames_interleave_in_batches(
        traced_frames in proptest::collection::vec(arb_traced_frame(), 1..4),
        plain_frames in proptest::collection::vec(arb_wire_message(), 1..4),
    ) {
        // Traced traffic only ever appears for the handful of
        // transactions under observation; a coalesced batch mixes it
        // with untraced frames and must round-trip in order.
        let mut msgs = Vec::new();
        let mut traced = traced_frames.into_iter();
        let mut plains = plain_frames.into_iter();
        loop {
            match (traced.next(), plains.next()) {
                (None, None) => break,
                (t, p) => {
                    msgs.extend(t);
                    msgs.extend(p);
                }
            }
        }
        let mut buf = BytesMut::new();
        encode_batch_into(&mut buf, &msgs);
        let decoded = decode_many(&buf).expect("interleaved traced batch decodes");
        prop_assert_eq!(decoded, msgs);
    }

    #[test]
    fn nested_traced_frames_are_rejected(
        outer in any::<u64>().prop_map(|t| t.max(1)),
        inner in any::<u64>().prop_map(|t| t.max(1)),
        msg in arb_message(),
    ) {
        // One annotation per frame; the decoder refuses to recurse on a
        // traced frame inside a traced frame.
        let nested = Message::Traced {
            trace: outer,
            inner: Box::new(Message::Traced {
                trace: inner,
                inner: Box::new(msg),
            }),
        };
        prop_assert!(decode(&encode(&nested)).is_err());
    }

    #[test]
    fn zero_trace_ids_are_rejected(msg in arb_message()) {
        // Trace id 0 means "untraced" everywhere in the stack; a frame
        // claiming it on the wire is malformed.
        let encoded = encode(&Message::Traced {
            trace: 0,
            inner: Box::new(msg),
        });
        prop_assert!(decode(&encoded).is_err());
    }

    #[test]
    fn truncated_encodings_error_cleanly(msg in arb_wire_message(), cut in 0usize..64) {
        let encoded = encode(&msg);
        if cut < encoded.len() {
            let truncated = &encoded[..encoded.len() - cut - 1];
            // Must not panic; may error or (rarely) decode a prefix-valid
            // message, which the trailing-bytes check prevents.
            let _ = decode(truncated);
        }
    }
}
