//! Binary wire codec for [`Message`].
//!
//! Hand-rolled little-endian encoding framed by the transports. Every
//! variant round-trips exactly; decoding arbitrary bytes never panics
//! (verified by property tests).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use miniraid_core::error::AbortReason;
use miniraid_core::ids::{ItemId, ReqId, SessionNumber, SiteId, TxnId};
use miniraid_core::messages::{
    status_code, status_from_code, Command, Message, MigratingRange, TxnOutcome, TxnReport,
    TxnStats, XDecisionRecord,
};
use miniraid_core::ops::{Operation, Transaction};
use miniraid_core::packed::{bits_of, PackedSiteTable};
use miniraid_core::session::SiteRecord;
use miniraid_storage::ItemValue;

use crate::NetError;

const TAG_COPY_UPDATE: u8 = 1;
const TAG_UPDATE_ACK: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_COMMIT_ACK: u8 = 4;
const TAG_ABORT_TXN: u8 = 5;
const TAG_COPY_REQUEST: u8 = 6;
const TAG_COPY_RESPONSE: u8 = 7;
const TAG_CLEAR_FAILLOCKS: u8 = 8;
const TAG_RECOVERY_ANNOUNCE: u8 = 9;
const TAG_RECOVERY_INFO: u8 = 10;
const TAG_FAILURE_ANNOUNCE: u8 = 11;
const TAG_READ_REQUEST: u8 = 12;
const TAG_READ_RESPONSE: u8 = 13;
const TAG_CREATE_BACKUP: u8 = 14;
const TAG_BACKUP_CREATED: u8 = 15;
const TAG_BACKUP_DROPPED: u8 = 16;
const TAG_MGMT: u8 = 17;
const TAG_MGMT_REPORT: u8 = 18;
const TAG_MGMT_RECOVERED: u8 = 19;
const TAG_MGMT_DATA_RECOVERED: u8 = 20;
/// A batch of messages coalesced into one frame by the transports.
const TAG_MSG_BATCH: u8 = 21;
const TAG_METRICS_REQUEST: u8 = 22;
const TAG_METRICS_RESPONSE: u8 = 23;
/// A message wrapped with a session-layer sequence number.
const TAG_SEQ: u8 = 24;
/// Cumulative session-layer acknowledgement.
const TAG_SEQ_ACK: u8 = 25;
/// Corrective fail-lock set after a phase-two participant failure.
const TAG_SET_FAILLOCKS: u8 = 26;
/// Shard routing envelope (sharded deployments): group id + payload.
const TAG_SHARD_ENV: u8 = 27;
/// Cross-shard 2PC phase one: prepare-and-hold a branch transaction.
const TAG_SHARD_PREPARE: u8 = 28;
/// Branch coordinator's vote to the top-level shard coordinator.
const TAG_SHARD_VOTE: u8 = 29;
/// Cross-shard 2PC phase two: commit or abort the held branch.
const TAG_SHARD_DECIDE: u8 = 30;
/// Causal-trace annotation envelope: a trace id plus the annotated
/// message. Optional everywhere — a frame without it decodes exactly
/// as before, so old-codec peers and trace-off deployments are
/// bit-compatible. Legal nesting, outermost first:
/// `Seq{ShardEnv{Traced{..}}}`.
const TAG_TRACED: u8 = 31;
/// XDecisionLog append: coordinator replicates a decision record.
const TAG_XLOG_APPEND: u8 = 32;
/// XDecisionLog append acknowledgement (epoch-fenced).
const TAG_XLOG_ACK: u8 = 33;
/// XDecisionLog read: a successor coordinator announces its epoch and
/// asks a replica for every stored record.
const TAG_XLOG_QUERY: u8 = 34;
/// XDecisionLog read reply: all stored records.
const TAG_XLOG_REPLY: u8 = 35;
/// Live-reshard map announcement: install an epoch-versioned shard map.
const TAG_MAP_CHANGE: u8 = 36;
/// Map-install acknowledgement (monotonic epoch check).
const TAG_MAP_CHANGE_ACK: u8 = 37;
/// Ask a site for its installed shard map.
const TAG_MAP_QUERY: u8 = 38;
/// Reply carrying a site's installed shard map.
const TAG_MAP_REPLY: u8 = 39;
/// Stale-map rejection of a routed transaction.
const TAG_WRONG_EPOCH: u8 = 40;
/// XDecisionLog garbage collection: drop a finished txn's record.
const TAG_XLOG_RETIRE: u8 = 41;

fn err(reason: &'static str) -> NetError {
    NetError::Codec(reason)
}

fn need(buf: &impl Buf, n: usize) -> Result<(), NetError> {
    if buf.remaining() < n {
        Err(err("short buffer"))
    } else {
        Ok(())
    }
}

fn put_len(buf: &mut BytesMut, len: usize) {
    buf.put_u32_le(len as u32);
}

fn get_len(buf: &mut impl Buf, cap: usize) -> Result<usize, NetError> {
    need(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    if len > cap {
        return Err(err("length exceeds sanity cap"));
    }
    Ok(len)
}

fn put_value(buf: &mut BytesMut, v: &ItemValue) {
    buf.put_u64_le(v.data);
    buf.put_u64_le(v.version);
}

fn get_value(buf: &mut impl Buf) -> Result<ItemValue, NetError> {
    need(buf, 16)?;
    let data = buf.get_u64_le();
    let version = buf.get_u64_le();
    Ok(ItemValue::new(data, version))
}

fn put_item_values(buf: &mut BytesMut, pairs: &[(ItemId, ItemValue)]) {
    put_len(buf, pairs.len());
    for (item, value) in pairs {
        buf.put_u32_le(item.0);
        put_value(buf, value);
    }
}

fn get_item_values(buf: &mut impl Buf) -> Result<Vec<(ItemId, ItemValue)>, NetError> {
    let len = get_len(buf, 1 << 20)?;
    let mut out = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        need(buf, 4)?;
        let item = ItemId(buf.get_u32_le());
        out.push((item, get_value(buf)?));
    }
    Ok(out)
}

fn put_items(buf: &mut BytesMut, items: &[ItemId]) {
    put_len(buf, items.len());
    for item in items {
        buf.put_u32_le(item.0);
    }
}

fn get_items(buf: &mut impl Buf) -> Result<Vec<ItemId>, NetError> {
    let len = get_len(buf, 1 << 20)?;
    let mut out = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        need(buf, 4)?;
        out.push(ItemId(buf.get_u32_le()));
    }
    Ok(out)
}

/// Cap on the item count a `RecoveryInfo` table may declare.
const MAX_TABLE_ITEMS: usize = 1 << 24;

/// Encode a per-item table of site bitmaps (fail-locks, holders, backups)
/// as it is packed: in space proportional to its content, not to
/// `8 × items`.
///
/// ```text
/// items: u32 | all: u64 | some: u64 | one bit set per bit of `some`
/// ```
///
/// `all` holds the site bits set in *every* word (the holder word of a
/// fully replicated database), `some` those set in some words but not
/// all (a site with fail-locks); for each bit of `some`, lowest first,
/// an `items`-bit set follows as `ceil(items / 64)` words, bit `i % 64`
/// of word `i / 64` ⇔ item `i` has the site's bit. An all-clear table is
/// 20 bytes whatever its size.
fn put_site_table(buf: &mut BytesMut, table: &PackedSiteTable) {
    put_len(buf, table.items() as usize);
    buf.put_u64_le(table.all());
    let some = table
        .sets()
        .iter()
        .fold(0, |some, (site, _)| some | 1 << site);
    buf.put_u64_le(some);
    for word in table.sets().iter().flat_map(|(_, set)| set) {
        buf.put_u64_le(*word);
    }
}

fn get_site_table(buf: &mut impl Buf) -> Result<PackedSiteTable, NetError> {
    let items = get_len(buf, MAX_TABLE_ITEMS)?;
    need(buf, 16)?;
    let all = buf.get_u64_le();
    let some = buf.get_u64_le();
    // The frame must hold every bit set its header declares before any
    // is allocated.
    let words = items.div_ceil(64);
    need(buf, some.count_ones() as usize * words * 8)?;
    let sets = bits_of(some)
        .map(|site| (site, (0..words).map(|_| buf.get_u64_le()).collect()))
        .collect();
    PackedSiteTable::from_parts(items as u32, all, sets).ok_or(err("malformed site table"))
}

fn put_operation(buf: &mut BytesMut, op: &Operation) {
    match op {
        Operation::Read(item) => {
            buf.put_u8(0);
            buf.put_u32_le(item.0);
        }
        Operation::Write(item, value) => {
            buf.put_u8(1);
            buf.put_u32_le(item.0);
            buf.put_u64_le(*value);
        }
    }
}

fn get_operation(buf: &mut impl Buf) -> Result<Operation, NetError> {
    need(buf, 5)?;
    match buf.get_u8() {
        0 => Ok(Operation::Read(ItemId(buf.get_u32_le()))),
        1 => {
            let item = ItemId(buf.get_u32_le());
            need(buf, 8)?;
            Ok(Operation::Write(item, buf.get_u64_le()))
        }
        _ => Err(err("unknown operation tag")),
    }
}

fn put_transaction(buf: &mut BytesMut, txn: &Transaction) {
    buf.put_u64_le(txn.id.0);
    put_len(buf, txn.ops.len());
    for op in &txn.ops {
        put_operation(buf, op);
    }
}

fn get_transaction(buf: &mut impl Buf) -> Result<Transaction, NetError> {
    need(buf, 8)?;
    let id = TxnId(buf.get_u64_le());
    let len = get_len(buf, 1 << 16)?;
    let mut ops = Vec::with_capacity(len.min(256));
    for _ in 0..len {
        ops.push(get_operation(buf)?);
    }
    Ok(Transaction::new(id, ops))
}

fn put_command(buf: &mut BytesMut, cmd: &Command) {
    match cmd {
        Command::Fail => buf.put_u8(0),
        Command::Recover => buf.put_u8(1),
        Command::Begin(txn) => {
            buf.put_u8(2);
            put_transaction(buf, txn);
        }
        Command::Terminate => buf.put_u8(3),
        Command::Bootstrap => buf.put_u8(4),
    }
}

fn get_command(buf: &mut impl Buf) -> Result<Command, NetError> {
    need(buf, 1)?;
    Ok(match buf.get_u8() {
        0 => Command::Fail,
        1 => Command::Recover,
        2 => Command::Begin(get_transaction(buf)?),
        3 => Command::Terminate,
        4 => Command::Bootstrap,
        _ => return Err(err("unknown command tag")),
    })
}

fn abort_code(reason: AbortReason) -> u8 {
    match reason {
        AbortReason::DataUnavailable => 0,
        AbortReason::CopierTargetFailed => 1,
        AbortReason::ParticipantFailed => 2,
        AbortReason::SessionMismatch => 3,
        AbortReason::SiteNotOperational => 4,
        AbortReason::GlobalAbort => 5,
        AbortReason::StaleShardMap => 6,
    }
}

fn abort_from_code(code: u8) -> Result<AbortReason, NetError> {
    Ok(match code {
        0 => AbortReason::DataUnavailable,
        1 => AbortReason::CopierTargetFailed,
        2 => AbortReason::ParticipantFailed,
        3 => AbortReason::SessionMismatch,
        4 => AbortReason::SiteNotOperational,
        5 => AbortReason::GlobalAbort,
        6 => AbortReason::StaleShardMap,
        _ => return Err(err("unknown abort reason")),
    })
}

fn put_xdecision_record(buf: &mut BytesMut, record: &XDecisionRecord) {
    buf.put_u64_le(record.txn.0);
    put_len(buf, record.branches.len());
    for (group, branch) in &record.branches {
        buf.put_u8(*group);
        put_transaction(buf, branch);
    }
    put_len(buf, record.votes.len());
    for (group, ok) in &record.votes {
        buf.put_u8(*group);
        buf.put_u8(*ok as u8);
    }
    buf.put_u8(match record.outcome {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    });
}

fn get_xdecision_record(buf: &mut impl Buf) -> Result<XDecisionRecord, NetError> {
    need(buf, 8)?;
    let txn = TxnId(buf.get_u64_le());
    let n = get_len(buf, 256)?;
    let mut branches = Vec::with_capacity(n);
    for _ in 0..n {
        need(buf, 1)?;
        let group = buf.get_u8();
        branches.push((group, get_transaction(buf)?));
    }
    let n = get_len(buf, 256)?;
    let mut votes = Vec::with_capacity(n);
    for _ in 0..n {
        need(buf, 2)?;
        let group = buf.get_u8();
        votes.push((group, buf.get_u8() != 0));
    }
    need(buf, 1)?;
    let outcome = match buf.get_u8() {
        0 => None,
        1 => Some(true),
        2 => Some(false),
        _ => return Err(err("unknown decision outcome")),
    };
    Ok(XDecisionRecord {
        txn,
        branches,
        votes,
        outcome,
    })
}

fn put_shard_map(buf: &mut BytesMut, assignment: &[u8], migrating: &[MigratingRange]) {
    put_len(buf, assignment.len());
    buf.put_slice(assignment);
    put_len(buf, migrating.len());
    for r in migrating {
        buf.put_u32_le(r.lo);
        buf.put_u32_le(r.hi);
        buf.put_u8(r.donor);
        buf.put_u8(r.recipient);
        buf.put_u8(r.frozen as u8);
    }
}

#[allow(clippy::type_complexity)]
fn get_shard_map(buf: &mut impl Buf) -> Result<(Vec<u8>, Vec<MigratingRange>), NetError> {
    let n = get_len(buf, 1 << 24)?;
    need(buf, n)?;
    let mut assignment = vec![0u8; n];
    buf.copy_to_slice(&mut assignment);
    let n = get_len(buf, 1 << 16)?;
    let mut migrating = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        need(buf, 11)?;
        migrating.push(MigratingRange {
            lo: buf.get_u32_le(),
            hi: buf.get_u32_le(),
            donor: buf.get_u8(),
            recipient: buf.get_u8(),
            frozen: buf.get_u8() != 0,
        });
    }
    Ok((assignment, migrating))
}

fn put_report(buf: &mut BytesMut, report: &TxnReport) {
    buf.put_u64_le(report.txn.0);
    buf.put_u8(report.coordinator.0);
    match report.outcome {
        TxnOutcome::Committed => buf.put_u8(0xFF),
        TxnOutcome::Aborted(reason) => buf.put_u8(abort_code(reason)),
    }
    let s = &report.stats;
    buf.put_u32_le(s.reads);
    buf.put_u32_le(s.writes);
    buf.put_u32_le(s.copier_requests);
    buf.put_u32_le(s.faillocks_set);
    buf.put_u32_le(s.faillocks_cleared);
    buf.put_u32_le(s.messages_sent);
    buf.put_u8(s.participant_failed_phase_two as u8);
    put_item_values(buf, &report.read_results);
}

fn get_report(buf: &mut impl Buf) -> Result<TxnReport, NetError> {
    need(buf, 8 + 1 + 1)?;
    let txn = TxnId(buf.get_u64_le());
    let coordinator = SiteId(buf.get_u8());
    let outcome = match buf.get_u8() {
        0xFF => TxnOutcome::Committed,
        code => TxnOutcome::Aborted(abort_from_code(code)?),
    };
    need(buf, 6 * 4 + 1)?;
    let stats = TxnStats {
        reads: buf.get_u32_le(),
        writes: buf.get_u32_le(),
        copier_requests: buf.get_u32_le(),
        faillocks_set: buf.get_u32_le(),
        faillocks_cleared: buf.get_u32_le(),
        messages_sent: buf.get_u32_le(),
        participant_failed_phase_two: buf.get_u8() != 0,
    };
    let read_results = get_item_values(buf)?;
    Ok(TxnReport {
        txn,
        coordinator,
        outcome,
        stats,
        read_results,
    })
}

/// Encode a message to bytes (payload only; transports add framing).
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_into(&mut buf, msg);
    buf.freeze()
}

/// Encode a message into a caller-provided buffer (appended), letting
/// transports reuse one scratch allocation across sends instead of
/// allocating per message.
pub fn encode_into(buf: &mut BytesMut, msg: &Message) {
    match msg {
        Message::CopyUpdate {
            txn,
            writes,
            snapshot,
            clears,
            up_mask,
        } => {
            buf.put_u8(TAG_COPY_UPDATE);
            buf.put_u64_le(txn.0);
            put_item_values(buf, writes);
            put_len(buf, snapshot.len());
            for s in snapshot {
                buf.put_u64_le(s.0);
            }
            put_len(buf, clears.len());
            for (item, site) in clears {
                buf.put_u32_le(item.0);
                buf.put_u8(site.0);
            }
            buf.put_u64_le(*up_mask);
        }
        Message::UpdateAck { txn, ok } => {
            buf.put_u8(TAG_UPDATE_ACK);
            buf.put_u64_le(txn.0);
            buf.put_u8(*ok as u8);
        }
        Message::Commit { txn } => {
            buf.put_u8(TAG_COMMIT);
            buf.put_u64_le(txn.0);
        }
        Message::CommitAck { txn } => {
            buf.put_u8(TAG_COMMIT_ACK);
            buf.put_u64_le(txn.0);
        }
        Message::AbortTxn { txn } => {
            buf.put_u8(TAG_ABORT_TXN);
            buf.put_u64_le(txn.0);
        }
        Message::CopyRequest { req, items } => {
            buf.put_u8(TAG_COPY_REQUEST);
            buf.put_u64_le(req.0);
            put_items(buf, items);
        }
        Message::CopyResponse { req, ok, copies } => {
            buf.put_u8(TAG_COPY_RESPONSE);
            buf.put_u64_le(req.0);
            buf.put_u8(*ok as u8);
            put_item_values(buf, copies);
        }
        Message::ClearFailLocks { site, items } => {
            buf.put_u8(TAG_CLEAR_FAILLOCKS);
            buf.put_u8(site.0);
            put_items(buf, items);
        }
        Message::SetFailLocks { site, items } => {
            buf.put_u8(TAG_SET_FAILLOCKS);
            buf.put_u8(site.0);
            put_items(buf, items);
        }
        Message::RecoveryAnnounce {
            session,
            want_state,
        } => {
            buf.put_u8(TAG_RECOVERY_ANNOUNCE);
            buf.put_u64_le(session.0);
            buf.put_u8(*want_state as u8);
        }
        Message::RecoveryInfo {
            vector,
            faillocks,
            holders,
            backups,
        } => {
            buf.put_u8(TAG_RECOVERY_INFO);
            put_len(buf, vector.len());
            for rec in vector {
                buf.put_u64_le(rec.session.0);
                buf.put_u8(status_code(rec.status));
            }
            for table in [faillocks, holders, backups] {
                put_site_table(buf, table);
            }
        }
        Message::FailureAnnounce { failed } => {
            buf.put_u8(TAG_FAILURE_ANNOUNCE);
            put_len(buf, failed.len());
            for (site, session) in failed {
                buf.put_u8(site.0);
                buf.put_u64_le(session.0);
            }
        }
        Message::ReadRequest { req, items } => {
            buf.put_u8(TAG_READ_REQUEST);
            buf.put_u64_le(req.0);
            put_items(buf, items);
        }
        Message::ReadResponse { req, ok, values } => {
            buf.put_u8(TAG_READ_RESPONSE);
            buf.put_u64_le(req.0);
            buf.put_u8(*ok as u8);
            put_item_values(buf, values);
        }
        Message::CreateBackup { item, value } => {
            buf.put_u8(TAG_CREATE_BACKUP);
            buf.put_u32_le(item.0);
            put_value(buf, value);
        }
        Message::BackupCreated { item, site } => {
            buf.put_u8(TAG_BACKUP_CREATED);
            buf.put_u32_le(item.0);
            buf.put_u8(site.0);
        }
        Message::BackupDropped { item, site } => {
            buf.put_u8(TAG_BACKUP_DROPPED);
            buf.put_u32_le(item.0);
            buf.put_u8(site.0);
        }
        Message::Mgmt(cmd) => {
            buf.put_u8(TAG_MGMT);
            put_command(buf, cmd);
        }
        Message::MgmtReport(report) => {
            buf.put_u8(TAG_MGMT_REPORT);
            put_report(buf, report);
        }
        Message::MgmtRecovered { session } => {
            buf.put_u8(TAG_MGMT_RECOVERED);
            buf.put_u64_le(session.0);
        }
        Message::MgmtDataRecovered { session } => {
            buf.put_u8(TAG_MGMT_DATA_RECOVERED);
            buf.put_u64_le(session.0);
        }
        Message::MetricsRequest => {
            buf.put_u8(TAG_METRICS_REQUEST);
        }
        Message::MetricsResponse { text } => {
            buf.put_u8(TAG_METRICS_RESPONSE);
            put_len(buf, text.len());
            buf.put_slice(text.as_bytes());
        }
        Message::ShardEnv { shard, inner } => {
            buf.put_u8(TAG_SHARD_ENV);
            buf.put_u8(*shard);
            encode_into(buf, inner);
        }
        Message::ShardPrepare { txn } => {
            buf.put_u8(TAG_SHARD_PREPARE);
            put_transaction(buf, txn);
        }
        Message::ShardVote { txn, ok } => {
            buf.put_u8(TAG_SHARD_VOTE);
            buf.put_u64_le(txn.0);
            buf.put_u8(*ok as u8);
        }
        Message::ShardDecide { txn, commit } => {
            buf.put_u8(TAG_SHARD_DECIDE);
            buf.put_u64_le(txn.0);
            buf.put_u8(*commit as u8);
        }
        Message::XLogAppend { epoch, record } => {
            buf.put_u8(TAG_XLOG_APPEND);
            buf.put_u64_le(*epoch);
            put_xdecision_record(buf, record);
        }
        Message::XLogAck {
            txn,
            epoch,
            ok,
            decided,
        } => {
            buf.put_u8(TAG_XLOG_ACK);
            buf.put_u64_le(txn.0);
            buf.put_u64_le(*epoch);
            buf.put_u8(*ok as u8);
            buf.put_u8(*decided as u8);
        }
        Message::XLogQuery { epoch } => {
            buf.put_u8(TAG_XLOG_QUERY);
            buf.put_u64_le(*epoch);
        }
        Message::XLogReply { epoch, records } => {
            buf.put_u8(TAG_XLOG_REPLY);
            buf.put_u64_le(*epoch);
            put_len(buf, records.len());
            for record in records {
                put_xdecision_record(buf, record);
            }
        }
        Message::MapChange {
            epoch,
            assignment,
            migrating,
        } => {
            buf.put_u8(TAG_MAP_CHANGE);
            buf.put_u64_le(*epoch);
            put_shard_map(buf, assignment, migrating);
        }
        Message::MapChangeAck { epoch, ok } => {
            buf.put_u8(TAG_MAP_CHANGE_ACK);
            buf.put_u64_le(*epoch);
            buf.put_u8(*ok as u8);
        }
        Message::MapQuery => {
            buf.put_u8(TAG_MAP_QUERY);
        }
        Message::MapReply {
            epoch,
            assignment,
            migrating,
        } => {
            buf.put_u8(TAG_MAP_REPLY);
            buf.put_u64_le(*epoch);
            put_shard_map(buf, assignment, migrating);
        }
        Message::WrongEpoch { txn, epoch } => {
            buf.put_u8(TAG_WRONG_EPOCH);
            buf.put_u64_le(txn.0);
            buf.put_u64_le(*epoch);
        }
        Message::XLogRetire { epoch, txn } => {
            buf.put_u8(TAG_XLOG_RETIRE);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(txn.0);
        }
        Message::Traced { trace, inner } => {
            buf.put_u8(TAG_TRACED);
            buf.put_u64_le(*trace);
            encode_into(buf, inner);
        }
        Message::Seq { epoch, seq, inner } => {
            buf.put_u8(TAG_SEQ);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(*seq);
            encode_into(buf, inner);
        }
        Message::SeqAck {
            epoch,
            cumulative,
            receiver,
        } => {
            buf.put_u8(TAG_SEQ_ACK);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(*cumulative);
            buf.put_u64_le(*receiver);
        }
    }
}

/// Encode several messages as one `MsgBatch` frame: tag, count, then
/// each message as a length-prefixed single-message payload. Transports
/// use this to coalesce all sends to one peer from one engine step into
/// a single frame.
pub fn encode_batch_into(buf: &mut BytesMut, msgs: &[Message]) {
    buf.put_u8(TAG_MSG_BATCH);
    put_len(buf, msgs.len());
    for msg in msgs {
        let len_at = buf.len();
        buf.put_u32_le(0); // patched below once the payload length is known
        let start = buf.len();
        encode_into(buf, msg);
        let len = (buf.len() - start) as u32;
        buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Decode a frame payload that may be either a single message or a
/// `MsgBatch`, yielding the messages in batch order.
pub fn decode_many(payload: &[u8]) -> Result<Vec<Message>, NetError> {
    if payload.first() != Some(&TAG_MSG_BATCH) {
        return Ok(vec![decode(payload)?]);
    }
    let mut buf = &payload[1..];
    let count = get_len(&mut buf, 1 << 16)?;
    let mut msgs = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let len = get_len(&mut buf, 1 << 26)?;
        need(&buf, len)?;
        msgs.push(decode(&buf[..len])?);
        buf.advance(len);
    }
    if buf.has_remaining() {
        return Err(err("trailing bytes"));
    }
    Ok(msgs)
}

/// Decode a message payload.
pub fn decode(mut buf: &[u8]) -> Result<Message, NetError> {
    need(&buf, 1)?;
    let tag = buf.get_u8();
    let msg = match tag {
        TAG_COPY_UPDATE => {
            need(&buf, 8)?;
            let txn = TxnId(buf.get_u64_le());
            let writes = get_item_values(&mut buf)?;
            let n = get_len(&mut buf, 256)?;
            let mut snapshot = Vec::with_capacity(n);
            for _ in 0..n {
                need(&buf, 8)?;
                snapshot.push(SessionNumber(buf.get_u64_le()));
            }
            let n = get_len(&mut buf, 1 << 20)?;
            let mut clears = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                need(&buf, 5)?;
                let item = ItemId(buf.get_u32_le());
                clears.push((item, SiteId(buf.get_u8())));
            }
            need(&buf, 8)?;
            let up_mask = buf.get_u64_le();
            Message::CopyUpdate {
                txn,
                writes,
                snapshot,
                clears,
                up_mask,
            }
        }
        TAG_UPDATE_ACK => {
            need(&buf, 9)?;
            Message::UpdateAck {
                txn: TxnId(buf.get_u64_le()),
                ok: buf.get_u8() != 0,
            }
        }
        TAG_COMMIT => {
            need(&buf, 8)?;
            Message::Commit {
                txn: TxnId(buf.get_u64_le()),
            }
        }
        TAG_COMMIT_ACK => {
            need(&buf, 8)?;
            Message::CommitAck {
                txn: TxnId(buf.get_u64_le()),
            }
        }
        TAG_ABORT_TXN => {
            need(&buf, 8)?;
            Message::AbortTxn {
                txn: TxnId(buf.get_u64_le()),
            }
        }
        TAG_COPY_REQUEST => {
            need(&buf, 8)?;
            let req = ReqId(buf.get_u64_le());
            Message::CopyRequest {
                req,
                items: get_items(&mut buf)?,
            }
        }
        TAG_COPY_RESPONSE => {
            need(&buf, 9)?;
            let req = ReqId(buf.get_u64_le());
            let ok = buf.get_u8() != 0;
            Message::CopyResponse {
                req,
                ok,
                copies: get_item_values(&mut buf)?,
            }
        }
        TAG_CLEAR_FAILLOCKS => {
            need(&buf, 1)?;
            let site = SiteId(buf.get_u8());
            Message::ClearFailLocks {
                site,
                items: get_items(&mut buf)?,
            }
        }
        TAG_SET_FAILLOCKS => {
            need(&buf, 1)?;
            let site = SiteId(buf.get_u8());
            Message::SetFailLocks {
                site,
                items: get_items(&mut buf)?,
            }
        }
        TAG_RECOVERY_ANNOUNCE => {
            need(&buf, 9)?;
            Message::RecoveryAnnounce {
                session: SessionNumber(buf.get_u64_le()),
                want_state: buf.get_u8() != 0,
            }
        }
        TAG_RECOVERY_INFO => {
            let n = get_len(&mut buf, 256)?;
            let mut vector = Vec::with_capacity(n);
            for _ in 0..n {
                need(&buf, 9)?;
                let session = SessionNumber(buf.get_u64_le());
                let status = status_from_code(buf.get_u8()).ok_or(err("unknown site status"))?;
                vector.push(SiteRecord { session, status });
            }
            let faillocks = get_site_table(&mut buf)?;
            let holders = get_site_table(&mut buf)?;
            let backups = get_site_table(&mut buf)?;
            Message::RecoveryInfo {
                vector,
                faillocks,
                holders,
                backups,
            }
        }
        TAG_FAILURE_ANNOUNCE => {
            let n = get_len(&mut buf, 256)?;
            let mut failed = Vec::with_capacity(n);
            for _ in 0..n {
                need(&buf, 9)?;
                let site = SiteId(buf.get_u8());
                failed.push((site, SessionNumber(buf.get_u64_le())));
            }
            Message::FailureAnnounce { failed }
        }
        TAG_READ_REQUEST => {
            need(&buf, 8)?;
            let req = ReqId(buf.get_u64_le());
            Message::ReadRequest {
                req,
                items: get_items(&mut buf)?,
            }
        }
        TAG_READ_RESPONSE => {
            need(&buf, 9)?;
            let req = ReqId(buf.get_u64_le());
            let ok = buf.get_u8() != 0;
            Message::ReadResponse {
                req,
                ok,
                values: get_item_values(&mut buf)?,
            }
        }
        TAG_CREATE_BACKUP => {
            need(&buf, 4)?;
            let item = ItemId(buf.get_u32_le());
            Message::CreateBackup {
                item,
                value: get_value(&mut buf)?,
            }
        }
        TAG_BACKUP_CREATED => {
            need(&buf, 5)?;
            Message::BackupCreated {
                item: ItemId(buf.get_u32_le()),
                site: SiteId(buf.get_u8()),
            }
        }
        TAG_BACKUP_DROPPED => {
            need(&buf, 5)?;
            Message::BackupDropped {
                item: ItemId(buf.get_u32_le()),
                site: SiteId(buf.get_u8()),
            }
        }
        TAG_MGMT => Message::Mgmt(get_command(&mut buf)?),
        TAG_MGMT_REPORT => Message::MgmtReport(get_report(&mut buf)?),
        TAG_MGMT_RECOVERED => {
            need(&buf, 8)?;
            Message::MgmtRecovered {
                session: SessionNumber(buf.get_u64_le()),
            }
        }
        TAG_MGMT_DATA_RECOVERED => {
            need(&buf, 8)?;
            Message::MgmtDataRecovered {
                session: SessionNumber(buf.get_u64_le()),
            }
        }
        TAG_SHARD_ENV => {
            need(&buf, 2)?;
            let shard = buf.get_u8();
            // An envelope wraps exactly one group-local message. Nested
            // envelopes never occur (one hop, host to host), and the
            // session layer wraps envelopes — not the other way round —
            // so reject rather than recurse.
            match buf[0] {
                TAG_SHARD_ENV | TAG_SEQ | TAG_SEQ_ACK | TAG_MSG_BATCH => {
                    return Err(err("nested shard envelope"))
                }
                _ => {}
            }
            let inner = decode(buf)?;
            buf.advance(buf.remaining());
            Message::ShardEnv {
                shard,
                inner: Box::new(inner),
            }
        }
        TAG_SHARD_PREPARE => Message::ShardPrepare {
            txn: get_transaction(&mut buf)?,
        },
        TAG_SHARD_VOTE => {
            need(&buf, 9)?;
            Message::ShardVote {
                txn: TxnId(buf.get_u64_le()),
                ok: buf.get_u8() != 0,
            }
        }
        TAG_SHARD_DECIDE => {
            need(&buf, 9)?;
            Message::ShardDecide {
                txn: TxnId(buf.get_u64_le()),
                commit: buf.get_u8() != 0,
            }
        }
        TAG_XLOG_APPEND => {
            need(&buf, 8)?;
            let epoch = buf.get_u64_le();
            Message::XLogAppend {
                epoch,
                record: get_xdecision_record(&mut buf)?,
            }
        }
        TAG_XLOG_ACK => {
            need(&buf, 18)?;
            Message::XLogAck {
                txn: TxnId(buf.get_u64_le()),
                epoch: buf.get_u64_le(),
                ok: buf.get_u8() != 0,
                decided: buf.get_u8() != 0,
            }
        }
        TAG_XLOG_QUERY => {
            need(&buf, 8)?;
            Message::XLogQuery {
                epoch: buf.get_u64_le(),
            }
        }
        TAG_XLOG_REPLY => {
            need(&buf, 8)?;
            let epoch = buf.get_u64_le();
            let n = get_len(&mut buf, 1 << 16)?;
            let mut records = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                records.push(get_xdecision_record(&mut buf)?);
            }
            Message::XLogReply { epoch, records }
        }
        TAG_MAP_CHANGE => {
            need(&buf, 8)?;
            let epoch = buf.get_u64_le();
            let (assignment, migrating) = get_shard_map(&mut buf)?;
            Message::MapChange {
                epoch,
                assignment,
                migrating,
            }
        }
        TAG_MAP_CHANGE_ACK => {
            need(&buf, 9)?;
            Message::MapChangeAck {
                epoch: buf.get_u64_le(),
                ok: buf.get_u8() != 0,
            }
        }
        TAG_MAP_QUERY => Message::MapQuery,
        TAG_MAP_REPLY => {
            need(&buf, 8)?;
            let epoch = buf.get_u64_le();
            let (assignment, migrating) = get_shard_map(&mut buf)?;
            Message::MapReply {
                epoch,
                assignment,
                migrating,
            }
        }
        TAG_WRONG_EPOCH => {
            need(&buf, 16)?;
            Message::WrongEpoch {
                txn: TxnId(buf.get_u64_le()),
                epoch: buf.get_u64_le(),
            }
        }
        TAG_XLOG_RETIRE => {
            need(&buf, 16)?;
            Message::XLogRetire {
                epoch: buf.get_u64_le(),
                txn: TxnId(buf.get_u64_le()),
            }
        }
        TAG_TRACED => {
            need(&buf, 9)?;
            let trace = buf.get_u64_le();
            if trace == 0 {
                return Err(err("traced frame with zero trace id"));
            }
            // The trace annotation decorates exactly one protocol
            // message: it sits innermost (`Seq{ShardEnv{Traced{..}}}`),
            // so reject every envelope tag rather than recursing on
            // attacker-controlled depth.
            match buf[0] {
                TAG_TRACED | TAG_SHARD_ENV | TAG_SEQ | TAG_SEQ_ACK | TAG_MSG_BATCH => {
                    return Err(err("nested traced frame"))
                }
                _ => {}
            }
            let inner = decode(buf)?;
            buf.advance(buf.remaining());
            Message::Traced {
                trace,
                inner: Box::new(inner),
            }
        }
        TAG_SEQ => {
            need(&buf, 17)?;
            let epoch = buf.get_u64_le();
            let seq = buf.get_u64_le();
            // A sequenced frame wraps exactly one protocol message; the
            // session layer never nests, so reject Seq-in-Seq (and batch
            // tags) rather than recursing on attacker-controlled depth.
            match buf[0] {
                TAG_SEQ | TAG_SEQ_ACK | TAG_MSG_BATCH => {
                    return Err(err("nested session-layer frame"))
                }
                _ => {}
            }
            let inner = decode(buf)?;
            buf.advance(buf.remaining());
            Message::Seq {
                epoch,
                seq,
                inner: Box::new(inner),
            }
        }
        TAG_SEQ_ACK => {
            need(&buf, 24)?;
            Message::SeqAck {
                epoch: buf.get_u64_le(),
                cumulative: buf.get_u64_le(),
                receiver: buf.get_u64_le(),
            }
        }
        TAG_METRICS_REQUEST => Message::MetricsRequest,
        TAG_METRICS_RESPONSE => {
            let len = get_len(&mut buf, 1 << 24)?;
            need(&buf, len)?;
            let text = std::str::from_utf8(&buf[..len])
                .map_err(|_| err("metrics text not utf8"))?
                .to_owned();
            buf.advance(len);
            Message::MetricsResponse { text }
        }
        _ => return Err(err("unknown message tag")),
    };
    if buf.has_remaining() {
        return Err(err("trailing bytes"));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let enc = encode(&msg);
        let dec = decode(&enc).expect("decode");
        assert_eq!(dec, msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        let value = ItemValue::new(7, 3);
        let record = SiteRecord {
            session: SessionNumber(4),
            status: miniraid_core::session::SiteStatus::WaitingToRecover,
        };
        let report = TxnReport {
            txn: TxnId(5),
            coordinator: SiteId(2),
            outcome: TxnOutcome::Aborted(AbortReason::SessionMismatch),
            stats: TxnStats {
                reads: 1,
                writes: 2,
                copier_requests: 3,
                faillocks_set: 4,
                faillocks_cleared: 5,
                messages_sent: 6,
                participant_failed_phase_two: true,
            },
            read_results: vec![(ItemId(1), value)],
        };
        let msgs = vec![
            Message::CopyUpdate {
                txn: TxnId(1),
                writes: vec![(ItemId(2), value)],
                snapshot: vec![SessionNumber(1), SessionNumber(9)],
                clears: vec![(ItemId(3), SiteId(1))],
                up_mask: 0b101,
            },
            Message::UpdateAck {
                txn: TxnId(1),
                ok: false,
            },
            Message::Commit { txn: TxnId(1) },
            Message::CommitAck { txn: TxnId(1) },
            Message::AbortTxn { txn: TxnId(1) },
            Message::CopyRequest {
                req: ReqId(8),
                items: vec![ItemId(0), ItemId(5)],
            },
            Message::CopyResponse {
                req: ReqId(8),
                ok: true,
                copies: vec![(ItemId(0), value)],
            },
            Message::ClearFailLocks {
                site: SiteId(3),
                items: vec![ItemId(7)],
            },
            Message::RecoveryAnnounce {
                session: SessionNumber(2),
                want_state: true,
            },
            Message::RecoveryInfo {
                vector: vec![record; 3],
                faillocks: PackedSiteTable::pack(&[0, 5, u64::MAX]),
                holders: PackedSiteTable::pack(&[7, 7, 7]),
                backups: PackedSiteTable::pack(&[0, 1, 4]),
            },
            Message::FailureAnnounce {
                failed: vec![(SiteId(1), SessionNumber(3))],
            },
            Message::ReadRequest {
                req: ReqId(9),
                items: vec![ItemId(2)],
            },
            Message::ReadResponse {
                req: ReqId(9),
                ok: false,
                values: vec![],
            },
            Message::CreateBackup {
                item: ItemId(4),
                value,
            },
            Message::BackupCreated {
                item: ItemId(4),
                site: SiteId(0),
            },
            Message::BackupDropped {
                item: ItemId(4),
                site: SiteId(0),
            },
            Message::Mgmt(Command::Fail),
            Message::Mgmt(Command::Recover),
            Message::Mgmt(Command::Terminate),
            Message::Mgmt(Command::Begin(Transaction::new(
                TxnId(12),
                vec![Operation::Read(ItemId(1)), Operation::Write(ItemId(2), 42)],
            ))),
            Message::MgmtReport(report),
            Message::MgmtRecovered {
                session: SessionNumber(7),
            },
            Message::MetricsRequest,
            Message::MetricsResponse {
                text: "# TYPE miniraid_txns_committed counter\n".to_owned(),
            },
            Message::ShardEnv {
                shard: 3,
                inner: Box::new(Message::Commit { txn: TxnId(11) }),
            },
            Message::ShardPrepare {
                txn: Transaction::new(
                    TxnId(13),
                    vec![Operation::Write(ItemId(0), 9), Operation::Read(ItemId(1))],
                ),
            },
            Message::ShardVote {
                txn: TxnId(13),
                ok: true,
            },
            Message::ShardDecide {
                txn: TxnId(13),
                commit: false,
            },
            Message::XLogAppend {
                epoch: 3,
                record: XDecisionRecord {
                    txn: TxnId(13),
                    branches: vec![
                        (
                            0,
                            Transaction::new(TxnId(13), vec![Operation::Write(ItemId(1), 5)]),
                        ),
                        (
                            2,
                            Transaction::new(TxnId(13), vec![Operation::Read(ItemId(0))]),
                        ),
                    ],
                    votes: vec![(0, true), (2, false)],
                    outcome: None,
                },
            },
            Message::XLogAck {
                txn: TxnId(13),
                epoch: 3,
                ok: false,
                decided: false,
            },
            Message::XLogQuery { epoch: 4 },
            Message::XLogReply {
                epoch: 4,
                records: vec![XDecisionRecord {
                    txn: TxnId(13),
                    branches: vec![(1, Transaction::new(TxnId(13), vec![]))],
                    votes: vec![],
                    outcome: Some(true),
                }],
            },
            Message::MapChange {
                epoch: 6,
                assignment: vec![0, 0, 1, 1, 2],
                migrating: vec![MigratingRange {
                    lo: 2,
                    hi: 4,
                    donor: 1,
                    recipient: 2,
                    frozen: true,
                }],
            },
            Message::MapChangeAck { epoch: 6, ok: true },
            Message::MapQuery,
            Message::MapReply {
                epoch: 0,
                assignment: vec![],
                migrating: vec![],
            },
            Message::WrongEpoch {
                txn: TxnId(14),
                epoch: 6,
            },
            Message::XLogRetire {
                epoch: 4,
                txn: TxnId(13),
            },
        ];
        for msg in msgs {
            roundtrip(msg);
        }
    }

    #[test]
    fn xlog_frames_nest_in_envelopes_and_reject_garbage() {
        let record = XDecisionRecord {
            txn: TxnId(6),
            branches: vec![(
                0,
                Transaction::new(TxnId(6), vec![Operation::Write(ItemId(3), 1)]),
            )],
            votes: vec![(0, true), (1, true)],
            outcome: Some(true),
        };
        // Legal stack: the coordinator's appends ride the same shard
        // envelope (and optionally the session layer) as 2PC traffic.
        roundtrip(Message::Seq {
            epoch: 1,
            seq: 5,
            inner: Box::new(Message::ShardEnv {
                shard: 0,
                inner: Box::new(Message::XLogAppend {
                    epoch: 2,
                    record: record.clone(),
                }),
            }),
        });
        roundtrip(Message::Traced {
            trace: 44,
            inner: Box::new(Message::XLogAck {
                txn: TxnId(6),
                epoch: 2,
                ok: true,
                decided: true,
            }),
        });
        // An unknown outcome byte is rejected, not misread.
        let mut raw = BytesMut::new();
        encode_into(
            &mut raw,
            &Message::XLogAppend {
                epoch: 2,
                record: record.clone(),
            },
        );
        let last = raw.len() - 1;
        raw[last] = 9;
        assert!(decode(&raw).is_err());
        // Truncations error cleanly.
        let enc = encode(&Message::XLogReply {
            epoch: 4,
            records: vec![record],
        });
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn map_frames_nest_in_envelopes_and_reject_garbage() {
        let change = Message::MapChange {
            epoch: 9,
            assignment: vec![0, 1, 1, 0],
            migrating: vec![MigratingRange {
                lo: 1,
                hi: 3,
                donor: 1,
                recipient: 0,
                frozen: false,
            }],
        };
        // Legal stack: map announcements ride the same shard envelope
        // (and optionally the session layer) as everything else.
        roundtrip(Message::Seq {
            epoch: 1,
            seq: 3,
            inner: Box::new(Message::ShardEnv {
                shard: 1,
                inner: Box::new(change.clone()),
            }),
        });
        roundtrip(Message::Traced {
            trace: 17,
            inner: Box::new(Message::WrongEpoch {
                txn: TxnId(5),
                epoch: 9,
            }),
        });
        // Illegal: envelopes inside a shard envelope still rejected with
        // the new frames in the batch position.
        let mut raw = BytesMut::new();
        raw.put_u8(TAG_SHARD_ENV);
        raw.put_u8(0);
        encode_batch_into(&mut raw, std::slice::from_ref(&change));
        assert!(decode(&raw).is_err());
        // Truncations error cleanly.
        let enc = encode(&change);
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "truncation at {cut} accepted");
        }
        let enc = encode(&Message::XLogRetire {
            epoch: 2,
            txn: TxnId(8),
        });
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "truncation at {cut} accepted");
        }
        // An absurd assignment length is rejected, not allocated.
        let mut raw = vec![TAG_MAP_REPLY];
        raw.extend_from_slice(&1u64.to_le_bytes());
        raw.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(decode(&raw).is_err());
    }

    #[test]
    fn committed_report_roundtrips() {
        roundtrip(Message::MgmtReport(TxnReport {
            txn: TxnId(1),
            coordinator: SiteId(0),
            outcome: TxnOutcome::Committed,
            stats: TxnStats::default(),
            read_results: vec![],
        }));
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[200]).is_err());
        assert!(decode(&[TAG_COMMIT, 1, 2]).is_err());
        // Trailing bytes rejected (encode into the buffer directly — no
        // Bytes -> Vec round-trip needed to append).
        let mut enc = BytesMut::new();
        encode_into(&mut enc, &Message::Commit { txn: TxnId(1) });
        enc.put_u8(0);
        assert!(decode(&enc).is_err());
    }

    #[test]
    fn batches_roundtrip() {
        let msgs = vec![
            Message::Commit { txn: TxnId(1) },
            Message::CommitAck { txn: TxnId(1) },
            Message::ClearFailLocks {
                site: SiteId(2),
                items: vec![ItemId(3), ItemId(4)],
            },
        ];
        let mut buf = BytesMut::new();
        encode_batch_into(&mut buf, &msgs);
        assert_eq!(decode_many(&buf).expect("batch decodes"), msgs);
        // An empty batch is valid and yields no messages.
        let mut empty = BytesMut::new();
        encode_batch_into(&mut empty, &[]);
        assert_eq!(decode_many(&empty).expect("empty batch decodes"), vec![]);
        // A single-message payload flows through decode_many unchanged.
        let one = encode(&Message::Commit { txn: TxnId(9) });
        assert_eq!(
            decode_many(&one).expect("single decodes"),
            vec![Message::Commit { txn: TxnId(9) }]
        );
    }

    #[test]
    fn corrupt_batches_error_cleanly() {
        // Batch claiming 5 messages but containing none.
        let mut raw = vec![TAG_MSG_BATCH];
        raw.extend_from_slice(&5u32.to_le_bytes());
        assert!(decode_many(&raw).is_err());
        // Trailing bytes after the last message are rejected.
        let mut buf = BytesMut::new();
        encode_batch_into(&mut buf, &[Message::Commit { txn: TxnId(1) }]);
        buf.put_u8(7);
        assert!(decode_many(&buf).is_err());
        // A batch tag is not a valid single message.
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn shard_envelope_nesting_rules() {
        // Legal: the session layer wraps an envelope.
        roundtrip(Message::Seq {
            epoch: 1,
            seq: 2,
            inner: Box::new(Message::ShardEnv {
                shard: 1,
                inner: Box::new(Message::CommitAck { txn: TxnId(4) }),
            }),
        });
        // Illegal: envelope-in-envelope, Seq-in-envelope, batch-in-envelope.
        for inner in [
            Message::ShardEnv {
                shard: 0,
                inner: Box::new(Message::Commit { txn: TxnId(1) }),
            },
            Message::SeqAck {
                epoch: 1,
                cumulative: 2,
                receiver: 3,
            },
        ] {
            let mut raw = BytesMut::new();
            raw.put_u8(TAG_SHARD_ENV);
            raw.put_u8(0);
            encode_into(&mut raw, &inner);
            assert!(decode(&raw).is_err(), "nested {} accepted", inner.kind());
        }
        let mut raw = BytesMut::new();
        raw.put_u8(TAG_SHARD_ENV);
        raw.put_u8(0);
        encode_batch_into(&mut raw, &[Message::Commit { txn: TxnId(1) }]);
        assert!(decode(&raw).is_err());
        // A truncated envelope errors cleanly.
        assert!(decode(&[TAG_SHARD_ENV]).is_err());
        assert!(decode(&[TAG_SHARD_ENV, 2]).is_err());
    }

    #[test]
    fn traced_envelope_roundtrips_and_nests_like_shard_env() {
        // Bare traced frame.
        roundtrip(Message::Traced {
            trace: 0xDEAD_BEEF,
            inner: Box::new(Message::Commit { txn: TxnId(3) }),
        });
        // Full legal stack: Seq{ShardEnv{Traced{CopyUpdate-ish}}}.
        roundtrip(Message::Seq {
            epoch: 2,
            seq: 9,
            inner: Box::new(Message::ShardEnv {
                shard: 1,
                inner: Box::new(Message::Traced {
                    trace: 41,
                    inner: Box::new(Message::UpdateAck {
                        txn: TxnId(6),
                        ok: true,
                    }),
                }),
            }),
        });
        // Illegal: any envelope inside Traced.
        for inner in [
            Message::Traced {
                trace: 1,
                inner: Box::new(Message::Commit { txn: TxnId(1) }),
            },
            Message::ShardEnv {
                shard: 0,
                inner: Box::new(Message::Commit { txn: TxnId(1) }),
            },
            Message::SeqAck {
                epoch: 1,
                cumulative: 2,
                receiver: 3,
            },
        ] {
            let mut raw = BytesMut::new();
            raw.put_u8(TAG_TRACED);
            raw.put_u64_le(5);
            encode_into(&mut raw, &inner);
            assert!(decode(&raw).is_err(), "nested {} accepted", inner.kind());
        }
        // Zero trace ids never appear on the wire.
        let mut raw = BytesMut::new();
        raw.put_u8(TAG_TRACED);
        raw.put_u64_le(0);
        encode_into(&mut raw, &Message::Commit { txn: TxnId(1) });
        assert!(decode(&raw).is_err());
        // Truncations error cleanly.
        assert!(decode(&[TAG_TRACED]).is_err());
        assert!(decode(&[TAG_TRACED, 1, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn trace_absent_frames_are_bit_identical_to_old_codec() {
        // The trace annotation is a *wrapper* tag: an unwrapped message
        // encodes to exactly the bytes the pre-trace codec produced, so
        // tracing-off deployments and recorded traffic stay
        // bit-compatible. Pin a few known encodings.
        let enc = encode(&Message::Commit { txn: TxnId(0x0102) });
        assert_eq!(&enc[..], &[3, 0x02, 0x01, 0, 0, 0, 0, 0, 0]);
        let enc = encode(&Message::ShardVote {
            txn: TxnId(1),
            ok: true,
        });
        assert_eq!(&enc[..], &[29, 1, 0, 0, 0, 0, 0, 0, 0, 1]);
        // And the wrapped form is the old bytes prefixed by tag + id.
        let plain = encode(&Message::Commit { txn: TxnId(7) });
        let traced = encode(&Message::Traced {
            trace: 9,
            inner: Box::new(Message::Commit { txn: TxnId(7) }),
        });
        assert_eq!(&traced[9..], &plain[..]);
        assert_eq!(traced[0], TAG_TRACED);
    }

    #[test]
    fn traced_frames_interleave_in_batches() {
        let msgs = vec![
            Message::Commit { txn: TxnId(1) },
            Message::Traced {
                trace: 77,
                inner: Box::new(Message::CommitAck { txn: TxnId(1) }),
            },
            Message::ShardEnv {
                shard: 2,
                inner: Box::new(Message::Traced {
                    trace: 78,
                    inner: Box::new(Message::ShardVote {
                        txn: TxnId(2),
                        ok: false,
                    }),
                }),
            },
        ];
        let mut buf = BytesMut::new();
        encode_batch_into(&mut buf, &msgs);
        assert_eq!(decode_many(&buf).expect("batch decodes"), msgs);
    }

    #[test]
    fn absurd_lengths_are_rejected() {
        // CopyRequest claiming 2^31 items.
        let mut raw = vec![TAG_COPY_REQUEST];
        raw.extend_from_slice(&8u64.to_le_bytes());
        raw.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(decode(&raw).is_err());
    }
}
