//! REDO-only write-ahead logging with group commit and instant restart,
//! after Sauer & Härder's single-pass REDO recovery:
//!
//! * **Self-contained commit records.** One [`RedoRecord::Commit`] frame
//!   carries a transaction's whole write set (plus the fail-lock words it
//!   changed). Uncommitted work never touches the log, so there is no
//!   Begin/Abort framing and no undo pass — replay is a single forward
//!   scan of intact frames.
//! * **Group commit.** [`GroupCommitWal::append_commit`] buffers; an
//!   explicit [`GroupCommitWal::sync`] makes every buffered record durable
//!   with one fsync. The caller decides what a group is: the site loop
//!   syncs once at the end of every mailbox drain that appended, so the
//!   group is whatever arrived while the previous fsync ran.
//! * **Per-item log chains.** Every write in a commit record stores the
//!   file offset of the previous commit record that wrote the same item
//!   ([`NO_PREV`] if none). The writer maintains the chain heads in
//!   memory; a recovery scan rebuilds them without decoding values. The
//!   committed history of one item is then reachable by walking its chain
//!   backwards — no full-log scan per item.
//! * **Instant restart.** [`scan`] validates frames and rebuilds chain
//!   heads, fail-locks, and the session number, but does **not** apply
//!   item values. The resulting [`LazyImage`] hydrates item values on
//!   demand (a read of a not-yet-replayed item decodes only that item's
//!   chain head) or incrementally in the background via
//!   [`LazyImage::take_next`]. A restarted site is operational as soon as
//!   the scan finishes.
//!
//! Frames are `[u32 payload_len][u32 crc32(payload)][payload]`,
//! little-endian, and replay stops at the first corrupt or truncated
//! frame. Record tags start at `0x21`, disjoint from those of the
//! per-transaction `Begin / Write* / Commit` log this format replaced, so
//! such a log is never misread as a REDO log.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::checksum::crc32;
use crate::{ItemValue, Result, StorageError};

/// Chain terminator: "no earlier commit record wrote this item".
pub const NO_PREV: u64 = u64::MAX;

const TAG_COMMIT: u8 = 0x21;
const TAG_FAILLOCKS: u8 = 0x22;
const TAG_SESSION: u8 = 0x23;
const TAG_CHECKPOINT: u8 = 0x24;

/// One decoded REDO record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedoRecord {
    /// A committed transaction: its write set and the fail-lock words it
    /// changed, in one self-contained frame.
    Commit(CommitRecord),
    /// Standalone fail-lock words (clear-fail-lock traffic not attached
    /// to a commit). Last write per item wins on replay.
    FailLocks(Vec<(u32, u64)>),
    /// The site's own session number (last write wins on replay).
    Session(u64),
    /// A snapshot covering everything up to `txn` exists; a fresh log
    /// starts with this marker.
    Checkpoint(u64),
}

/// A committed transaction's REDO frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// Committing transaction id.
    pub txn: u64,
    /// The write set.
    pub writes: Vec<CommitWrite>,
    /// Fail-lock words changed by this commit.
    pub faillocks: Vec<(u32, u64)>,
}

/// One write inside a [`CommitRecord`], with its backward chain pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitWrite {
    /// Item written.
    pub item: u32,
    /// Value written.
    pub value: ItemValue,
    /// File offset of the previous commit record that wrote `item`
    /// ([`NO_PREV`] if none). Offsets address the frame header.
    pub prev: u64,
}

/// Cumulative writer-side counters, shared via `Arc` so a benchmark (or
/// metrics exposition) can observe them after the store moves into a
/// site thread.
#[derive(Debug, Default)]
pub struct WalCounters {
    /// Number of fsync (`fdatasync`) calls issued.
    pub fsyncs: AtomicU64,
    /// Commit records appended.
    pub commits: AtomicU64,
    /// Records of any kind appended.
    pub records: AtomicU64,
    /// Framed bytes appended.
    pub bytes: AtomicU64,
    /// Checkpoints completed: snapshots written and the log they cover
    /// deleted.
    pub checkpoints: AtomicU64,
    /// Snapshot bytes written by those checkpoints.
    pub snapshot_bytes: AtomicU64,
}

impl WalCounters {
    /// fsyncs issued so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Commit records appended so far.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Framed bytes appended so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Checkpoints completed so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Snapshot bytes written so far.
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes.load(Ordering::Relaxed)
    }
}

/// Result of scanning a REDO log's intact prefix.
#[derive(Debug, Clone)]
pub struct ScanState {
    /// The intact byte prefix of the log (everything after it is a torn
    /// or truncated tail from a crash mid-append).
    pub raw: Vec<u8>,
    /// Per-item chain heads: offset of the newest intact commit record
    /// writing each item ([`NO_PREV`] if none).
    pub heads: Vec<u64>,
    /// Final fail-lock word per item (commit-attached and standalone
    /// records combined, last write wins).
    pub faillocks: std::collections::HashMap<u32, u64>,
    /// Last logged session number (0 = never logged).
    pub session: u64,
    /// Highest committed transaction id in the log (including the
    /// checkpoint marker's covering id).
    pub last_txn: u64,
    /// Number of intact records scanned.
    pub records: u64,
}

impl ScanState {
    /// An empty-log scan.
    pub fn empty(db_size: u32) -> ScanState {
        ScanState {
            raw: Vec::new(),
            heads: vec![NO_PREV; db_size as usize],
            faillocks: std::collections::HashMap::new(),
            session: 0,
            last_txn: 0,
            records: 0,
        }
    }
}

/// Decode one record payload. `offset` is used only for error reports.
pub fn decode_record(payload: &[u8], offset: u64) -> Result<RedoRecord> {
    let corrupt = |reason| StorageError::Corrupt { offset, reason };
    let mut p = payload;
    let take = |p: &mut &[u8], n: usize, reason: &'static str| -> Result<()> {
        if p.len() < n {
            Err(StorageError::Corrupt { offset, reason })
        } else {
            Ok(())
        }
    };
    let u32_at = |p: &mut &[u8]| {
        let v = u32::from_le_bytes(p[..4].try_into().unwrap());
        *p = &p[4..];
        v
    };
    let u64_at = |p: &mut &[u8]| {
        let v = u64::from_le_bytes(p[..8].try_into().unwrap());
        *p = &p[8..];
        v
    };
    if p.is_empty() {
        return Err(corrupt("empty payload"));
    }
    let tag = p[0];
    p = &p[1..];
    match tag {
        TAG_COMMIT => {
            take(&mut p, 8 + 4 + 4, "short commit header")?;
            let txn = u64_at(&mut p);
            let n_writes = u32_at(&mut p) as usize;
            let n_locks = u32_at(&mut p) as usize;
            take(&mut p, n_writes * 28 + n_locks * 12, "short commit body")?;
            let mut writes = Vec::with_capacity(n_writes);
            for _ in 0..n_writes {
                let item = u32_at(&mut p);
                let data = u64_at(&mut p);
                let version = u64_at(&mut p);
                let prev = u64_at(&mut p);
                writes.push(CommitWrite {
                    item,
                    value: ItemValue::new(data, version),
                    prev,
                });
            }
            let mut faillocks = Vec::with_capacity(n_locks);
            for _ in 0..n_locks {
                let item = u32_at(&mut p);
                let word = u64_at(&mut p);
                faillocks.push((item, word));
            }
            Ok(RedoRecord::Commit(CommitRecord {
                txn,
                writes,
                faillocks,
            }))
        }
        TAG_FAILLOCKS => {
            take(&mut p, 4, "short fail-lock count")?;
            let n = u32_at(&mut p) as usize;
            take(&mut p, n * 12, "short fail-lock body")?;
            let mut words = Vec::with_capacity(n);
            for _ in 0..n {
                let item = u32_at(&mut p);
                let word = u64_at(&mut p);
                words.push((item, word));
            }
            Ok(RedoRecord::FailLocks(words))
        }
        TAG_SESSION => {
            take(&mut p, 8, "short session record")?;
            Ok(RedoRecord::Session(u64_at(&mut p)))
        }
        TAG_CHECKPOINT => {
            take(&mut p, 8, "short checkpoint record")?;
            Ok(RedoRecord::Checkpoint(u64_at(&mut p)))
        }
        _ => Err(corrupt("unknown record tag")),
    }
}

/// Scan a REDO log image: validate frames, rebuild per-item chain heads
/// and protocol state, stop at the first corrupt or truncated frame.
/// Returns the scan with `raw` truncated to the intact prefix. Item
/// values are **not** applied — that is [`LazyImage`]'s job.
pub fn scan(mut raw: Vec<u8>, db_size: u32) -> Result<ScanState> {
    let mut state = ScanState::empty(db_size);
    let mut offset = 0usize;
    while raw.len() - offset >= 8 {
        let len = u32::from_le_bytes(raw[offset..offset + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(raw[offset + 4..offset + 8].try_into().unwrap());
        let start = offset + 8;
        if raw.len() < start + len {
            break; // truncated tail — crash mid-append
        }
        let payload = &raw[start..start + len];
        if crc32(payload) != crc {
            break; // torn or corrupt frame — stop replay here
        }
        match decode_record(payload, offset as u64)? {
            RedoRecord::Commit(rec) => {
                state.last_txn = state.last_txn.max(rec.txn);
                for w in &rec.writes {
                    let slot =
                        state
                            .heads
                            .get_mut(w.item as usize)
                            .ok_or(StorageError::OutOfRange {
                                item: w.item,
                                size: db_size,
                            })?;
                    *slot = offset as u64;
                }
                for (item, word) in &rec.faillocks {
                    state.faillocks.insert(*item, *word);
                }
            }
            RedoRecord::FailLocks(words) => {
                for (item, word) in words {
                    state.faillocks.insert(item, word);
                }
            }
            RedoRecord::Session(s) => state.session = s,
            RedoRecord::Checkpoint(txn) => state.last_txn = state.last_txn.max(txn),
        }
        state.records += 1;
        offset = start + len;
    }
    raw.truncate(offset);
    state.raw = raw;
    Ok(state)
}

/// Decode the commit record whose frame starts at `off` inside an
/// already-validated log image.
pub fn commit_at(raw: &[u8], off: u64) -> Result<CommitRecord> {
    let corrupt = |reason| StorageError::Corrupt {
        offset: off,
        reason,
    };
    let off = off as usize;
    if raw.len() < off + 8 {
        return Err(corrupt("chain offset past end of log"));
    }
    let len = u32::from_le_bytes(raw[off..off + 4].try_into().unwrap()) as usize;
    let start = off + 8;
    if raw.len() < start + len {
        return Err(corrupt("chain frame past end of log"));
    }
    match decode_record(&raw[start..start + len], off as u64)? {
        RedoRecord::Commit(rec) => Ok(rec),
        _ => Err(corrupt("chain offset is not a commit record")),
    }
}

/// A not-yet-replayed committed image: the intact log prefix plus
/// per-item chain heads. Values hydrate on demand (one chain-head decode
/// per item) or incrementally via [`LazyImage::take_next`].
///
/// Clones share the underlying log bytes but track hydration progress
/// independently (a checkpoint's snapshot writer drains a copy of the
/// engine's).
#[derive(Debug, Clone)]
pub struct LazyImage {
    raw: Arc<Vec<u8>>,
    heads: Arc<Vec<u64>>,
    pending: Vec<bool>,
    remaining: u32,
    cursor: u32,
}

impl LazyImage {
    /// Build from a scan, copying its log bytes (see
    /// [`LazyImage::from_log`] to move them instead).
    pub fn new(state: &ScanState) -> LazyImage {
        LazyImage::from_log(state.raw.clone(), state.heads.clone())
    }

    /// Build from a scan's intact log prefix and chain heads, taking
    /// ownership of both: a restart holds one copy of the log, not two.
    /// Items with no chain head are never pending (their value is
    /// whatever the snapshot / initial load holds).
    pub fn from_log(raw: Vec<u8>, heads: Vec<u64>) -> LazyImage {
        let pending: Vec<bool> = heads.iter().map(|&h| h != NO_PREV).collect();
        let remaining = pending.iter().filter(|&&p| p).count() as u32;
        LazyImage {
            raw: Arc::new(raw),
            heads: Arc::new(heads),
            pending,
            remaining,
            cursor: 0,
        }
    }

    /// An image with nothing to replay.
    pub fn empty(db_size: u32) -> LazyImage {
        LazyImage {
            raw: Arc::new(Vec::new()),
            heads: Arc::new(vec![NO_PREV; db_size as usize]),
            pending: vec![false; db_size as usize],
            remaining: 0,
            cursor: 0,
        }
    }

    /// Items still awaiting replay.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// True if `item` has a logged value not yet taken.
    pub fn is_pending(&self, item: u32) -> bool {
        self.pending.get(item as usize).copied().unwrap_or(false)
    }

    /// On-demand replay of one item: decode its chain head (the newest
    /// committed write) and mark it replayed. Returns `None` if the item
    /// was already taken or never written.
    pub fn take(&mut self, item: u32) -> Option<ItemValue> {
        if !self.is_pending(item) {
            return None;
        }
        self.pending[item as usize] = false;
        self.remaining -= 1;
        let head = self.heads[item as usize];
        let rec = commit_at(&self.raw, head).ok()?;
        rec.writes
            .iter()
            .filter(|w| w.item == item)
            .max_by_key(|w| w.value.version)
            .map(|w| w.value)
    }

    /// Background replay step: hydrate the next pending item in item
    /// order. Returns `None` when replay is complete.
    pub fn take_next(&mut self) -> Option<(u32, ItemValue)> {
        while (self.cursor as usize) < self.pending.len() {
            let item = self.cursor;
            self.cursor += 1;
            if self.is_pending(item) {
                if let Some(v) = self.take(item) {
                    return Some((item, v));
                }
            }
        }
        None
    }

    /// Walk one item's backward chain: every committed value of `item`
    /// in the log, newest first. Targeted recovery of a single item's
    /// committed suffix without scanning the whole log.
    pub fn chain(&self, item: u32) -> Result<Vec<ItemValue>> {
        let mut out = Vec::new();
        let mut off = match self.heads.get(item as usize) {
            Some(&h) => h,
            None => return Ok(out),
        };
        while off != NO_PREV {
            let rec = commit_at(&self.raw, off)?;
            let mut next = NO_PREV;
            for w in rec.writes.iter().filter(|w| w.item == item) {
                out.push(w.value);
                // Offsets strictly decrease along a chain; anything else
                // (e.g. a duplicate item inside one record pointing at its
                // own frame) terminates the walk rather than looping.
                if w.prev < off {
                    next = w.prev;
                }
            }
            off = next;
        }
        Ok(out)
    }
}

/// An append-only REDO log writer with group commit.
///
/// Appends buffer in user space and maintain the per-item chain heads;
/// nothing is durable until [`GroupCommitWal::sync`], which flushes and
/// issues exactly one fsync for everything buffered since the last sync.
/// The encode scratch buffer is reused across appends, so a steady-state
/// append allocates nothing.
#[derive(Debug)]
pub struct GroupCommitWal {
    writer: BufWriter<File>,
    len: u64,
    heads: Vec<u64>,
    scratch: Vec<u8>,
    unsynced: bool,
    counters: Arc<WalCounters>,
}

impl GroupCommitWal {
    /// Open (creating if absent) a REDO log at `path`: scan the intact
    /// prefix, truncate any torn tail so new appends extend the valid
    /// log, and return the writer plus the scan for lazy replay.
    pub fn open(path: &Path, db_size: u32) -> Result<(GroupCommitWal, ScanState)> {
        let raw = match std::fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let had = raw.len() as u64;
        let state = scan(raw, db_size)?;
        let valid = state.raw.len() as u64;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        if had != valid {
            file.set_len(valid)?;
        }
        file.seek(SeekFrom::Start(valid))?;
        let wal = GroupCommitWal {
            writer: BufWriter::new(file),
            len: valid,
            heads: state.heads.clone(),
            scratch: Vec::with_capacity(256),
            unsynced: false,
            counters: Arc::new(WalCounters::default()),
        };
        Ok((wal, state))
    }

    /// Continue in a new, empty log at `path`, after the caller has
    /// synced this one and moved it away (a checkpoint's rotation). The
    /// counters carry over; the chain heads start again, since offsets
    /// address the new file. The new file is durable only once something
    /// appended to it is synced and its directory entry is too.
    pub fn start_fresh(&mut self, path: &Path) -> Result<()> {
        self.writer.flush()?;
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        self.writer = BufWriter::new(file);
        self.len = 0;
        self.heads.fill(NO_PREV);
        self.unsynced = false;
        Ok(())
    }

    /// Shared counter handle.
    pub fn counters(&self) -> Arc<WalCounters> {
        Arc::clone(&self.counters)
    }

    /// Framed bytes written (including not-yet-synced ones).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn frame_scratch(&mut self) -> Result<()> {
        let header_len = (self.scratch.len() as u32).to_le_bytes();
        let header_crc = crc32(&self.scratch).to_le_bytes();
        self.writer.write_all(&header_len)?;
        self.writer.write_all(&header_crc)?;
        self.writer.write_all(&self.scratch)?;
        let framed = 8 + self.scratch.len() as u64;
        self.len += framed;
        self.unsynced = true;
        self.counters.records.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes.fetch_add(framed, Ordering::Relaxed);
        Ok(())
    }

    /// Append one transaction's commit record (write set + fail-lock
    /// words). Buffered — not durable until [`GroupCommitWal::sync`].
    pub fn append_commit(
        &mut self,
        txn: u64,
        writes: &[(u32, ItemValue)],
        faillocks: &[(u32, u64)],
    ) -> Result<()> {
        let size = self.heads.len() as u32;
        if let Some((item, _)) = writes.iter().find(|(item, _)| *item >= size) {
            return Err(StorageError::OutOfRange { item: *item, size });
        }
        let off = self.len;
        self.scratch.clear();
        self.scratch.push(TAG_COMMIT);
        self.scratch.extend_from_slice(&txn.to_le_bytes());
        self.scratch
            .extend_from_slice(&(writes.len() as u32).to_le_bytes());
        self.scratch
            .extend_from_slice(&(faillocks.len() as u32).to_le_bytes());
        for (item, value) in writes {
            let slot = &mut self.heads[*item as usize];
            let prev = *slot;
            *slot = off;
            self.scratch.extend_from_slice(&item.to_le_bytes());
            self.scratch.extend_from_slice(&value.data.to_le_bytes());
            self.scratch.extend_from_slice(&value.version.to_le_bytes());
            self.scratch.extend_from_slice(&prev.to_le_bytes());
        }
        for (item, word) in faillocks {
            self.scratch.extend_from_slice(&item.to_le_bytes());
            self.scratch.extend_from_slice(&word.to_le_bytes());
        }
        self.frame_scratch()?;
        self.counters.commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Append standalone fail-lock words. Buffered.
    pub fn append_faillocks(&mut self, words: &[(u32, u64)]) -> Result<()> {
        self.scratch.clear();
        self.scratch.push(TAG_FAILLOCKS);
        self.scratch
            .extend_from_slice(&(words.len() as u32).to_le_bytes());
        for (item, word) in words {
            self.scratch.extend_from_slice(&item.to_le_bytes());
            self.scratch.extend_from_slice(&word.to_le_bytes());
        }
        self.frame_scratch()
    }

    /// Append the site's session number. Buffered.
    pub fn append_session(&mut self, session: u64) -> Result<()> {
        self.scratch.clear();
        self.scratch.push(TAG_SESSION);
        self.scratch.extend_from_slice(&session.to_le_bytes());
        self.frame_scratch()
    }

    /// Append a checkpoint marker. Buffered.
    pub fn append_checkpoint(&mut self, txn: u64) -> Result<()> {
        self.scratch.clear();
        self.scratch.push(TAG_CHECKPOINT);
        self.scratch.extend_from_slice(&txn.to_le_bytes());
        self.frame_scratch()
    }

    /// Group commit: one flush + fsync covering every record appended
    /// since the last sync. A no-op (and no fsync) if nothing is pending.
    pub fn sync(&mut self) -> Result<()> {
        if !self.unsynced {
            return Ok(());
        }
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        self.unsynced = false;
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("miniraid-redo-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn v(data: u64, version: u64) -> ItemValue {
        ItemValue::new(data, version)
    }

    #[test]
    fn append_scan_roundtrip_builds_chain_heads() {
        let path = tmp("roundtrip");
        let (mut wal, _) = GroupCommitWal::open(&path, 8).unwrap();
        wal.append_commit(1, &[(0, v(10, 1)), (1, v(11, 1))], &[])
            .unwrap();
        let off2 = wal.len();
        wal.append_commit(2, &[(1, v(22, 2))], &[(1, 0b10)])
            .unwrap();
        wal.sync().unwrap();
        drop(wal);

        let raw = std::fs::read(&path).unwrap();
        let state = scan(raw, 8).unwrap();
        assert_eq!(state.last_txn, 2);
        assert_eq!(state.records, 2);
        assert_eq!(state.heads[0], 0);
        assert_eq!(state.heads[1], off2);
        assert_eq!(state.heads[2], NO_PREV);
        assert_eq!(state.faillocks.get(&1), Some(&0b10));

        let mut img = LazyImage::new(&state);
        assert_eq!(img.remaining(), 2);
        assert_eq!(img.take(1), Some(v(22, 2)));
        assert_eq!(img.take(0), Some(v(10, 1)));
        assert_eq!(img.take(0), None);
        assert_eq!(img.remaining(), 0);

        let img = LazyImage::new(&state);
        assert_eq!(img.chain(1).unwrap(), vec![v(22, 2), v(11, 1)]);
        assert_eq!(img.chain(0).unwrap(), vec![v(10, 1)]);
        assert!(img.chain(5).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_is_one_fsync_per_group_and_noop_when_clean() {
        let path = tmp("group");
        let (mut wal, _) = GroupCommitWal::open(&path, 4).unwrap();
        let counters = wal.counters();
        for txn in 1..=5u64 {
            wal.append_commit(txn, &[(0, v(txn, txn))], &[]).unwrap();
        }
        assert_eq!(counters.fsyncs(), 0);
        wal.sync().unwrap();
        wal.sync().unwrap(); // clean — must not fsync again
        assert_eq!(counters.fsyncs(), 1);
        assert_eq!(counters.commits(), 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn from_log_keeps_the_scanned_buffer() {
        let path = tmp("one-copy");
        let (mut wal, _) = GroupCommitWal::open(&path, 4).unwrap();
        wal.append_commit(1, &[(2, v(20, 1))], &[]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let state = scan(std::fs::read(&path).unwrap(), 4).unwrap();
        let (raw, heads) = (state.raw.as_ptr(), state.heads.as_ptr());
        let mut img = LazyImage::from_log(state.raw, state.heads);
        // The image owns the very allocations the scan returned.
        assert_eq!((img.raw.as_ptr(), img.heads.as_ptr()), (raw, heads));
        assert_eq!(img.take(2), Some(v(20, 1)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_allocates_nothing_after_warmup() {
        // Indirect check: the scratch buffer's capacity stabilises, and
        // repeated appends never grow it past the largest record.
        let path = tmp("noalloc");
        let (mut wal, _) = GroupCommitWal::open(&path, 4).unwrap();
        wal.append_commit(1, &[(0, v(1, 1)), (1, v(2, 1))], &[(0, 1)])
            .unwrap();
        let cap = wal.scratch.capacity();
        for txn in 2..100u64 {
            wal.append_commit(txn, &[(0, v(txn, txn)), (1, v(txn, txn))], &[(0, 1)])
                .unwrap();
        }
        assert_eq!(wal.scratch.capacity(), cap);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let path = tmp("torn");
        let (mut wal, _) = GroupCommitWal::open(&path, 4).unwrap();
        wal.append_commit(1, &[(0, v(1, 1))], &[]).unwrap();
        wal.sync().unwrap();
        let good = wal.len();
        drop(wal);
        // Crash mid-append: garbage frame header after the good prefix.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[77, 0, 0, 0, 9, 9, 9, 9, 1, 2, 3]).unwrap();
        drop(f);

        let (mut wal, state) = GroupCommitWal::open(&path, 4).unwrap();
        assert_eq!(state.raw.len() as u64, good);
        assert_eq!(state.last_txn, 1);
        // New appends extend the *valid* log, not the garbage.
        wal.append_commit(2, &[(1, v(2, 2))], &[]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let state = scan(std::fs::read(&path).unwrap(), 4).unwrap();
        assert_eq!(state.last_txn, 2);
        assert_eq!(state.records, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lazy_image_take_next_drains_in_item_order() {
        let path = tmp("drain");
        let (mut wal, _) = GroupCommitWal::open(&path, 6).unwrap();
        wal.append_commit(1, &[(4, v(40, 1)), (2, v(20, 1))], &[])
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let state = scan(std::fs::read(&path).unwrap(), 6).unwrap();
        let mut img = LazyImage::new(&state);
        assert_eq!(img.take_next(), Some((2, v(20, 1))));
        assert_eq!(img.take_next(), Some((4, v(40, 1))));
        assert_eq!(img.take_next(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_rejects_out_of_range_items() {
        let path = tmp("range");
        let (mut wal, _) = GroupCommitWal::open(&path, 8).unwrap();
        wal.append_commit(1, &[(7, v(1, 1))], &[]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let raw = std::fs::read(&path).unwrap();
        assert!(matches!(
            scan(raw, 4),
            Err(StorageError::OutOfRange { item: 7, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_record(&[], 0).is_err());
        assert!(decode_record(&[0x99], 0).is_err());
        assert!(decode_record(&[TAG_COMMIT, 1, 2], 0).is_err());
    }
}
