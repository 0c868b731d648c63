//! [`DurableStore`]: the in-memory table fronted by a REDO-only WAL and
//! snapshots.
//!
//! This is the production-path storage a site would run with; the paper's
//! experiments use bare [`MemStore`] (I/O factored out), and the protocol
//! engine is generic over which one it drives.
//!
//! Durability is **group-committed**: [`DurableStore::commit`] only
//! appends a self-contained REDO record; nothing reaches the disk until
//! [`DurableStore::sync`] (one fsync for every record appended since the
//! last sync) or drop. The driving site loop syncs once at the end of
//! every mailbox drain that appended, and sends the drain's messages only
//! after that sync, so no message announces a commit before the fsync
//! covering it completes — only the fsync count drops.
//!
//! Restart is **instant**: [`DurableStore::open`] scans the log for frame
//! integrity and per-item chain heads but does not apply values. Reads
//! hydrate on demand from the [`LazyImage`]; [`DurableStore::hydrate_step`]
//! replays the rest in the background.
//!
//! The log **stops growing**: once `site.redo` holds more than
//! [`LOG_PER_SNAPSHOT`] snapshots' worth of bytes,
//! [`DurableStore::checkpoint_if_due`] rotates it — sync, rename it to
//! `site.redo.prev`, start a fresh `site.redo` that opens with a
//! checkpoint marker and restates the session and fail-lock words — and a
//! helper thread writes `site.snap` from a copy of the table, then
//! deletes `site.redo.prev`. A restart reads one snapshot and a log of at
//! most that many snapshots plus one drain, however long the site ran.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;

use crate::mem::MemStore;
use crate::redo::{self, GroupCommitWal, LazyImage, WalCounters};
use crate::snapshot::{sync_dir, Snapshot};
use crate::{ItemValue, Result, StorageError};

/// The live log.
const LOG: &str = "site.redo";
/// The log a running checkpoint's snapshot covers; deleted once that
/// snapshot is durable.
const PREV: &str = "site.redo.prev";
/// The newest durable snapshot.
const SNAP: &str = "site.snap";

/// A checkpoint starts once the live log holds more than this many
/// snapshots' worth of bytes. At four, checkpoint writes stay at most a
/// quarter of log writes, a restart reads at most five snapshots' worth,
/// and set-up — every item written once, about 1.75 snapshots of log —
/// finishes without one.
pub const LOG_PER_SNAPSHOT: u64 = 4;

/// A crash-recoverable store: `MemStore` + group-commit REDO WAL +
/// snapshot checkpointing.
#[derive(Debug)]
pub struct DurableStore {
    mem: MemStore,
    /// Logged values not yet applied to `mem` (instant restart).
    image: LazyImage,
    wal: GroupCommitWal,
    dir: PathBuf,
    last_txn: u64,
    /// Recovered fail-lock bitmap words (item -> word), last-write-wins.
    faillocks: HashMap<u32, u64>,
    /// Recovered own session number (0 = never logged).
    session: u64,
    /// The running checkpoint's snapshot writer.
    snapshotter: Option<JoinHandle<Result<()>>>,
}

impl DurableStore {
    /// Open a durable store in `dir`. Returns immediately after reading
    /// the snapshot and scanning the log (frame validation + chain heads)
    /// — logged values are *reachable* but not yet applied; they hydrate
    /// on first read or via [`DurableStore::hydrate_step`]. A checkpoint
    /// a crash interrupted is completed first.
    pub fn open(dir: &Path, size: u32) -> Result<DurableStore> {
        std::fs::create_dir_all(dir)?;
        let (mem, snap_txn) = match Snapshot::read_from(&dir.join(SNAP))? {
            Some(snap) => (snap.store, snap.last_txn),
            None => (MemStore::new(size), 0),
        };
        let (wal, state) = GroupCommitWal::open(&dir.join(LOG), size)?;
        let mut store = DurableStore {
            mem,
            image: LazyImage::from_log(state.raw, state.heads),
            wal,
            dir: dir.to_path_buf(),
            last_txn: snap_txn.max(state.last_txn),
            faillocks: state.faillocks,
            session: state.session,
            snapshotter: None,
        };
        match std::fs::read(dir.join(PREV)) {
            Ok(prev) => store.finish_checkpoint(prev, snap_txn)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(store)
    }

    /// `site.redo.prev` survived a crash: its checkpoint's snapshot may or
    /// may not have been written, and the live log may lack the protocol
    /// state the rotation restated. Replaying `.prev` over the snapshot
    /// is right either way — REDO records carry absolute values, so a log
    /// the snapshot already covers changes nothing. Then restate the
    /// protocol state at the end of the live log, write the snapshot and
    /// delete `.prev`: the interrupted checkpoint, completed before the
    /// store serves.
    fn finish_checkpoint(&mut self, prev: Vec<u8>, snap_txn: u64) -> Result<()> {
        let prev = redo::scan(prev, self.mem.size())?;
        let mut image = LazyImage::from_log(prev.raw, prev.heads);
        while let Some((item, value)) = image.take_next() {
            self.mem.put(item, value)?;
        }
        // The live log is the newer one: its words and session win.
        let mut faillocks = prev.faillocks;
        faillocks.extend(self.faillocks.drain());
        self.faillocks = faillocks;
        if self.session == 0 {
            self.session = prev.session;
        }
        self.last_txn = self.last_txn.max(prev.last_txn);
        self.restate_protocol_state()?;
        self.wal.sync()?;
        let snapshot = Snapshot {
            store: self.mem.clone(),
            last_txn: snap_txn.max(prev.last_txn),
        };
        let size = self.mem.size();
        write_snapshot(
            snapshot,
            LazyImage::empty(size),
            &self.dir,
            &self.wal.counters(),
        )
    }

    /// Recovered fail-lock words (item -> bitmap word).
    pub fn faillocks(&self) -> &HashMap<u32, u64> {
        &self.faillocks
    }

    /// Recovered session number (0 if never logged).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Writer-side counters (fsyncs, commit records, bytes), shared.
    pub fn counters(&self) -> std::sync::Arc<WalCounters> {
        self.wal.counters()
    }

    /// A handle to the not-yet-replayed committed image, for a protocol
    /// engine that wants to hydrate its own table lazily (instant
    /// restart). The clone tracks its hydration progress independently.
    pub fn image(&self) -> LazyImage {
        self.image.clone()
    }

    /// Log the site's session number. Buffered: rides the next group
    /// sync (the site loop holds the recovery announcement until then).
    pub fn log_session(&mut self, session: u64) -> Result<()> {
        self.wal.append_session(session)?;
        self.session = session;
        Ok(())
    }

    /// Record fail-lock words alongside whatever was last committed
    /// (standalone clear-fail-lock traffic; commit-attached words travel
    /// inside [`DurableStore::commit`]). Buffered into the group batch —
    /// fail-lock durability needs no fsync of its own.
    pub fn log_faillocks(&mut self, words: &[(u32, u64)]) -> Result<()> {
        if words.is_empty() {
            return Ok(());
        }
        self.wal.append_faillocks(words)?;
        for (item, word) in words {
            self.faillocks.insert(*item, *word);
        }
        Ok(())
    }

    /// Read one item, hydrating it from the log image if this is the
    /// first access since restart (on-demand chain replay).
    pub fn get(&mut self, item: u32) -> Result<ItemValue> {
        if let Some(v) = self.image.take(item) {
            self.mem.put(item, v)?;
        }
        self.mem.get(item)
    }

    /// Highest committed transaction id recovered or applied so far.
    pub fn last_txn(&self) -> u64 {
        self.last_txn
    }

    /// Access the in-memory table (e.g. for digests). Excludes items not
    /// yet replayed after a restart — call [`DurableStore::hydrate_all`]
    /// first when the full image is needed.
    pub fn mem(&self) -> &MemStore {
        &self.mem
    }

    /// Items still awaiting background replay.
    pub fn pending_items(&self) -> u32 {
        self.image.remaining()
    }

    /// Background replay: hydrate up to `max` items, returning how many
    /// remain afterwards.
    pub fn hydrate_step(&mut self, max: u32) -> Result<u32> {
        for _ in 0..max {
            match self.image.take_next() {
                Some((item, v)) => self.mem.put(item, v)?,
                None => break,
            }
        }
        Ok(self.image.remaining())
    }

    /// Replay everything still pending.
    pub fn hydrate_all(&mut self) -> Result<()> {
        while let Some((item, v)) = self.image.take_next() {
            self.mem.put(item, v)?;
        }
        Ok(())
    }

    /// Apply a committed transaction: append one self-contained REDO
    /// record (write set + fail-lock words) and update the table.
    /// **Not durable** until the next [`DurableStore::sync`] — the group
    /// commit the caller schedules.
    pub fn commit_with_locks(
        &mut self,
        txn: u64,
        writes: &[(u32, ItemValue)],
        faillocks: &[(u32, u64)],
    ) -> Result<()> {
        self.wal.append_commit(txn, writes, faillocks)?;
        for (item, value) in writes {
            // The fresh write supersedes whatever the restart image held
            // (version-ordered apply happens upstream in the engine).
            self.image.supersede(*item);
            self.mem.put(*item, *value)?;
        }
        for (item, word) in faillocks {
            self.faillocks.insert(*item, *word);
        }
        self.last_txn = self.last_txn.max(txn);
        Ok(())
    }

    /// [`DurableStore::commit_with_locks`] without fail-lock words.
    pub fn commit(&mut self, txn: u64, writes: &[(u32, ItemValue)]) -> Result<()> {
        self.commit_with_locks(txn, writes, &[])
    }

    /// Group commit: one fsync covering every record appended since the
    /// last sync. A no-op if nothing is pending.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Record an aborted transaction. REDO-only logging writes nothing:
    /// uncommitted work never reaches the log, so an abort needs neither
    /// a record nor durability. Kept for API compatibility.
    pub fn abort(&mut self, _txn: u64) -> Result<()> {
        Ok(())
    }

    /// Bytes in the live log (`site.redo`), synced or not.
    pub fn log_bytes(&self) -> u64 {
        self.wal.len()
    }

    /// Start a checkpoint if one is due: the live log holds more than
    /// [`LOG_PER_SNAPSHOT`] snapshots' worth of bytes and no checkpoint
    /// is running. The site loop calls this once per drain, after the
    /// drain's sync and sends. A finished checkpoint is collected first;
    /// if its snapshot writer failed, that error is returned.
    pub fn checkpoint_if_due(&mut self) -> Result<()> {
        if self
            .snapshotter
            .as_ref()
            .is_some_and(JoinHandle::is_finished)
        {
            self.wait_checkpoint()?;
        }
        let due = LOG_PER_SNAPSHOT * Snapshot::encoded_len(self.mem.size());
        if self.snapshotter.is_none() && self.wal.len() > due {
            self.start_checkpoint()?;
        }
        Ok(())
    }

    /// Wait for the running checkpoint, if any, and return its outcome.
    pub fn wait_checkpoint(&mut self) -> Result<()> {
        match self.snapshotter.take() {
            Some(thread) => thread.join().unwrap_or_else(|_| {
                Err(StorageError::Io(std::io::Error::other(
                    "snapshot writer panicked",
                )))
            }),
            None => Ok(()),
        }
    }

    /// Checkpoint now, whatever the log's length, and wait for it: the
    /// rotation and snapshot [`DurableStore::checkpoint_if_due`] starts.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.wait_checkpoint()?;
        self.start_checkpoint()?;
        self.wait_checkpoint()
    }

    /// A checkpoint's first half, on the caller's thread and cheap: sync
    /// the log and rename it to `.prev`; start a fresh log that opens
    /// with the checkpoint marker and restates the protocol state; make
    /// the new file and the directory durable; hand a copy of the table
    /// to the snapshot writer.
    fn start_checkpoint(&mut self) -> Result<()> {
        self.wal.sync()?;
        std::fs::rename(self.dir.join(LOG), self.dir.join(PREV))?;
        self.wal.start_fresh(&self.dir.join(LOG))?;
        self.wal.append_checkpoint(self.last_txn)?;
        self.restate_protocol_state()?;
        self.wal.sync()?;
        sync_dir(&self.dir)?;
        let snapshot = Snapshot {
            store: self.mem.clone(),
            last_txn: self.last_txn,
        };
        let pending = self.image.clone();
        let (dir, counters) = (self.dir.clone(), self.wal.counters());
        let writer = std::thread::Builder::new()
            .name("miniraid-snapshot".into())
            .spawn(move || write_snapshot(snapshot, pending, &dir, &counters))?;
        self.snapshotter = Some(writer);
        Ok(())
    }

    /// Append the protocol state no snapshot holds — the session and
    /// every non-zero fail-lock word — so the live log alone carries it
    /// once the logs before it are gone. Buffered.
    fn restate_protocol_state(&mut self) -> Result<()> {
        if self.session > 0 {
            self.wal.append_session(self.session)?;
        }
        self.faillocks.retain(|_, word| *word != 0);
        if !self.faillocks.is_empty() {
            let mut words: Vec<(u32, u64)> = self.faillocks.iter().map(|(i, w)| (*i, *w)).collect();
            words.sort_unstable();
            self.wal.append_faillocks(&words)?;
        }
        Ok(())
    }
}

/// A checkpoint's second half, on the snapshot writer (or, completing an
/// interrupted one, in [`DurableStore::open`]): fold in what the restart
/// image had not yet applied, write the snapshot durably, and only then
/// delete the log it covers.
fn write_snapshot(
    mut snapshot: Snapshot,
    mut pending: LazyImage,
    dir: &Path,
    counters: &WalCounters,
) -> Result<()> {
    while let Some((item, value)) = pending.take_next() {
        snapshot.store.put(item, value)?;
    }
    let bytes = snapshot.write_to(&dir.join(SNAP))?;
    std::fs::remove_file(dir.join(PREV))?;
    counters.checkpoints.fetch_add(1, Ordering::Relaxed);
    counters.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
    Ok(())
}

impl Drop for DurableStore {
    /// Clean shutdown is durable: flush + fsync whatever the last group
    /// didn't cover, and let a running checkpoint finish, so nothing of
    /// this store still touches the directory when the next one opens
    /// it. (A crash instead loses only records whose effects were never
    /// announced — the site loop holds outbound messages until their
    /// group's fsync completes.)
    fn drop(&mut self) {
        let _ = self.wal.sync();
        let _ = self.wait_checkpoint();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("miniraid-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn commit_survives_reopen() {
        let dir = tmpdir("reopen");
        {
            let mut s = DurableStore::open(&dir, 10).unwrap();
            s.commit(1, &[(3, ItemValue::new(30, 1))]).unwrap();
            s.commit(2, &[(4, ItemValue::new(40, 2)), (3, ItemValue::new(31, 2))])
                .unwrap();
        }
        let mut s = DurableStore::open(&dir, 10).unwrap();
        assert_eq!(s.get(3).unwrap(), ItemValue::new(31, 2));
        assert_eq!(s.get(4).unwrap(), ItemValue::new(40, 2));
        assert_eq!(s.last_txn(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commits_share_one_fsync_per_group() {
        let dir = tmpdir("group");
        let mut s = DurableStore::open(&dir, 10).unwrap();
        let counters = s.counters();
        for txn in 1..=8u64 {
            s.commit(txn, &[(0, ItemValue::new(txn, txn))]).unwrap();
        }
        assert_eq!(counters.fsyncs(), 0);
        s.sync().unwrap();
        s.sync().unwrap();
        assert_eq!(counters.fsyncs(), 1);
        assert_eq!(counters.commits(), 8);
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aborted_txn_leaves_no_trace_in_state() {
        let dir = tmpdir("abort");
        {
            let mut s = DurableStore::open(&dir, 10).unwrap();
            s.commit(1, &[(0, ItemValue::new(1, 1))]).unwrap();
            s.abort(2).unwrap();
        }
        let mut s = DurableStore::open(&dir, 10).unwrap();
        assert_eq!(s.get(0).unwrap(), ItemValue::new(1, 1));
        assert_eq!(s.last_txn(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_then_reopen_recovers_same_state() {
        let dir = tmpdir("checkpoint");
        {
            let mut s = DurableStore::open(&dir, 6).unwrap();
            s.commit(1, &[(0, ItemValue::new(10, 1))]).unwrap();
            s.checkpoint().unwrap();
            s.commit(2, &[(1, ItemValue::new(20, 2))]).unwrap();
        }
        let mut s = DurableStore::open(&dir, 6).unwrap();
        assert_eq!(s.get(0).unwrap(), ItemValue::new(10, 1));
        assert_eq!(s.get(1).unwrap(), ItemValue::new(20, 2));
        assert_eq!(s.last_txn(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn protocol_state_survives_reopen_and_checkpoint() {
        let dir = tmpdir("protocol-state");
        {
            let mut s = DurableStore::open(&dir, 8).unwrap();
            s.commit(1, &[(0, ItemValue::new(1, 1))]).unwrap();
            s.log_faillocks(&[(0, 0b0100), (3, 0b0010)]).unwrap();
            s.log_session(4).unwrap();
            s.checkpoint().unwrap();
            s.log_faillocks(&[(0, 0)]).unwrap(); // cleared later
        }
        let s = DurableStore::open(&dir, 8).unwrap();
        assert_eq!(s.session(), 4);
        assert_eq!(s.faillocks().get(&0), Some(&0));
        assert_eq!(s.faillocks().get(&3), Some(&0b0010));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_outgrown_log_rotates_and_the_snapshot_replaces_it() {
        let dir = tmpdir("rotate");
        let size = 8u32;
        let due = LOG_PER_SNAPSHOT * Snapshot::encoded_len(size);
        let mut s = DurableStore::open(&dir, size).unwrap();
        s.log_session(3).unwrap();
        s.log_faillocks(&[(5, 0b10), (6, 0b100)]).unwrap();
        s.log_faillocks(&[(6, 0)]).unwrap();
        let mut txn = 0u64;
        loop {
            txn += 1;
            s.commit(txn, &[((txn % 8) as u32, ItemValue::new(txn, txn))])
                .unwrap();
            s.sync().unwrap();
            let (bytes, outgrown) = (s.log_bytes(), s.log_bytes() > due);
            s.checkpoint_if_due().unwrap();
            if outgrown {
                break;
            }
            assert_eq!(s.log_bytes(), bytes, "no rotation before it is due");
        }
        s.wait_checkpoint().unwrap();
        let counters = s.counters();
        assert_eq!(counters.checkpoints(), 1);
        assert_eq!(counters.snapshot_bytes(), Snapshot::encoded_len(size));
        assert!(!dir.join(PREV).exists());
        // The fresh log holds the marker and the restated state alone:
        // the session and the one non-zero word.
        let header = 8 + 9 + (8 + 9) + (8 + 5 + 12);
        assert_eq!(s.log_bytes(), header);
        drop(s);

        let mut s = DurableStore::open(&dir, size).unwrap();
        assert_eq!((s.last_txn(), s.session(), s.pending_items()), (txn, 3, 0));
        let words: Vec<_> = s.faillocks().iter().filter(|(_, w)| **w != 0).collect();
        assert_eq!(words, [(&5, &0b10)]);
        for item in 0..8u32 {
            let last = (1..=txn).rev().find(|t| t % 8 == item as u64);
            let want = last.map_or(ItemValue::INITIAL, |t| ItemValue::new(t, t));
            assert_eq!(s.get(item).unwrap(), want, "item {item}");
        }
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_snapshot_write_is_returned_not_counted() {
        let dir = tmpdir("snapshot-fails");
        let mut s = DurableStore::open(&dir, 4).unwrap();
        // A directory where the snapshot goes: its rename must fail.
        std::fs::create_dir_all(dir.join(SNAP).join("in-the-way")).unwrap();
        s.commit(1, &[(0, ItemValue::new(1, 1))]).unwrap();
        assert!(s.checkpoint().is_err());
        assert_eq!(s.counters().checkpoints(), 0);
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_committed_txn_still_advances_last_txn() {
        let dir = tmpdir("empty-commit");
        {
            let mut s = DurableStore::open(&dir, 4).unwrap();
            s.commit(7, &[]).unwrap();
        }
        let s = DurableStore::open(&dir, 4).unwrap();
        assert_eq!(s.last_txn(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_hydrates_lazily_and_background_replay_converges() {
        let dir = tmpdir("lazy");
        {
            let mut s = DurableStore::open(&dir, 8).unwrap();
            for txn in 1..=6u64 {
                let item = (txn % 3) as u32;
                s.commit(txn, &[(item, ItemValue::new(txn * 10, txn))])
                    .unwrap();
            }
        }
        let mut s = DurableStore::open(&dir, 8).unwrap();
        // Instant restart: values are pending, not applied.
        assert_eq!(s.pending_items(), 3);
        assert_eq!(s.mem().get(0).unwrap(), ItemValue::INITIAL);
        // On-demand read hydrates just that item.
        assert_eq!(s.get(0).unwrap(), ItemValue::new(60, 6));
        assert_eq!(s.pending_items(), 2);
        // Background replay finishes the rest.
        assert_eq!(s.hydrate_step(1).unwrap(), 1);
        assert_eq!(s.hydrate_step(10).unwrap(), 0);
        assert_eq!(s.mem().get(1).unwrap(), ItemValue::new(40, 4));
        assert_eq!(s.mem().get(2).unwrap(), ItemValue::new(50, 5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_after_instant_restart_supersedes_pending_image() {
        let dir = tmpdir("supersede");
        {
            let mut s = DurableStore::open(&dir, 4).unwrap();
            s.commit(1, &[(0, ItemValue::new(10, 1))]).unwrap();
        }
        let mut s = DurableStore::open(&dir, 4).unwrap();
        assert_eq!(s.pending_items(), 1);
        s.commit(2, &[(0, ItemValue::new(20, 2))]).unwrap();
        assert_eq!(s.pending_items(), 0);
        assert_eq!(s.get(0).unwrap(), ItemValue::new(20, 2));
        drop(s);
        let mut s = DurableStore::open(&dir, 4).unwrap();
        assert_eq!(s.get(0).unwrap(), ItemValue::new(20, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
