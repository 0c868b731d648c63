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

use std::path::{Path, PathBuf};

use std::collections::HashMap;

use crate::mem::MemStore;
use crate::redo::{GroupCommitWal, LazyImage, WalCounters};
use crate::snapshot::Snapshot;
use crate::{ItemValue, Result};

/// A crash-recoverable store: `MemStore` + group-commit REDO WAL +
/// snapshot checkpointing.
#[derive(Debug)]
pub struct DurableStore {
    mem: MemStore,
    /// Logged values not yet applied to `mem` (instant restart).
    image: LazyImage,
    wal: GroupCommitWal,
    wal_path: PathBuf,
    snap_path: PathBuf,
    last_txn: u64,
    /// Recovered fail-lock bitmap words (item -> word), last-write-wins.
    faillocks: HashMap<u32, u64>,
    /// Recovered own session number (0 = never logged).
    session: u64,
}

impl DurableStore {
    /// Open a durable store in `dir`. Returns immediately after scanning
    /// the log (frame validation + chain heads) — committed values are
    /// *reachable* but not yet applied; they hydrate on first read or via
    /// [`DurableStore::hydrate_step`].
    pub fn open(dir: &Path, size: u32) -> Result<DurableStore> {
        std::fs::create_dir_all(dir)?;
        let wal_path = dir.join("site.redo");
        let snap_path = dir.join("site.snap");

        let (mem, snap_txn) = match Snapshot::read_from(&snap_path)? {
            Some(snap) => (snap.store, snap.last_txn),
            None => (MemStore::new(size), 0),
        };
        let (wal, state) = GroupCommitWal::open(&wal_path, size)?;
        Ok(DurableStore {
            mem,
            image: LazyImage::from_log(state.raw, state.heads),
            wal,
            wal_path,
            snap_path,
            last_txn: snap_txn.max(state.last_txn),
            faillocks: state.faillocks,
            session: state.session,
        })
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

    /// Take a snapshot and start a fresh log with a checkpoint marker.
    /// Hydrates any not-yet-replayed items first so the snapshot is the
    /// full committed image.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.hydrate_all()?;
        self.wal.sync()?;
        let snap = Snapshot {
            store: self.mem.clone(),
            last_txn: self.last_txn,
        };
        snap.write_to(&self.snap_path)?;
        // Start a fresh log containing the checkpoint marker plus the
        // protocol state (fail-locks, session) the snapshot doesn't hold.
        std::fs::remove_file(&self.wal_path)?;
        let counters = self.wal.counters();
        let (wal, _) =
            GroupCommitWal::open_with_counters(&self.wal_path, self.mem.size(), counters)?;
        self.wal = wal;
        self.wal.append_checkpoint(self.last_txn)?;
        if self.session > 0 {
            self.wal.append_session(self.session)?;
        }
        let mut words: Vec<(u32, u64)> = self.faillocks.iter().map(|(i, w)| (*i, *w)).collect();
        words.sort_unstable();
        self.wal.append_faillocks(&words)?;
        self.wal.sync()?;
        Ok(())
    }
}

impl Drop for DurableStore {
    /// Clean shutdown is durable: flush + fsync whatever the last group
    /// didn't cover. (A crash instead loses only records whose effects
    /// were never announced — the site loop holds outbound messages
    /// until their group's fsync completes.)
    fn drop(&mut self) {
        let _ = self.wal.sync();
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
