//! [`DurableStore`]: a site's REDO-only WAL and its snapshots. The store
//! is a log, not a second table: it appends, syncs, rotates and opens,
//! and the only table of a running site is its engine's.
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
//! Restart is **instant**: [`DurableStore::open`] reads the snapshot and
//! scans the log for frame integrity and per-item chain heads, but does
//! not apply values. What it found — the table, the [`LazyImage`] of
//! logged values, the fail-lock words and the session — is one
//! [`Recovered`] value that the site takes once
//! ([`DurableStore::take_recovered`]) and moves into its engine, which
//! hydrates the image on demand and in the background.
//!
//! The log **stops growing**: once `site.redo` holds more than
//! [`LOG_PER_SNAPSHOT`] snapshots' worth of bytes,
//! [`DurableStore::checkpoint_if_due`] rotates it — sync, rename it to
//! `site.redo.prev`, start a fresh `site.redo` that opens with a
//! checkpoint marker and restates the session and fail-lock words — and a
//! helper thread writes `site.snap` from a copy of the caller's table
//! (a [`SiteView`]), then deletes `site.redo.prev`. A restart reads one
//! snapshot and a log of at most that many snapshots plus one drain,
//! however long the site ran.

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

/// What [`DurableStore::open`] found on disk. Later appends do not
/// change it: it is the starting state of the site that takes it.
#[derive(Debug)]
pub struct Recovered {
    /// The snapshot's table (an initial one if there is none), with an
    /// interrupted checkpoint's `site.redo.prev` replayed over it.
    pub table: MemStore,
    /// The live log's values, not yet applied to `table`.
    pub image: LazyImage,
    /// Fail-lock bitmap words (item -> word), last write wins.
    pub faillocks: HashMap<u32, u64>,
    /// The site's own session number (0 = never logged).
    pub session: u64,
}

impl Recovered {
    /// Apply every value still pending in `image` to `table`.
    pub fn hydrate_all(&mut self) -> Result<()> {
        while let Some((item, value)) = self.image.take_next() {
            self.table.put(item, value)?;
        }
        Ok(())
    }
}

/// What a checkpoint writes, read from the site that owns the state: the
/// snapshot is `table` with `pending` folded in, and the fresh log
/// restates `words` and `session`.
#[derive(Debug, Clone, Copy)]
pub struct SiteView<'a> {
    /// The site's table.
    pub table: &'a MemStore,
    /// Logged values `table` has not hydrated yet.
    pub pending: Option<&'a LazyImage>,
    /// Fail-lock bitmap words indexed by item. Zeros are skipped, so a
    /// site with no fail-lock set may pass an empty slice.
    pub words: &'a [u64],
    /// The site's own session number (0 = none to restate).
    pub session: u64,
}

/// A crash-recoverable site log: group-commit REDO WAL + snapshot
/// checkpointing.
#[derive(Debug)]
pub struct DurableStore {
    wal: GroupCommitWal,
    dir: PathBuf,
    /// Items in the universe the log covers.
    size: u32,
    last_txn: u64,
    /// What `open` found, until the site takes it.
    recovered: Option<Recovered>,
    /// The running checkpoint's snapshot writer.
    snapshotter: Option<JoinHandle<Result<()>>>,
}

impl DurableStore {
    /// Open a durable store in `dir`. Returns immediately after reading
    /// the snapshot and scanning the log (frame validation + chain heads)
    /// — logged values are *reachable* but not yet applied. A checkpoint
    /// a crash interrupted is completed first.
    pub fn open(dir: &Path, size: u32) -> Result<DurableStore> {
        std::fs::create_dir_all(dir)?;
        let (table, snap_txn) = match Snapshot::read_from(&dir.join(SNAP))? {
            Some(snap) => (snap.store, snap.last_txn),
            None => (MemStore::new(size), 0),
        };
        let (wal, state) = GroupCommitWal::open(&dir.join(LOG), size)?;
        let mut store = DurableStore {
            wal,
            dir: dir.to_path_buf(),
            size,
            last_txn: snap_txn.max(state.last_txn),
            recovered: Some(Recovered {
                table,
                image: LazyImage::from_log(state.raw, state.heads),
                faillocks: state.faillocks,
                session: state.session,
            }),
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
        let prev = redo::scan(prev, self.size)?;
        let found = self.recovered.as_mut().expect("open holds what it found");
        let mut image = LazyImage::from_log(prev.raw, prev.heads);
        while let Some((item, value)) = image.take_next() {
            found.table.put(item, value)?;
        }
        // The live log is the newer one: its words and session win.
        let mut faillocks = prev.faillocks;
        faillocks.extend(found.faillocks.drain());
        found.faillocks = faillocks;
        if found.session == 0 {
            found.session = prev.session;
        }
        self.last_txn = self.last_txn.max(prev.last_txn);
        let mut words: Vec<(u32, u64)> = found
            .faillocks
            .iter()
            .filter(|(_, word)| **word != 0)
            .map(|(item, word)| (*item, *word))
            .collect();
        words.sort_unstable();
        restate(&mut self.wal, found.session, &words)?;
        self.wal.sync()?;
        let snapshot = Snapshot {
            store: found.table.clone(),
            last_txn: snap_txn.max(prev.last_txn),
        };
        write_snapshot(snapshot, None, &self.dir, &self.wal.counters())
    }

    /// Hand over what `open` found: the table, the restart image, the
    /// fail-lock words and the session, moved out once. `None` after the
    /// first call.
    pub fn take_recovered(&mut self) -> Option<Recovered> {
        self.recovered.take()
    }

    /// Writer-side counters (fsyncs, commit records, bytes), shared.
    pub fn counters(&self) -> std::sync::Arc<WalCounters> {
        self.wal.counters()
    }

    /// Log the site's session number. Buffered: rides the next group
    /// sync (the site loop holds the recovery announcement until then).
    pub fn log_session(&mut self, session: u64) -> Result<()> {
        self.wal.append_session(session)
    }

    /// Record fail-lock words alongside whatever was last committed
    /// (standalone fail-lock traffic; commit-attached words travel
    /// inside [`DurableStore::commit_with_locks`]). Buffered into the
    /// group batch — fail-lock durability needs no fsync of its own.
    pub fn log_faillocks(&mut self, words: &[(u32, u64)]) -> Result<()> {
        if words.is_empty() {
            return Ok(());
        }
        self.wal.append_faillocks(words)
    }

    /// Highest committed transaction id recovered or logged so far.
    pub fn last_txn(&self) -> u64 {
        self.last_txn
    }

    /// Items of the not-yet-taken [`Recovered`] still awaiting replay
    /// (0 once taken).
    pub fn pending_items(&self) -> u32 {
        self.recovered.as_ref().map_or(0, |r| r.image.remaining())
    }

    /// [`Recovered::hydrate_all`] on the not-yet-taken [`Recovered`].
    pub fn hydrate_all(&mut self) -> Result<()> {
        self.recovered
            .as_mut()
            .map_or(Ok(()), Recovered::hydrate_all)
    }

    /// Log a committed transaction: one self-contained REDO record
    /// (write set + fail-lock words). **Not durable** until the next
    /// [`DurableStore::sync`] — the group commit the caller schedules.
    pub fn commit_with_locks(
        &mut self,
        txn: u64,
        writes: &[(u32, ItemValue)],
        faillocks: &[(u32, u64)],
    ) -> Result<()> {
        self.wal.append_commit(txn, writes, faillocks)?;
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

    /// Bytes in the live log (`site.redo`), synced or not.
    pub fn log_bytes(&self) -> u64 {
        self.wal.len()
    }

    /// Start a checkpoint if one is due: the live log holds more than
    /// [`LOG_PER_SNAPSHOT`] snapshots' worth of bytes and no checkpoint
    /// is running. `view` is called only then, so a call that rotates
    /// nothing costs a length comparison. The site loop calls this once
    /// per drain, after the drain's sync and sends. A finished
    /// checkpoint is collected first; if its snapshot writer failed,
    /// that error is returned.
    pub fn checkpoint_if_due<'a>(&mut self, view: impl FnOnce() -> SiteView<'a>) -> Result<()> {
        if self
            .snapshotter
            .as_ref()
            .is_some_and(JoinHandle::is_finished)
        {
            self.wait_checkpoint()?;
        }
        let due = LOG_PER_SNAPSHOT * Snapshot::encoded_len(self.size);
        if self.snapshotter.is_none() && self.wal.len() > due {
            self.start_checkpoint(view())?;
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

    /// Checkpoint `view` now, whatever the log's length, and wait for
    /// it: the rotation and snapshot [`DurableStore::checkpoint_if_due`]
    /// starts.
    pub fn checkpoint(&mut self, view: SiteView<'_>) -> Result<()> {
        self.wait_checkpoint()?;
        self.start_checkpoint(view)?;
        self.wait_checkpoint()
    }

    /// A checkpoint's first half, on the caller's thread and cheap: sync
    /// the log and rename it to `.prev`; start a fresh log that opens
    /// with the checkpoint marker and restates the view's session and
    /// non-zero words; make the new file and the directory durable; hand
    /// a copy of the view's table and pending image to the snapshot
    /// writer.
    fn start_checkpoint(&mut self, view: SiteView<'_>) -> Result<()> {
        self.wal.sync()?;
        std::fs::rename(self.dir.join(LOG), self.dir.join(PREV))?;
        self.wal.start_fresh(&self.dir.join(LOG))?;
        self.wal.append_checkpoint(self.last_txn)?;
        let words: Vec<(u32, u64)> = (0u32..)
            .zip(view.words)
            .filter(|(_, word)| **word != 0)
            .map(|(item, word)| (item, *word))
            .collect();
        restate(&mut self.wal, view.session, &words)?;
        self.wal.sync()?;
        sync_dir(&self.dir)?;
        let snapshot = Snapshot {
            store: view.table.clone(),
            last_txn: self.last_txn,
        };
        let pending = view.pending.cloned();
        let (dir, counters) = (self.dir.clone(), self.wal.counters());
        let writer = std::thread::Builder::new()
            .name("miniraid-snapshot".into())
            .spawn(move || write_snapshot(snapshot, pending, &dir, &counters))?;
        self.snapshotter = Some(writer);
        Ok(())
    }
}

/// Append the protocol state no snapshot holds — the session and the
/// non-zero fail-lock words, sorted by item — so the live log alone
/// carries it once the logs before it are gone. Buffered.
fn restate(wal: &mut GroupCommitWal, session: u64, words: &[(u32, u64)]) -> Result<()> {
    if session > 0 {
        wal.append_session(session)?;
    }
    if !words.is_empty() {
        wal.append_faillocks(words)?;
    }
    Ok(())
}

/// A checkpoint's second half, on the snapshot writer (or, completing an
/// interrupted one, in [`DurableStore::open`]): fold in what the restart
/// image had not yet applied, write the snapshot durably, and only then
/// delete the log it covers.
fn write_snapshot(
    mut snapshot: Snapshot,
    pending: Option<LazyImage>,
    dir: &Path,
    counters: &WalCounters,
) -> Result<()> {
    if let Some(mut pending) = pending {
        while let Some((item, value)) = pending.take_next() {
            snapshot.store.put(item, value)?;
        }
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

    /// Reopen `dir` and take everything it recovered, fully hydrated.
    fn reopen(dir: &Path, size: u32) -> (DurableStore, Recovered) {
        let mut s = DurableStore::open(dir, size).unwrap();
        let mut found = s.take_recovered().unwrap();
        found.hydrate_all().unwrap();
        (s, found)
    }

    /// The state a site running on a store holds: the table a checkpoint
    /// snapshots, and the words and session it restates.
    struct Site {
        table: MemStore,
        words: Vec<u64>,
        session: u64,
    }

    impl Site {
        fn new(size: u32) -> Site {
            Site {
                table: MemStore::new(size),
                words: vec![0; size as usize],
                session: 0,
            }
        }

        /// Commit to the store and apply to the table.
        fn commit(&mut self, s: &mut DurableStore, txn: u64, writes: &[(u32, ItemValue)]) {
            s.commit(txn, writes).unwrap();
            for (item, value) in writes {
                self.table.put(*item, *value).unwrap();
            }
        }

        fn view(&self) -> SiteView<'_> {
            SiteView {
                table: &self.table,
                pending: None,
                words: &self.words,
                session: self.session,
            }
        }
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
        let (s, found) = reopen(&dir, 10);
        assert_eq!(found.table.get(3).unwrap(), ItemValue::new(31, 2));
        assert_eq!(found.table.get(4).unwrap(), ItemValue::new(40, 2));
        assert_eq!(s.last_txn(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_hands_off_what_it_found_once() {
        let dir = tmpdir("hand-off");
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
        let mut found = s.take_recovered().unwrap();
        assert_eq!(found.table.get(0).unwrap(), ItemValue::INITIAL);
        assert_eq!(found.image.take(0), Some(ItemValue::new(60, 6)));
        found.hydrate_all().unwrap();
        assert_eq!(found.table.get(1).unwrap(), ItemValue::new(40, 4));
        assert_eq!(found.table.get(2).unwrap(), ItemValue::new(50, 5));
        // The store keeps no table once the site has taken it.
        assert!(s.take_recovered().is_none());
        assert_eq!(s.pending_items(), 0);
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
    fn checkpoint_then_reopen_recovers_same_state() {
        let dir = tmpdir("checkpoint");
        {
            let mut s = DurableStore::open(&dir, 6).unwrap();
            let mut site = Site::new(6);
            site.commit(&mut s, 1, &[(0, ItemValue::new(10, 1))]);
            s.checkpoint(site.view()).unwrap();
            site.commit(&mut s, 2, &[(1, ItemValue::new(20, 2))]);
        }
        let (s, found) = reopen(&dir, 6);
        assert_eq!(found.table.get(0).unwrap(), ItemValue::new(10, 1));
        assert_eq!(found.table.get(1).unwrap(), ItemValue::new(20, 2));
        assert_eq!(s.last_txn(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn protocol_state_survives_reopen_and_checkpoint() {
        let dir = tmpdir("protocol-state");
        {
            let mut s = DurableStore::open(&dir, 8).unwrap();
            let mut site = Site::new(8);
            site.commit(&mut s, 1, &[(0, ItemValue::new(1, 1))]);
            s.log_faillocks(&[(0, 0b0100), (3, 0b0010)]).unwrap();
            (site.words[0], site.words[3]) = (0b0100, 0b0010);
            s.log_session(4).unwrap();
            site.session = 4;
            s.checkpoint(site.view()).unwrap();
            s.log_faillocks(&[(0, 0)]).unwrap(); // cleared later
        }
        let (_, found) = reopen(&dir, 8);
        assert_eq!(found.session, 4);
        assert_eq!(found.faillocks.get(&0), Some(&0));
        assert_eq!(found.faillocks.get(&3), Some(&0b0010));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_outgrown_log_rotates_and_the_snapshot_replaces_it() {
        let dir = tmpdir("rotate");
        let size = 8u32;
        let due = LOG_PER_SNAPSHOT * Snapshot::encoded_len(size);
        let mut s = DurableStore::open(&dir, size).unwrap();
        let mut site = Site::new(size);
        s.log_session(3).unwrap();
        site.session = 3;
        s.log_faillocks(&[(5, 0b10), (6, 0b100)]).unwrap();
        s.log_faillocks(&[(6, 0)]).unwrap();
        site.words[5] = 0b10;
        let mut txn = 0u64;
        loop {
            txn += 1;
            site.commit(&mut s, txn, &[((txn % 8) as u32, ItemValue::new(txn, txn))]);
            s.sync().unwrap();
            let (bytes, outgrown) = (s.log_bytes(), s.log_bytes() > due);
            let mut asked = false;
            s.checkpoint_if_due(|| {
                asked = true;
                site.view()
            })
            .unwrap();
            assert_eq!(asked, outgrown, "the view is read only to rotate");
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
        assert_eq!((s.last_txn(), s.pending_items()), (txn, 0));
        let found = s.take_recovered().unwrap();
        assert_eq!(found.session, 3);
        let words: Vec<_> = found.faillocks.iter().filter(|(_, w)| **w != 0).collect();
        assert_eq!(words, [(&5, &0b10)]);
        assert_eq!(found.table, site.table);
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_snapshot_write_is_returned_not_counted() {
        let dir = tmpdir("snapshot-fails");
        let mut s = DurableStore::open(&dir, 4).unwrap();
        let mut site = Site::new(4);
        // A directory where the snapshot goes: its rename must fail.
        std::fs::create_dir_all(dir.join(SNAP).join("in-the-way")).unwrap();
        site.commit(&mut s, 1, &[(0, ItemValue::new(1, 1))]);
        assert!(s.checkpoint(site.view()).is_err());
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
}
