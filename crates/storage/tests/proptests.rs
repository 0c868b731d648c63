//! Property-based tests for the storage substrate.

use std::collections::BTreeMap;
use std::path::Path;

use miniraid_storage::snapshot::Snapshot;
use miniraid_storage::{DurableStore, ItemValue, MemStore, Recovered, SiteView, LOG_PER_SNAPSHOT};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = ItemValue> {
    (any::<u64>(), 1u64..1_000_000).prop_map(|(d, v)| ItemValue::new(d, v))
}

/// Open `dir` and take what it recovered, fully hydrated.
fn recover(dir: &Path, size: u32) -> Recovered {
    let mut found = DurableStore::open(dir, size)
        .unwrap()
        .take_recovered()
        .unwrap();
    found.hydrate_all().unwrap();
    found
}

proptest! {
    /// MemStore digest is a function of contents only.
    #[test]
    fn digest_function_of_contents(
        ops in proptest::collection::vec((0u32..32, arb_value()), 0..64)
    ) {
        let mut a = MemStore::new(32);
        let mut b = MemStore::new(32);
        for (item, v) in &ops {
            a.put(*item, *v).unwrap();
        }
        // Apply the same final state to b in a different order: compute
        // last-writer-wins map first.
        let mut finals = std::collections::BTreeMap::new();
        for (item, v) in &ops {
            finals.insert(*item, *v);
        }
        for (item, v) in finals.iter().rev() {
            b.put(*item, *v).unwrap();
        }
        prop_assert_eq!(a.digest(), b.digest());
    }

    /// DurableStore recovery reproduces exactly the committed state.
    #[test]
    fn durable_recovery_matches_committed_state(
        txns in proptest::collection::vec(
            (proptest::collection::vec((0u32..16, any::<u64>()), 0..4), any::<bool>()),
            1..12
        )
    ) {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "miniraid-prop-durable-{}-{:x}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut expect = MemStore::new(16);
        {
            let mut s = DurableStore::open(&dir, 16).unwrap();
            for (i, (writes, commit)) in txns.iter().enumerate() {
                let txn = (i + 1) as u64;
                let ws: Vec<(u32, ItemValue)> = writes
                    .iter()
                    .map(|(item, data)| (*item, ItemValue::new(*data, txn)))
                    .collect();
                // An aborted transaction logs nothing (REDO-only).
                if *commit {
                    s.commit(txn, &ws).unwrap();
                    for (item, v) in &ws {
                        expect.put(*item, *v).unwrap();
                    }
                }
            }
        } // crash (drop without checkpoint)
        let found = recover(&dir, 16);
        prop_assert_eq!(found.table.digest(), expect.digest());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    /// REDO log crash-point sweep: truncating the log at EVERY byte
    /// boundary recovers *exactly* the committed prefix — the state after
    /// the last commit record whose frame is fully intact, never a torn
    /// or reordered one.
    #[test]
    fn redo_truncation_every_byte_recovers_exact_committed_prefix(
        txns in proptest::collection::vec(
            proptest::collection::vec((0u32..8, any::<u64>()), 1..4),
            1..6
        )
    ) {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "miniraid-prop-redo-cut-{}-{:x}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("site.redo");

        // Build the log, remembering the frame-end offset and expected
        // state after each commit record.
        let (mut wal, _) = miniraid_storage::GroupCommitWal::open(&path, 8).unwrap();
        let mut frame_ends: Vec<u64> = vec![0];
        let mut state_after: Vec<MemStore> = vec![MemStore::new(8)];
        for (i, writes) in txns.iter().enumerate() {
            let txn = (i + 1) as u64;
            let ws: Vec<(u32, ItemValue)> = writes
                .iter()
                .map(|(item, data)| (*item, ItemValue::new(*data, txn)))
                .collect();
            wal.append_commit(txn, &ws, &[]).unwrap();
            frame_ends.push(wal.len());
            let mut next = state_after.last().unwrap().clone();
            for (item, v) in &ws {
                next.put(*item, *v).unwrap();
            }
            state_after.push(next);
        }
        wal.sync().unwrap();
        drop(wal);

        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            let state = miniraid_storage::redo::scan(full[..cut].to_vec(), 8).unwrap();
            let mut img = miniraid_storage::LazyImage::new(&state);
            let mut recovered = MemStore::new(8);
            while let Some((item, v)) = img.take_next() {
                recovered.put(item, v).unwrap();
            }
            // Exactly the prefix of commit records whose frames fit in
            // the cut — nothing less, nothing more.
            let intact = frame_ends.iter().filter(|&&e| e <= cut as u64).count() - 1;
            prop_assert_eq!(
                recovered.digest(),
                state_after[intact].digest(),
                "cut at {} recovered something other than the {}-commit prefix",
                cut,
                intact
            );
            prop_assert_eq!(state.last_txn, intact as u64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Instant restart: interleaving on-demand reads with background
    /// replay steps yields exactly the values a full replay yields, for
    /// every item, whatever the interleaving.
    #[test]
    fn redo_instant_restart_reads_match_full_replay(
        txns in proptest::collection::vec(
            proptest::collection::vec((0u32..12, any::<u64>()), 1..4),
            1..10
        ),
        probes in proptest::collection::vec((0u32..12, any::<bool>()), 0..24)
    ) {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "miniraid-prop-redo-instant-{}-{:x}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        {
            let mut s = DurableStore::open(&dir, 12).unwrap();
            for (i, writes) in txns.iter().enumerate() {
                let txn = (i + 1) as u64;
                let ws: Vec<(u32, ItemValue)> = writes
                    .iter()
                    .map(|(item, data)| (*item, ItemValue::new(*data, txn)))
                    .collect();
                s.commit(txn, &ws).unwrap();
            }
        } // crash

        // Reference: full replay up front.
        let reference = recover(&dir, 12);

        // Instant restart: serve reads while replay proceeds in steps,
        // the way an engine drives the image it took over.
        let mut lazy = DurableStore::open(&dir, 12).unwrap().take_recovered().unwrap();
        for (item, step) in &probes {
            if *step {
                if let Some((next, v)) = lazy.image.take_next() {
                    lazy.table.put(next, v).unwrap();
                }
            }
            if let Some(v) = lazy.image.take(*item) {
                lazy.table.put(*item, v).unwrap();
            }
            prop_assert_eq!(lazy.table.get(*item).unwrap(), reference.table.get(*item).unwrap());
        }
        lazy.hydrate_all().unwrap();
        prop_assert_eq!(lazy.table.digest(), reference.table.digest());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---- crashes across checkpoints ------------------------------------------

const ITEMS: u32 = 8;

/// One thing a durable site logs; each appends exactly one record.
#[derive(Debug, Clone)]
enum Op {
    Commit(Vec<(u32, u64)>),
    /// Standalone fail-lock words, zeros (clears) included.
    Words(Vec<(u32, u64)>),
    Session,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => proptest::collection::vec((0u32..ITEMS, any::<u64>()), 1..4).prop_map(Op::Commit),
        2 => proptest::collection::vec((0u32..ITEMS, 0u64..4), 1..3).prop_map(Op::Words),
        1 => Just(Op::Session),
    ]
}

/// What a store must hold after a prefix of the ops: the oracle.
#[derive(Debug, Clone)]
struct Model {
    mem: MemStore,
    words: BTreeMap<u32, u64>,
    session: u64,
    last_txn: u64,
}

/// The state the site running on the store holds, kept apart from the
/// oracle: the rotation snapshots this table and restates these words.
struct Site {
    table: MemStore,
    words: Vec<u64>,
    session: u64,
}

impl Site {
    fn view(&self) -> SiteView<'_> {
        SiteView {
            table: &self.table,
            pending: None,
            words: &self.words,
            session: self.session,
        }
    }
}

impl Model {
    /// Log `op` to `store`, apply it to the site's state, and advance
    /// the oracle.
    fn apply(&mut self, op: &Op, store: &mut DurableStore, site: &mut Site) {
        match op {
            Op::Commit(writes) => {
                self.last_txn += 1;
                let txn = self.last_txn;
                let ws: Vec<(u32, ItemValue)> = writes
                    .iter()
                    .map(|(item, data)| (*item, ItemValue::new(*data, txn)))
                    .collect();
                store.commit(txn, &ws).unwrap();
                for (item, v) in ws {
                    site.table.put(item, v).unwrap();
                    self.mem.put(item, v).unwrap();
                }
            }
            Op::Words(words) => {
                store.log_faillocks(words).unwrap();
                for (item, word) in words {
                    site.words[*item as usize] = *word;
                    match word {
                        0 => self.words.remove(item),
                        w => self.words.insert(*item, *w),
                    };
                }
            }
            Op::Session => {
                self.session += 1;
                store.log_session(self.session).unwrap();
                site.session = self.session;
            }
        }
    }

    /// Reopen `dir` and compare; then reopen once more, since the first
    /// open may have completed an interrupted checkpoint.
    fn check(&self, dir: &Path, what: &str) {
        for pass in ["open", "reopen"] {
            let mut s = DurableStore::open(dir, ITEMS).unwrap();
            let last_txn = s.last_txn();
            let mut found = s.take_recovered().unwrap();
            found.hydrate_all().unwrap();
            let words: BTreeMap<u32, u64> = found
                .faillocks
                .iter()
                .filter(|(_, w)| **w != 0)
                .map(|(i, w)| (*i, *w))
                .collect();
            assert_eq!(found.table, self.mem, "{what}: table after {pass}");
            assert_eq!(words, self.words, "{what}: fail-lock words after {pass}");
            assert_eq!(found.session, self.session, "{what}: session after {pass}");
            assert_eq!(last_txn, self.last_txn, "{what}: last_txn after {pass}");
            drop(s);
            assert!(!dir.join("site.redo.prev").exists(), "{what}: .prev left");
        }
    }
}

/// Offsets where a frame of `log` ends, and 0.
fn record_boundaries(log: &[u8]) -> Vec<usize> {
    let mut ends = vec![0];
    while let Some(&end) = ends.last().filter(|&&e| e + 8 <= log.len()) {
        let len = u32::from_le_bytes(log[end..end + 4].try_into().unwrap()) as usize;
        ends.push(end + 8 + len);
    }
    ends
}

/// One log's life: from a rotation (or the first open) to the next.
struct Epoch {
    /// The snapshot that covers this log's start (`None` before the first
    /// checkpoint).
    snap: Option<Vec<u8>>,
    /// The rotation that started this log: the log it renamed to `.prev`
    /// and the snapshot that was current until its own was written.
    rotation: Option<(Vec<u8>, Option<Vec<u8>>)>,
    /// The state at the start, and after each op that logged into it,
    /// with the offset where that op's record ends.
    start: Model,
    ends: Vec<(usize, Model)>,
    /// Where the rotation's own records end: the marker and the restated
    /// protocol state.
    header: usize,
    /// The log as it finally was.
    log: Vec<u8>,
}

impl Epoch {
    /// The state a cut at `b` leaves: everything logged before `b`.
    fn at(&self, b: usize) -> &Model {
        self.ends
            .iter()
            .rev()
            .find(|(end, _)| *end <= b)
            .map_or(&self.start, |(_, m)| m)
    }
}

fn write_dir(dir: &Path, files: &[(&str, Option<&[u8]>)]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        if let Some(bytes) = bytes {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }
}

fn unique_dir(name: &str) -> std::path::PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "miniraid-prop-{name}-{}-{:x}",
        std::process::id(),
        rand::random::<u64>()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    /// A crash anywhere in a run that crosses checkpoints — at every
    /// record boundary of every log, and after each step of each
    /// rotation (the rename, the new log's fsync, the snapshot's rename,
    /// the unlink of `.prev`) — reopens to exactly the committed prefix,
    /// fail-lock words, session and `last_txn`.
    #[test]
    fn a_crash_at_any_step_of_a_checkpoint_recovers_the_logged_prefix(
        ops in proptest::collection::vec(arb_op(), 40..64)
    ) {
        let live = unique_dir("ckpt-live");
        let crash = unique_dir("ckpt-crash");
        let read = |name: &str| std::fs::read(live.join(name)).ok();
        let due = LOG_PER_SNAPSHOT * Snapshot::encoded_len(ITEMS);

        let mut model = Model {
            mem: MemStore::new(ITEMS),
            words: BTreeMap::new(),
            session: 0,
            last_txn: 0,
        };
        let mut s = DurableStore::open(&live, ITEMS).unwrap();
        let mut site = Site {
            table: MemStore::new(ITEMS),
            words: vec![0; ITEMS as usize],
            session: 0,
        };
        let mut epochs = vec![Epoch {
            snap: None,
            rotation: None,
            start: model.clone(),
            ends: Vec::new(),
            header: 0,
            log: Vec::new(),
        }];
        for op in &ops {
            model.apply(op, &mut s, &mut site);
            s.sync().unwrap();
            let epoch = epochs.last_mut().unwrap();
            epoch.log = read("site.redo").unwrap();
            epoch.ends.push((epoch.log.len(), model.clone()));
            let rotates = s.log_bytes() > due;
            s.checkpoint_if_due(|| site.view()).unwrap();
            if rotates {
                s.wait_checkpoint().unwrap();
                let prev = std::mem::take(&mut epoch.log);
                let covered = epoch.snap.clone();
                let log = read("site.redo").unwrap();
                epochs.push(Epoch {
                    snap: read("site.snap"),
                    rotation: Some((prev, covered)),
                    start: model.clone(),
                    ends: Vec::new(),
                    header: log.len(),
                    log,
                });
            }
        }
        drop(s);
        prop_assert!(epochs.len() >= 3, "only {} checkpoints", epochs.len() - 1);
        model.check(&live, "clean shutdown");

        for (k, epoch) in epochs.iter().enumerate() {
            let header = epoch.header;
            for b in record_boundaries(&epoch.log) {
                let cut = &epoch.log[..b];
                let want = epoch.at(b);
                if b >= header {
                    // After the unlink, and in steady state.
                    write_dir(&crash, &[("site.snap", epoch.snap.as_deref()), ("site.redo", Some(cut))]);
                    want.check(&crash, &format!("epoch {k}, cut {b}"));
                }
                if let Some((prev, covered)) = &epoch.rotation {
                    // Before the new log's fsync (a torn header), after it,
                    // and appended to while the snapshot is written.
                    write_dir(&crash, &[
                        ("site.snap", covered.as_deref()),
                        ("site.redo.prev", Some(prev)),
                        ("site.redo", Some(cut)),
                    ]);
                    want.check(&crash, &format!("epoch {k}, .prev, old snapshot, cut {b}"));
                    if b >= header {
                        // After the snapshot's rename, before the unlink.
                        write_dir(&crash, &[
                            ("site.snap", epoch.snap.as_deref()),
                            ("site.redo.prev", Some(prev)),
                            ("site.redo", Some(cut)),
                        ]);
                        want.check(&crash, &format!("epoch {k}, .prev, new snapshot, cut {b}"));
                    }
                }
            }
            if let Some((prev, covered)) = &epoch.rotation {
                // Right after the rename: no live log yet.
                write_dir(&crash, &[("site.snap", covered.as_deref()), ("site.redo.prev", Some(prev))]);
                epoch.start.check(&crash, &format!("epoch {k}, after the rename"));
            }
        }
        std::fs::remove_dir_all(&live).unwrap();
        std::fs::remove_dir_all(&crash).unwrap();
    }
}
