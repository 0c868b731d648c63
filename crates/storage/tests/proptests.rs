//! Property-based tests for the storage substrate.

use miniraid_storage::{DurableStore, ItemValue, MemStore};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = ItemValue> {
    (any::<u64>(), 1u64..1_000_000).prop_map(|(d, v)| ItemValue::new(d, v))
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
                if *commit {
                    s.commit(txn, &ws).unwrap();
                    for (item, v) in &ws {
                        expect.put(*item, *v).unwrap();
                    }
                } else {
                    s.abort(txn).unwrap();
                }
            }
        } // crash (drop without checkpoint)
        let mut s = DurableStore::open(&dir, 16).unwrap();
        s.hydrate_all().unwrap(); // instant restart: replay before digesting
        prop_assert_eq!(s.mem().digest(), expect.digest());
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
        let mut reference = DurableStore::open(&dir, 12).unwrap();
        reference.hydrate_all().unwrap();

        // Instant restart: serve reads while replay proceeds in steps.
        let mut lazy = DurableStore::open(&dir, 12).unwrap();
        for (item, step) in &probes {
            if *step {
                lazy.hydrate_step(1).unwrap();
            }
            prop_assert_eq!(lazy.get(*item).unwrap(), reference.get(*item).unwrap());
        }
        lazy.hydrate_all().unwrap();
        prop_assert_eq!(lazy.mem().digest(), reference.mem().digest());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
