//! The on-disk REDO format does not depend on how the checksum is
//! computed. `fixtures/bytewise-crc.redo` was written by the bytewise
//! CRC-32 writer, before the checksum moved to slicing-by-8; it holds
//! commit records (one with no writes), standalone fail-lock words, two
//! session records and a checkpoint marker. Today's code must scan it to
//! exactly the state the writer's own scan produced.

use miniraid_storage::redo::{scan, NO_PREV};
use miniraid_storage::{DurableStore, ItemValue, LazyImage};

const LOG: &[u8] = include_bytes!("fixtures/bytewise-crc.redo");

#[test]
fn a_log_from_the_bytewise_writer_scans_to_the_same_state() {
    let state = scan(LOG.to_vec(), 16).unwrap();
    assert_eq!(state.raw.len(), LOG.len(), "every frame intact");
    assert_eq!(state.records, 9);
    assert_eq!(state.last_txn, 7);
    assert_eq!(state.session, 6);
    let mut faillocks: Vec<(u32, u64)> = state.faillocks.iter().map(|(i, w)| (*i, *w)).collect();
    faillocks.sort_unstable();
    assert_eq!(faillocks, [(0, 0b110), (3, 0b010), (5, 0b100), (9, 0)]);
    let mut heads = vec![NO_PREV; 16];
    heads[0] = 245;
    heads[3] = 392;
    heads[7] = 81;
    heads[15] = 245;
    assert_eq!(state.heads, heads);

    let v = ItemValue::new;
    let image = LazyImage::new(&state);
    assert_eq!(image.chain(0).unwrap(), [v(101, 5), v(100, 1)]);
    assert_eq!(image.chain(3).unwrap(), [v(302, 7), v(301, 2), v(300, 1)]);
    let replayed: Vec<(u32, ItemValue)> = {
        let mut image = LazyImage::from_log(state.raw, state.heads);
        std::iter::from_fn(|| image.take_next()).collect()
    };
    assert_eq!(
        replayed,
        [
            (0, v(101, 5)),
            (3, v(302, 7)),
            (7, v(700, 2)),
            (15, v(1500, 5))
        ]
    );
}

#[test]
fn a_log_from_the_bytewise_writer_opens_and_keeps_growing() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("miniraid-log-compat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("site.redo"), LOG).unwrap();
    {
        let mut s = DurableStore::open(&dir, 16).unwrap();
        assert_eq!((s.last_txn(), s.pending_items()), (7, 4));
        let mut found = s.take_recovered().unwrap();
        assert_eq!(found.session, 6);
        assert_eq!(found.image.take(3), Some(ItemValue::new(302, 7)));
        s.commit(8, &[(3, ItemValue::new(303, 8))]).unwrap();
    }
    // Old frames and new ones checksum alike: the appended record is
    // intact behind them.
    let mut s = DurableStore::open(&dir, 16).unwrap();
    assert_eq!(s.last_txn(), 8);
    let mut found = s.take_recovered().unwrap();
    found.hydrate_all().unwrap();
    assert_eq!(found.table.get(3).unwrap(), ItemValue::new(303, 8));
    assert_eq!(found.table.get(15).unwrap(), ItemValue::new(1500, 5));
    std::fs::remove_dir_all(&dir).unwrap();
}
