//! Property tests for the fail-lock table's O(1) bookkeeping and for the
//! batch copier's cursor (DESIGN.md §2, "Two-step recovery"): the
//! per-site counts must equal a recount of the bitmap after every
//! mutation, and a batch round must select exactly what a scan of the
//! whole table would.

mod harness;

use harness::Pump;
use miniraid_core::config::{ProtocolConfig, TwoStepRecovery};
use miniraid_core::engine::{Output, SiteEngine, TimerId};
use miniraid_core::faillock::FailLockTable;
use miniraid_core::messages::{Command, Message};
use miniraid_core::ops::{Operation, Transaction};
use miniraid_core::packed::PackedSiteTable;
use miniraid_core::{ItemId, SiteId, TxnId};
use proptest::prelude::*;

const ITEMS: u32 = 40;
const SITES: u8 = 64;

/// One mutation of the table, or one cursor advance.
#[derive(Debug, Clone)]
enum TableOp {
    Set(u32, u8),
    Clear(u32, u8),
    SetWord(u32, u64),
    Maintain(u32, u64, u64),
    Install(Vec<u64>),
    Union(Vec<u64>),
    Advance(u8),
}

/// A sparse word: fail-lock tables are mostly clear.
fn arb_word() -> impl Strategy<Value = u64> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c)| a & b & c)
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    let snapshot = || proptest::collection::vec(arb_word(), ITEMS as usize..ITEMS as usize + 1);
    prop_oneof![
        4 => (0..ITEMS, 0..SITES).prop_map(|(i, s)| TableOp::Set(i, s)),
        4 => (0..ITEMS, 0..SITES).prop_map(|(i, s)| TableOp::Clear(i, s)),
        2 => (0..ITEMS, arb_word()).prop_map(|(i, w)| TableOp::SetWord(i, w)),
        4 => (0..ITEMS, any::<u64>(), any::<u64>())
            .prop_map(|(i, up, holders)| TableOp::Maintain(i, up, holders)),
        1 => snapshot().prop_map(TableOp::Install),
        1 => snapshot().prop_map(TableOp::Union),
        3 => (0..SITES).prop_map(TableOp::Advance),
    ]
}

fn words_of(table: &FailLockTable) -> Vec<u64> {
    (0..ITEMS).map(|i| table.word(ItemId(i))).collect()
}

/// Scan the whole table through its per-bit accessors — the reference the
/// counters and the cursor are checked against.
fn assert_matches_recount(table: &FailLockTable) {
    let mut total = 0u32;
    for site in (0..SITES).map(SiteId) {
        let locked: Vec<ItemId> = (0..ITEMS)
            .map(ItemId)
            .filter(|item| table.is_locked(*item, site))
            .collect();
        assert_eq!(table.count_locked_for(site), locked.len() as u32);
        assert_eq!(table.items_locked_for(site), locked);
        assert_eq!(
            table.locked_from_low_water(site).collect::<Vec<_>>(),
            locked,
            "the low-water mark of {site} hid a locked item"
        );
        total += locked.len() as u32;
    }
    assert_eq!(table.total_set(), total);
    assert!(table.snapshot().words().eq(words_of(table)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every mutator keeps the per-site counts, the total and the
    /// low-water marks in step with the bitmap.
    #[test]
    fn counts_and_cursor_track_every_mutation(
        ops in proptest::collection::vec(arb_table_op(), 1..80)
    ) {
        let mut table = FailLockTable::new(ITEMS, SITES);
        for op in ops {
            match op {
                TableOp::Set(i, s) => {
                    let was = table.is_locked(ItemId(i), SiteId(s));
                    prop_assert_eq!(table.set(ItemId(i), SiteId(s)), !was);
                }
                TableOp::Clear(i, s) => {
                    let was = table.is_locked(ItemId(i), SiteId(s));
                    prop_assert_eq!(table.clear(ItemId(i), SiteId(s)), was);
                }
                TableOp::SetWord(i, w) => {
                    table.set_word(ItemId(i), w);
                    prop_assert_eq!(table.word(ItemId(i)), w);
                }
                TableOp::Maintain(i, up, holders) => {
                    let before = table.word(ItemId(i));
                    let counts = table.maintain_on_commit_bits(ItemId(i), up, holders);
                    let after = table.word(ItemId(i));
                    prop_assert_eq!(after, (before | (holders & !up)) & !(holders & up));
                    prop_assert_eq!(counts.set, (after & !before).count_ones());
                    prop_assert_eq!(counts.cleared, (before & !after).count_ones());
                }
                TableOp::Install(words) => {
                    table.install_snapshot(&PackedSiteTable::pack(&words));
                    prop_assert_eq!(words_of(&table), words);
                }
                TableOp::Union(words) => {
                    let before = words_of(&table);
                    table.union_snapshot(&PackedSiteTable::pack(&words));
                    let merged: Vec<u64> =
                        before.iter().zip(&words).map(|(a, b)| a | b).collect();
                    prop_assert_eq!(words_of(&table), merged);
                }
                TableOp::Advance(s) => table.advance_low_water(SiteId(s)),
            }
            assert_matches_recount(&table);
        }
    }
}

// ---- the batch copier's cursor against a whole-table scan ---------------

/// What `on_batch_copier` selected before it had a cursor: every item
/// fail-locked for the site, in id order, the sourceable ones grouped by
/// source, `batch_size` at most.
fn reference_selection(engine: &SiteEngine, batch_size: usize) -> Vec<(SiteId, ItemId)> {
    let me = engine.id();
    engine
        .faillocks()
        .items_locked_for(me)
        .into_iter()
        .filter_map(|item| {
            let source = engine.replication().holders_of(item).find(|&s| {
                s != me && engine.vector().is_up(s) && !engine.faillocks().is_locked(item, s)
            })?;
            Some((source, item))
        })
        .take(batch_size)
        .collect()
}

/// The `(source, item)` pairs of the copy requests in `outputs`.
fn requested(outputs: &[Output]) -> Vec<(SiteId, ItemId)> {
    let mut pairs: Vec<(SiteId, ItemId)> = outputs
        .iter()
        .filter_map(|o| match o {
            Output::Send {
                to,
                msg: Message::CopyRequest { items, .. },
            } => Some(items.iter().map(|item| (*to, *item))),
            _ => None,
        })
        .flatten()
        .collect();
    pairs.sort_by_key(|(_, item)| item.0);
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round by round, the cursor-driven batch copier requests exactly the
    /// reference selection — with stale copies whose only fresh holder is
    /// down (skipped, not counted), and with corrective `SetFailLocks`
    /// landing below the low-water mark between rounds.
    #[test]
    fn cursor_selects_what_a_full_scan_would(
        first in proptest::collection::vec(0..ITEMS, 1..30),
        second in proptest::collection::vec(0..ITEMS, 0..12),
        batch_size in 1u32..9,
        corrections in proptest::collection::vec(
            proptest::collection::vec(0..ITEMS, 0..4), 12..13),
    ) {
        let mut pump = Pump::new(ProtocolConfig {
            db_size: ITEMS,
            n_sites: 3,
            two_step_recovery: Some(TwoStepRecovery { threshold: 1.0, batch_size }),
            ..ProtocolConfig::default()
        });
        let mut next = 1u64;
        let mut write_all = |pump: &mut Pump, site: u8, items: &[u32]| {
            for item in items {
                let op = Operation::Write(ItemId(*item), next);
                pump.run_txn(SiteId(site), Transaction::new(TxnId(next), vec![op]));
                next += 1;
            }
        };
        // Site 0 misses `first`; then site 1 misses `second` too, and the
        // only site that saw `second` fails before anyone refreshed: those
        // copies are stale at site 0 with no operational source.
        pump.fail(SiteId(0));
        write_all(&mut pump, 1, &[first[0]]); // detects the failure
        write_all(&mut pump, 1, &first);
        pump.fail(SiteId(1));
        write_all(&mut pump, 2, &[0]); // detects the failure
        write_all(&mut pump, 2, &second);
        pump.recover(SiteId(1));
        pump.fail(SiteId(2));
        write_all(&mut pump, 1, &[ITEMS - 1]); // detects the failure

        pump.command_quiet(SiteId(0), Command::Recover);
        prop_assert!(pump.engine(SiteId(0)).is_up());
        for extra in corrections {
            let expect = reference_selection(pump.engine(SiteId(0)), batch_size as usize);
            let stale_before = pump.engine(SiteId(0)).own_stale_count();
            let outputs = pump.fire(SiteId(0), TimerId::BatchCopier);
            prop_assert_eq!(requested(&outputs), expect.clone());
            // The round's copies arrived and cleared exactly its items.
            prop_assert_eq!(
                pump.engine(SiteId(0)).own_stale_count(),
                stale_before - expect.len() as u32
            );
            if pump.engine(SiteId(0)).own_stale_count() == 0 {
                break; // data recovery complete: batch mode is over
            }
            // A coordinator found site 0 missed a commit of these items:
            // the bits may land below the cursor's low-water mark.
            let items: Vec<ItemId> = extra.into_iter().map(ItemId).collect();
            for to in [SiteId(0), SiteId(1)] {
                let msg = Message::SetFailLocks { site: SiteId(0), items: items.clone() };
                pump.deliver(to, SiteId(1), msg);
            }
            pump.assert_faillock_counts();
        }
    }
}
