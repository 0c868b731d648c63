//! Partial replication and the type-3 control transaction (paper §3.2).
//!
//! The paper's experiments use a fully replicated database, but §3.2
//! proposes: "In a partially replicated database system using the ROWAA
//! protocol, data availability could be increased by creating a control
//! transaction of type 3. Using this control transaction, a site having
//! the last up-to-date copy of a data item would create a copy on a
//! back-up site that has no copy of that data item."
//!
//! [`ReplicationMap`] tracks which sites hold a copy of each item. Copies
//! created by type-3 control transactions are flagged so they can be
//! retired ("the cost of removing copies of data items from sites once
//! these additional copies were not needed any more") when enough original
//! holders are healthy again.

use crate::ids::{ItemId, SiteId};
use crate::packed::PackedSiteTable;

/// Which sites hold a copy of each item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationMap {
    /// `holders[item] & (1 << site)` — site holds a copy of item.
    holders: Vec<u64>,
    /// Bits for copies created by type-3 control transactions (backups),
    /// eligible for retirement.
    backups: Vec<u64>,
    n_sites: u8,
}

impl ReplicationMap {
    /// Fully replicated map: every site holds every item.
    pub fn full(n_items: u32, n_sites: u8) -> Self {
        assert!(n_sites as usize <= 64);
        let all = Self::all_mask(n_sites);
        ReplicationMap {
            holders: vec![all; n_items as usize],
            backups: vec![0; n_items as usize],
            n_sites,
        }
    }

    /// Empty map (no holders); populate with [`ReplicationMap::add_holder`].
    pub fn empty(n_items: u32, n_sites: u8) -> Self {
        assert!(n_sites as usize <= 64);
        ReplicationMap {
            holders: vec![0; n_items as usize],
            backups: vec![0; n_items as usize],
            n_sites,
        }
    }

    /// A map where item `i` is held by `degree` sites starting at
    /// `i % n_sites` (round-robin placement, the usual synthetic layout).
    pub fn round_robin(n_items: u32, n_sites: u8, degree: u8) -> Self {
        let mut map = Self::empty(n_items, n_sites);
        for item in 0..n_items {
            for d in 0..degree.min(n_sites) {
                let site = ((item as u64 + d as u64) % n_sites as u64) as u8;
                map.add_holder(ItemId(item), SiteId(site), false);
            }
        }
        map
    }

    fn all_mask(n_sites: u8) -> u64 {
        if n_sites == 64 {
            u64::MAX
        } else {
            (1u64 << n_sites) - 1
        }
    }

    /// Number of items covered.
    pub fn n_items(&self) -> u32 {
        self.holders.len() as u32
    }

    /// Number of sites covered.
    pub fn n_sites(&self) -> u8 {
        self.n_sites
    }

    /// Does `site` hold a copy of `item`?
    pub fn holds(&self, item: ItemId, site: SiteId) -> bool {
        self.holders[item.index()] & (1u64 << site.0) != 0
    }

    /// Is `site`'s copy of `item` a type-3 backup?
    pub fn is_backup(&self, item: ItemId, site: SiteId) -> bool {
        self.backups[item.index()] & (1u64 << site.0) != 0
    }

    /// Holder sites of `item`, in id order.
    pub fn holders_of(&self, item: ItemId) -> impl Iterator<Item = SiteId> + '_ {
        let word = self.holders[item.index()];
        (0..self.n_sites)
            .filter(move |s| word & (1u64 << s) != 0)
            .map(SiteId)
    }

    /// Raw holder mask of `item` (bit per site).
    pub fn holder_mask(&self, item: ItemId) -> u64 {
        self.holders[item.index()]
    }

    /// Number of holders of `item`.
    pub fn degree(&self, item: ItemId) -> u32 {
        self.holders[item.index()].count_ones()
    }

    /// Register `site` as a holder of `item`. Returns true if new.
    pub fn add_holder(&mut self, item: ItemId, site: SiteId, backup: bool) -> bool {
        let mask = 1u64 << site.0;
        let was = self.holders[item.index()] & mask != 0;
        self.holders[item.index()] |= mask;
        if backup {
            self.backups[item.index()] |= mask;
        }
        !was
    }

    /// Remove `site` as a holder of `item`. Returns true if it was one.
    pub fn remove_holder(&mut self, item: ItemId, site: SiteId) -> bool {
        let mask = 1u64 << site.0;
        let was = self.holders[item.index()] & mask != 0;
        self.holders[item.index()] &= !mask;
        self.backups[item.index()] &= !mask;
        was
    }

    /// True when every site holds every item.
    pub fn is_fully_replicated(&self) -> bool {
        let all = Self::all_mask(self.n_sites);
        self.holders.iter().all(|w| *w == all)
    }

    /// Snapshot `(holders, backups)`, packed for transfer — shipped to a
    /// recovering site during a type-1 control transaction (the map, like
    /// the fail-lock table, is replicated state that down sites miss
    /// updates to).
    pub fn snapshot(&self) -> (PackedSiteTable, PackedSiteTable) {
        (
            PackedSiteTable::pack(&self.holders),
            PackedSiteTable::pack(&self.backups),
        )
    }

    /// Install a snapshot received during recovery, replacing local
    /// state (the operational sites' maps are authoritative).
    pub fn install_snapshot(&mut self, holders: &PackedSiteTable, backups: &PackedSiteTable) {
        holders.unpack_into(&mut self.holders);
        backups.unpack_into(&mut self.backups);
    }

    /// Items `site` holds, in id order.
    pub fn items_held_by(&self, site: SiteId) -> Vec<ItemId> {
        let mask = 1u64 << site.0;
        self.holders
            .iter()
            .enumerate()
            .filter(|(_, w)| **w & mask != 0)
            .map(|(i, _)| ItemId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_map_holds_everything() {
        let m = ReplicationMap::full(10, 4);
        assert!(m.is_fully_replicated());
        assert!(m.holds(ItemId(9), SiteId(3)));
        assert_eq!(m.degree(ItemId(0)), 4);
    }

    #[test]
    fn round_robin_layout() {
        let m = ReplicationMap::round_robin(6, 3, 2);
        assert!(!m.is_fully_replicated());
        // Item 0 held by sites 0 and 1; item 2 by sites 2 and 0.
        assert_eq!(
            m.holders_of(ItemId(0)).collect::<Vec<_>>(),
            vec![SiteId(0), SiteId(1)]
        );
        assert!(m.holds(ItemId(2), SiteId(2)));
        assert!(m.holds(ItemId(2), SiteId(0)));
        assert!(!m.holds(ItemId(2), SiteId(1)));
        for i in 0..6 {
            assert_eq!(m.degree(ItemId(i)), 2);
        }
    }

    #[test]
    fn add_remove_holder_and_backup_flag() {
        let mut m = ReplicationMap::round_robin(4, 4, 1);
        assert!(!m.holds(ItemId(0), SiteId(2)));
        assert!(m.add_holder(ItemId(0), SiteId(2), true));
        assert!(!m.add_holder(ItemId(0), SiteId(2), true), "idempotent");
        assert!(m.holds(ItemId(0), SiteId(2)));
        assert!(m.is_backup(ItemId(0), SiteId(2)));
        assert!(!m.is_backup(ItemId(0), SiteId(0)));
        assert!(m.remove_holder(ItemId(0), SiteId(2)));
        assert!(!m.holds(ItemId(0), SiteId(2)));
        assert!(!m.is_backup(ItemId(0), SiteId(2)));
        assert!(!m.remove_holder(ItemId(0), SiteId(2)));
    }

    #[test]
    fn items_held_by_lists_in_order() {
        let m = ReplicationMap::round_robin(5, 2, 1);
        // Sites alternate: item 0 -> site 0, item 1 -> site 1, ...
        assert_eq!(
            m.items_held_by(SiteId(0)),
            vec![ItemId(0), ItemId(2), ItemId(4)]
        );
        assert_eq!(m.items_held_by(SiteId(1)), vec![ItemId(1), ItemId(3)]);
    }

    #[test]
    fn degree_clamped_to_n_sites() {
        let m = ReplicationMap::round_robin(3, 2, 5);
        assert!(m.is_fully_replicated());
    }

    #[test]
    fn retirement_distinguishes_originals_from_backups() {
        // Item 0 starts with originals at sites 0 and 1; a type-3
        // control transaction adds a backup at site 3.
        let mut m = ReplicationMap::round_robin(2, 4, 2);
        assert!(m.add_holder(ItemId(0), SiteId(3), true));
        assert_eq!(m.degree(ItemId(0)), 3, "backups count toward degree");

        // The retirement decision counts healthy *original* holders —
        // the backup bit is what separates them.
        let originals: Vec<SiteId> = m
            .holders_of(ItemId(0))
            .filter(|&s| !m.is_backup(ItemId(0), s))
            .collect();
        assert_eq!(originals, vec![SiteId(0), SiteId(1)]);

        // Retiring the backup removes the copy and its flag, leaving
        // the originals untouched.
        assert!(m.remove_holder(ItemId(0), SiteId(3)));
        assert_eq!(m.degree(ItemId(0)), 2);
        assert!(!m.is_backup(ItemId(0), SiteId(3)));
        assert_eq!(
            m.holders_of(ItemId(0)).collect::<Vec<_>>(),
            vec![SiteId(0), SiteId(1)]
        );
    }

    #[test]
    fn retiring_one_backup_leaves_others() {
        let mut m = ReplicationMap::round_robin(1, 4, 1);
        m.add_holder(ItemId(0), SiteId(2), true);
        m.add_holder(ItemId(0), SiteId(3), true);
        assert!(m.remove_holder(ItemId(0), SiteId(3)));
        assert!(m.is_backup(ItemId(0), SiteId(2)), "site 2's backup stays");
        assert!(m.holds(ItemId(0), SiteId(2)));
        assert!(!m.holds(ItemId(0), SiteId(3)));
    }

    #[test]
    fn snapshot_preserves_backup_flags_for_recovery() {
        // A recovering site installs the operational sites' map; the
        // backup bits must survive the trip, or it could never retire
        // copies created while it was down.
        let mut m = ReplicationMap::round_robin(3, 4, 2);
        m.add_holder(ItemId(1), SiteId(3), true);
        let (holders, backups) = m.snapshot();

        let mut recovered = ReplicationMap::empty(3, 4);
        recovered.install_snapshot(&holders, &backups);
        assert_eq!(recovered, m);
        assert!(recovered.is_backup(ItemId(1), SiteId(3)));
        assert!(!recovered.is_backup(ItemId(1), SiteId(1)));

        // Retirement on the recovered map behaves identically.
        assert!(recovered.remove_holder(ItemId(1), SiteId(3)));
        assert!(!recovered.is_backup(ItemId(1), SiteId(3)));
    }

    #[test]
    fn readding_retired_backup_restarts_clean() {
        // Retire a backup, then have a later type-3 round re-create it:
        // the add must report "new" again and re-set the flag.
        let mut m = ReplicationMap::round_robin(1, 3, 1);
        m.add_holder(ItemId(0), SiteId(2), true);
        assert!(m.remove_holder(ItemId(0), SiteId(2)));
        assert!(m.add_holder(ItemId(0), SiteId(2), true), "re-add is new");
        assert!(m.is_backup(ItemId(0), SiteId(2)));
    }
}
