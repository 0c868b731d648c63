//! Fail-locks (paper §1.1, §1.2).
//!
//! A fail-lock on copy *(x, k)* records that item *x* was updated while
//! site *k* was unavailable, so site *k*'s copy is out of date. Fail-locks
//! are fully replicated: every operational site maintains the complete
//! table on behalf of all sites. The paper implements the table as one
//! bitmap per data item with one bit per site — so do we (`u64` per item,
//! supporting up to 64 sites, which "allowed the fail-lock operations to
//! be performed very quickly").

use crate::ids::{ItemId, SiteId};
use crate::packed::{bits_of, PackedSiteTable};
use crate::session::SessionVector;

/// The replicated fail-lock table of one site.
///
/// ```
/// use miniraid_core::faillock::FailLockTable;
/// use miniraid_core::session::SessionVector;
/// use miniraid_core::{ItemId, SiteId};
///
/// let mut table = FailLockTable::new(50, 4);
/// let mut vector = SessionVector::new(4);
/// vector.mark_down(SiteId(3));
///
/// // A commit of item 7 while site 3 is down marks its copy stale.
/// table.maintain_on_commit(ItemId(7), &vector);
/// assert!(table.is_locked(ItemId(7), SiteId(3)));
/// assert_eq!(table.count_locked_for(SiteId(3)), 1);
///
/// // A copier refresh (or a later commit with site 3 up) clears it.
/// table.clear(ItemId(7), SiteId(3));
/// assert_eq!(table.total_set(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FailLockTable {
    /// `bits[item] & (1 << site)` set ⇔ fail-lock set for `site` on `item`.
    bits: Vec<u64>,
    n_sites: u8,
    /// `stale[site]` = number of items fail-locked for `site`. Always
    /// equal to a recount of `bits`: every word written goes through
    /// [`FailLockTable::store`] (or arrives with its own counts, in
    /// [`FailLockTable::install_snapshot`]), so the counts cost what
    /// was flipped, never what is stored.
    stale: [u32; MAX_SITES],
    /// `low[site]`: no item below it is fail-locked for `site`. A lower
    /// bound, not the exact minimum — `store` lowers it when a bit is
    /// set beneath it, [`FailLockTable::advance_low_water`] raises it
    /// past cleared items.
    low: [u32; MAX_SITES],
}

/// Width of the per-item bitmap word.
const MAX_SITES: usize = 64;

/// Two tables are equal when they lock the same copies; the low-water
/// marks are a search hint and take no part.
impl PartialEq for FailLockTable {
    fn eq(&self, other: &Self) -> bool {
        self.n_sites == other.n_sites && self.bits == other.bits
    }
}

impl Eq for FailLockTable {}

/// Counts returned by commit-time fail-lock maintenance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainCounts {
    /// Fail-lock bits newly set (for down sites).
    pub set: u32,
    /// Fail-lock bits actually cleared (for up sites).
    pub cleared: u32,
}

impl FailLockTable {
    /// An all-clear table for `n_items` items and `n_sites` sites.
    ///
    /// # Panics
    /// Panics if `n_sites > 64` (the bitmap width).
    pub fn new(n_items: u32, n_sites: u8) -> Self {
        assert!(
            n_sites as usize <= MAX_SITES,
            "fail-lock bitmaps support ≤64 sites"
        );
        FailLockTable {
            bits: vec![0; n_items as usize],
            n_sites,
            stale: [0; MAX_SITES],
            low: [n_items; MAX_SITES],
        }
    }

    /// Replace one item's word — the only place a single word is
    /// written — and account every flipped bit in the per-site counts
    /// and low-water marks. Returns the previous word.
    #[inline]
    fn store(&mut self, index: usize, after: u64) -> u64 {
        let before = std::mem::replace(&mut self.bits[index], after);
        for site in bits_of(before ^ after).map(usize::from) {
            if after >> site & 1 != 0 {
                self.stale[site] += 1;
                self.low[site] = self.low[site].min(index as u32);
            } else {
                self.stale[site] -= 1;
            }
        }
        before
    }

    /// Number of items covered.
    pub fn n_items(&self) -> u32 {
        self.bits.len() as u32
    }

    /// Number of sites covered.
    pub fn n_sites(&self) -> u8 {
        self.n_sites
    }

    /// Set the fail-lock for `site` on `item`. Returns true if the bit
    /// was not already set.
    pub fn set(&mut self, item: ItemId, site: SiteId) -> bool {
        let mask = 1u64 << site.0;
        let before = self.store(item.index(), self.bits[item.index()] | mask);
        before & mask == 0
    }

    /// Clear the fail-lock for `site` on `item`. Returns true if the bit
    /// was set.
    pub fn clear(&mut self, item: ItemId, site: SiteId) -> bool {
        let mask = 1u64 << site.0;
        let before = self.store(item.index(), self.bits[item.index()] & !mask);
        before & mask != 0
    }

    /// Is the fail-lock for `site` set on `item` (i.e. is site's copy of
    /// the item out of date)?
    pub fn is_locked(&self, item: ItemId, site: SiteId) -> bool {
        self.bits[item.index()] & (1u64 << site.0) != 0
    }

    /// Any fail-lock set on `item`?
    pub fn any_locked(&self, item: ItemId) -> bool {
        self.bits[item.index()] != 0
    }

    /// Raw bitmap word of one item (bit per site) — persisted by durable
    /// deployments.
    pub fn word(&self, item: ItemId) -> u64 {
        self.bits[item.index()]
    }

    /// Every item's bitmap word, indexed by item — what a durable
    /// checkpoint restates.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Install one raw bitmap word (durable restart preload).
    pub fn set_word(&mut self, item: ItemId, word: u64) {
        self.store(item.index(), word);
    }

    /// Sites whose copy of `item` is out of date.
    pub fn locked_sites(&self, item: ItemId) -> impl Iterator<Item = SiteId> + '_ {
        let word = self.bits[item.index()];
        (0..self.n_sites)
            .filter(move |s| word & (1u64 << s) != 0)
            .map(SiteId)
    }

    /// Items whose copy at `site` is out of date, in id order (a scan of
    /// the whole table; the batch copier walks
    /// [`FailLockTable::locked_from_low_water`] instead).
    pub fn items_locked_for(&self, site: SiteId) -> Vec<ItemId> {
        self.locked_from(site, 0).collect()
    }

    /// Items fail-locked for `site` from its low-water mark up, in id
    /// order — exactly [`FailLockTable::items_locked_for`], found without
    /// visiting the items below the mark.
    pub fn locked_from_low_water(&self, site: SiteId) -> impl Iterator<Item = ItemId> + '_ {
        self.locked_from(site, self.low[site.index()] as usize)
    }

    fn locked_from(&self, site: SiteId, start: usize) -> impl Iterator<Item = ItemId> + '_ {
        let mask = 1u64 << site.0;
        self.bits[start..]
            .iter()
            .enumerate()
            .filter(move |(_, w)| **w & mask != 0)
            .map(move |(i, _)| ItemId((start + i) as u32))
    }

    /// Raise `site`'s low-water mark past the items no longer locked for
    /// it. Amortised over a recovery this visits each item once.
    pub fn advance_low_water(&mut self, site: SiteId) {
        let mask = 1u64 << site.0;
        let low = &mut self.low[site.index()];
        while self.bits.get(*low as usize).is_some_and(|w| w & mask == 0) {
            *low += 1;
        }
    }

    /// Number of items fail-locked for `site` — the y-axis of the paper's
    /// Figures 1–3 ("number of fail-locks set").
    pub fn count_locked_for(&self, site: SiteId) -> u32 {
        self.stale[site.index()]
    }

    /// Total fail-lock bits set across all items and sites.
    pub fn total_set(&self) -> u32 {
        self.stale.iter().sum()
    }

    /// Commit-time maintenance for one written item (paper §1.2):
    /// examining the nominal session vector, set the bit of every down
    /// site and clear the bit of every up site. (The paper notes the
    /// unconditional re-clear for operational sites was *more* efficient
    /// than a conditional implementation; with bitmaps it is two masks.)
    pub fn maintain_on_commit(&mut self, item: ItemId, vector: &SessionVector) -> MaintainCounts {
        let all_mask = if self.n_sites == 64 {
            u64::MAX
        } else {
            (1u64 << self.n_sites) - 1
        };
        self.maintain_on_commit_masked(item, vector, all_mask)
    }

    /// Like [`FailLockTable::maintain_on_commit`], restricted to the sites
    /// in `holder_mask` — for partially replicated databases, where a
    /// fail-lock is meaningful only for sites that hold a copy.
    pub fn maintain_on_commit_masked(
        &mut self,
        item: ItemId,
        vector: &SessionVector,
        holder_mask: u64,
    ) -> MaintainCounts {
        let mut up_mask = 0u64;
        for s in 0..self.n_sites {
            if vector.is_up(SiteId(s)) {
                up_mask |= 1u64 << s;
            }
        }
        self.maintain_on_commit_bits(item, up_mask, holder_mask)
    }

    /// Commit-time maintenance from a precomputed operational-site
    /// bitmap — the coordinator's, shipped in the `CopyUpdate`. All
    /// participants of a commit must apply the identical table update
    /// (the fail-lock table is replicated state), so the mask comes
    /// from the one site that chose the participant set, not from each
    /// participant's possibly-divergent local vector.
    pub fn maintain_on_commit_bits(
        &mut self,
        item: ItemId,
        up_mask: u64,
        holder_mask: u64,
    ) -> MaintainCounts {
        let down_mask = holder_mask & !up_mask;
        let clear_mask = holder_mask & up_mask;
        let after = (self.bits[item.index()] | down_mask) & !clear_mask;
        let before = self.store(item.index(), after);
        MaintainCounts {
            set: (after & !before).count_ones(),
            cleared: (before & !after).count_ones(),
        }
    }

    /// The table packed for transfer — shipped to a recovering site
    /// during a type-1 control transaction (fail-locks are fully
    /// replicated).
    pub fn snapshot(&self) -> PackedSiteTable {
        PackedSiteTable::pack(&self.bits)
    }

    /// Install a snapshot received during recovery, replacing local state
    /// (one pass over the table; the counts come from the snapshot's own
    /// sets, not from a recount).
    ///
    /// Correctness relies on the system invariant that at least one site
    /// was operational at every instant: the operational sites' tables are
    /// then authoritative and identical at quiescent points.
    pub fn install_snapshot(&mut self, snapshot: &PackedSiteTable) {
        snapshot.unpack_into(&mut self.bits);
        self.stale = [0; MAX_SITES];
        self.low = [self.n_items(); MAX_SITES];
        for (site, count, first) in snapshot.site_counts() {
            self.stale[site as usize] = count;
            self.low[site as usize] = first;
        }
    }

    /// Merge a snapshot received during recovery into the local table by
    /// set union.
    ///
    /// A recovering site cannot verify that its chosen responder holds
    /// the operational group's authoritative table — the responder may
    /// itself have been falsely excluded and not know it, and its table
    /// may be missing bits the local write-ahead log preserved. The two
    /// error directions are not symmetric: a spurious bit only forces a
    /// redundant copier refresh of a copy that was already fresh, while
    /// a dropped bit lets a stale copy masquerade as current and lose a
    /// committed write. Union is therefore the safe merge.
    pub fn union_snapshot(&mut self, snapshot: &PackedSiteTable) {
        assert_eq!(snapshot.items(), self.n_items(), "snapshot size mismatch");
        for (index, word) in snapshot.words().enumerate() {
            // Identical responses are the failure-free case: write only
            // the words that gain a bit.
            if word & !self.bits[index] != 0 {
                self.store(index, self.bits[index] | word);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_query_roundtrip() {
        let mut t = FailLockTable::new(10, 4);
        assert!(!t.is_locked(ItemId(3), SiteId(2)));
        assert!(t.set(ItemId(3), SiteId(2)));
        assert!(!t.set(ItemId(3), SiteId(2)), "second set is a no-op");
        assert!(t.is_locked(ItemId(3), SiteId(2)));
        assert!(t.any_locked(ItemId(3)));
        assert!(t.clear(ItemId(3), SiteId(2)));
        assert!(!t.clear(ItemId(3), SiteId(2)), "second clear is a no-op");
        assert!(!t.any_locked(ItemId(3)));
    }

    #[test]
    fn counting_and_listing() {
        let mut t = FailLockTable::new(8, 4);
        t.set(ItemId(0), SiteId(1));
        t.set(ItemId(5), SiteId(1));
        t.set(ItemId(5), SiteId(3));
        assert_eq!(t.count_locked_for(SiteId(1)), 2);
        assert_eq!(t.count_locked_for(SiteId(3)), 1);
        assert_eq!(t.count_locked_for(SiteId(0)), 0);
        assert_eq!(t.items_locked_for(SiteId(1)), vec![ItemId(0), ItemId(5)]);
        assert_eq!(
            t.locked_sites(ItemId(5)).collect::<Vec<_>>(),
            vec![SiteId(1), SiteId(3)]
        );
        assert_eq!(t.total_set(), 3);
    }

    #[test]
    fn maintain_sets_down_and_clears_up() {
        let mut t = FailLockTable::new(4, 4);
        let mut v = SessionVector::new(4);
        v.mark_down(SiteId(0));
        v.mark_down(SiteId(3));
        // Pre-set a stale bit for an up site: must be cleared.
        t.set(ItemId(2), SiteId(1));
        let counts = t.maintain_on_commit(ItemId(2), &v);
        assert_eq!(counts.set, 2); // sites 0 and 3
        assert_eq!(counts.cleared, 1); // site 1
        assert!(t.is_locked(ItemId(2), SiteId(0)));
        assert!(t.is_locked(ItemId(2), SiteId(3)));
        assert!(!t.is_locked(ItemId(2), SiteId(1)));
        assert!(!t.is_locked(ItemId(2), SiteId(2)));
    }

    #[test]
    fn maintain_with_all_up_is_idempotent_clear() {
        let mut t = FailLockTable::new(2, 3);
        let v = SessionVector::new(3);
        let counts = t.maintain_on_commit(ItemId(0), &v);
        assert_eq!(counts, MaintainCounts { set: 0, cleared: 0 });
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut a = FailLockTable::new(6, 2);
        a.set(ItemId(1), SiteId(0));
        a.set(ItemId(4), SiteId(1));
        let mut b = FailLockTable::new(6, 2);
        b.set(ItemId(0), SiteId(0)); // will be overwritten
        b.install_snapshot(&a.snapshot());
        assert_eq!(a, b);
    }

    #[test]
    fn union_keeps_local_bits_and_adds_remote_ones() {
        let mut mine = FailLockTable::new(6, 2);
        mine.set(ItemId(1), SiteId(0)); // e.g. restored from the WAL
        let mut theirs = FailLockTable::new(6, 2);
        theirs.set(ItemId(4), SiteId(1));
        mine.union_snapshot(&theirs.snapshot());
        assert!(mine.is_locked(ItemId(1), SiteId(0)), "local bit destroyed");
        assert!(mine.is_locked(ItemId(4), SiteId(1)), "remote bit missed");
        assert_eq!(mine.total_set(), 2);
    }

    #[test]
    #[should_panic(expected = "≤64 sites")]
    fn more_than_64_sites_panics() {
        let _ = FailLockTable::new(1, 65);
    }

    #[test]
    fn sixty_four_sites_supported() {
        let mut t = FailLockTable::new(1, 64);
        let mut v = SessionVector::new(64);
        for s in 0..63 {
            v.mark_down(SiteId(s));
        }
        let counts = t.maintain_on_commit(ItemId(0), &v);
        assert_eq!(counts.set, 63);
        assert_eq!(t.count_locked_for(SiteId(63)), 0);
        assert!(t.is_locked(ItemId(0), SiteId(62)));
    }
}
