//! Transfer form of a per-item table of site bitmaps.
//!
//! The fail-lock table and the replication map keep one `u64` per item,
//! one bit per site — the layout the paper chose because it makes the
//! per-commit operations fast. A type-1 control transaction ships three
//! such tables to the recovering site, and at that moment the layout is
//! the wrong one: almost every word is the same (all clear, or every
//! site a holder) and the ones that differ do so in one bit. A
//! [`PackedSiteTable`] holds the same table site-major, in space
//! proportional to what varies: the bits every word has, plus one
//! `items`-bit set per site whose bit some words have and some do not.

/// A per-item table of site bitmaps, packed for state transfer.
///
/// ```
/// use miniraid_core::packed::PackedSiteTable;
///
/// // Every word has the bits of sites 0..=2; two also have site 9's.
/// let words = [0b111, 0b111 | 1 << 9, 0b111, 0b111 | 1 << 9];
/// let packed = PackedSiteTable::pack(&words);
/// assert_eq!(packed.all(), 0b111);
/// assert_eq!(packed.sets(), &[(9, vec![0b1010])]);
/// assert!(packed.words().eq(words));
/// ```
///
/// The value lives behind one pointer: it rides inside
/// [`crate::messages::Message`], and every message moved through the
/// engine and the transports pays for the size of the largest variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSiteTable(Box<Parts>);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Parts {
    items: u32,
    /// Site bits set in every word.
    all: u64,
    /// `(site, set)` for each site whose bit is set in some words but
    /// not all, ascending by site: bit `i % 64` of `set[i / 64]` ⇔ item
    /// `i` has the site's bit. No bit is set past the last item.
    sets: Vec<(u8, Vec<u64>)>,
}

/// Set bits of `word`, lowest first.
pub fn bits_of(mut word: u64) -> impl Iterator<Item = u8> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as u8;
            word &= word - 1;
            bit
        })
    })
}

impl PackedSiteTable {
    /// Pack a word-per-item table.
    pub fn pack(words: &[u64]) -> Self {
        let (some, all) = words
            .iter()
            .fold((0, u64::MAX), |(some, all), w| (some | w, all & w));
        let all = all & some; // an empty table has no constant bits
        let sets = bits_of(some & !all)
            .map(|site| {
                let set = words
                    .chunks(64)
                    .map(|chunk| {
                        chunk
                            .iter()
                            .enumerate()
                            .fold(0, |set, (i, w)| set | (w >> site & 1) << i)
                    })
                    .collect();
                (site, set)
            })
            .collect();
        let items = words.len() as u32;
        PackedSiteTable(Box::new(Parts { items, all, sets }))
    }

    /// Assemble a table from its parts (a decoded frame), or `None` if
    /// they are not what [`PackedSiteTable::pack`] could have produced:
    /// sites must ascend, stay below 64 and out of `all`, and every set
    /// must span exactly `items` bits.
    pub fn from_parts(items: u32, all: u64, sets: Vec<(u8, Vec<u64>)>) -> Option<Self> {
        let words = (items as usize).div_ceil(64);
        let tail = items % 64;
        let mut above = 0u8; // sites must be ≥ this
        for (site, set) in &sets {
            let well_formed = *site >= above
                && *site < 64
                && all >> site & 1 == 0
                && set.len() == words
                && (tail == 0 || set.last().is_none_or(|last| last >> tail == 0));
            if !well_formed {
                return None;
            }
            above = site + 1;
        }
        Some(PackedSiteTable(Box::new(Parts { items, all, sets })))
    }

    /// Number of items covered.
    pub fn items(&self) -> u32 {
        self.0.items
    }

    /// Site bits set in every word.
    pub fn all(&self) -> u64 {
        self.0.all
    }

    /// The varying sites and their item sets, ascending by site.
    pub fn sets(&self) -> &[(u8, Vec<u64>)] {
        &self.0.sets
    }

    /// The table's words, in item order.
    pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
        let Parts { items, all, sets } = &*self.0;
        (0..*items as usize).map(move |i| {
            sets.iter().fold(*all, |word, (site, set)| {
                word | (set[i / 64] >> (i % 64) & 1) << site
            })
        })
    }

    /// Write the table back out, one word per item.
    ///
    /// # Panics
    /// Panics if `words` does not cover exactly [`PackedSiteTable::items`].
    pub fn unpack_into(&self, words: &mut [u64]) {
        assert_eq!(words.len(), self.items() as usize, "table size mismatch");
        for (slot, word) in words.iter_mut().zip(self.words()) {
            *slot = word;
        }
    }

    /// Number of items whose word has each site's bit, and the first
    /// such item (`items` if none), for every site with a bit anywhere.
    pub fn site_counts(&self) -> impl Iterator<Item = (u8, u32, u32)> + '_ {
        let Parts { items, all, sets } = &*self.0;
        let constant = bits_of(*all).map(|site| (site, *items, 0));
        let varying = sets.iter().map(|(site, set)| {
            let count = set.iter().map(|w| w.count_ones()).sum();
            let first = set
                .iter()
                .position(|w| *w != 0)
                .map_or(*items, |i| i as u32 * 64 + set[i].trailing_zeros());
            (*site, count, first)
        });
        constant.chain(varying)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips_and_stays_small() {
        let mut words = vec![0b111u64; 1000];
        for i in (0..1000).step_by(3) {
            words[i] |= 1 << 40;
        }
        let packed = PackedSiteTable::pack(&words);
        assert_eq!(packed.items(), 1000);
        assert_eq!(packed.all(), 0b111);
        assert_eq!(packed.sets().len(), 1);
        assert_eq!(packed.sets()[0].1.len(), 16);
        assert!(packed.words().eq(words.iter().copied()));
        let mut unpacked = vec![u64::MAX; 1000];
        packed.unpack_into(&mut unpacked);
        assert_eq!(unpacked, words);
        assert_eq!(
            packed.site_counts().collect::<Vec<_>>(),
            vec![(0, 1000, 0), (1, 1000, 0), (2, 1000, 0), (40, 334, 0)]
        );
        let rebuilt =
            PackedSiteTable::from_parts(packed.items(), packed.all(), packed.sets().to_vec());
        assert_eq!(rebuilt, Some(packed));
    }

    #[test]
    fn empty_and_uniform_tables_have_no_sets() {
        assert_eq!(PackedSiteTable::pack(&[]).words().count(), 0);
        let clear = PackedSiteTable::pack(&[0; 70]);
        assert_eq!((clear.all(), clear.sets().len()), (0, 0));
        assert_eq!(clear.site_counts().count(), 0);
        assert!(clear.words().eq([0; 70]));
    }

    #[test]
    fn malformed_parts_are_refused() {
        let ok = |all, sets| PackedSiteTable::from_parts(70, all, sets).is_some();
        assert!(ok(0b10, vec![(0, vec![1, 1 << 5])]));
        assert!(
            !ok(0b01, vec![(0, vec![1, 1])]),
            "site both constant and varying"
        );
        assert!(!ok(0, vec![(0, vec![1, 1 << 6])]), "bit past the last item");
        assert!(!ok(0, vec![(0, vec![1])]), "set too short");
        assert!(!ok(0, vec![(0, vec![1, 1, 1])]), "set too long");
        assert!(!ok(0, vec![(64, vec![1, 1])]), "site out of range");
        assert!(
            !ok(0, vec![(3, vec![1, 1]), (3, vec![1, 1])]),
            "site repeated"
        );
        assert!(
            !ok(0, vec![(3, vec![1, 1]), (2, vec![1, 1])]),
            "sites descend"
        );
    }
}
