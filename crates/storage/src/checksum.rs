//! CRC-32 (IEEE 802.3 polynomial) used to frame WAL records and snapshots.
//!
//! Implemented locally — the offline dependency allowlist has no CRC crate.
//! Slicing-by-8: eight 256-entry tables let the loop fold eight input
//! bytes per step instead of one, which is what keeps a restart's log scan
//! (every frame's payload is checksummed) cheap per byte. The result is
//! the same IEEE CRC-32 a bytewise table loop computes, so on-disk frames
//! are unchanged.

/// Lookup tables for the reflected IEEE polynomial 0xEDB88320: `TABLES[0]`
/// is the classic bytewise table, and `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Fold `data` into the running (pre-inversion) CRC state.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !update(0xFFFF_FFFF, data)
}

/// Incremental CRC-32 state, for hashing without concatenating buffers.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh computation.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finish and return the checksum.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table loop, one byte per step: the reference the
    /// sliced loop must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 ("check" value from the CRC catalogue).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut inc = Crc32::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.finalize(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(b"abc"), crc32(b"abcc"));
    }

    proptest! {
        /// Every length from empty to eight whole blocks, so each tail
        /// length meets each block count.
        #[test]
        fn sliced_matches_bytewise_at_every_length(data in collection::vec(any::<u8>(), 64..65)) {
            for len in 0..=data.len() {
                prop_assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {}", len);
            }
        }

        /// Feeding the same bytes through `Crc32::update` in random
        /// pieces (unaligned to the 8-byte blocks) changes nothing.
        #[test]
        fn random_splits_match_bytewise(
            data in collection::vec(any::<u8>(), 0..300),
            cuts in collection::vec(any::<u16>(), 0..5)
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| *c as usize % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut inc = Crc32::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                inc.update(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(inc.finalize(), bytewise(&data));
        }
    }
}
