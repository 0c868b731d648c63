//! Full-table snapshots: a checkpointing companion to the WAL.
//!
//! Format: `[magic u32][item_count u32][last_txn u64][items...][crc u32]`
//! where each item is `[data u64][version u64]` and the CRC covers
//! everything before it. All integers little-endian.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut, BytesMut};

use crate::checksum::crc32;
use crate::mem::MemStore;
use crate::{ItemValue, Result, StorageError};

const MAGIC: u32 = 0x4D52_5344; // "MRSD"

/// A point-in-time copy of a site's table plus the covering transaction id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Table contents at snapshot time.
    pub store: MemStore,
    /// Highest transaction id whose effects the snapshot includes.
    pub last_txn: u64,
}

impl Snapshot {
    /// Bytes a snapshot of an `items`-item table takes on disk.
    pub const fn encoded_len(items: u32) -> u64 {
        20 + 16 * items as u64
    }

    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(Snapshot::encoded_len(self.store.size()) as usize);
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(self.store.size());
        buf.put_u64_le(self.last_txn);
        for (_, v) in self.store.iter() {
            buf.put_u64_le(v.data);
            buf.put_u64_le(v.version);
        }
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.to_vec()
    }

    /// Deserialize, verifying magic and checksum.
    pub fn decode(raw: &[u8]) -> Result<Snapshot> {
        let corrupt = |reason| StorageError::Corrupt { offset: 0, reason };
        if raw.len() < 20 {
            return Err(corrupt("snapshot too short"));
        }
        let (body, tail) = raw.split_at(raw.len() - 4);
        let stored_crc = u32::from_le_bytes(tail.try_into().unwrap());
        if crc32(body) != stored_crc {
            return Err(corrupt("snapshot checksum mismatch"));
        }
        let mut body = body;
        if body.get_u32_le() != MAGIC {
            return Err(corrupt("bad snapshot magic"));
        }
        let count = body.get_u32_le();
        let last_txn = body.get_u64_le();
        if body.remaining() != count as usize * 16 {
            return Err(corrupt("snapshot length mismatch"));
        }
        let mut store = MemStore::new(count);
        for i in 0..count {
            let data = body.get_u64_le();
            let version = body.get_u64_le();
            store.put(i, ItemValue::new(data, version))?;
        }
        Ok(Snapshot { store, last_txn })
    }

    /// Write atomically and durably: to a temp file, fsync, rename over
    /// `path`, fsync the directory. Returns the bytes written.
    pub fn write_to(&self, path: &Path) -> Result<u64> {
        let tmp = path.with_extension("tmp");
        let mut f = File::create(&tmp)?;
        let bytes = self.encode();
        f.write_all(&bytes)?;
        f.sync_data()?;
        std::fs::rename(&tmp, path)?;
        // A bare file name's parent is "", which names no directory.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        sync_dir(dir.unwrap_or(Path::new(".")))?;
        Ok(bytes.len() as u64)
    }

    /// Load from `path`; `Ok(None)` if no snapshot exists yet.
    pub fn read_from(path: &Path) -> Result<Option<Snapshot>> {
        let mut f = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut raw = Vec::new();
        f.read_to_end(&mut raw)?;
        Snapshot::decode(&raw).map(Some)
    }
}

/// Make a directory's entries durable: the renames, creations and
/// unlinks done in it so far survive a crash.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut store = MemStore::new(8);
        store.put(2, ItemValue::new(11, 4)).unwrap();
        store.put(7, ItemValue::new(99, 6)).unwrap();
        Snapshot { store, last_txn: 6 }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let mut raw = sample().encode();
        raw[10] ^= 0x55;
        assert!(Snapshot::decode(&raw).is_err());
    }

    #[test]
    fn short_buffer_is_rejected() {
        assert!(Snapshot::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut raw = sample().encode();
        raw[0] ^= 0xFF;
        // CRC still matches body? No — flipping magic breaks CRC first.
        assert!(Snapshot::decode(&raw).is_err());
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let mut path = std::env::temp_dir();
        path.push(format!("miniraid-snap-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert!(Snapshot::read_from(&path).unwrap().is_none());
        let snap = sample();
        snap.write_to(&path).unwrap();
        assert_eq!(Snapshot::read_from(&path).unwrap().unwrap(), snap);
        std::fs::remove_file(&path).unwrap();
    }
}
