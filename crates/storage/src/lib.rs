//! Storage substrate for the miniraid replicated database.
//!
//! The paper's mini-RAID testbed kept every site's database "within the
//! virtual memory of each process" and explicitly factored data I/O out of
//! its measurements. This crate provides that in-memory mode faithfully
//! ([`MemStore`]) and, because a downstream system needs durability, a
//! production path as well: a checksummed REDO log with group commit and
//! instant restart ([`redo`]), snapshots ([`snapshot`]), and a combined
//! [`DurableStore`] that recovers the committed prefix after a crash.
//!
//! Keys are dense `u32` item identifiers (the paper's database is a fixed
//! universe of "frequently referenced data items"); values carry a version
//! number so replication invariants (staleness, convergence) are checkable.

pub mod checksum;
pub mod durable;
pub mod mem;
pub mod redo;
pub mod snapshot;

pub use durable::DurableStore;
pub use mem::MemStore;
pub use redo::{GroupCommitWal, LazyImage, WalCounters};

use serde::{Deserialize, Serialize};

/// A versioned database value.
///
/// `version` is the identifier of the transaction that last wrote the item
/// (0 for the initial load). Replication code uses it to decide which copy
/// of an item is fresher; tests use it to verify staleness tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ItemValue {
    /// Application payload.
    pub data: u64,
    /// Identifier of the last transaction that wrote this item.
    pub version: u64,
}

impl ItemValue {
    /// The value every copy holds before any transaction runs.
    pub const INITIAL: ItemValue = ItemValue {
        data: 0,
        version: 0,
    };

    /// Construct a value.
    pub const fn new(data: u64, version: u64) -> Self {
        ItemValue { data, version }
    }

    /// True if `self` is at least as fresh as `other`.
    pub fn is_at_least(&self, other: &ItemValue) -> bool {
        self.version >= other.version
    }
}

impl Default for ItemValue {
    fn default() -> Self {
        ItemValue::INITIAL
    }
}

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An item identifier outside the table's universe.
    OutOfRange { item: u32, size: u32 },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A log or snapshot frame failed its checksum or length check.
    Corrupt { offset: u64, reason: &'static str },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::OutOfRange { item, size } => {
                write!(f, "item {item} out of range (table size {size})")
            }
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt { offset, reason } => {
                write!(f, "corrupt storage frame at offset {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_value_freshness_is_by_version() {
        let old = ItemValue::new(99, 3);
        let new = ItemValue::new(1, 4);
        assert!(new.is_at_least(&old));
        assert!(!old.is_at_least(&new));
        assert!(old.is_at_least(&old));
    }

    #[test]
    fn initial_value_is_version_zero() {
        assert_eq!(ItemValue::INITIAL.version, 0);
        assert_eq!(ItemValue::default(), ItemValue::INITIAL);
    }

    #[test]
    fn error_display_is_informative() {
        let e = StorageError::OutOfRange { item: 77, size: 50 };
        assert!(e.to_string().contains("77"));
        assert!(e.to_string().contains("50"));
    }
}
