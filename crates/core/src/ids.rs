//! Strongly-typed identifiers used throughout the protocol.

/// Identifier of a database site. The paper's systems have 2 or 4 sites;
/// the fail-lock bitmap representation supports up to 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u8);

impl SiteId {
    /// Index into per-site arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site {}", self.0)
    }
}

/// Identifier of a logical data item (dense, `0..database_size`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

impl ItemId {
    /// Index into per-item arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Globally unique, monotonically increasing transaction identifier,
/// assigned by the managing site. Doubles as the version stamp of the
/// values the transaction writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A session number identifies one continuous period during which a site
/// is operational (paper §1.1). It is incremented each time the site
/// initiates recovery, so comparing session numbers detects status changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionNumber(pub u64);

impl SessionNumber {
    /// The session every site starts in.
    pub const FIRST: SessionNumber = SessionNumber(1);

    /// The next session (used when a site begins recovery).
    pub fn next(self) -> SessionNumber {
        SessionNumber(self.0 + 1)
    }
}

impl std::fmt::Display for SessionNumber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier for an in-flight copy request (copier transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_numbers_advance() {
        assert_eq!(SessionNumber::FIRST.next(), SessionNumber(2));
        assert!(SessionNumber(3) > SessionNumber(2));
    }

    #[test]
    fn ids_order_and_display() {
        assert!(SiteId(0) < SiteId(1));
        assert_eq!(SiteId(2).to_string(), "site 2");
        assert_eq!(ItemId(7).to_string(), "x7");
        assert_eq!(TxnId(12).to_string(), "T12");
        assert_eq!(SessionNumber(4).to_string(), "s4");
        assert_eq!(ItemId(3).index(), 3);
        assert_eq!(SiteId(3).index(), 3);
    }
}
