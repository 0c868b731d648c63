//! Virtual time, in microseconds.

/// A point in virtual time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(pub u64);

impl VTime {
    /// Simulation start.
    pub const ZERO: VTime = VTime(0);

    /// Advance by `micros`.
    pub fn plus(self, micros: u64) -> VTime {
        VTime(self.0 + micros)
    }

    /// Microseconds since another (earlier) instant.
    pub fn since(self, earlier: VTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Render as fractional milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1000.0
    }
}

impl std::fmt::Display for VTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = VTime::ZERO.plus(1500);
        assert_eq!(t.0, 1500);
        assert_eq!(t.since(VTime(500)), 1000);
        assert_eq!(VTime(10).since(VTime(20)), 0, "saturating");
        assert!((t.as_ms() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn display_in_ms() {
        assert_eq!(VTime(9000).to_string(), "9.000 ms");
    }
}
