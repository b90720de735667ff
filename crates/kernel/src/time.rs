//! The global clock.
//!
//! The paper assumes a global time model where `ℕ` is the range of the global
//! clock and processes cannot read it. In the simulator, [`Time`] advances by
//! one at each step of any process, which yields a total order on steps — the
//! timing `T` of a run.

use std::fmt;

/// A point of the discrete global clock.
///
/// # Examples
///
/// ```
/// use gam_kernel::Time;
/// let t = Time(10);
/// assert!(t < t.next());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// Time zero, before any step is taken.
    pub const ZERO: Time = Time(0);

    /// The end of time: "forever" as the end of a window.
    pub const MAX: Time = Time(u64::MAX);

    /// The instant after `self`.
    #[inline]
    pub fn next(self) -> Time {
        Time(self.0 + 1)
    }

    /// Saturating subtraction of a number of ticks.
    pub fn saturating_sub(self, ticks: u64) -> Time {
        Time(self.0.saturating_sub(ticks))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for Time {
    fn from(v: u64) -> Self {
        Time(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_next() {
        assert!(Time::ZERO < Time(1));
        assert_eq!(Time(4).next(), Time(5));
        assert_eq!(Time(4).saturating_sub(10), Time::ZERO);
        assert_eq!(Time(10).saturating_sub(4), Time(6));
    }

    #[test]
    fn display() {
        assert_eq!(Time(3).to_string(), "t3");
    }
}
