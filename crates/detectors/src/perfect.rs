//! The perfect failure detector `𝒫`.
//!
//! `𝒫` outputs a set of *suspected* processes with:
//!
//! - *(Strong accuracy)* no process is suspected before it crashes;
//! - *(Strong completeness)* eventually every crashed process is suspected
//!   forever by every correct process.
//!
//! Schiper & Pedone's solution to genuine atomic multicast assumes `𝒫`; it is
//! the baseline against which the paper's weaker candidate `μ` is compared
//! (Table 1, row `≤ 𝒫`). `𝒫` is also the weakest *realistic* failure detector
//! for consensus.

use gam_kernel::{FailurePattern, History, ProcessId, ProcessSet, Time};

/// An oracle for the perfect failure detector under a failure pattern, with a
/// configurable detection latency.
///
/// # Examples
///
/// ```
/// use gam_detectors::PerfectOracle;
/// use gam_kernel::*;
///
/// let universe = ProcessSet::first_n(3);
/// let pattern = FailurePattern::from_crashes(universe, [(ProcessId(2), Time(4))]);
/// let p = PerfectOracle::new(pattern, 1);
/// assert!(p.suspected(ProcessId(0), Time(4)).is_empty());
/// assert!(p.suspected(ProcessId(0), Time(5)).contains(ProcessId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct PerfectOracle {
    pattern: FailurePattern,
    delay: u64,
}

impl PerfectOracle {
    /// Creates the oracle with a detection latency of `delay` ticks.
    pub fn new(pattern: FailurePattern, delay: u64) -> Self {
        PerfectOracle { pattern, delay }
    }

    /// `𝒫(p, t)`: the set of suspected processes.
    // gam-lint: allow(U001, reason = "tests/table1.rs row 3 derives Sigma, Omega and gamma from the suspected set through it")
    pub fn suspected(&self, _p: ProcessId, t: Time) -> ProcessSet {
        self.pattern.faulty_at(t.saturating_sub(self.delay))
    }
}

impl History for PerfectOracle {
    type Value = ProcessSet;

    fn sample(&self, p: ProcessId, t: Time) -> ProcessSet {
        self.suspected(p, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_accuracy() {
        let pattern = FailurePattern::from_crashes(
            ProcessSet::first_n(4),
            [(ProcessId(1), Time(5)), (ProcessId(3), Time(9))],
        );
        let p = PerfectOracle::new(pattern.clone(), 3);
        for t in 0..20u64 {
            let s = p.suspected(ProcessId(0), Time(t));
            assert!(s.is_subset(pattern.faulty_at(Time(t))), "t{t}: {s:?}");
        }
    }

    #[test]
    fn strong_completeness() {
        let pattern =
            FailurePattern::from_crashes(ProcessSet::first_n(4), [(ProcessId(1), Time(5))]);
        let p = PerfectOracle::new(pattern.clone(), 3);
        for t in 8..20u64 {
            assert!(p.suspected(ProcessId(0), Time(t)).contains(ProcessId(1)));
        }
    }

    #[test]
    fn zero_delay_tracks_pattern_exactly() {
        let pattern =
            FailurePattern::from_crashes(ProcessSet::first_n(2), [(ProcessId(0), Time(2))]);
        let p = PerfectOracle::new(pattern.clone(), 0);
        for t in 0..6u64 {
            assert_eq!(
                p.suspected(ProcessId(1), Time(t)),
                pattern.faulty_at(Time(t))
            );
        }
    }
}
