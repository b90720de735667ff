//! The indicator failure detector `1^P` (§6.1).
//!
//! `1^P` returns a boolean that indicates whether all processes of `P` have
//! crashed:
//!
//! - *(Accuracy)* if `1^P(p, t)` is true then `P ⊆ F(t)`;
//! - *(Completeness)* if `P ⊆ F(t)` then eventually `1^P` is true forever at
//!   every correct process.
//!
//! The paper writes `1^{g∩h}` for the indicator of the intersection `g ∩ h`
//! restricted to the processes of `g ∪ h`; for a process *inside* the
//! monitored set the output carries no information (returning always `true`
//! there would be valid — such a process can never observe its own crash),
//! and [`IndicatorMode::TrueInside`] exercises exactly that degenerate but
//! valid behaviour. Accuracy is only meaningful at processes outside `P`.

use gam_kernel::{FailurePattern, History, ProcessId, ProcessSet, Time};

/// How the oracle answers queries from processes inside the monitored set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndicatorMode {
    /// Answer truthfully everywhere.
    #[default]
    Truthful,
    /// Answer `true` unconditionally at processes of the monitored set
    /// (valid per the remark of §6.1, since they can never all have crashed
    /// while one of them is querying).
    TrueInside,
}

/// An oracle for `1^P` restricted to `scope` (the paper's `1^{g∩h}` has
/// `monitored = g ∩ h` and `scope = g ∪ h`).
///
/// # Examples
///
/// ```
/// use gam_detectors::{IndicatorOracle, IndicatorMode};
/// use gam_kernel::*;
///
/// let universe = ProcessSet::first_n(4);
/// let monitored = ProcessSet::from_iter([1u32, 2]);
/// let pattern = FailurePattern::from_crashes(
///     universe,
///     [(ProcessId(1), Time(3)), (ProcessId(2), Time(6))],
/// );
/// let ind = IndicatorOracle::new(monitored, universe, pattern, 0, IndicatorMode::Truthful);
/// assert_eq!(ind.indicates(ProcessId(0), Time(5)), Some(false));
/// assert_eq!(ind.indicates(ProcessId(0), Time(6)), Some(true));
/// ```
#[derive(Debug, Clone)]
pub struct IndicatorOracle {
    monitored: ProcessSet,
    scope: ProcessSet,
    pattern: FailurePattern,
    delay: u64,
    mode: IndicatorMode,
}

impl IndicatorOracle {
    /// Creates the oracle for `1^monitored` restricted to `scope`, with a
    /// detection latency of `delay` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `monitored` is empty.
    pub fn new(
        monitored: ProcessSet,
        scope: ProcessSet,
        pattern: FailurePattern,
        delay: u64,
        mode: IndicatorMode,
    ) -> Self {
        assert!(!monitored.is_empty(), "1^P requires a non-empty P");
        IndicatorOracle {
            monitored,
            scope,
            pattern,
            delay,
            mode,
        }
    }

    /// The monitored set `P`.
    pub fn monitored(&self) -> ProcessSet {
        self.monitored
    }

    /// The instant from which a truthful query answers `true`: the crash
    /// of the last monitored process plus the detection latency, or `None`
    /// if some monitored process is correct. A function of the failure
    /// pattern alone, so callers that query on every guard evaluation can
    /// compute it once and compare integers.
    pub fn fires_at(&self) -> Option<Time> {
        self.pattern
            .set_crash_time(self.monitored)
            .map(|c| Time(c.0.saturating_add(self.delay)))
    }

    /// `1^P(p, t)`, or `None` (⊥) outside the scope.
    pub fn indicates(&self, p: ProcessId, t: Time) -> Option<bool> {
        if !self.scope.contains(p) {
            return None;
        }
        if self.mode == IndicatorMode::TrueInside && self.monitored.contains(p) {
            return Some(true);
        }
        Some(self.fires_at().is_some_and(|at| at <= t))
    }
}

impl History for IndicatorOracle {
    type Value = Option<bool>;

    fn sample(&self, p: ProcessId, t: Time) -> Option<bool> {
        self.indicates(p, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(delay: u64, mode: IndicatorMode) -> (IndicatorOracle, FailurePattern) {
        let universe = ProcessSet::first_n(5);
        let monitored = ProcessSet::from_iter([1u32, 2]);
        let pattern = FailurePattern::from_crashes(
            universe,
            [(ProcessId(1), Time(3)), (ProcessId(2), Time(6))],
        );
        (
            IndicatorOracle::new(monitored, universe, pattern.clone(), delay, mode),
            pattern,
        )
    }

    #[test]
    fn accuracy_true_implies_all_crashed() {
        let (ind, pattern) = setup(0, IndicatorMode::Truthful);
        for t in 0..15u64 {
            for p in pattern.universe() {
                if ind.indicates(p, Time(t)) == Some(true) {
                    assert!(pattern.set_faulty_at(ind.monitored(), Time(t)));
                }
            }
        }
    }

    #[test]
    fn completeness_eventually_true() {
        let (ind, _) = setup(2, IndicatorMode::Truthful);
        assert_eq!(ind.indicates(ProcessId(0), Time(7)), Some(false));
        for t in 8..20u64 {
            assert_eq!(ind.indicates(ProcessId(0), Time(t)), Some(true));
        }
    }

    #[test]
    fn true_inside_mode_is_degenerate_but_scoped() {
        let (ind, _) = setup(0, IndicatorMode::TrueInside);
        // Inside the monitored set: constant true.
        assert_eq!(ind.indicates(ProcessId(1), Time(0)), Some(true));
        // Outside: truthful.
        assert_eq!(ind.indicates(ProcessId(0), Time(0)), Some(false));
        assert_eq!(ind.indicates(ProcessId(0), Time(6)), Some(true));
    }

    #[test]
    fn bot_outside_scope() {
        let universe = ProcessSet::first_n(5);
        let monitored = ProcessSet::from_iter([1u32]);
        let scope = ProcessSet::from_iter([0u32, 1, 2]);
        let ind = IndicatorOracle::new(
            monitored,
            scope,
            FailurePattern::all_correct(universe),
            0,
            IndicatorMode::Truthful,
        );
        assert_eq!(ind.indicates(ProcessId(4), Time(0)), None);
        assert_eq!(ind.indicates(ProcessId(0), Time(0)), Some(false));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_monitored_set() {
        IndicatorOracle::new(
            ProcessSet::EMPTY,
            ProcessSet::first_n(2),
            FailurePattern::all_correct(ProcessSet::first_n(2)),
            0,
            IndicatorMode::Truthful,
        );
    }
}
