//! The quorum failure detector `Σ` and its set-restricted form `Σ_P` (§3).
//!
//! `Σ` captures the minimal synchrony needed to implement an atomic register.
//! Queried at `(p, t)` it returns a non-empty set of processes such that
//! any two returned quorums intersect (*intersection*) and, at correct
//! processes, eventually only correct processes are returned (*liveness*).

use gam_kernel::{FailurePattern, History, ProcessId, ProcessSet, Time};

/// How the oracle behaves before it stabilises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SigmaMode {
    /// Return the set of not-yet-crashed processes of the scope. Stabilises
    /// as soon as the last faulty process has crashed.
    #[default]
    Alive,
    /// Return the whole scope until `stabilize_at`, then the alive set. This
    /// is the *laziest* valid history: it maximises how long faulty
    /// processes linger in quorums.
    LazyUntil(Time),
    /// Constantly return the singleton of the minimum *correct* process of
    /// the scope — the smallest valid history of the class (any two outputs
    /// trivially intersect). Degenerates to the alive set when the scope
    /// has no correct process.
    MinCorrectSingleton,
}

/// An oracle for `Σ_P`: a valid history of the quorum detector restricted to
/// the processes of `scope`, for a given failure pattern.
///
/// Outside the scope the detector returns `⊥` (`None`).
///
/// # Examples
///
/// ```
/// use gam_detectors::{SigmaOracle, SigmaMode};
/// use gam_kernel::*;
///
/// let universe = ProcessSet::first_n(3);
/// let pattern = FailurePattern::from_crashes(universe, [(ProcessId(2), Time(5))]);
/// let sigma = SigmaOracle::new(universe, pattern, SigmaMode::Alive);
/// // Before the crash, p2 may appear in quorums; after, it may not.
/// assert_eq!(sigma.quorum(ProcessId(0), Time(0)), Some(universe));
/// assert_eq!(
///     sigma.quorum(ProcessId(0), Time(10)),
///     Some(ProcessSet::from_iter([0u32, 1]))
/// );
/// ```
#[derive(Debug, Clone)]
pub struct SigmaOracle {
    scope: ProcessSet,
    pattern: FailurePattern,
    mode: SigmaMode,
}

impl SigmaOracle {
    /// Creates the oracle for `Σ_scope` under `pattern`.
    pub fn new(scope: ProcessSet, pattern: FailurePattern, mode: SigmaMode) -> Self {
        SigmaOracle {
            scope,
            pattern,
            mode,
        }
    }

    /// The scope `P` of the restriction.
    pub fn scope(&self) -> ProcessSet {
        self.scope
    }

    /// `Σ_P(p, t)`: the quorum output at `p`, or `None` (⊥) outside the
    /// scope.
    ///
    /// The returned history is always valid: at any two query points the
    /// outputs intersect (later alive-sets are non-empty subsets of earlier
    /// ones), and after the last crash only correct processes are returned.
    pub fn quorum(&self, p: ProcessId, t: Time) -> Option<ProcessSet> {
        if !self.scope.contains(p) {
            return None;
        }
        let alive = self.scope - self.pattern.faulty_at(t);
        let out = match self.mode {
            SigmaMode::Alive => alive,
            SigmaMode::LazyUntil(stab) => {
                if t < stab {
                    self.scope
                } else {
                    alive
                }
            }
            SigmaMode::MinCorrectSingleton => (self.scope & self.pattern.correct())
                .min()
                .map(ProcessSet::singleton)
                .unwrap_or(alive),
        };
        // A quorum is non-empty; if the whole scope has crashed, no process
        // of the scope is alive to query, so returning the full scope keeps
        // the range valid without affecting any run.
        Some(if out.is_empty() { self.scope } else { out })
    }
}

impl History for SigmaOracle {
    type Value = Option<ProcessSet>;

    fn sample(&self, p: ProcessId, t: Time) -> Option<ProcessSet> {
        self.quorum(p, t)
    }

    /// The output moves with the crashes of the scope, except while a lazy
    /// history withholds them and where a correct singleton is output
    /// forever.
    fn stable_until(&self, p: ProcessId, t: Time) -> Time {
        if !self.scope.contains(p) {
            return Time::MAX;
        }
        match self.mode {
            SigmaMode::LazyUntil(stab) if t < stab => Time(stab.0 - 1),
            SigmaMode::MinCorrectSingleton if self.scope.intersects(self.pattern.correct()) => {
                Time::MAX
            }
            _ => self.pattern.unchanged_until(self.scope, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern() -> FailurePattern {
        FailurePattern::from_crashes(
            ProcessSet::first_n(4),
            [(ProcessId(0), Time(3)), (ProcessId(1), Time(8))],
        )
    }

    #[test]
    fn bot_outside_scope() {
        let scope = ProcessSet::from_iter([0u32, 1]);
        let sigma = SigmaOracle::new(scope, pattern(), SigmaMode::Alive);
        assert_eq!(sigma.quorum(ProcessId(3), Time(0)), None);
        assert!(sigma.quorum(ProcessId(0), Time(0)).is_some());
    }

    #[test]
    fn quorums_intersect_pairwise() {
        let scope = ProcessSet::first_n(4);
        let sigma = SigmaOracle::new(scope, pattern(), SigmaMode::Alive);
        let samples: Vec<ProcessSet> = (0..20u64)
            .flat_map(|t| scope.iter().map(move |p| (p, Time(t))).collect::<Vec<_>>())
            .filter_map(|(p, t)| sigma.quorum(p, t))
            .collect();
        for a in &samples {
            for b in &samples {
                assert!(a.intersects(*b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn eventually_only_correct() {
        let scope = ProcessSet::first_n(4);
        let sigma = SigmaOracle::new(scope, pattern(), SigmaMode::Alive);
        let correct = pattern().correct();
        for t in 8..20u64 {
            for p in correct {
                let q = sigma.quorum(p, Time(t)).unwrap();
                assert!(q.is_subset(correct), "at t{t}: {q:?}");
            }
        }
    }

    #[test]
    fn lazy_mode_keeps_full_scope_until_stabilization() {
        let scope = ProcessSet::first_n(4);
        let sigma = SigmaOracle::new(scope, pattern(), SigmaMode::LazyUntil(Time(15)));
        assert_eq!(sigma.quorum(ProcessId(2), Time(10)), Some(scope));
        assert_eq!(
            sigma.quorum(ProcessId(2), Time(15)),
            Some(ProcessSet::from_iter([2u32, 3]))
        );
    }

    #[test]
    fn min_correct_singleton_is_a_valid_history() {
        let scope = ProcessSet::first_n(4);
        let sigma = SigmaOracle::new(scope, pattern(), SigmaMode::MinCorrectSingleton);
        // p0 and p1 are faulty → the fixed quorum is {p2}
        for t in 0..20u64 {
            for p in scope {
                assert_eq!(
                    sigma.quorum(p, Time(t)),
                    Some(ProcessSet::singleton(ProcessId(2)))
                );
            }
        }
    }

    #[test]
    fn all_crashed_scope_stays_nonempty() {
        let scope = ProcessSet::from_iter([0u32, 1]);
        let pat = FailurePattern::from_crashes(
            ProcessSet::first_n(4),
            [(ProcessId(0), Time(1)), (ProcessId(1), Time(1))],
        );
        let sigma = SigmaOracle::new(scope, pat, SigmaMode::Alive);
        let q = sigma.quorum(ProcessId(0), Time(5)).unwrap();
        assert!(!q.is_empty());
    }
}
