//! Failure patterns and environments.
//!
//! A failure pattern is a function `F : ℕ → 2^P` telling which processes have
//! crashed by each time, with `F(t) ⊆ F(t+1)` (crashes are permanent). An
//! environment `𝔈` is a set of failure patterns; it captures the number and
//! timing of failures that can occur.

use crate::process::{ProcessId, ProcessSet};
use crate::time::Time;
use std::collections::BTreeMap;
use std::fmt;

/// A failure pattern: for each process, the time at which it crashes (if it
/// ever does).
///
/// Supports the queries the paper uses: `F(t)` ([`FailurePattern::faulty_at`]),
/// `Faulty(F)` ([`FailurePattern::faulty`]) and `Correct(F)`
/// ([`FailurePattern::correct`]).
///
/// # Examples
///
/// ```
/// use gam_kernel::{FailurePattern, ProcessId, ProcessSet, Time};
/// let mut f = FailurePattern::all_correct(ProcessSet::first_n(3));
/// f.crash(ProcessId(1), Time(5));
/// assert!(f.faulty_at(Time(4)).is_empty());
/// assert!(f.faulty_at(Time(5)).contains(ProcessId(1)));
/// assert_eq!(f.correct(), ProcessSet::from_iter([0u32, 2]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailurePattern {
    universe: ProcessSet,
    crash_times: BTreeMap<ProcessId, Time>,
}

impl FailurePattern {
    /// The pattern over `universe` in which no process ever crashes.
    pub fn all_correct(universe: ProcessSet) -> Self {
        FailurePattern {
            universe,
            crash_times: BTreeMap::new(),
        }
    }

    /// Builds a pattern from `(process, crash time)` pairs over `universe`.
    ///
    /// # Panics
    ///
    /// Panics if a crashing process is outside `universe`.
    pub fn from_crashes<I>(universe: ProcessSet, crashes: I) -> Self
    where
        I: IntoIterator<Item = (ProcessId, Time)>,
    {
        let mut f = Self::all_correct(universe);
        for (p, t) in crashes {
            f.crash(p, t);
        }
        f
    }

    /// Schedules `p` to crash at time `t` (it takes no step at `t` or later).
    ///
    /// If `p` was already scheduled to crash, the earlier time wins — crashes
    /// are permanent.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe of the pattern.
    pub fn crash(&mut self, p: ProcessId, t: Time) -> &mut Self {
        assert!(
            self.universe.contains(p),
            "{p} is not in the universe {:?}",
            self.universe
        );
        let entry = self.crash_times.entry(p).or_insert(t);
        if t < *entry {
            *entry = t;
        }
        self
    }

    /// The set of all processes of the system.
    pub fn universe(&self) -> ProcessSet {
        self.universe
    }

    /// `F(t)`: the processes that have crashed by time `t` (inclusive).
    pub fn faulty_at(&self, t: Time) -> ProcessSet {
        self.crash_times
            .iter()
            .filter(|(_, ct)| **ct <= t)
            .map(|(p, _)| *p)
            .collect()
    }

    /// `Faulty(F) = ∪_t F(t)`: the processes that eventually crash.
    pub fn faulty(&self) -> ProcessSet {
        self.crash_times.keys().copied().collect()
    }

    /// `Correct(F) = P \ Faulty(F)`.
    pub fn correct(&self) -> ProcessSet {
        self.universe - self.faulty()
    }

    /// Returns `true` if `p` never crashes.
    pub fn is_correct(&self, p: ProcessId) -> bool {
        self.universe.contains(p) && !self.crash_times.contains_key(&p)
    }

    /// Returns `true` if `p` has crashed by time `t`.
    pub fn is_crashed(&self, p: ProcessId, t: Time) -> bool {
        self.crash_times.get(&p).is_some_and(|ct| *ct <= t)
    }

    /// The crash time of `p`, if it ever crashes.
    pub fn crash_time(&self, p: ProcessId) -> Option<Time> {
        self.crash_times.get(&p).copied()
    }

    /// Returns `true` if every process of `set` eventually crashes
    /// (the paper writes "`set` is faulty").
    pub fn set_faulty(&self, set: ProcessSet) -> bool {
        set.is_subset(self.faulty())
    }

    /// Returns `true` if every process of `set` has crashed by time `t`
    /// ("`set` is faulty at `t`").
    pub fn set_faulty_at(&self, set: ProcessSet, t: Time) -> bool {
        set.is_subset(self.faulty_at(t))
    }

    /// The earliest time at which all of `set` has crashed, if ever.
    pub fn set_crash_time(&self, set: ProcessSet) -> Option<Time> {
        set.iter()
            .map(|p| self.crash_time(p))
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(Time::ZERO))
    }

    /// The last instant `u ≥ t` with `F(u) ∩ scope = F(t) ∩ scope`: one tick
    /// before the next crash of a process of `scope` after `t`, or
    /// [`Time::MAX`] if none follows. Whatever reads `t` only through
    /// `faulty_at(t) ∩ scope` is constant on `t..=u`.
    pub fn unchanged_until(&self, scope: ProcessSet, t: Time) -> Time {
        self.crash_times
            .iter()
            .filter(|(p, ct)| **ct > t && scope.contains(**p))
            .map(|(_, ct)| Time(ct.0 - 1))
            .min()
            .unwrap_or(Time::MAX)
    }

    /// `F ∩ P`: the pattern restricted to the processes in `p_set`, used to
    /// define set-restricted failure detectors `D_P` (§3).
    pub fn restrict(&self, p_set: ProcessSet) -> FailurePattern {
        FailurePattern {
            universe: self.universe & p_set,
            crash_times: self
                .crash_times
                .iter()
                .filter(|(p, _)| p_set.contains(**p))
                .map(|(p, t)| (*p, *t))
                .collect(),
        }
    }

    /// The §5.2 closure: the variant `F'` of `self` identical before `t` with
    /// `set` additionally crashed from `t` on. The environments we target
    /// satisfy that if a process may fail, it may fail at any time; this
    /// constructs the corresponding pattern.
    pub fn with_crash_from(&self, set: ProcessSet, t: Time) -> FailurePattern {
        let mut f = self.clone();
        for p in set {
            f.crash(p, t);
        }
        f
    }
}

impl fmt::Display for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F[")?;
        for (i, (p, t)) in self.crash_times.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}@{t}")?;
        }
        write!(f, "]")
    }
}

/// An environment `𝔈`: which failure patterns may occur.
///
/// We describe environments intensionally by (i) the universe, (ii) the set of
/// failure-prone processes, and (iii) an optional bound on the number of
/// simultaneous failures. This covers every environment used in the paper:
/// the wait-free environment `𝔈*` (everyone failure-prone, no bound), majority
/// environments, and environments where specific intersections are reliable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Environment {
    universe: ProcessSet,
    failure_prone: ProcessSet,
    max_failures: Option<usize>,
}

impl Environment {
    /// The wait-free environment `𝔈*` over `universe`: any subset of processes
    /// may crash at any time.
    pub fn wait_free(universe: ProcessSet) -> Self {
        Environment {
            universe,
            failure_prone: universe,
            max_failures: None,
        }
    }

    /// An environment where only `failure_prone ⊆ universe` may crash.
    ///
    /// # Panics
    ///
    /// Panics if `failure_prone ⊄ universe`.
    pub fn with_failure_prone(universe: ProcessSet, failure_prone: ProcessSet) -> Self {
        assert!(failure_prone.is_subset(universe));
        Environment {
            universe,
            failure_prone,
            max_failures: None,
        }
    }

    /// Restricts the environment to patterns with at most `k` failures.
    pub fn with_max_failures(mut self, k: usize) -> Self {
        self.max_failures = Some(k);
        self
    }

    /// The set of all processes.
    pub fn universe(&self) -> ProcessSet {
        self.universe
    }

    /// The failure-prone processes of the environment.
    pub fn failure_prone_set(&self) -> ProcessSet {
        self.failure_prone
    }

    /// Returns `true` if `p` is failure-prone in the environment
    /// (for some pattern `F ∈ 𝔈`, `p ∈ Faulty(F)`).
    pub fn is_failure_prone(&self, p: ProcessId) -> bool {
        self.failure_prone.contains(p) && self.max_failures != Some(0)
    }

    /// Returns `true` if all of `set` may crash in a single pattern of the
    /// environment ("`set` is failure-prone", §5.2).
    pub fn set_failure_prone(&self, set: ProcessSet) -> bool {
        set.is_subset(self.failure_prone) && self.max_failures.is_none_or(|k| set.len() <= k)
    }

    /// Environment membership: `F ∈ 𝔈`.
    pub fn contains(&self, f: &FailurePattern) -> bool {
        f.universe() == self.universe
            && f.faulty().is_subset(self.failure_prone)
            && self.max_failures.is_none_or(|k| f.faulty().len() <= k)
    }

    /// Enumerates representative patterns of the environment up to `max_set`
    /// crashed processes, each crashing at time `crash_at`. This provides the
    /// finite pattern suites the experiments sweep over.
    pub fn enumerate_patterns(&self, max_set: usize, crash_at: Time) -> Vec<FailurePattern> {
        let prone: Vec<ProcessId> = self.failure_prone.iter().collect();
        let cap = self.max_failures.unwrap_or(usize::MAX).min(max_set);
        let mut out = vec![FailurePattern::all_correct(self.universe)];
        // Enumerate subsets of failure-prone processes of size <= cap.
        let n = prone.len();
        for mask in 1u64..(1u64 << n.min(20)) {
            if (mask.count_ones() as usize) > cap {
                continue;
            }
            let mut f = FailurePattern::all_correct(self.universe);
            for (i, p) in prone.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    f.crash(*p, crash_at);
                }
            }
            out.push(f);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> ProcessSet {
        ProcessSet::first_n(5)
    }

    #[test]
    fn crashes_are_monotone() {
        let mut f = FailurePattern::all_correct(universe());
        f.crash(ProcessId(2), Time(10));
        f.crash(ProcessId(2), Time(3)); // earlier wins
        assert_eq!(f.crash_time(ProcessId(2)), Some(Time(3)));
        f.crash(ProcessId(2), Time(99)); // later ignored
        assert_eq!(f.crash_time(ProcessId(2)), Some(Time(3)));
        // F(t) ⊆ F(t+1)
        for t in 0..20u64 {
            assert!(f.faulty_at(Time(t)).is_subset(f.faulty_at(Time(t + 1))));
        }
    }

    #[test]
    fn faulty_correct_partition() {
        let f = FailurePattern::from_crashes(
            universe(),
            [(ProcessId(0), Time(1)), (ProcessId(4), Time(7))],
        );
        assert_eq!(f.faulty(), ProcessSet::from_iter([0u32, 4]));
        assert_eq!(f.correct(), ProcessSet::from_iter([1u32, 2, 3]));
        assert_eq!(f.faulty() | f.correct(), universe());
        assert!(!f.faulty().intersects(f.correct()));
    }

    #[test]
    fn set_faulty_at_needs_all_members() {
        let f = FailurePattern::from_crashes(
            universe(),
            [(ProcessId(0), Time(1)), (ProcessId(1), Time(5))],
        );
        let s = ProcessSet::from_iter([0u32, 1]);
        assert!(!f.set_faulty_at(s, Time(4)));
        assert!(f.set_faulty_at(s, Time(5)));
        assert_eq!(f.set_crash_time(s), Some(Time(5)));
        assert_eq!(f.set_crash_time(ProcessSet::from_iter([0u32, 2])), None);
    }

    #[test]
    fn unchanged_until_stops_before_the_next_crash_of_the_scope() {
        let f = FailurePattern::from_crashes(
            universe(),
            [(ProcessId(0), Time(3)), (ProcessId(1), Time(8))],
        );
        let all = universe();
        assert_eq!(f.unchanged_until(all, Time(0)), Time(2));
        assert_eq!(f.unchanged_until(all, Time(3)), Time(7));
        assert_eq!(f.unchanged_until(all, Time(8)), Time::MAX);
        // crashes outside the scope do not end the window
        let scope = ProcessSet::from_iter([1u32, 2]);
        assert_eq!(f.unchanged_until(scope, Time(0)), Time(7));
        for t in 0..12u64 {
            let until = f.unchanged_until(scope, Time(t)).0.min(20);
            for u in t..=until {
                assert_eq!(f.faulty_at(Time(u)) & scope, f.faulty_at(Time(t)) & scope);
            }
        }
    }

    #[test]
    fn restrict_projects_pattern() {
        let f = FailurePattern::from_crashes(
            universe(),
            [(ProcessId(0), Time(1)), (ProcessId(3), Time(2))],
        );
        let r = f.restrict(ProcessSet::from_iter([0u32, 1]));
        assert_eq!(r.universe(), ProcessSet::from_iter([0u32, 1]));
        assert_eq!(r.faulty(), ProcessSet::from_iter([0u32]));
    }

    #[test]
    fn with_crash_from_preserves_prefix() {
        let f = FailurePattern::all_correct(universe());
        let g = f.with_crash_from(ProcessSet::from_iter([2u32]), Time(9));
        assert!(g.faulty_at(Time(8)).is_empty());
        assert!(g.faulty_at(Time(9)).contains(ProcessId(2)));
    }

    #[test]
    fn environment_membership() {
        let env = Environment::with_failure_prone(universe(), ProcessSet::from_iter([0u32, 1]))
            .with_max_failures(1);
        let ok = FailurePattern::from_crashes(universe(), [(ProcessId(0), Time(1))]);
        let too_many = FailurePattern::from_crashes(
            universe(),
            [(ProcessId(0), Time(1)), (ProcessId(1), Time(1))],
        );
        let not_prone = FailurePattern::from_crashes(universe(), [(ProcessId(3), Time(1))]);
        assert!(env.contains(&ok));
        assert!(!env.contains(&too_many));
        assert!(!env.contains(&not_prone));
        assert!(env.set_failure_prone(ProcessSet::from_iter([0u32])));
        assert!(!env.set_failure_prone(ProcessSet::from_iter([0u32, 1])));
    }

    #[test]
    fn enumerate_patterns_respects_bounds() {
        let env = Environment::wait_free(ProcessSet::first_n(3)).with_max_failures(2);
        let pats = env.enumerate_patterns(2, Time(5));
        // empty set + 3 singletons + 3 pairs
        assert_eq!(pats.len(), 7);
        assert!(pats.iter().all(|f| env.contains(f)));
    }

    #[test]
    fn wait_free_everyone_prone() {
        let env = Environment::wait_free(universe());
        assert!(env.is_failure_prone(ProcessId(4)));
        assert!(env.set_failure_prone(universe()));
    }
}
