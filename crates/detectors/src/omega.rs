//! The leader failure detector `Ω` and its set-restricted form `Ω_P` (§3).
//!
//! `Ω` eventually outputs the same correct leader at every correct process
//! (*leadership*). Before stabilisation its output is arbitrary; the oracle
//! exposes an adversarial pre-stabilisation mode that rotates the leader.

use gam_kernel::{FailurePattern, History, ProcessId, ProcessSet, Time};

/// How the oracle behaves before it stabilises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OmegaMode {
    /// Output the minimum not-yet-crashed process of the scope. Stabilises
    /// when the last faulty process below the eventual leader crashes.
    #[default]
    MinAlive,
    /// Until `stabilize_at`, rotate the output over the scope (each process
    /// holds the lead for `period` ticks, possibly disagreeing across
    /// queriers); afterwards, output the minimum correct process.
    RotateUntil {
        /// Time after which the leader is stable.
        stabilize_at: Time,
        /// How long each interim leader holds the lead.
        period: u64,
    },
    /// Constantly output a fixed process. Valid only when that process is
    /// correct; [`OmegaOracle::new`] asserts it.
    Fixed(ProcessId),
}

/// An oracle for `Ω_P`: a valid leader history restricted to `scope`.
///
/// # Examples
///
/// ```
/// use gam_detectors::{OmegaOracle, OmegaMode};
/// use gam_kernel::*;
///
/// let universe = ProcessSet::first_n(3);
/// let pattern = FailurePattern::from_crashes(universe, [(ProcessId(0), Time(4))]);
/// let omega = OmegaOracle::new(universe, pattern, OmegaMode::MinAlive);
/// assert_eq!(omega.leader(ProcessId(1), Time(0)), Some(ProcessId(0)));
/// assert_eq!(omega.leader(ProcessId(1), Time(9)), Some(ProcessId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct OmegaOracle {
    scope: ProcessSet,
    pattern: FailurePattern,
    mode: OmegaMode,
}

impl OmegaOracle {
    /// Creates the oracle for `Ω_scope` under `pattern`.
    /// # Panics
    ///
    /// Panics if `mode` is [`OmegaMode::Fixed`] naming a process that is
    /// faulty or outside the scope (such a history would violate
    /// leadership).
    pub fn new(scope: ProcessSet, pattern: FailurePattern, mode: OmegaMode) -> Self {
        if let OmegaMode::Fixed(l) = mode {
            assert!(
                scope.contains(l) && pattern.is_correct(l),
                "a fixed leader must be a correct member of the scope"
            );
        }
        OmegaOracle {
            scope,
            pattern,
            mode,
        }
    }

    /// The scope `P` of the restriction.
    pub fn scope(&self) -> ProcessSet {
        self.scope
    }

    /// `Ω_P(p, t)`: the leader output at `p`, or `None` (⊥) outside the
    /// scope.
    pub fn leader(&self, p: ProcessId, t: Time) -> Option<ProcessId> {
        if !self.scope.contains(p) {
            return None;
        }
        let correct_in_scope = self.scope & self.pattern.correct();
        let fallback = self.scope.min().expect("scope is non-empty");
        match self.mode {
            OmegaMode::MinAlive => {
                let alive = self.scope - self.pattern.faulty_at(t);
                Some(alive.min().unwrap_or(fallback))
            }
            OmegaMode::RotateUntil {
                stabilize_at,
                period,
            } => {
                if t < stabilize_at {
                    let members: Vec<ProcessId> = self.scope.iter().collect();
                    let idx = ((t.0 / period.max(1)) as usize + p.index()) % members.len();
                    Some(members[idx])
                } else {
                    Some(correct_in_scope.min().unwrap_or(fallback))
                }
            }
            OmegaMode::Fixed(l) => Some(l),
        }
    }
}

impl History for OmegaOracle {
    type Value = Option<ProcessId>;

    fn sample(&self, p: ProcessId, t: Time) -> Option<ProcessId> {
        self.leader(p, t)
    }

    /// The output moves with the crashes of the scope (`MinAlive`), with
    /// the rotation period and then never (`RotateUntil`), or never.
    fn stable_until(&self, p: ProcessId, t: Time) -> Time {
        if !self.scope.contains(p) {
            return Time::MAX;
        }
        match self.mode {
            OmegaMode::MinAlive => self.pattern.unchanged_until(self.scope, t),
            OmegaMode::RotateUntil {
                stabilize_at,
                period,
            } if t < stabilize_at => {
                let period = period.max(1);
                let next_turn = (t.0 / period + 1).saturating_mul(period);
                Time(next_turn.min(stabilize_at.0) - 1)
            }
            OmegaMode::RotateUntil { .. } | OmegaMode::Fixed(_) => Time::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern() -> FailurePattern {
        FailurePattern::from_crashes(
            ProcessSet::first_n(4),
            [(ProcessId(0), Time(5)), (ProcessId(2), Time(2))],
        )
    }

    #[test]
    fn eventually_same_correct_leader_everywhere() {
        for mode in [
            OmegaMode::MinAlive,
            OmegaMode::RotateUntil {
                stabilize_at: Time(10),
                period: 3,
            },
        ] {
            let omega = OmegaOracle::new(ProcessSet::first_n(4), pattern(), mode);
            let correct = pattern().correct();
            let mut leaders = std::collections::BTreeSet::new();
            for t in 10..30u64 {
                for p in correct {
                    leaders.insert(omega.leader(p, Time(t)).unwrap());
                }
            }
            assert_eq!(leaders.len(), 1, "{mode:?}");
            let l = *leaders.iter().next().unwrap();
            assert!(correct.contains(l), "{mode:?}: leader {l} must be correct");
        }
    }

    #[test]
    fn rotation_disagrees_before_stabilization() {
        let omega = OmegaOracle::new(
            ProcessSet::first_n(4),
            pattern(),
            OmegaMode::RotateUntil {
                stabilize_at: Time(100),
                period: 1,
            },
        );
        // Different queriers see different leaders at the same time.
        let l0 = omega.leader(ProcessId(0), Time(0)).unwrap();
        let l1 = omega.leader(ProcessId(1), Time(0)).unwrap();
        assert_ne!(l0, l1);
    }

    #[test]
    fn bot_outside_scope() {
        let omega = OmegaOracle::new(
            ProcessSet::from_iter([1u32, 3]),
            pattern(),
            OmegaMode::MinAlive,
        );
        assert_eq!(omega.leader(ProcessId(0), Time(0)), None);
        assert_eq!(omega.leader(ProcessId(1), Time(20)), Some(ProcessId(1)));
    }

    #[test]
    fn fixed_mode_outputs_the_named_leader() {
        let omega = OmegaOracle::new(
            ProcessSet::first_n(4),
            pattern(),
            OmegaMode::Fixed(ProcessId(1)),
        );
        for t in 0..10u64 {
            assert_eq!(omega.leader(ProcessId(3), Time(t)), Some(ProcessId(1)));
        }
    }

    #[test]
    #[should_panic(expected = "correct member")]
    fn fixed_mode_rejects_faulty_leader() {
        OmegaOracle::new(
            ProcessSet::first_n(4),
            pattern(),
            OmegaMode::Fixed(ProcessId(0)),
        );
    }

    #[test]
    fn singleton_scope_is_trivial() {
        // Ω_{p} returns p at p — the trivial detector of §3.
        let omega = OmegaOracle::new(
            ProcessSet::singleton(ProcessId(2)),
            FailurePattern::all_correct(ProcessSet::first_n(4)),
            OmegaMode::MinAlive,
        );
        for t in 0..5u64 {
            assert_eq!(omega.leader(ProcessId(2), Time(t)), Some(ProcessId(2)));
        }
    }
}
