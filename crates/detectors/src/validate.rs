//! Class validators for failure-detector histories.
//!
//! These check that a sampled history satisfies the axioms of its class,
//! given the ground-truth failure pattern. They are used both to sanity-check
//! the oracles of this crate and — more importantly — to *certify the
//! emulated detectors* built by the necessity-side reductions of
//! `gam-emulation` (Algorithms 2–5 of the paper).
//!
//! Liveness ("eventually …") axioms are checked over a finite horizon: the
//! property must hold at every sampled instant from `settle` to `horizon`.
//! Choosing `settle` after the protocol under test has stabilised makes the
//! check sound for the finite runs the simulator produces.

use gam_groups::{GroupSet, GroupSystem};
use gam_kernel::{FailurePattern, ProcessId, ProcessSet, Time};

/// A violation of a failure-detector class axiom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which axiom failed (e.g. `"intersection"`).
    pub axiom: &'static str,
    /// Human-readable details.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} violated: {}", self.axiom, self.detail)
    }
}

impl std::error::Error for Violation {}

fn grid(horizon: Time) -> impl Iterator<Item = Time> {
    (0..=horizon.0).map(Time)
}

/// Validates a `Σ_P` history.
///
/// Checks *intersection* (all pairs of sampled quorums of in-scope processes
/// intersect) and *liveness* (from `settle` on, quorums at correct in-scope
/// processes contain only correct processes).
///
/// # Errors
///
/// Returns the first [`Violation`] found.
// gam-lint: allow(U001, reason = "class validator: the tests and examples check Sigma histories against the class axioms with it")
pub fn validate_sigma(
    sample: impl Fn(ProcessId, Time) -> Option<ProcessSet>,
    pattern: &FailurePattern,
    scope: ProcessSet,
    settle: Time,
    horizon: Time,
) -> Result<(), Violation> {
    let mut seen: Vec<(ProcessId, Time, ProcessSet)> = Vec::new();
    for t in grid(horizon) {
        for p in scope {
            if pattern.is_crashed(p, t) {
                continue;
            }
            let Some(q) = sample(p, t) else {
                return Err(Violation {
                    axiom: "range",
                    detail: format!("Σ returned ⊥ at in-scope {p} at {t}"),
                });
            };
            if q.is_empty() {
                return Err(Violation {
                    axiom: "range",
                    detail: format!("empty quorum at {p} at {t}"),
                });
            }
            seen.push((p, t, q));
        }
    }
    for (p, t, q) in &seen {
        for (p2, t2, q2) in &seen {
            if !q.intersects(*q2) {
                return Err(Violation {
                    axiom: "intersection",
                    detail: format!("Σ({p},{t})={q:?} ∩ Σ({p2},{t2})={q2:?} = ∅"),
                });
            }
        }
    }
    let correct = pattern.correct();
    for (p, t, q) in &seen {
        if *t >= settle && correct.contains(*p) && !q.is_subset(correct) {
            return Err(Violation {
                axiom: "liveness",
                detail: format!("Σ({p},{t})={q:?} contains faulty processes after settle"),
            });
        }
    }
    Ok(())
}

/// Validates an `Ω_P` history: from `settle` on, every correct in-scope
/// process outputs the same correct leader.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
// gam-lint: allow(U001, reason = "class validator: the tests and examples check Omega histories against the class axioms with it")
pub fn validate_omega(
    sample: impl Fn(ProcessId, Time) -> Option<ProcessId>,
    pattern: &FailurePattern,
    scope: ProcessSet,
    settle: Time,
    horizon: Time,
) -> Result<(), Violation> {
    let correct_scope = scope & pattern.correct();
    if correct_scope.is_empty() {
        return Ok(()); // leadership is vacuous
    }
    let mut leader: Option<ProcessId> = None;
    for t in grid(horizon) {
        if t < settle {
            continue;
        }
        for p in correct_scope {
            let Some(l) = sample(p, t) else {
                return Err(Violation {
                    axiom: "range",
                    detail: format!("Ω returned ⊥ at in-scope {p} at {t}"),
                });
            };
            if !pattern.is_correct(l) {
                return Err(Violation {
                    axiom: "leadership",
                    detail: format!("Ω({p},{t})={l} is faulty"),
                });
            }
            match leader {
                None => leader = Some(l),
                Some(prev) if prev != l => {
                    return Err(Violation {
                        axiom: "leadership",
                        detail: format!("leader flapped: {prev} then {l} at ({p},{t})"),
                    });
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Validates a `γ` history against its accuracy and completeness axioms.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
// gam-lint: allow(U001, reason = "class validator: the tests and examples check gamma histories against the class axioms with it")
pub fn validate_gamma(
    sample: impl Fn(ProcessId, Time) -> Vec<GroupSet>,
    system: &GroupSystem,
    pattern: &FailurePattern,
    settle: Time,
    horizon: Time,
) -> Result<(), Violation> {
    for t in grid(horizon) {
        let crashed = pattern.faulty_at(t);
        for p in system.universe() {
            if pattern.is_crashed(p, t) {
                continue;
            }
            let out = sample(p, t);
            let mine = system.families_of_process(p);
            for f in &out {
                if !mine.contains(f) {
                    return Err(Violation {
                        axiom: "range",
                        detail: format!("γ({p},{t}) output {f:?} ∉ ℱ({p})"),
                    });
                }
            }
            for f in &mine {
                let faulty = system.family_faulty(*f, crashed);
                // Accuracy: excluded ⇒ faulty now.
                if !out.contains(f) && !faulty {
                    return Err(Violation {
                        axiom: "accuracy",
                        detail: format!("γ({p},{t}) excluded non-faulty {f:?}"),
                    });
                }
                // Completeness (finite-horizon form): after settle, faulty
                // families are excluded at correct processes.
                if t >= settle && pattern.is_correct(p) && faulty && out.contains(f) {
                    return Err(Violation {
                        axiom: "completeness",
                        detail: format!("γ({p},{t}) still outputs faulty {f:?} after settle"),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Validates a `1^P` history at the processes of `scope \ P` (inside `P` the
/// output carries no information, per §6.1).
///
/// # Errors
///
/// Returns the first [`Violation`] found.
// gam-lint: allow(U001, reason = "class validator: the tests and examples check indicator histories against the class axioms with it")
pub fn validate_indicator(
    sample: impl Fn(ProcessId, Time) -> Option<bool>,
    pattern: &FailurePattern,
    monitored: ProcessSet,
    scope: ProcessSet,
    settle: Time,
    horizon: Time,
) -> Result<(), Violation> {
    for t in grid(horizon) {
        for p in scope - monitored {
            if pattern.is_crashed(p, t) {
                continue;
            }
            let Some(v) = sample(p, t) else {
                return Err(Violation {
                    axiom: "range",
                    detail: format!("1^P returned ⊥ at in-scope {p} at {t}"),
                });
            };
            let all_crashed = pattern.set_faulty_at(monitored, t);
            if v && !all_crashed {
                return Err(Violation {
                    axiom: "accuracy",
                    detail: format!("1^P({p},{t}) true while {monitored:?} not all crashed"),
                });
            }
            if t >= settle && pattern.is_correct(p) && all_crashed && !v {
                return Err(Violation {
                    axiom: "completeness",
                    detail: format!("1^P({p},{t}) still false after settle"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::GammaOracle;
    use crate::indicator::{IndicatorMode, IndicatorOracle};
    use crate::omega::{OmegaMode, OmegaOracle};
    use crate::sigma::{SigmaMode, SigmaOracle};
    use gam_groups::topology;

    fn pattern() -> FailurePattern {
        FailurePattern::from_crashes(
            ProcessSet::first_n(5),
            [(ProcessId(1), Time(5)), (ProcessId(2), Time(7))],
        )
    }

    #[test]
    fn sigma_oracle_passes() {
        let scope = ProcessSet::first_n(5);
        for mode in [SigmaMode::Alive, SigmaMode::LazyUntil(Time(9))] {
            let o = SigmaOracle::new(scope, pattern(), mode);
            validate_sigma(|p, t| o.quorum(p, t), &pattern(), scope, Time(10), Time(40))
                .unwrap_or_else(|v| panic!("{mode:?}: {v}"));
        }
    }

    #[test]
    fn sigma_validator_rejects_disjoint_quorums() {
        let scope = ProcessSet::first_n(4);
        let bogus = |p: ProcessId, _t: Time| Some(ProcessSet::singleton(p));
        let err = validate_sigma(
            bogus,
            &FailurePattern::all_correct(scope),
            scope,
            Time(0),
            Time(3),
        )
        .unwrap_err();
        assert_eq!(err.axiom, "intersection");
    }

    #[test]
    fn sigma_validator_rejects_stale_quorums() {
        let scope = ProcessSet::first_n(5);
        let o = SigmaOracle::new(scope, pattern(), SigmaMode::LazyUntil(Time(1000)));
        // never stabilises within the horizon
        let err = validate_sigma(|p, t| o.quorum(p, t), &pattern(), scope, Time(10), Time(40))
            .unwrap_err();
        assert_eq!(err.axiom, "liveness");
    }

    #[test]
    fn omega_oracle_passes_and_flapping_fails() {
        let scope = ProcessSet::first_n(5);
        let o = OmegaOracle::new(scope, pattern(), OmegaMode::MinAlive);
        validate_omega(|p, t| o.leader(p, t), &pattern(), scope, Time(10), Time(40)).unwrap();
        let flapper = |_p: ProcessId, t: Time| Some(ProcessId((t.0 % 2) as u32 * 3));
        let err = validate_omega(
            flapper,
            &FailurePattern::all_correct(scope),
            scope,
            Time(0),
            Time(10),
        )
        .unwrap_err();
        assert_eq!(err.axiom, "leadership");
    }

    #[test]
    fn gamma_oracle_passes_for_all_delays() {
        let gs = topology::fig1();
        let pat = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(5))]);
        for delay in [0u64, 3] {
            let o = GammaOracle::new(&gs, pat.clone(), delay);
            validate_gamma(|p, t| o.families(p, t), &gs, &pat, Time(20), Time(40))
                .unwrap_or_else(|v| panic!("delay={delay}: {v}"));
        }
    }

    #[test]
    fn gamma_validator_rejects_never_excluding() {
        let gs = topology::fig1();
        let pat = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(5))]);
        // a bogus γ that always outputs all of ℱ(p)
        let bogus = |p: ProcessId, _t: Time| gs.families_of_process(p);
        let err = validate_gamma(bogus, &gs, &pat, Time(20), Time(40)).unwrap_err();
        assert_eq!(err.axiom, "completeness");
    }

    #[test]
    fn gamma_validator_rejects_eager_exclusion() {
        let gs = topology::fig1();
        let pat = FailurePattern::all_correct(gs.universe());
        // a bogus γ that outputs nothing (excludes non-faulty families)
        let bogus = |_p: ProcessId, _t: Time| Vec::new();
        let err = validate_gamma(bogus, &gs, &pat, Time(20), Time(40)).unwrap_err();
        assert_eq!(err.axiom, "accuracy");
    }

    #[test]
    fn indicator_oracle_passes_both_modes() {
        let monitored = ProcessSet::from_iter([1u32, 2]);
        let scope = ProcessSet::first_n(5);
        for mode in [IndicatorMode::Truthful, IndicatorMode::TrueInside] {
            let o = IndicatorOracle::new(monitored, scope, pattern(), 1, mode);
            validate_indicator(
                |p, t| o.indicates(p, t),
                &pattern(),
                monitored,
                scope,
                Time(10),
                Time(40),
            )
            .unwrap_or_else(|v| panic!("{mode:?}: {v}"));
        }
    }

    #[test]
    fn indicator_validator_rejects_false_positive() {
        let monitored = ProcessSet::from_iter([1u32]);
        let scope = ProcessSet::first_n(3);
        let bogus = |_p: ProcessId, _t: Time| Some(true);
        let err = validate_indicator(
            bogus,
            &FailurePattern::all_correct(scope),
            monitored,
            scope,
            Time(0),
            Time(5),
        )
        .unwrap_err();
        assert_eq!(err.axiom, "accuracy");
        assert!(err.to_string().contains("accuracy"));
    }
}
