//! Delta-debugging of failing runs.
//!
//! A counterexample straight out of the explorer carries everything the
//! original scenario did: all crashes, all submissions, and a schedule as
//! long as the run. Most of it is irrelevant to the violation. The shrinker
//! greedily applies semantic reductions — each validated by re-running the
//! candidate and checking that it still violates the **same** property —
//! until a fixpoint (or a run budget) is reached:
//!
//! 1. drop crash injections;
//! 2. drop submissions;
//! 3. truncate the schedule (the fair round-robin tail completes the run,
//!    so any prefix is still a full, checkable run);
//! 4. delete individual schedule entries;
//! 5. collapse entries' sub-choices to `0` — the round-robin default — so
//!    what remains highlights exactly the adversarial choices that matter.

use crate::{Prototype, Scenario};
use gam_core::spec::{check_all, check_named};
use gam_engine::replay;
use gam_kernel::schedule::ChoiceStep;
use gam_kernel::RunOutcome;

/// Re-runs the candidate and checks that `property` is still violated —
/// first through the variant's `check_all` (the common case), then through
/// the targeted [`check_named`] checker, so counterexamples found *outside*
/// their variant's checked set (e.g. a pairwise-variant run violating
/// global `ordering`) shrink just like in-variant ones.
fn still_violates(proto: &Prototype, schedule: &[ChoiceStep], property: &str) -> bool {
    let mut exec = proto.executor();
    let out = replay(&mut exec, schedule, proto.scenario.max_steps);
    let report = exec.report(out == RunOutcome::Quiescent);
    if matches!(check_all(&report, proto.scenario.variant), Err(ref v) if v.property == property) {
        return true;
    }
    matches!(check_named(&report, property), Some(Err(ref v)) if v.property == property)
}

/// Entry-wise passes are skipped on schedules longer than this (truncation
/// gets them below it first, or the schedule is inherently budget-sized).
const ENTRYWISE_LIMIT: usize = 256;

/// Shrinks `(scenario, schedule)` while preserving a violation of
/// `property`, spending at most `max_runs` candidate runs. Returns the
/// reduced pair and the number of runs spent.
///
/// The input is assumed to violate `property`; if it does not, it is
/// returned unchanged (after one probing run).
pub fn shrink(
    scenario: Scenario,
    schedule: Vec<ChoiceStep>,
    property: &str,
    max_runs: u64,
) -> (Scenario, Vec<ChoiceStep>, u64) {
    let mut runs = 0u64;
    let try_candidate = |proto: &Prototype, schedule: &[ChoiceStep], runs: &mut u64| {
        *runs += 1;
        still_violates(proto, schedule, property)
    };
    if !try_candidate(&Prototype::new(&scenario), &schedule, &mut runs) {
        return (scenario, schedule, runs);
    }
    let (mut scenario, mut schedule) = (scenario, schedule);
    loop {
        let mut changed = false;
        // 1. Drop crashes.
        let mut i = scenario.crashes.len();
        while i > 0 && runs < max_runs {
            i -= 1;
            let mut candidate = scenario.clone();
            candidate.crashes.remove(i);
            if try_candidate(&Prototype::new(&candidate), &schedule, &mut runs) {
                scenario = candidate;
                changed = true;
            }
        }
        // 2. Drop submissions.
        let mut i = scenario.submissions.len();
        while i > 0 && runs < max_runs {
            i -= 1;
            let mut candidate = scenario.clone();
            candidate.submissions.remove(i);
            if try_candidate(&Prototype::new(&candidate), &schedule, &mut runs) {
                scenario = candidate;
                changed = true;
            }
        }
        // The remaining passes vary the schedule only: one construction
        // serves all their candidates.
        let proto = Prototype::new(&scenario);
        // 3. Truncate the schedule: the empty schedule first (the pure
        // round-robin run), then halving, then peeling single entries.
        while !schedule.is_empty() && runs < max_runs {
            let shorter = if try_candidate(&proto, &[], &mut runs) {
                0
            } else if schedule.len() > 1
                && try_candidate(&proto, &schedule[..schedule.len() / 2], &mut runs)
            {
                schedule.len() / 2
            } else if try_candidate(&proto, &schedule[..schedule.len() - 1], &mut runs) {
                schedule.len() - 1
            } else {
                break;
            };
            schedule.truncate(shorter);
            changed = true;
        }
        // 4. Delete individual entries.
        if schedule.len() <= ENTRYWISE_LIMIT {
            let mut i = schedule.len();
            while i > 0 && runs < max_runs {
                i -= 1;
                let mut candidate = schedule.clone();
                candidate.remove(i);
                if try_candidate(&proto, &candidate, &mut runs) {
                    schedule = candidate;
                    changed = true;
                }
            }
        }
        // 5. Collapse sub-choices to the round-robin default.
        if schedule.len() <= ENTRYWISE_LIMIT {
            let mut i = schedule.len();
            while i > 0 && runs < max_runs {
                i -= 1;
                if schedule[i].choice == 0 {
                    continue;
                }
                let mut candidate = schedule.clone();
                candidate[i].choice = 0;
                if try_candidate(&proto, &candidate, &mut runs) {
                    schedule = candidate;
                    changed = true;
                }
            }
        }
        if !changed || runs >= max_runs {
            return (scenario, schedule, runs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_core::Variant;
    use gam_groups::{topology, GroupId};
    use gam_kernel::{ProcessId, Time};

    /// A scenario whose *termination* violation does not depend on the
    /// schedule at all: the sole member of `dst(m)`'s group... cannot
    /// exist, so instead crash everyone in `g` after submission while a
    /// delivery was already made — simpler: an undersized budget makes the
    /// run non-quiescent regardless of the schedule.
    #[test]
    fn shrink_discards_schedule_for_schedule_independent_violations() {
        let scenario = Scenario {
            system: topology::single_group(2),
            crashes: vec![(ProcessId(1), Time(200_000))],
            submissions: vec![(ProcessId(0), GroupId(0), 1), (ProcessId(1), GroupId(0), 2)],
            variant: Variant::Standard,
            max_steps: 3, // far too small: every run fails termination
            batch_max: 1,
        };
        let schedule = vec![
            ChoiceStep {
                pid: ProcessId(0),
                choice: 1
            };
            10
        ];
        let (shrunk, sched, runs) = shrink(scenario, schedule, "termination", 300);
        assert!(sched.is_empty(), "schedule-independent ⇒ empty schedule");
        assert!(shrunk.crashes.is_empty(), "irrelevant crash dropped");
        assert_eq!(shrunk.submissions.len(), 1, "one submission suffices");
        assert!(runs <= 300);
        assert!(still_violates(
            &Prototype::new(&shrunk),
            &sched,
            "termination"
        ));
    }

    #[test]
    fn shrink_returns_input_when_nothing_violates() {
        let scenario = Scenario::one_per_group(&topology::single_group(2), 20_000);
        let schedule = vec![ChoiceStep {
            pid: ProcessId(0),
            choice: 0,
        }];
        let (_, sched, runs) = shrink(scenario, schedule.clone(), "ordering", 100);
        assert_eq!(sched, schedule, "non-violating input returned unchanged");
        assert_eq!(runs, 1, "one probing run only");
    }
}
