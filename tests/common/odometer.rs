//! The restart-from-scratch odometer: the enumeration `explore`'s
//! exhaustive walk is held to, written on public API only. Every run is
//! built from the scenario and drives its whole path of digits, then the
//! fair tail; the next path bumps the deepest consumed digit that still has
//! an unexplored sibling and zeroes the digits after it.

use genuine_multicast::core::spec::{check_all, SpecViolation};
use genuine_multicast::engine::{run_with_source_counted, PrefixTail};
use genuine_multicast::explore::DEFAULT_SHRINK_BUDGET;
use genuine_multicast::explore::{shrink, Counterexample, Outcome, Repro, Scenario};
use genuine_multicast::kernel::schedule::RecordInto;
use genuine_multicast::kernel::{ChoiceStep, PathSource, RunOutcome};

/// What the odometer covered: its runs and the substrate steps they
/// executed, why it stopped, and the shrunk first violation.
pub struct Odometer {
    pub runs: u64,
    pub steps: u64,
    pub outcome: Outcome,
    pub violation: Option<Counterexample>,
}

/// Every schedule of `scenario` whose first `depth` choices differ, at most
/// `max_runs` runs, stopping at the first violation.
pub fn odometer(scenario: &Scenario, depth: usize, max_runs: u64) -> Odometer {
    let mut path = vec![0usize; depth];
    let (mut runs, mut steps) = (0, 0);
    let stop = |runs, steps, outcome, violation| Odometer {
        runs,
        steps,
        outcome,
        violation,
    };
    loop {
        if runs == max_runs {
            return stop(runs, steps, Outcome::RunCapped, None);
        }
        let mut exec = scenario.runtime_executor();
        let mut digits = PathSource::new(path.clone());
        let mut schedule = Vec::new();
        let mut source = RecordInto::new(PrefixTail::new(&mut digits), &mut schedule);
        let (out, consumed) = run_with_source_counted(&mut exec, &mut source, scenario.max_steps);
        (runs, steps) = (runs + 1, steps + consumed);
        let report = exec.report(out == RunOutcome::Quiescent);
        if let Err(violation) = check_all(&report, scenario.variant) {
            let cx = counterexample(scenario, schedule, violation, 0);
            return stop(runs, steps, Outcome::ViolationFound, Some(cx));
        }
        let branching = digits.branching();
        let used = branching.len().min(depth);
        let Some(bump) = (0..used).rev().find(|&i| path[i] + 1 < branching[i]) else {
            return stop(runs, steps, Outcome::Exhausted, None);
        };
        path[bump] += 1;
        path[bump + 1..].fill(0);
    }
}

/// `schedule` shrunk and packaged, as the explorer packages a violation.
pub fn counterexample(
    scenario: &Scenario,
    schedule: Vec<ChoiceStep>,
    violation: SpecViolation,
    seed: u64,
) -> Counterexample {
    let property = violation.property;
    let (scenario, schedule, shrink_runs) =
        shrink(scenario.clone(), schedule, property, DEFAULT_SHRINK_BUDGET);
    let property = Some(property.to_string());
    Counterexample {
        repro: Repro {
            scenario,
            schedule,
            seed,
            property,
        },
        violation,
        shrink_runs,
    }
}
