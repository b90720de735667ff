//! `Executor::run_fair_tail` on the Level A runtime is the trait's default
//! loop, step for step.
//!
//! The default completes a run under a fresh `RotatingSource` over the
//! listed choice space; `RuntimeExecutor` overrides it with the runtime's
//! round-robin picker on a cursor the call owns, which lists nothing. The
//! explorer's tails, `replay` and the shrinker all run the override, and the
//! root equivalence suites hold them to an oracle whose tails still go
//! through `ScheduleSource`. This suite compares the two loops directly, from
//! the stamped initial state of every `.scn` fixture and of generated
//! descriptors (crash plans, variants and batch widths crossed), from states
//! a seeded random schedule or the sustained driver left mid-run, on a
//! scheduled subset, and across a budget cut: the outcome, the budget
//! consumed, the recorded schedule, the history digest, the full
//! `fold_state` walk, the report and the published trace events must agree.
//! Debug builds additionally check every row the picker derives against a
//! fresh derivation.

use genuine_multicast::core::Delivery;
use genuine_multicast::engine::{
    digest::trace_hash, run_with_source_counted, EventLog, Observer, TraceEvent,
};
use genuine_multicast::kernel::{ChoiceStep, RandomSource, RunOutcome};
use genuine_multicast::prelude::*;
use genuine_multicast::scenarios::CrashPlan;
use std::sync::{Arc, Mutex};

/// A runtime executor seen through the trait's default `run_fair_tail`:
/// every required method forwarded, the fair tail not overridden.
struct DefaultTail<'a>(&'a mut RuntimeExecutor);

impl Executor for DefaultTail<'_> {
    fn enabled_actions(&mut self, out: &mut Vec<(ProcessId, usize)>) {
        self.0.enabled_actions(out);
    }
    fn step(&mut self, action: ChoiceStep) {
        self.0.step(action);
    }
    fn state_digest(&self) -> u64 {
        self.0.state_digest()
    }
    fn is_quiescent(&self) -> bool {
        self.0.is_quiescent()
    }
    fn idle_tick(&mut self) -> bool {
        self.0.idle_tick()
    }
    fn attach(&mut self, observer: Box<dyn Observer + Send>) {
        self.0.attach(observer);
    }
}

type Tail = fn(&mut RuntimeExecutor, u64, &mut Vec<ChoiceStep>) -> (RunOutcome, u64);

const OVERRIDE: Tail = |exec, budget, record| exec.run_fair_tail(budget, record);
const DEFAULT: Tail = |exec, budget, record| DefaultTail(exec).run_fair_tail(budget, record);

/// Everything a fair tail leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    consumed: u64,
    schedule: Vec<ChoiceStep>,
    digest: u64,
    state: Vec<u64>,
    delivered: Vec<Vec<Delivery>>,
    actions_of: Vec<u64>,
    trace_hash: u64,
    events: Vec<TraceEvent>,
}

/// Runs `tail` on `exec` within `budget`, with a recording observer
/// attached when `observed`.
fn observe(exec: &mut RuntimeExecutor, tail: Tail, budget: u64, observed: bool) -> Observed {
    let log = Arc::new(Mutex::new(EventLog::new()));
    if observed {
        exec.attach(Box::new(Arc::clone(&log)));
    }
    let mut schedule = Vec::new();
    let (outcome, consumed) = tail(exec, budget, &mut schedule);
    let mut state = Vec::new();
    exec.runtime().fold_state(&mut |w| state.push(w));
    let report = exec.report(outcome == RunOutcome::Quiescent);
    let events = log.lock().expect("observer lock").events().to_vec();
    Observed {
        outcome,
        consumed,
        schedule,
        digest: exec.state_digest(),
        state,
        trace_hash: trace_hash(&report),
        delivered: report.delivered,
        actions_of: report.actions_of,
        events,
    }
}

/// Runs both tails from twin executors built by `start`, unobserved and
/// observed, and asserts they agree. Returns the budget the run consumed.
fn assert_tails_agree(name: &str, start: &dyn Fn() -> RuntimeExecutor, budget: u64) -> u64 {
    let mut consumed = 0;
    for observed in [false, true] {
        let fast = observe(&mut start(), OVERRIDE, budget, observed);
        let slow = observe(&mut start(), DEFAULT, budget, observed);
        assert_eq!(fast, slow, "{name}, observed {observed}");
        consumed = fast.consumed;
    }
    consumed
}

/// Cuts the budget of both tails at half of what the full run consumed,
/// then continues each with a second call on the rest: the cut must land
/// on the same step, and each call starts its cursor afresh.
fn assert_cut_tails_agree(name: &str, start: &dyn Fn() -> RuntimeExecutor, budget: u64) {
    let full = assert_tails_agree(name, start, budget);
    let cut = full / 2;
    let (mut fast_exec, mut slow_exec) = (start(), start());
    let fast = observe(&mut fast_exec, OVERRIDE, cut, true);
    let slow = observe(&mut slow_exec, DEFAULT, cut, true);
    assert_eq!(fast, slow, "{name}, cut at {cut}");
    if cut > 0 {
        assert_eq!(fast.outcome, RunOutcome::BudgetExhausted, "{name}");
    }
    let fast = observe(&mut fast_exec, OVERRIDE, budget - cut, false);
    let slow = observe(&mut slow_exec, DEFAULT, budget - cut, false);
    assert_eq!(fast, slow, "{name}, resumed after the cut at {cut}");
}

/// Every start state of `scenario` the suite checks, each compared.
fn check_scenario(name: &str, scenario: &Scenario) {
    let budget = scenario.max_steps;
    let stamped = || RuntimeExecutor::from_snapshot(&scenario.runtime_executor().snapshot());
    assert_cut_tails_agree(&format!("{name} stamped"), &stamped, budget);

    for (k, seed) in [(4u64, 1u64), (25, 2), (90, 3)] {
        let random = || {
            let mut exec = stamped();
            run_with_source_counted(&mut exec, &mut RandomSource::new(seed), k);
            exec
        };
        let name = format!("{name} after {k} random steps");
        assert_tails_agree(&name, &random, budget - k);
    }

    // The sustained driver keeps its own cursor in the runtime; a tail
    // starts from 0 wherever that one stands.
    let sustained = || {
        let mut exec = stamped();
        let set = exec.runtime().system().universe();
        exec.runtime_mut().run_sustained(set, 7);
        exec
    };
    assert_tails_agree(
        &format!("{name} after 7 sustained steps"),
        &sustained,
        budget,
    );

    // A scheduled subset: obligations the subset cannot discharge idle the
    // run into its budget.
    let n = scenario.system.universe().len();
    let subset = ProcessSet::first_n(n / 2 + 1);
    let partial = || RuntimeExecutor::with_set(stamped().into_runtime(), subset);
    assert_tails_agree(
        &format!("{name} on {subset:?}"),
        &partial,
        budget.min(5_000),
    );
}

/// Every `.scn` file under `tests/fixtures/`.
fn committed_scenarios() -> Vec<(String, Scenario)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("tests/fixtures exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "scn") {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable fixture");
            let d = ScnDescriptor::parse(&text).expect("descriptor parses");
            out.push((name, Scenario::from_descriptor(&d)));
        }
    }
    assert!(!out.is_empty(), "no .scn fixtures checked in");
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn the_runtime_tail_is_the_default_loop_on_the_fixture_corpus() {
    for (name, scenario) in committed_scenarios() {
        for batch_max in [1, 16] {
            let scenario = scenario.clone().with_batch_max(batch_max);
            check_scenario(&format!("{name} batch {batch_max}"), &scenario);
        }
    }
}

#[test]
fn the_runtime_tail_is_the_default_loop_across_crashes_variants_and_batching() {
    let crashes = [
        CrashPlan::None,
        CrashPlan::Isect { count: 2 },
        CrashPlan::Rand { count: 2 },
    ];
    let pinned = ScnDescriptor::parse(
        "gam-scn v1 family=rand(8,3,450) seed=11 crash=none traffic=uniform(6) variant=standard budget=200000",
    )
    .expect("descriptor");
    for crash in crashes {
        for variant in [Variant::Standard, Variant::Strict, Variant::Pairwise] {
            for batch_max in [1, 16] {
                let mut d = pinned;
                d.crash = crash;
                d.variant = variant;
                let scenario = Scenario::from_descriptor(&d).with_batch_max(batch_max);
                check_scenario(&format!("{} batch {batch_max}", d.render()), &scenario);
            }
        }
    }
}
