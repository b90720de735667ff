//! The ready set of `gam_core::Runtime` is derived state: whoever reads a
//! row — the choice space, the fired action, the quiescence test — must see
//! what a fresh evaluation of every guard would yield, whatever happened
//! since the row was last derived.
//!
//! Debug builds assert this row by row at every read. Tier-1 runs in
//! release, so this suite asserts it explicitly
//! ([`Runtime::ready_set_is_current`]) after every operation of random
//! schedules over the fixture corpus — crash plans, variants and batch
//! widths crossed — with the operations that bypass `apply` mixed in:
//! mid-run `multicast`, `snapshot`/`restore`, `from_snapshot`, idle ticks
//! across detector breakpoints. The same schedules then start from deep
//! inside the drain of a preloaded backlog, where each process holds tens
//! of units in `stable` that the derivation reaches through the `LOG_g`
//! deliver frontier only; `ready_set_is_current` also checks there that no
//! in-flight list holds a unit at or past `stable`. (`gam-core`'s own unit
//! tests hold every derivation against a walk over *every* undelivered
//! unit, which only exists under `#[cfg(test)]`.) Three more tests gate the
//! point of the cache: a fair run re-derives few rows per step, the fair
//! tail that picks without listing the choice space visits fewer rows
//! still, and a backlogged run evaluates few guards per step.

use genuine_multicast::core::ReadyCounters;
use genuine_multicast::engine::run_with_source_counted;
use genuine_multicast::kernel::{ChoiceStep, RotatingSource};
use genuine_multicast::prelude::*;
use genuine_multicast::scenarios::{CrashPlan, FIXTURES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A member of a random group that survives the tick a `multicast` takes.
fn live_sender(rt: &Runtime, rng: &mut StdRng) -> Option<(ProcessId, GroupId)> {
    let g = GroupId(rng.gen_range(0..rt.system().len() as u32));
    let next = rt.now().next();
    rt.system()
        .members(g)
        .iter()
        .find(|p| rt.pattern().crash_time(*p).is_none_or(|c| next < c))
        .map(|p| (p, g))
}

/// Drives `exec` through `steps` random operations, checking the ready set
/// after each.
fn drive(mut exec: RuntimeExecutor, steps: usize, rng: &mut StdRng) -> Result<(), TestCaseError> {
    let mut options = Vec::new();
    let mut checkpoint = exec.snapshot();
    for step in 0..steps {
        match rng.gen_range(0..12u32) {
            0 => {
                if let Some((src, g)) = live_sender(exec.runtime(), rng) {
                    exec.runtime_mut().multicast(src, g, step as u64);
                }
            }
            1 => checkpoint = exec.snapshot(),
            2 => exec.restore(&checkpoint),
            3 => exec = RuntimeExecutor::from_snapshot(&exec.snapshot()),
            _ => {}
        }
        prop_assert!(exec.runtime().ready_set_is_current(), "step {step}");
        exec.enabled_actions(&mut options);
        prop_assert!(exec.runtime().ready_set_is_current(), "step {step}");
        if options.is_empty() {
            if exec.is_quiescent() {
                break;
            }
            exec.idle_tick();
        } else {
            let (pid, arity) = options[rng.gen_range(0..options.len())];
            // Past-the-end choices clamp, as in replay.
            let choice = rng.gen_range(0..arity + 1);
            exec.step(ChoiceStep { pid, choice });
        }
        prop_assert!(exec.runtime().ready_set_is_current(), "step {step}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn the_ready_set_is_never_wrong(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, text) in FIXTURES {
            let pinned = ScnDescriptor::parse(text).expect("pinned descriptor");
            for crash in [CrashPlan::None, CrashPlan::Isect { count: 2 }, CrashPlan::Rand { count: 2 }] {
                for variant in [Variant::Standard, Variant::Strict, Variant::Pairwise] {
                    for batch_max in [1, 16] {
                        let mut d = pinned;
                        d.crash = crash;
                        d.variant = variant;
                        d.seed = rng.gen_range(0..1_000u64);
                        let scenario = Scenario::from_descriptor(&d).with_batch_max(batch_max);
                        drive(scenario.runtime_executor(), 250, &mut rng).map_err(|e| {
                            TestCaseError::fail(format!("{name} {d:?} batch {batch_max}: {e:?}"))
                        })?;
                    }
                }
            }
        }
    }
}

/// The backlogged shapes: ≥ 30 messages per group, Zipf-skewed.
const BACKLOGS: [&str; 2] = [
    "gam-scn v1 family=rand(64,8,450) seed=0 crash=none traffic=zipf(1200,256) variant=standard budget=2000000",
    "gam-scn v1 family=ring(5,3) seed=0 crash=none traffic=zipf(1200,160) variant=standard budget=2000000",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn the_ready_set_is_never_wrong_behind_a_backlog(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for text in BACKLOGS {
            let pinned = ScnDescriptor::parse(text).expect("backlog descriptor");
            for crash in [CrashPlan::None, CrashPlan::Isect { count: 2 }] {
                for variant in [Variant::Standard, Variant::Strict, Variant::Pairwise] {
                    for batch_max in [1, 16] {
                        let mut d = pinned;
                        d.crash = crash;
                        d.variant = variant;
                        d.seed = rng.gen_range(7_000..7_100u64);
                        let scenario = Scenario::from_descriptor(&d).with_batch_max(batch_max);
                        let mut exec = scenario.runtime_executor();
                        // Somewhere into the drain: the sustained driver
                        // takes the run there, the random schedule goes on.
                        let set = exec.runtime().system().universe();
                        exec.runtime_mut().run_sustained(set, rng.gen_range(0..12_000u64));
                        drive(exec, 80, &mut rng).map_err(|e| {
                            TestCaseError::fail(format!("{d:?} batch {batch_max}: {e:?}"))
                        })?;
                    }
                }
            }
        }
    }
}

#[test]
fn a_backlogged_run_evaluates_few_guards_per_step() {
    // The first `serve_dense` descriptor of the gated benchmark, batch 1:
    // 256 messages preloaded on 64 processes. Of the tens of units a
    // process holds in `stable` only the head of each `LOG_g` deliver
    // frontier can pass its guard, so a step costs a handful of guard
    // evaluations — walking the backlog cost ≈ 41.
    let d = ScnDescriptor::parse(
        "gam-scn v1 family=rand(64,8,450) seed=7000 crash=none traffic=zipf(1200,256) variant=standard budget=2000000",
    )
    .expect("descriptor");
    let mut rt = Scenario::from_descriptor(&d)
        .with_batch_max(1)
        .runtime_executor()
        .into_runtime();
    let loaded = rt.now().0;
    assert!(rt.run_sustained(rt.system().universe(), d.budget));
    let steps = rt.now().0 - loaded;
    let counters = rt.ready_counters();
    assert!(steps > 20_000, "a real run: {steps} steps");
    assert!(
        counters.guards_evaluated <= 10 * steps,
        "{} guards evaluated over {steps} steps",
        counters.guards_evaluated
    );
    assert!(counters.guards_passed <= counters.guards_evaluated);
    assert!(
        counters.guards_passed >= steps,
        "every fired action passed a guard"
    );
}

/// The explorer's dense shape: 32 processes, one message in flight.
const DENSE_ONE: &str = "gam-scn v1 family=rand(32,8,450) seed=7000 crash=none traffic=one variant=standard budget=500000";

#[test]
fn a_fair_run_re_derives_few_rows_per_step() {
    // By genuineness a step concerns one group's members at most, and by
    // the per-kind footprints usually far fewer; before the ready set every
    // enumeration evaluated all 32 rows.
    let d = ScnDescriptor::parse(DENSE_ONE).expect("descriptor");
    let mut exec = Scenario::from_descriptor(&d).runtime_executor();
    let (outcome, steps) =
        run_with_source_counted(&mut exec, &mut RotatingSource::default(), d.budget);
    assert_eq!(outcome, genuine_multicast::kernel::RunOutcome::Quiescent);
    let counters = exec.runtime().ready_counters();
    assert!(steps > 100, "a real run: {steps} steps");
    let brought_up_to_date = counters.rows_refreshed + counters.rows_patched;
    assert!(
        brought_up_to_date < 8 * steps,
        "{brought_up_to_date} rows re-derived or patched over {steps} steps of 32 processes"
    );
    assert!(counters.rows_reused > brought_up_to_date);
    assert!(
        counters.rows_refreshed < steps / 4,
        "{} whole rows re-derived over {steps} steps: stale cells should do",
        counters.rows_refreshed
    );
    assert_eq!(
        counters.breakpoint_flushes, 0,
        "crash-free: time never stales a row"
    );
}

#[test]
fn a_fair_tail_visits_fewer_rows_than_listing_the_choice_space() {
    // The same run through `Executor::run_fair_tail`: the picker stops at
    // the first process with an enabled action, so it reads fewer rows than
    // a listing of every maybe-enabled one, and it reads each row once per
    // step, so it reuses none.
    let d = ScnDescriptor::parse(DENSE_ONE).expect("descriptor");
    let scenario = Scenario::from_descriptor(&d);
    let rows = |c: ReadyCounters| c.rows_refreshed + c.rows_patched + c.rows_reused;
    let mut listed = scenario.runtime_executor();
    let (_, steps) = run_with_source_counted(&mut listed, &mut RotatingSource::default(), d.budget);
    let mut picked = scenario.runtime_executor();
    let (outcome, tail_steps) = picked.run_fair_tail(d.budget, &mut Vec::new());
    assert_eq!(outcome, genuine_multicast::kernel::RunOutcome::Quiescent);
    assert_eq!(tail_steps, steps, "the same run");
    let (listed, picked) = (
        listed.runtime().ready_counters(),
        picked.runtime().ready_counters(),
    );
    assert!(
        rows(picked) < rows(listed),
        "the tail visited {} rows, the listing {}",
        rows(picked),
        rows(listed)
    );
    assert!(picked.guards_evaluated <= listed.guards_evaluated);
}
