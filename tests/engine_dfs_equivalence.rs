//! The snapshotting DFS behind `explore` is *the same exploration* as the
//! restart-from-scratch odometer of `tests/common/odometer.rs` — only
//! cheaper.
//!
//! `gam_explore::explore` must be indistinguishable from the odometer in
//! everything a user can cite: coverage outcome, the byte-identical shrunk
//! `Repro` on violating workloads, and — without a visited set — run
//! counts. There the step accounting must also close exactly:
//! `steps_executed + steps_avoided` of the DFS equals the steps the
//! odometer executes on the same tree, with a strict saving whenever the
//! tree actually branches. With a visited set the DFS caches whole
//! subtrees, so it reaches at most the odometer's leaves.
//!
//! All of which rests on `SnapshotExec::restore` rewinding bit for bit —
//! checked here directly, crash plans included, because a restore rewrites
//! the executor's own storage in place instead of replacing it.

mod common;

use common::odometer::odometer;
use genuine_multicast::engine::{replay, run_with_source_counted, PrefixTail, RuntimeSnapshot};
use genuine_multicast::explore::{Mode, Outcome};
use genuine_multicast::kernel::{ChoiceStep, RecordInto, ReplaySource, RotatingSource, RunOutcome};
use genuine_multicast::prelude::*;
use genuine_multicast::scenarios::{ScnDescriptor, FIXTURES};

fn config(threads: usize, dedup_capacity: usize) -> ExploreConfig {
    ExploreConfig {
        threads,
        dedup_capacity,
        ..ExploreConfig::default()
    }
}

fn exhaustive(depth: usize, max_runs: u64) -> Mode {
    Mode::Exhaustive { depth, max_runs }
}

/// The fixture topologies of `tests/fixtures/` plus the smallest branching
/// system, with per-topology exploration depths kept test-sized.
fn fixture_scenarios() -> Vec<(&'static str, Scenario, usize)> {
    vec![
        (
            "single-group(2)",
            Scenario::one_per_group(&topology::single_group(2), 20_000),
            3,
        ),
        (
            "two-overlapping(3,1)",
            Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000),
            3,
        ),
        (
            "ring(3,2)",
            Scenario::one_per_group(&topology::ring(3, 2), 100_000),
            3,
        ),
        (
            "fig1",
            Scenario::one_per_group(&topology::fig1(), 200_000),
            2,
        ),
    ]
}

#[test]
fn dfs_matches_odometer_on_every_fixture_topology() {
    for (name, scenario, depth) in fixture_scenarios() {
        let oracle = odometer(&scenario, depth, 100_000);
        assert_eq!(oracle.outcome, Outcome::Exhausted, "{name}: odometer");
        let dfs = explore(&scenario, exhaustive(depth, 100_000), &config(1, 0));
        assert!(dfs.clean(), "{name}: DFS found {:?}", dfs.violations);
        assert_eq!(dfs.runs, oracle.runs, "{name}: coverage diverged");
        assert_eq!(dfs.dedup_hits, 0, "{name}: no visited set, no hits");
        // The accounting closes exactly, and sharing strictly saves.
        assert_eq!(
            dfs.steps_executed + dfs.steps_avoided,
            oracle.steps,
            "{name}: step accounting must close"
        );
        assert!(
            dfs.steps_executed < oracle.steps,
            "{name}: prefix sharing saved nothing ({} vs {})",
            dfs.steps_executed,
            oracle.steps
        );
        assert!(dfs.snapshots_taken > 0, "{name}");
        assert!(
            dfs.steps_avoided * 1000 >= dfs.steps_executed + dfs.steps_avoided,
            "{name}"
        );
    }
}

#[test]
fn parallel_dfs_matches_parallel_odometer_coverage() {
    let scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000);
    let oracle = odometer(&scenario, 3, 100_000);
    assert_eq!(oracle.outcome, Outcome::Exhausted);
    for threads in [1, 2, 4] {
        for dedup_capacity in [0, 1 << 12] {
            let what = format!("{threads}t/{dedup_capacity}");
            let dfs = explore(
                &scenario,
                exhaustive(3, 100_000),
                &config(threads, dedup_capacity),
            );
            assert!(dfs.clean(), "{what}");
            if dedup_capacity > 0 {
                // The DFS caches whole subtrees: it reaches a subset of the
                // leaves.
                assert!(dfs.runs <= oracle.runs, "{what}");
                continue;
            }
            assert_eq!(dfs.runs, oracle.runs, "{what}");
            // Same leaves, however the tree was split: the step accounting
            // closes exactly.
            assert_eq!(
                dfs.steps_executed + dfs.steps_avoided,
                oracle.steps,
                "{what}: step accounting must close"
            );
            assert!(dfs.steps_executed < oracle.steps, "{what}");
        }
    }
}

/// Every schedule of this scenario violates termination (the step budget is
/// far below quiescence) — the adversarial case for violation reporting.
fn starved_scenario() -> Scenario {
    Scenario::one_per_group(&topology::two_overlapping(3, 1), 12)
}

/// `explore` at {1, 2, 4} threads × dedup {0, 2¹²} reports the odometer's
/// shrunk counterexample byte for byte.
fn assert_reports_the_oracle_repro(scenario: &Scenario, depth: usize) {
    let oracle = odometer(scenario, depth, 10_000);
    assert_eq!(oracle.outcome, Outcome::ViolationFound);
    let reference = oracle.violation.expect("a counterexample");
    assert_eq!(reference.violation.property, "termination");
    for threads in [1, 2, 4] {
        for dedup_capacity in [0, 1 << 12] {
            let what = format!("{threads} threads, dedup {dedup_capacity}");
            let config = config(threads, dedup_capacity);
            let stats = explore(scenario, exhaustive(depth, 10_000), &config);
            assert_eq!(stats.outcome, Outcome::ViolationFound, "{what}");
            let cx = &stats.violations[0];
            assert_eq!(
                cx.repro.to_text(),
                reference.repro.to_text(),
                "{what}: repro text diverged"
            );
            assert_eq!(
                cx.repro.trace_hash(),
                reference.repro.trace_hash(),
                "{what}: trace digest diverged"
            );
            assert_eq!(cx.violation.property, reference.violation.property);
        }
    }
}

#[test]
fn violating_workload_yields_byte_identical_shrunk_counterexample() {
    assert_reports_the_oracle_repro(&starved_scenario(), 3);
}

#[test]
fn the_subtree_cache_reports_the_same_counterexample_on_a_starved_crash_plan() {
    // A member of the intersection crashes at t = 12 and the budget runs
    // out at 24: some subtrees complete clean, so the visited set caches
    // them, and a later leaf violates termination.
    let mut scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 24);
    scenario.crashes = vec![(ProcessId(2), Time(12))];
    let walk = |threads, dedup_capacity| {
        explore(
            &scenario,
            exhaustive(4, 10_000),
            &config(threads, dedup_capacity),
        )
    };
    let reference = walk(1, 0);
    assert_eq!(reference.outcome, Outcome::ViolationFound);
    let reference = &reference.violations[0].repro;
    for threads in [1, 2] {
        for dedup_capacity in [0, 1 << 16] {
            let got = walk(threads, dedup_capacity);
            let what = format!("{threads} threads, dedup {dedup_capacity}");
            assert_eq!(got.outcome, Outcome::ViolationFound, "{what}");
            let repro = &got.violations[0].repro;
            assert_eq!(repro.to_text(), reference.to_text(), "{what}");
            assert_eq!(repro.trace_hash(), reference.trace_hash(), "{what}");
            if threads == 1 && dedup_capacity > 0 {
                assert!(got.dedup_hits > 0, "{what}: the cache hit nothing");
            }
        }
    }
}

#[test]
fn batched_trees_explore_identically_across_engines_and_threads() {
    // Level-A consensus batching widens the choice space (a batch width is
    // itself a scheduling choice): the DFS must still walk the odometer's
    // *same* wider tree, close the step accounting, and agree across thread
    // counts.
    for (name, scenario, depth) in fixture_scenarios() {
        let scenario = scenario.with_batch_max(16);
        let oracle = odometer(&scenario, depth, 100_000);
        assert_eq!(oracle.outcome, Outcome::Exhausted, "{name}: odometer");
        for threads in [1, 2, 4] {
            let dfs = explore(&scenario, exhaustive(depth, 100_000), &config(threads, 0));
            assert!(dfs.clean(), "{name}/{threads}t: {:?}", dfs.violations);
            assert_eq!(dfs.runs, oracle.runs, "{name}/{threads}t");
            assert_eq!(
                dfs.steps_executed + dfs.steps_avoided,
                oracle.steps,
                "{name}/{threads}t: batched step accounting must close"
            );
        }
    }
}

#[test]
fn batched_violating_workload_shrinks_byte_identically() {
    assert_reports_the_oracle_repro(&starved_scenario().with_batch_max(16), 3);
}

#[test]
fn run_cap_stops_both_engines_at_the_same_leaf() {
    let scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000);
    let oracle = odometer(&scenario, 4, 7);
    let dfs = explore(&scenario, exhaustive(4, 7), &config(1, 0));
    assert_eq!((oracle.runs, oracle.outcome), (7, Outcome::RunCapped));
    assert_eq!((dfs.runs, dfs.outcome), (7, Outcome::RunCapped));
    assert!(dfs.violations.is_empty());
    // The capped enumerations are the same leaves, so the DFS's
    // restart-equivalent cost is the odometer's actual cost.
    assert_eq!(dfs.steps_executed + dfs.steps_avoided, oracle.steps);
}

/// Every fixture topology crash-free and with a member of its first group
/// intersection (its last process, where no groups intersect) crashing
/// mid-run, plus the pinned descriptor corpus — whose 479-process tree
/// under `isect(4)` only release builds have the time for.
fn restore_scenarios() -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    for (name, scenario, _) in fixture_scenarios() {
        let system = &scenario.system;
        let victim = system
            .intersecting_pairs()
            .first()
            .and_then(|&(g, h)| system.intersection(g, h).min())
            .or(system.universe().max())
            .expect("non-empty system");
        let mut crashy = scenario.clone();
        crashy.crashes = vec![(victim, Time(12))];
        out.push((name.to_string(), scenario));
        out.push((format!("{name} crash {victim}@12"), crashy));
    }
    for (name, text) in FIXTURES {
        let d = ScnDescriptor::parse(text).expect("pinned descriptor");
        if cfg!(debug_assertions) && d.generate().system.universe().len() > 64 {
            continue;
        }
        out.push((format!("corpus {name}"), Scenario::from_descriptor(&d)));
    }
    out
}

/// Where an executor stands, bit for bit: its history digest and the full
/// `Runtime::fold_state` word vector — and, kept apart, its
/// `state_fingerprint`. The fingerprint is the dedup key, a quotient of the
/// state (it tells neither unit names nor action counts apart), so it is
/// asserted beside the state and never stands in for it.
type Standing = ((u64, Vec<u64>), u64);

fn standing(exec: &RuntimeExecutor) -> Standing {
    let mut words = Vec::new();
    exec.runtime().fold_state(&mut |w| words.push(w));
    ((exec.state_digest(), words), exec.state_fingerprint())
}

fn assert_same_standing(got: &Standing, want: &Standing, what: &str) {
    assert_eq!(got.0, want.0, "{what}");
    assert_eq!(got.1, want.1, "{what}: equal states, unequal fingerprints");
}

#[test]
fn restore_rewinds_bit_for_bit_and_never_writes_the_snapshot() {
    for (name, scenario) in restore_scenarios() {
        let budget = scenario.max_steps;
        // A few fair steps in, then on to the next point where the schedule
        // branches: `head` is how a cold executor gets there.
        let mut exec = scenario.runtime_executor();
        let mut head = Vec::new();
        let mut rec = RecordInto::new(RotatingSource::default(), &mut head);
        let (_, mut taken) = run_with_source_counted(&mut exec, &mut rec, 6);
        let mut options = Vec::new();
        let children = loop {
            assert!(taken < budget, "{name}: no branch point");
            exec.enabled_actions(&mut options);
            let mut flat = options
                .iter()
                .flat_map(|&(pid, arity)| (0..arity).map(move |choice| ChoiceStep { pid, choice }));
            match (flat.next(), flat.next()) {
                (None, _) => {
                    assert!(!exec.is_quiescent(), "{name}: over before it branched");
                    exec.idle_tick();
                }
                (Some(only), None) => {
                    exec.step(only);
                    head.push(only);
                }
                (Some(a), Some(b)) => break [a, b],
            }
            taken += 1;
        };
        let snap = exec.snapshot();
        let at = standing(&exec);

        // One child's step, then the fair tail to the end of the run.
        let finish = |exec: &mut RuntimeExecutor, child: ChoiceStep| {
            let mut src = PrefixTail::new(ReplaySource::new(vec![child]));
            let (out, _) = run_with_source_counted(exec, &mut src, budget - taken);
            (out, standing(exec))
        };
        let assert_same_finish =
            |got: (RunOutcome, Standing), want: &(RunOutcome, Standing), what: &str| {
                assert_eq!(got.0, want.0, "{name}: {what}");
                assert_same_standing(&got.1, &want.1, &format!("{name}: {what}"));
            };
        let rewind = |exec: &mut RuntimeExecutor, to: &RuntimeSnapshot, what: &str| {
            exec.restore(to);
            assert!(exec.runtime().ready_set_is_current(), "{name}: {what}");
            assert_same_standing(
                &standing(exec),
                &at,
                &format!("{name}: {what} must land on the checkpoint"),
            );
        };

        let first = finish(&mut exec, children[0]);
        assert_eq!(first.0, RunOutcome::Quiescent, "{name}");
        rewind(&mut exec, &snap, "restore after child 0");
        let other = finish(&mut exec, children[1]);
        rewind(&mut exec, &snap, "restore after child 1");
        assert_same_finish(finish(&mut exec, children[0]), &first, "child 0 again");

        // A cold executor replaying the same path from the start agrees.
        let mut cold = scenario.runtime_executor();
        head.push(children[0]);
        let out = replay(&mut cold, &head, budget);
        assert_same_finish((out, standing(&cold)), &first, "cold replay");

        // Twins rewind each other: a snapshot taken on one executor
        // restores the other, in both directions, mid-run or finished.
        let mut twin = RuntimeExecutor::from_snapshot(&snap);
        assert_same_finish(finish(&mut twin, children[1]), &other, "twin");
        rewind(&mut exec, &snap, "restore before the exchange");
        let taken_on_exec = exec.snapshot();
        rewind(
            &mut twin,
            &taken_on_exec,
            "twin restored from exec's snapshot",
        );
        let taken_on_twin = twin.snapshot();
        assert_same_finish(finish(&mut twin, children[0]), &first, "twin, child 0");
        assert_same_finish(finish(&mut exec, children[1]), &other, "exec, child 1");
        rewind(
            &mut exec,
            &taken_on_twin,
            "exec restored from twin's snapshot",
        );
        assert_same_finish(finish(&mut exec, children[0]), &first, "exec, child 0");

        // After all of it the first snapshot still is what it captured.
        let check = RuntimeExecutor::from_snapshot(&snap);
        assert!(check.runtime().ready_set_is_current(), "{name}: snapshot");
        assert_same_standing(
            &standing(&check),
            &at,
            &format!("{name}: the snapshot was written through"),
        );
    }
}
