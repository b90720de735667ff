//! The snapshotting DFS engine is *the same exploration* as the odometer
//! engine — only cheaper.
//!
//! `gam_explore::explore_exhaustive_dfs` (and its parallel pool) must be
//! indistinguishable from the restart-from-scratch odometer engines in
//! everything a user can cite: coverage outcome, the byte-identical shrunk
//! `Repro` on violating workloads, and — without a visited set — run
//! counts. There the step accounting must also close exactly:
//! `steps_executed + steps_avoided` of the DFS equals `steps_executed` of
//! the odometer engine on the same tree, with a strict saving whenever the
//! tree actually branches. With a visited set the DFS caches whole
//! subtrees where the odometer skips only fair tails, so it reaches at
//! most the odometer's leaves.
//!
//! All of which rests on `SnapshotExec::restore` rewinding bit for bit —
//! checked here directly, crash plans included, because a restore rewrites
//! the executor's own storage in place instead of replacing it.

use genuine_multicast::engine::{replay, run_with_source_counted, PrefixTail, RuntimeSnapshot};
use genuine_multicast::explore::{
    explore_exhaustive, explore_exhaustive_dfs, explore_exhaustive_dfs_par, Outcome,
    DEFAULT_SHRINK_BUDGET,
};
use genuine_multicast::kernel::{
    ChoiceStep, RecordingSource, ReplaySource, RotatingSource, RunOutcome,
};
use genuine_multicast::prelude::*;
use genuine_multicast::scenarios::{ScnDescriptor, FIXTURES};

fn config(threads: usize, dedup_capacity: usize) -> ExploreConfig {
    ExploreConfig {
        threads,
        shrink_budget: DEFAULT_SHRINK_BUDGET,
        dedup_capacity,
        por: false,
    }
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
        let seq = explore_exhaustive(&scenario, depth, 100_000, DEFAULT_SHRINK_BUDGET);
        assert!(seq.clean(), "{name}: odometer found {:?}", seq.violations);
        let dfs = explore_exhaustive_dfs(&scenario, depth, 100_000, DEFAULT_SHRINK_BUDGET);
        assert!(dfs.clean(), "{name}: DFS found {:?}", dfs.violations);
        assert_eq!(dfs.runs, seq.runs, "{name}: coverage diverged");
        assert_eq!(dfs.outcome, seq.outcome, "{name}");
        assert_eq!(dfs.dedup_hits, 0, "{name}: sequential engines don't dedup");
        // The accounting closes exactly, and sharing strictly saves.
        assert_eq!(
            dfs.steps_executed + dfs.steps_avoided,
            seq.steps_executed,
            "{name}: step accounting must close"
        );
        assert!(
            dfs.steps_executed < seq.steps_executed,
            "{name}: prefix sharing saved nothing ({} vs {})",
            dfs.steps_executed,
            seq.steps_executed
        );
        assert!(dfs.snapshots_taken > 0, "{name}");
    }
}

#[test]
fn parallel_dfs_matches_parallel_odometer_coverage() {
    let scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000);
    for threads in [1, 2, 4] {
        for dedup_capacity in [0, 1 << 12] {
            let odo =
                explore_exhaustive_par(&scenario, 3, 100_000, &config(threads, dedup_capacity));
            let dfs =
                explore_exhaustive_dfs_par(&scenario, 3, 100_000, &config(threads, dedup_capacity));
            assert!(odo.clean() && dfs.clean(), "{threads}t/{dedup_capacity}");
            assert_eq!(dfs.outcome, odo.outcome);
            if dedup_capacity > 0 {
                // The DFS caches whole subtrees where the odometer skips
                // only fair tails: it reaches a subset of the leaves.
                assert!(dfs.runs <= odo.runs, "{threads}t/{dedup_capacity}");
                continue;
            }
            assert_eq!(dfs.runs, odo.runs, "{threads}t");
            if threads == 1 {
                // Same leaves, same order: the step accounting closes
                // exactly.
                assert_eq!(
                    dfs.steps_executed + dfs.steps_avoided,
                    odo.steps_executed,
                    "step accounting must close"
                );
                assert!(dfs.steps_executed < odo.steps_executed);
            }
        }
    }
}

/// Every schedule of this scenario violates termination (the step budget is
/// far below quiescence) — the adversarial case for violation reporting.
fn starved_scenario() -> Scenario {
    Scenario::one_per_group(&topology::two_overlapping(3, 1), 12)
}

#[test]
fn violating_workload_yields_byte_identical_shrunk_counterexample() {
    let scenario = starved_scenario();
    let seq = explore_exhaustive(&scenario, 3, 10_000, DEFAULT_SHRINK_BUDGET);
    assert_eq!(seq.outcome, Outcome::ViolationFound);
    let reference = &seq.violations[0];
    assert_eq!(reference.violation.property, "termination");

    let dfs = explore_exhaustive_dfs(&scenario, 3, 10_000, DEFAULT_SHRINK_BUDGET);
    assert_eq!(dfs.outcome, Outcome::ViolationFound);
    assert_eq!(
        dfs.violations[0].repro.to_text(),
        reference.repro.to_text(),
        "sequential DFS repro diverged"
    );
    assert_eq!(
        dfs.violations[0].repro.trace_hash(),
        reference.repro.trace_hash()
    );

    for threads in [1, 2, 4] {
        for dedup_capacity in [0, 1 << 12] {
            let par =
                explore_exhaustive_dfs_par(&scenario, 3, 10_000, &config(threads, dedup_capacity));
            assert_eq!(par.outcome, Outcome::ViolationFound, "{threads} threads");
            let cx = &par.violations[0];
            assert_eq!(
                cx.repro.to_text(),
                reference.repro.to_text(),
                "{threads} threads, dedup {dedup_capacity}: repro text diverged"
            );
            assert_eq!(
                cx.repro.trace_hash(),
                reference.repro.trace_hash(),
                "{threads} threads, dedup {dedup_capacity}: trace digest diverged"
            );
            assert_eq!(cx.violation.property, reference.violation.property);
        }
    }
}

#[test]
fn the_subtree_cache_reports_the_same_counterexample_on_a_starved_crash_plan() {
    // A member of the intersection crashes at t = 12 and the budget runs
    // out at 24: some subtrees complete clean, so the visited set caches
    // them, and a later leaf violates termination.
    let mut scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 24);
    scenario.crashes = vec![(ProcessId(2), Time(12))];
    let explore = |threads, dedup_capacity, por| {
        let config = ExploreConfig {
            por,
            ..config(threads, dedup_capacity)
        };
        explore_exhaustive_dfs_par(&scenario, 4, 10_000, &config)
    };
    let reference = explore(1, 0, false);
    assert_eq!(reference.outcome, Outcome::ViolationFound);
    let reference = &reference.violations[0].repro;
    for threads in [1, 2] {
        for dedup_capacity in [0, 1 << 16] {
            for por in [false, true] {
                let got = explore(threads, dedup_capacity, por);
                let what = format!("{threads} threads, dedup {dedup_capacity}, POR {por}");
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
}

#[test]
fn batched_trees_explore_identically_across_engines_and_threads() {
    // Level-A consensus batching widens the choice space (a batch width is
    // itself a scheduling choice): the engines must still walk the *same*
    // wider tree, close the step accounting, and agree across thread
    // counts.
    for (name, scenario, depth) in fixture_scenarios() {
        let scenario = scenario.with_batch_max(16);
        let seq = explore_exhaustive(&scenario, depth, 100_000, DEFAULT_SHRINK_BUDGET);
        assert!(seq.clean(), "{name}: odometer found {:?}", seq.violations);
        let dfs = explore_exhaustive_dfs(&scenario, depth, 100_000, DEFAULT_SHRINK_BUDGET);
        assert!(dfs.clean(), "{name}: DFS found {:?}", dfs.violations);
        assert_eq!(dfs.runs, seq.runs, "{name}: batched coverage diverged");
        assert_eq!(dfs.outcome, seq.outcome, "{name}");
        assert_eq!(
            dfs.steps_executed + dfs.steps_avoided,
            seq.steps_executed,
            "{name}: batched step accounting must close"
        );
        for threads in [1, 2, 4] {
            let par = explore_exhaustive_dfs_par(&scenario, depth, 100_000, &config(threads, 0));
            assert!(par.clean(), "{name}/{threads}t");
            assert_eq!(par.runs, seq.runs, "{name}/{threads}t");
            assert_eq!(par.outcome, seq.outcome, "{name}/{threads}t");
        }
    }
}

#[test]
fn batched_violating_workload_shrinks_byte_identically() {
    let scenario = starved_scenario().with_batch_max(16);
    let seq = explore_exhaustive(&scenario, 3, 10_000, DEFAULT_SHRINK_BUDGET);
    assert_eq!(seq.outcome, Outcome::ViolationFound);
    let reference = &seq.violations[0];
    assert_eq!(reference.violation.property, "termination");

    let dfs = explore_exhaustive_dfs(&scenario, 3, 10_000, DEFAULT_SHRINK_BUDGET);
    assert_eq!(dfs.outcome, Outcome::ViolationFound);
    assert_eq!(
        dfs.violations[0].repro.to_text(),
        reference.repro.to_text(),
        "batched sequential DFS repro diverged"
    );

    for threads in [1, 2, 4] {
        for dedup_capacity in [0, 1 << 12] {
            let par =
                explore_exhaustive_dfs_par(&scenario, 3, 10_000, &config(threads, dedup_capacity));
            assert_eq!(par.outcome, Outcome::ViolationFound, "{threads} threads");
            let cx = &par.violations[0];
            assert_eq!(
                cx.repro.to_text(),
                reference.repro.to_text(),
                "{threads} threads, dedup {dedup_capacity}: batched repro text diverged"
            );
            assert_eq!(
                cx.repro.trace_hash(),
                reference.repro.trace_hash(),
                "{threads} threads, dedup {dedup_capacity}: batched trace digest diverged"
            );
        }
    }
}

#[test]
fn run_cap_stops_both_engines_at_the_same_leaf() {
    let scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000);
    let seq = explore_exhaustive(&scenario, 4, 7, DEFAULT_SHRINK_BUDGET);
    let dfs = explore_exhaustive_dfs(&scenario, 4, 7, DEFAULT_SHRINK_BUDGET);
    for (stats, label) in [(&seq, "odometer"), (&dfs, "dfs")] {
        assert_eq!(stats.runs, 7, "{label}");
        assert_eq!(stats.outcome, Outcome::RunCapped, "{label}");
        assert!(stats.violations.is_empty(), "{label}");
    }
    // The capped enumerations are the same leaves, so the DFS's
    // odometer-equivalent cost is the odometer's actual cost.
    assert_eq!(dfs.steps_executed + dfs.steps_avoided, seq.steps_executed);

    let par = explore_exhaustive_dfs_par(&scenario, 4, 7, &config(1, 0));
    assert_eq!(par.runs, 7);
    assert_eq!(par.outcome, Outcome::RunCapped);
    assert!(par.violations.is_empty());
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
        let mut rec = RecordingSource::new(RotatingSource::default());
        let (_, mut taken) = run_with_source_counted(&mut exec, &mut rec, 6);
        let mut head = rec.into_log();
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
