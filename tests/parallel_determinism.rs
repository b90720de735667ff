//! Thread-count invariance of the explorer.
//!
//! The contract of `gam_explore::explore` is that parallelism changes
//! wall-clock time and nothing else a user can cite: the reported
//! counterexample — its `Repro` text and its replay trace digest — is
//! byte-identical whether the exploration ran on 1, 2, or 4 workers, and
//! identical to what the oracles of `tests/common` (a restart-from-scratch
//! odometer and a plain loop over seeds) produce. Clean explorations must
//! also agree on coverage (`runs`, outcome) without a visited set.
//!
//! Violating workloads are built without any seeded bug: `check_all`'s
//! termination property requires quiescence, so a step budget too small for
//! the protocol to finish makes every schedule a counterexample. That is
//! the adversarial case for the merge — every worker finds a violation at
//! once, and the canonically-least one must still win the race.

mod common;

use common::odometer::odometer;
use genuine_multicast::explore::{Counterexample, Mode, Outcome};
use genuine_multicast::prelude::*;

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

/// A scenario whose step budget is far below quiescence: every completed
/// schedule violates termination, so every work item races to report a
/// counterexample and the merge must pick the canonical one.
fn starved_scenario() -> Scenario {
    Scenario::one_per_group(&topology::two_overlapping(3, 1), 12)
}

fn assert_same_repro(got: &Counterexample, want: &Counterexample, what: &str) {
    assert_eq!(
        got.repro.to_text(),
        want.repro.to_text(),
        "{what}: repro text diverged"
    );
    assert_eq!(
        got.repro.trace_hash(),
        want.repro.trace_hash(),
        "{what}: trace digest diverged"
    );
    assert_eq!(got.violation.property, want.violation.property, "{what}");
}

#[test]
fn exhaustive_counterexample_is_invariant_across_thread_counts() {
    let scenario = starved_scenario();
    let reference = odometer(&scenario, 3, 10_000).violation.expect("violates");
    assert_eq!(reference.violation.property, "termination");

    for threads in [1, 2, 4] {
        for dedup_capacity in [0, 1 << 12] {
            let config = config(threads, dedup_capacity);
            let stats = explore(&scenario, exhaustive(3, 10_000), &config);
            let what = format!("{threads} threads, dedup {dedup_capacity}");
            assert_eq!(stats.outcome, Outcome::ViolationFound, "{what}");
            assert_same_repro(&stats.violations[0], &reference, &what);
        }
    }
}

#[test]
fn swarm_counterexample_is_invariant_across_thread_counts() {
    let scenario = starved_scenario();
    let reference = common::swarm(&scenario, 0..8).expect("violates");
    assert_eq!(reference.repro.seed, 0, "lowest violating seed wins");

    for threads in [1, 2, 4] {
        let stats = explore(&scenario, Mode::Swarm { seeds: 0..8 }, &config(threads, 0));
        assert_eq!(stats.outcome, Outcome::ViolationFound, "{threads} threads");
        let cx = &stats.violations[0];
        assert_eq!(cx.repro.seed, 0, "{threads} threads");
        assert_same_repro(cx, &reference, &format!("{threads} threads"));
    }
}

#[test]
fn clean_exploration_stats_are_invariant_across_thread_counts() {
    // With enough budget the same topology quiesces everywhere: full
    // coverage, and without a visited set the covered-prefix count must not
    // depend on threads. A visited set skips clean subtrees, so it can only
    // cover fewer leaves.
    let scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000);
    let oracle = odometer(&scenario, 3, 10_000);
    assert_eq!(oracle.outcome, Outcome::Exhausted);

    for threads in [1, 2, 4] {
        for dedup_capacity in [0, 1 << 12] {
            let config = config(threads, dedup_capacity);
            let stats = explore(&scenario, exhaustive(3, 10_000), &config);
            let what = format!("{threads} threads, dedup {dedup_capacity}");
            assert!(stats.clean(), "{what}: {:?}", stats.violations);
            match dedup_capacity {
                0 => assert_eq!(stats.runs, oracle.runs, "{what}"),
                _ => assert!(stats.runs <= oracle.runs, "{what}"),
            }
        }
    }

    assert!(common::swarm(&scenario, 0..6).is_none());
    for threads in [1, 2, 4] {
        let stats = explore(&scenario, Mode::Swarm { seeds: 0..6 }, &config(threads, 0));
        assert!(stats.clean(), "{threads} threads: {:?}", stats.violations);
        assert_eq!(stats.runs, 6, "{threads} threads");
    }
}

#[test]
fn relaxed_hint_races_cannot_change_the_answer_across_repeated_runs() {
    // Regression guard for the relaxed-ordering arguments in `explorer.rs`
    // and `dfs.rs`: the `best_item` skip hint and the shared run budget are
    // deliberately `Ordering::Relaxed`, and the written arguments claim the
    // merge output is independent of how those races resolve. Hammer the
    // adversarial case — every worker finds a violation at once — across
    // thread counts *and* repetitions, so a genuinely racy hint (one that
    // could skip a candidate at or below the canonical winner) would show
    // up as a diverging repro on some iteration.
    let scenario = starved_scenario();
    let reference = odometer(&scenario, 3, 10_000).violation.expect("violates");
    let swarm_reference = common::swarm(&scenario, 0..8).expect("violates");

    for rep in 0..5 {
        for threads in [1, 2, 4] {
            let what = format!("rep {rep}, {threads} threads");
            let stats = explore(&scenario, exhaustive(3, 10_000), &config(threads, 0));
            assert_eq!(stats.outcome, Outcome::ViolationFound);
            assert_same_repro(&stats.violations[0], &reference, &what);

            let swarm = explore(&scenario, Mode::Swarm { seeds: 0..8 }, &config(threads, 0));
            assert_eq!(swarm.outcome, Outcome::ViolationFound);
            assert_eq!(
                swarm.violations[0].repro.seed, 0,
                "{what}: a stale best_item hint let a higher seed win"
            );
            assert_same_repro(&swarm.violations[0], &swarm_reference, &what);
        }
    }
}
