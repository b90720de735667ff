//! Batched consensus is a scheduling optimisation, not a semantic change.
//!
//! The injection-level batching layer (`RuntimeConfig::batch_max > 1`)
//! groups pending multicasts for the same group set into one consensus
//! decision. Nothing a correct process can observe may change: who
//! delivers what, the `L_g` order of each group's messages, and the spec
//! verdict must all match the unbatched run — across the whole scenario
//! corpus, across exploration (the snapshotting DFS enumerates the
//! *batched* action tree as the restart-from-scratch odometer of
//! `tests/common` does), and across substrates
//! (the batched Level-A runtime still agrees with the always-unbatched
//! Level-B kernel deployment).

mod common;

use common::odometer::odometer;
use gam_kernel::RunOutcome;
use genuine_multicast::core::distributed::run_report;
use genuine_multicast::explore::{Mode, Outcome};
use genuine_multicast::prelude::*;
use genuine_multicast::scenarios::corpus;

/// The batching width under test: far above any corpus backlog, so every
/// mergeable injection actually merges.
const BATCH: u32 = 16;

/// One worker, no visited set: the odometer's leaves.
fn one_thread() -> ExploreConfig {
    ExploreConfig {
        threads: 1,
        dedup_capacity: 0,
        ..ExploreConfig::default()
    }
}

fn exhaustive(depth: usize, max_runs: u64) -> Mode {
    Mode::Exhaustive { depth, max_runs }
}

/// Drives `scenario` to quiescence under the fair driver and reports.
fn fair_report(scenario: &Scenario) -> RunReport {
    let mut exec = scenario.runtime_executor();
    let out = genuine_multicast::engine::run_fair(&mut exec, scenario.max_steps);
    assert_eq!(out, RunOutcome::Quiescent, "fair run must quiesce");
    exec.report(true)
}

fn sorted(mut v: Vec<MessageId>) -> Vec<MessageId> {
    v.sort_unstable();
    v
}

/// Batched and unbatched runs take different schedules, so a message from a
/// *faulty* source may be retired in one run and lost in the other — the
/// spec allows both. Comparable messages are the ones both runs are
/// obligated to (correct source) or both actually retired somewhere.
fn comparable(
    scenario: &Scenario,
    unbatched: &RunReport,
    batched: &RunReport,
    m: MessageId,
) -> bool {
    let src = unbatched.messages[m.0 as usize].src;
    if !scenario.crashes.iter().any(|(victim, _)| *victim == src) {
        return true;
    }
    let somewhere = |r: &RunReport| r.system.universe().iter().any(|p| r.has_delivered(p, m));
    somewhere(unbatched) && somewhere(batched)
}

/// The full corpus (every template, three seeds — ≥ 20 descriptors,
/// spanning acyclic/cyclic topologies, crash and churn plans): at every
/// correct process, the batched run delivers the same comparable messages,
/// with the same per-group `L_g` projections, and both runs pass the
/// variant's spec.
#[test]
fn batched_delivery_matches_unbatched_on_the_corpus() {
    let grid: Vec<ScnDescriptor> = corpus()
        .iter()
        .flat_map(|(_, t)| (0..3).map(|seed| t.with_seed(seed)))
        .collect();
    assert!(grid.len() >= 20, "the grid has {} descriptors", grid.len());

    for d in &grid {
        let scenario = Scenario::from_descriptor(d);
        let unbatched = fair_report(&scenario);
        let batched = fair_report(&scenario.clone().with_batch_max(BATCH));

        spec::check_all(&unbatched, scenario.variant)
            .unwrap_or_else(|v| panic!("{d} unbatched: {v}"));
        spec::check_all(&batched, scenario.variant).unwrap_or_else(|v| panic!("{d} batched: {v}"));

        for p in scenario.system.universe().iter() {
            if scenario.crashes.iter().any(|(victim, _)| *victim == p) {
                continue;
            }
            let view = |r: &RunReport| -> Vec<MessageId> {
                r.delivered_by(p)
                    .into_iter()
                    .filter(|m| comparable(&scenario, &unbatched, &batched, *m))
                    .collect()
            };
            let (u, b) = (view(&unbatched), view(&batched));
            assert_eq!(
                sorted(u.clone()),
                sorted(b.clone()),
                "{d}: delivered sets diverge at {p}"
            );
            // Per-group projection: batching must preserve each group's
            // total L_g order as seen by every member.
            for (g, members) in scenario.system.iter() {
                if !members.contains(p) {
                    continue;
                }
                let proj = |v: &[MessageId], r: &RunReport| -> Vec<MessageId> {
                    v.iter()
                        .copied()
                        .filter(|m| r.messages[m.0 as usize].group == g)
                        .collect()
                };
                assert_eq!(
                    proj(&u, &unbatched),
                    proj(&b, &batched),
                    "{d}: group {g} projection diverges at {p}"
                );
            }
        }
    }
}

/// Contended small topologies where batching genuinely merges: the
/// snapshotting DFS and the odometer oracle enumerate the batched action
/// tree identically (same coverage, same outcome, exact step accounting), and
/// every explored schedule stays clean — the exhaustive form of
/// "batched delivery order equals unbatched".
#[test]
fn exploration_engines_agree_and_stay_clean_under_batching() {
    let mut contended = Scenario::one_per_group(&topology::single_group(3), 20_000);
    contended.submissions = (0..3)
        .map(|i| (ProcessId(i), GroupId(0), u64::from(i)))
        .collect();
    let cases = [
        ("contended-single(3)", contended, 3),
        (
            "two-overlapping(3,1)",
            Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000),
            3,
        ),
        (
            "ring(3,2)",
            Scenario::one_per_group(&topology::ring(3, 2), 100_000),
            2,
        ),
    ];
    for (name, scenario, depth) in cases {
        for batch_max in [1, BATCH] {
            let s = scenario.clone().with_batch_max(batch_max);
            let oracle = odometer(&s, depth, 100_000);
            assert!(
                oracle.violation.is_none(),
                "{name} batch={batch_max}: odometer found {:?}",
                oracle.violation.map(|cx| cx.violation)
            );
            let dfs = explore(&s, exhaustive(depth, 100_000), &one_thread());
            assert!(
                dfs.clean(),
                "{name} batch={batch_max}: DFS found {:?}",
                dfs.violations
            );
            assert_eq!(dfs.runs, oracle.runs, "{name} batch={batch_max}: coverage");
            assert_eq!(dfs.outcome, oracle.outcome, "{name} batch={batch_max}");
            assert_eq!(
                dfs.steps_executed + dfs.steps_avoided,
                oracle.steps,
                "{name} batch={batch_max}: step accounting must close"
            );
        }
    }
}

/// When no two pending multicasts share a group list, a `batch_max > 1`
/// runtime takes byte-for-byte the same run as the unbatched one: the
/// final state digests coincide.
#[test]
fn batching_without_contention_is_a_byte_identical_no_op() {
    for gs in [
        topology::fig1(),
        topology::ring(3, 2),
        topology::two_overlapping(3, 1),
    ] {
        let scenario = Scenario::one_per_group(&gs, 2_000_000);
        let digest = |s: &Scenario| {
            let mut exec = s.runtime_executor();
            genuine_multicast::engine::run_fair(&mut exec, s.max_steps);
            exec.state_digest()
        };
        assert_eq!(
            digest(&scenario),
            digest(&scenario.clone().with_batch_max(BATCH)),
            "one message per group: batching merged something it shouldn't"
        );
    }
}

/// Cross-substrate under batching: the batched Level-A runtime still
/// agrees with the (always unbatched) Level-B kernel deployment on
/// delivery sets and spec verdicts.
#[test]
fn batched_runtime_agrees_with_the_kernel_substrate() {
    for gs in [topology::two_overlapping(3, 1), topology::ring(3, 2)] {
        let scenario = Scenario::one_per_group(&gs, 2_000_000).with_batch_max(BATCH);

        let rt_report = fair_report(&scenario);

        let mut k_exec = scenario.kernel_executor();
        let out = genuine_multicast::engine::run_fair(&mut k_exec, scenario.max_steps);
        assert_eq!(out, RunOutcome::Quiescent, "Level B must quiesce");
        let k_report = run_report(k_exec.sim(), &scenario.system, &scenario.submissions, true);

        for p in gs.universe().iter() {
            assert_eq!(
                sorted(rt_report.delivered_by(p)),
                sorted(k_report.delivered_by(p)),
                "delivery sets diverge at {p}"
            );
        }
        spec::check_all(&rt_report, scenario.variant).expect("batched Level A passes the spec");
        spec::check_all(&k_report, scenario.variant).expect("Level B passes the spec");
    }
}

/// A violation found while exploring *batched* schedules round-trips
/// through the `gam-repro v1` text format: the `batch` line survives
/// parse/render and the replay reproduces the identical trace.
#[test]
fn batched_repros_round_trip_and_replay() {
    // Starved budget: every schedule violates termination.
    let scenario =
        Scenario::one_per_group(&topology::two_overlapping(3, 1), 12).with_batch_max(BATCH);
    let stats = explore(&scenario, exhaustive(3, 10_000), &one_thread());
    assert_eq!(stats.outcome, Outcome::ViolationFound);
    let repro = &stats.violations[0].repro;
    let text = repro.to_text();
    assert!(
        text.lines().any(|l| l == format!("batch {BATCH}")),
        "batched repros record their width:\n{text}"
    );
    let parsed = Repro::parse(&text).expect("round-trip parse");
    assert_eq!(parsed.scenario.batch_max, BATCH);
    assert_eq!(parsed.to_text(), text, "canonical render");
    assert_eq!(parsed.trace_hash(), repro.trace_hash(), "replay diverged");
    parsed.verify().expect("replay still violates the property");
}
