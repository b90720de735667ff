//! Cross-substrate equivalence through the `gam-engine` stepping layer.
//!
//! The same scenario runs through both [`Executor`] implementations —
//! Algorithm 1 over shared objects ([`RuntimeExecutor`]) and the
//! message-passing deployment ([`KernelExecutor`]) — and must agree on
//! what the paper's properties can see: which messages are delivered where,
//! in which order, and whether the spec holds. Recorded schedules replay
//! byte-identically on the substrate that produced them.

use gam_kernel::RunOutcome;
use genuine_multicast::core::distributed::run_report;
use genuine_multicast::core::spec;
use genuine_multicast::engine::{self, Executor};
use genuine_multicast::prelude::*;

/// Runs `scenario` through both substrates under the fair driver and
/// returns the two (report, per-process delivery orders) pairs, each order
/// read from its report: Level A first.
#[expect(
    clippy::type_complexity,
    reason = "two (report, delivery orders) pairs, named by position at the one caller"
)]
fn both_substrates(
    scenario: &Scenario,
) -> (
    (RunReport, Vec<Vec<MessageId>>),
    (RunReport, Vec<Vec<MessageId>>),
) {
    let universe = scenario.system.universe();

    let mut rt_exec = scenario.runtime_executor();
    let out = engine::run_fair(&mut rt_exec, scenario.max_steps);
    assert_eq!(out, RunOutcome::Quiescent, "Level A must quiesce");
    let rt_report = rt_exec.report(true);
    let rt_orders: Vec<_> = universe.iter().map(|p| rt_report.delivered_by(p)).collect();

    let mut k_exec = scenario.kernel_executor();
    let out = engine::run_fair(&mut k_exec, scenario.max_steps);
    assert_eq!(out, RunOutcome::Quiescent, "Level B must quiesce");
    let k_report = run_report(k_exec.sim(), &scenario.system, &scenario.submissions, true);
    let k_orders: Vec<_> = universe.iter().map(|p| k_report.delivered_by(p)).collect();

    ((rt_report, rt_orders), (k_report, k_orders))
}

#[test]
fn contended_single_group_orders_identically_across_substrates() {
    // Three contending messages to one group: both substrates must deliver
    // the same messages in the same order at every process, and both runs
    // must pass the full spec.
    let gs = topology::single_group(3);
    let mut scenario = Scenario::one_per_group(&gs, 2_000_000);
    scenario.submissions = (0..3)
        .map(|i| (ProcessId(i), GroupId(0), u64::from(i)))
        .collect();
    let ((rt_report, rt_orders), (k_report, k_orders)) = both_substrates(&scenario);
    assert_eq!(
        rt_orders, k_orders,
        "delivery orders diverge across substrates"
    );
    assert_eq!(
        spec::check_all(&rt_report, Variant::Standard).is_ok(),
        spec::check_all(&k_report, Variant::Standard).is_ok(),
        "spec verdicts diverge across substrates"
    );
    spec::check_all(&rt_report, Variant::Standard).expect("Level A passes the spec");
}

#[test]
fn delivery_sets_and_spec_verdicts_agree_on_overlapping_groups() {
    // With overlapping groups the *order* across substrates is
    // schedule-dependent, but who delivers what — and whether the variant's
    // properties hold — is not.
    for gs in [topology::two_overlapping(3, 1), topology::ring(3, 2)] {
        let scenario = Scenario::one_per_group(&gs, 2_000_000);
        let ((rt_report, rt_orders), (k_report, k_orders)) = both_substrates(&scenario);
        for (i, p) in gs.universe().iter().enumerate() {
            let sort = |v: &[MessageId]| {
                let mut v = v.to_vec();
                v.sort_unstable();
                v
            };
            assert_eq!(
                sort(&rt_orders[i]),
                sort(&k_orders[i]),
                "delivery sets at {p}"
            );
        }
        assert!(spec::check_all(&rt_report, Variant::Standard).is_ok());
        assert!(spec::check_all(&k_report, Variant::Standard).is_ok());
    }
}

#[test]
fn recorded_schedules_replay_identically_on_each_substrate() {
    // A schedule recorded through the engine replays to the identical run —
    // same incremental digest, same delivery orders — on the substrate that
    // produced it, for both substrates.
    let gs = topology::ring(3, 2);
    let scenario = Scenario::one_per_group(&gs, 2_000_000);

    let mut exec = scenario.runtime_executor();
    let (out, schedule) = engine::run_recorded(
        &mut exec,
        gam_kernel::schedule::RandomSource::new(21),
        scenario.max_steps,
    );
    assert_eq!(out, RunOutcome::Quiescent);
    let mut again = scenario.runtime_executor();
    assert_eq!(
        engine::replay(&mut again, &schedule, scenario.max_steps),
        RunOutcome::Quiescent
    );
    assert_eq!(again.state_digest(), exec.state_digest(), "Level A replay");
    assert_eq!(
        again.report(true).delivered_by(ProcessId(0)),
        exec.report(true).delivered_by(ProcessId(0))
    );

    let mut exec = scenario.kernel_executor();
    let (out, schedule) = engine::run_recorded(
        &mut exec,
        gam_kernel::schedule::RandomSource::new(21),
        scenario.max_steps,
    );
    assert_eq!(out, RunOutcome::Quiescent);
    let mut again = scenario.kernel_executor();
    assert_eq!(
        engine::replay(&mut again, &schedule, scenario.max_steps),
        RunOutcome::Quiescent
    );
    assert_eq!(again.state_digest(), exec.state_digest(), "Level B replay");
}

/// The generated conformance grid: every corpus family at a fixed spread of
/// seeds, plus order-strict extras, through both substrates. Spanning both
/// sides of the solvability boundary, the two executors must agree on the
/// delivery sets at every process and on the variant's spec verdict; on
/// contention-free topologies (single-group, pairwise-disjoint) the full
/// per-process delivery *order* must match too; and each substrate's final
/// state digest must be reproducible run-over-run.
#[test]
fn generated_scenario_grid_conforms_across_substrates() {
    use genuine_multicast::scenarios::{corpus, Family, ScnDescriptor};

    // 7 corpus families x 3 seeds, plus the order-strict extras: >= 20
    // descriptors, cyclic and acyclic.
    let mut grid: Vec<ScnDescriptor> = corpus()
        .iter()
        .flat_map(|(_, t)| (0..3).map(|seed| t.with_seed(seed)))
        .collect();
    let order_strict = [
        ScnDescriptor::new(Family::Single { n: 3 }),
        ScnDescriptor::new(Family::Disjoint { k: 3, size: 2 }).with_seed(1),
    ];
    grid.extend(order_strict);
    assert!(grid.len() >= 20, "the grid has {} descriptors", grid.len());

    let (mut cyclic, mut acyclic) = (0, 0);
    for descriptor in &grid {
        let scenario = Scenario::from_descriptor(descriptor);
        let gs = &scenario.system;
        match descriptor.family.known_acyclic() {
            Some(true) => acyclic += 1,
            Some(false) => cyclic += 1,
            None => {}
        }
        let ((rt_report, rt_orders), (k_report, k_orders)) = both_substrates(&scenario);

        let order_free = matches!(
            descriptor.family,
            Family::Single { .. } | Family::Disjoint { .. }
        );
        for (i, p) in gs.universe().iter().enumerate() {
            // A faulty process delivers some timing-dependent prefix before
            // its crash instant, and the two substrates' clocks reach that
            // instant at different schedule points — cross-substrate
            // agreement is only promised where the spec looks: at correct
            // processes.
            if scenario.crashes.iter().any(|(victim, _)| *victim == p) {
                continue;
            }
            if order_free {
                assert_eq!(rt_orders[i], k_orders[i], "{descriptor} order at {p}");
            }
            let sort = |v: &[MessageId]| {
                let mut v = v.to_vec();
                v.sort_unstable();
                v
            };
            assert_eq!(
                sort(&rt_orders[i]),
                sort(&k_orders[i]),
                "{descriptor} delivery set at {p}"
            );
        }
        let rt_verdict = spec::check_all(&rt_report, scenario.variant);
        let k_verdict = spec::check_all(&k_report, scenario.variant);
        assert_eq!(
            rt_verdict.is_ok(),
            k_verdict.is_ok(),
            "{descriptor}: spec verdicts diverge"
        );
        rt_verdict.unwrap_or_else(|v| panic!("{descriptor}: {v}"));

        // Per-substrate digest determinism: the fair driver re-runs each
        // substrate to the identical final state.
        let rt_digest = || {
            let mut exec = scenario.runtime_executor();
            engine::run_fair(&mut exec, scenario.max_steps);
            exec.state_digest()
        };
        let k_digest = || {
            let mut exec = scenario.kernel_executor();
            engine::run_fair(&mut exec, scenario.max_steps);
            exec.state_digest()
        };
        assert_eq!(
            rt_digest(),
            rt_digest(),
            "{descriptor}: Level A digest drifts"
        );
        assert_eq!(
            k_digest(),
            k_digest(),
            "{descriptor}: Level B digest drifts"
        );
    }
    assert!(acyclic >= 6 && cyclic >= 6, "the grid spans the boundary");
}
