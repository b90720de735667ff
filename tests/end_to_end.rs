//! End-to-end integration: Algorithm 1 across topologies, schedulers,
//! workloads and failure patterns, checked against the full specification.

use genuine_multicast::prelude::*;

use genuine_multicast::kernel::RunOutcome;

/// Multicasts one message per group (from each group's minimum live member)
/// and runs to quiescence: round-robin, or under `RandomSource::new(seed)`.
fn one_per_group(gs: &GroupSystem, pattern: FailurePattern, seed: Option<u64>) -> RunReport {
    let mut rt = Runtime::new(gs, pattern.clone(), RuntimeConfig::default());
    for (g, members) in gs.iter() {
        // choose a correct source when one exists (a faulty one may crash
        // between submissions; termination then doesn't require delivery)
        let live = members & pattern.correct();
        if let Some(src) = live.min() {
            rt.multicast(src, g, g.index() as u64);
        }
    }
    let q = match seed {
        None => rt.run(2_000_000),
        Some(seed) => {
            let mut source = RandomSource::new(seed);
            rt.run_with_source(gs.universe(), &mut source, 2_000_000) == RunOutcome::Quiescent
        }
    };
    rt.report(q)
}

#[test]
fn all_topologies_failure_free_all_schedulers() {
    for (name, gs) in topology::suite() {
        for seed in [None, Some(1), Some(2), Some(3)] {
            let report = one_per_group(&gs, FailurePattern::all_correct(gs.universe()), seed);
            assert!(report.quiescent, "{name} {seed:?}");
            spec::check_all(&report, Variant::Standard)
                .unwrap_or_else(|v| panic!("{name} {seed:?}: {v}"));
        }
    }
}

#[test]
fn fig1_every_single_crash_pattern() {
    let gs = topology::fig1();
    for victim in 0..5u32 {
        for crash_at in [0u64, 3, 20] {
            let pattern =
                FailurePattern::from_crashes(gs.universe(), [(ProcessId(victim), Time(crash_at))]);
            let report = one_per_group(&gs, pattern.clone(), None);
            assert!(
                report.quiescent,
                "p{victim}@t{crash_at}: runtime must quiesce"
            );
            spec::check_all(&report, Variant::Standard)
                .unwrap_or_else(|v| panic!("p{victim}@t{crash_at}: {v}"));
        }
    }
}

#[test]
fn ring_crash_patterns_under_random_schedules() {
    let gs = topology::ring(4, 2);
    for victim in 0..4u32 {
        for seed in 0..3u64 {
            let pattern =
                FailurePattern::from_crashes(gs.universe(), [(ProcessId(victim), Time(2))]);
            let report = one_per_group(&gs, pattern, Some(seed));
            assert!(report.quiescent, "p{victim}/seed{seed}");
            spec::check_all(&report, Variant::Standard)
                .unwrap_or_else(|v| panic!("p{victim}/seed{seed}: {v}"));
        }
    }
}

#[test]
fn bursty_workload_on_fig1() {
    // Several messages per group, submitted up-front (the Proposition 1
    // layer sequences each group's list).
    let gs = topology::fig1();
    let mut rt = Runtime::new(
        &gs,
        FailurePattern::all_correct(gs.universe()),
        RuntimeConfig::default(),
    );
    for round in 0..3u64 {
        for (g, members) in gs.iter() {
            // rotate sources within each group
            let srcs: Vec<ProcessId> = members.iter().collect();
            let src = srcs[(round as usize) % srcs.len()];
            rt.multicast(src, g, round);
        }
    }
    let outcome = rt.run_with_source(gs.universe(), &mut RandomSource::new(7), 5_000_000);
    assert_eq!(outcome, RunOutcome::Quiescent);
    let report = rt.report(true);
    spec::check_all(&report, Variant::Standard).unwrap();
    // 12 messages total; every group member delivered its 3
    for (g, members) in gs.iter() {
        for p in members {
            let mine = report.delivered[p.index()]
                .iter()
                .filter(|d| report.messages[d.msg.0 as usize].group == g)
                .count();
            assert_eq!(mine, 3, "{p} in {g}");
        }
    }
}

#[test]
fn two_crashes_on_fig1() {
    let gs = topology::fig1();
    // p2 and p3 crash (the §3 walkthrough pattern): Correct = {p0, p3, p4}.
    let pattern = FailurePattern::from_crashes(
        gs.universe(),
        [(ProcessId(1), Time(4)), (ProcessId(2), Time(11))],
    );
    let report = one_per_group(&gs, pattern, None);
    assert!(report.quiescent);
    spec::check_all(&report, Variant::Standard).unwrap();
}

#[test]
fn deliveries_agree_pairwise_on_shared_destinations() {
    // Stronger sanity than acyclicity: any two processes sharing two
    // messages deliver them in the same relative order (a consequence of
    // the ordering property for pairs).
    let gs = topology::hub(3, 3);
    let mut rt = Runtime::new(
        &gs,
        FailurePattern::all_correct(gs.universe()),
        RuntimeConfig::default(),
    );
    for (g, members) in gs.iter() {
        rt.multicast(members.min().unwrap(), g, 0);
        rt.multicast(members.max().unwrap(), g, 1);
    }
    let outcome = rt.run_with_source(gs.universe(), &mut RandomSource::new(11), 5_000_000);
    assert_eq!(outcome, RunOutcome::Quiescent);
    let report = rt.report(true);
    spec::check_all(&report, Variant::Standard).unwrap();
    spec::check_all(&report, Variant::Pairwise).unwrap();
}

#[test]
fn strict_variant_full_suite() {
    for (name, gs) in topology::suite() {
        let report = {
            let mut rt = Runtime::new(
                &gs,
                FailurePattern::all_correct(gs.universe()),
                RuntimeConfig {
                    variant: Variant::Strict,
                    ..Default::default()
                },
            );
            for (g, members) in gs.iter() {
                rt.multicast(members.min().unwrap(), g, 0);
            }
            let q = rt.run(2_000_000);
            rt.report(q)
        };
        assert!(report.quiescent, "{name}");
        spec::check_all(&report, Variant::Strict).unwrap_or_else(|v| panic!("{name}: {v}"));
    }
}

#[test]
fn report_round_trips_through_baselines() {
    use genuine_multicast::core::baseline::BroadcastBased;
    let gs = topology::fig1();
    let mut bb = BroadcastBased::new(&gs, FailurePattern::all_correct(gs.universe()));
    for (g, members) in gs.iter() {
        bb.multicast(members.min().unwrap(), g, 0);
    }
    assert!(bb.run(100_000));
    let r = bb.report(true);
    spec::check_integrity(&r).unwrap();
    spec::check_ordering(&r).unwrap();
    spec::check_termination(&r).unwrap();
}
