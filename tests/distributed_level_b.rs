//! Integration of the Level-B deployment: Algorithm 1 over messages,
//! composed from the group SMRs and the Proposition-47 fast logs, driven by
//! a `μ` oracle — checked for delivery, agreement and genuineness at the
//! message level.

use gam_kernel::{RunOutcome, Simulator};
use genuine_multicast::core::distributed::{DistProcess, MuHistory};
use genuine_multicast::core::MessageId;
use genuine_multicast::prelude::*;

fn system(gs: &GroupSystem, pattern: FailurePattern) -> Simulator<DistProcess, MuHistory> {
    let autos = gs
        .universe()
        .iter()
        .map(|p| DistProcess::new(p, gs))
        .collect();
    let mu = MuOracle::new(gs, pattern.clone(), MuConfig::default());
    Simulator::new(autos, pattern, MuHistory::new(mu))
}

fn agree_on_shared(sim: &Simulator<DistProcess, MuHistory>, gs: &GroupSystem) {
    for p in gs.universe() {
        for q in gs.universe() {
            let (dp, dq) = (sim.automaton(p).delivered(), sim.automaton(q).delivered());
            for (i, m1) in dp.iter().enumerate() {
                for m2 in &dp[i + 1..] {
                    if let (Some(j1), Some(j2)) = (
                        dq.iter().position(|x| x == m1),
                        dq.iter().position(|x| x == m2),
                    ) {
                        assert!(j1 < j2, "{p} and {q} disagree on {m1:?}/{m2:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn fig1_over_the_wire() {
    let gs = topology::fig1();
    let pattern = FailurePattern::all_correct(gs.universe());
    let mut sim = system(&gs, pattern);
    // one message per group, concurrent
    for (i, (g, members)) in gs.iter().enumerate() {
        let src = members.min().unwrap();
        sim.automaton_mut(src).multicast(MessageId(i as u64), g);
    }
    let out = sim.run(&mut RotatingSource::default(), 20_000_000);
    assert_eq!(out, RunOutcome::Quiescent);
    for (i, (g, members)) in gs.iter().enumerate() {
        let _ = g;
        for p in members {
            assert!(
                sim.automaton(p).delivered().contains(&MessageId(i as u64)),
                "{p} missing m{i}"
            );
        }
    }
    agree_on_shared(&sim, &gs);
}

#[test]
fn wide_intersection_over_the_wire() {
    // g∩h = {p1, p2}: the fast logs and the Σ_{g∩h} quorums have real width
    let gs = topology::two_overlapping(3, 2);
    let pattern = FailurePattern::all_correct(gs.universe());
    let mut sim = system(&gs, pattern);
    sim.automaton_mut(ProcessId(0))
        .multicast(MessageId(0), GroupId(0));
    sim.automaton_mut(ProcessId(3))
        .multicast(MessageId(1), GroupId(1));
    let out = sim.run(&mut RotatingSource::default(), 20_000_000);
    assert_eq!(out, RunOutcome::Quiescent);
    for p in gs.members(GroupId(0)) {
        assert!(sim.automaton(p).delivered().contains(&MessageId(0)), "{p}");
    }
    for p in gs.members(GroupId(1)) {
        assert!(sim.automaton(p).delivered().contains(&MessageId(1)), "{p}");
    }
    // both overlap replicas deliver both messages in the same order
    let d1 = sim.automaton(ProcessId(1)).delivered().to_vec();
    let d2 = sim.automaton(ProcessId(2)).delivered().to_vec();
    assert_eq!(d1.len(), 2);
    assert_eq!(d1, d2, "overlap replicas agree");
    agree_on_shared(&sim, &gs);
}

#[test]
fn random_schedules_on_the_ring_over_the_wire() {
    let gs = topology::ring(3, 2);
    for seed in 0..2u64 {
        let pattern = FailurePattern::all_correct(gs.universe());
        let mut sim = system(&gs, pattern);
        for g in 0..3u32 {
            let src = gs.members(GroupId(g)).min().unwrap();
            sim.automaton_mut(src)
                .multicast(MessageId(g as u64), GroupId(g));
        }
        let out = sim.run(&mut RandomSource::new(seed), 30_000_000);
        assert_eq!(out, RunOutcome::Quiescent, "seed {seed}");
        for g in 0..3u32 {
            for p in gs.members(GroupId(g)) {
                assert!(
                    sim.automaton(p).delivered().contains(&MessageId(g as u64)),
                    "seed {seed}: {p} missing m{g}"
                );
            }
        }
        agree_on_shared(&sim, &gs);
    }
}

/// Runs whose adopt–commit adopts without committing quiesce, with no
/// pair message dropped: the backup of `LOG_{g∩h}` is `g`'s own state
/// machine, which every member of `g` hosts. Before it was, a private
/// backup over `g` hosted only at `g∩h` sent traffic that a process of
/// `g∖h` dropped unread, and both backup runs below livelocked; the
/// smallest topology that showed it, `two(3,2)`, has two groups, two
/// messages and no cyclic family, so that came from a non-singleton
/// intersection, not from a cycle.
///
/// Seed 1 of fig1 engages the `(G2,G3)` backup and seed 5 of `two(3,2)`
/// the `(G0,G1)` one; seed 0 of each never does.
#[test]
fn backup_runs_quiesce_with_nothing_unrouted() {
    // outcome, steps taken and the unrouted pair messages of each process
    let run = |family: &str, seed: u64, traffic: &str| {
        let text = format!(
            "gam-scn v1 family={family} seed={seed} crash=none traffic={traffic} variant=standard budget=5000"
        );
        let d = ScnDescriptor::parse(&text).expect("descriptor parses");
        let scenario = Scenario::from_descriptor(&d);
        let mut exec = scenario.kernel_executor();
        let outcome = run_with_source(&mut exec, &mut RandomSource::new(d.seed), d.budget);
        let sim = exec.into_sim();
        let unrouted: u64 = sim
            .universe()
            .iter()
            .map(|p| sim.automaton(p).counters().pair_msgs_unrouted)
            .sum();
        (outcome, sim.trace().total_steps(), unrouted)
    };
    let quiescent = |steps| (RunOutcome::Quiescent, steps, 0);
    assert_eq!(run("fig1", 1, "uniform(4)"), quiescent(2_357));
    assert_eq!(run("fig1", 0, "uniform(4)"), quiescent(2_464));
    assert_eq!(run("two(3,2)", 5, "one"), quiescent(597));
    assert_eq!(run("two(3,2)", 0, "one"), quiescent(557));
}
