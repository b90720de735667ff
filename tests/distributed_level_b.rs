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

/// ROADMAP item 1's cause, as a count: a `DistMsg::Pair` that reaches a
/// process of `g∖h` matches no pair view there and is dropped unread. On
/// fig1 the `(G2,G3)` backup sends one to `p2`, and the run stops
/// quiescing; a seed that never engages the backup drops nothing. Item 1's
/// fix makes the first run quiesce with 0 unrouted.
///
/// The smallest topology that shows it is `two(3,2)`: `G0 = {p0,p1,p2}`,
/// `G1 = {p1,p2,p3}`, one message each. Under seed 5 the `(G0,G1)` backup
/// engages and `p0`, the one process of `G0∖G1`, drops two of its
/// messages. Two groups, two messages and no cyclic family: item 1 comes
/// from an intersection that is not a singleton, not from a cycle.
#[test]
fn unrouted_pair_messages_are_counted() {
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
        let unrouted: Vec<u64> = sim
            .universe()
            .iter()
            .map(|p| sim.automaton(p).counters().pair_msgs_unrouted)
            .collect();
        (outcome, sim.trace().total_steps(), unrouted)
    };
    let (outcome, _, unrouted) = run("fig1", 1, "uniform(4)");
    assert_ne!(outcome, RunOutcome::Quiescent);
    assert_eq!(
        unrouted.iter().sum::<u64>(),
        1,
        "seed 1: p2 drops the (G2,G3) backup's Prepare"
    );
    let (outcome, steps, unrouted) = run("fig1", 0, "uniform(4)");
    assert_eq!((outcome, steps), (RunOutcome::Quiescent, 2_464));
    assert_eq!(unrouted.iter().sum::<u64>(), 0);

    let (outcome, _, unrouted) = run("two(3,2)", 5, "one");
    assert_eq!(outcome, RunOutcome::BudgetExhausted);
    assert_eq!(
        unrouted,
        [2, 0, 0, 0],
        "seed 5: p0 drops the (G0,G1) backup's traffic"
    );
    let (outcome, steps, unrouted) = run("two(3,2)", 0, "one");
    assert_eq!((outcome, steps), (RunOutcome::Quiescent, 557));
    assert_eq!(unrouted, [0; 4]);
}
