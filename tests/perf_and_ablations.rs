//! The performance claims the paper motivates itself with, and the
//! detector-timeliness ablations, as exact assertions of the tables in
//! EXPERIMENTS.md (the paper has no evaluation section; these regenerate
//! the scalability folklore it cites [33, 37] and the convoy effect
//! [1, 17]).
//!
//! - **Perf-1** — genuine vs broadcast-based multicast: steps taken by
//!   processes *not addressed* by the message, as the number of disjoint
//!   groups grows.
//! - **Perf-2** — the convoy effect: delivery latency of a message to the
//!   last group of a chain, behind one message per group in front of it.
//! - **Ablations** — how the delay of `γ`, of `1^{g∩h}` and of `Ω`'s
//!   stabilisation shows up in the length of a run.
//!
//! Every run is the fair round-robin of `run_fair`, so each count is a
//! function of the code alone.

use genuine_multicast::core::baseline::BroadcastBased;
use genuine_multicast::detectors::{OmegaMode, SigmaMode};
use genuine_multicast::kernel::RunOutcome;
use genuine_multicast::objects::{OmegaSigmaHistory, PaxosProcess};
use genuine_multicast::prelude::*;

/// Actions taken by the processes outside `addressed`.
fn unaddressed_steps(report: &RunReport, addressed: ProcessSet) -> u64 {
    report
        .actions_of
        .iter()
        .enumerate()
        .filter(|(i, _)| !addressed.contains(ProcessId(*i as u32)))
        .map(|(_, c)| *c)
        .sum()
}

/// Perf-1: one message to the first of `k` disjoint groups of 3. Algorithm
/// 1 takes 14 steps whatever `k`, none of them outside the group
/// (minimality); the broadcast-based baseline takes 3 per process of the
/// system, `3(k − 1)` of them on processes the message was never addressed
/// to.
#[test]
fn perf1_genuine_cost_is_flat_broadcast_cost_grows_with_the_groups() {
    for k in [1u64, 2, 4, 8, 16, 32] {
        let gs = topology::disjoint(k as usize, 3);
        let addressed = gs.members(GroupId(0));
        let source = addressed.min().unwrap();

        let mut rt = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig::default(),
        );
        rt.multicast(source, GroupId(0), 0);
        let mut exec = RuntimeExecutor::new(rt);
        assert_eq!(run_fair(&mut exec, 10_000_000), RunOutcome::Quiescent);
        let genuine = exec.report(true);
        let genuine_total: u64 = genuine.actions_of.iter().sum();
        assert_eq!(
            (genuine_total, unaddressed_steps(&genuine, addressed)),
            (14, 0),
            "genuine, k = {k}"
        );

        let mut bb = BroadcastBased::new(&gs, FailurePattern::all_correct(gs.universe()));
        bb.multicast(source, GroupId(0), 0);
        assert!(bb.run(10_000_000));
        let broadcast = bb.report(true);
        let broadcast_total: u64 = broadcast.actions_of.iter().sum();
        assert_eq!(
            (broadcast_total, unaddressed_steps(&broadcast, addressed)),
            (3 * k, 3 * (k - 1)),
            "broadcast-based, k = {k}"
        );
    }
}

/// Perf-2: on `chain(ahead + 1, 3)`, one message to every group in front
/// of the last one delays the last group's message by 8 actions per group
/// ahead: 12, 20, 28, 44, 60 for 0, 1, 2, 4, 6 groups ahead.
#[test]
fn perf2_convoy_latency_grows_with_the_chain_ahead() {
    for (ahead, expected) in [(0u32, 12u64), (1, 20), (2, 28), (4, 44), (6, 60)] {
        let gs = topology::chain(ahead as usize + 1, 3);
        let mut rt = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig::default(),
        );
        for g in (0..ahead).map(GroupId) {
            rt.multicast(gs.members(g).min().unwrap(), g, 0);
        }
        let last = GroupId(ahead);
        let m = rt.multicast(gs.members(last).min().unwrap(), last, 99);
        let submitted = rt.now();
        let mut exec = RuntimeExecutor::new(rt);
        assert_eq!(run_fair(&mut exec, 10_000_000), RunOutcome::Quiescent);
        let delivered = exec.report(true).first_delivery(m).expect("delivered");
        assert_eq!(delivered.0 - submitted.0, expected, "{ahead} groups ahead");
    }
}

/// `γ`'s detection delay on `ring(3,2)` with `p0` crashed at t2 (the ring's
/// one cyclic family is faulty): 0 / 10 / 50 / 200 ticks → 29 / 29 / 67 /
/// 217 actions to quiescence. Past the run's natural length, each tick of
/// delay postpones commit (line 18 of Algorithm 1) by one action.
#[test]
fn ablation_gamma_delay_is_on_the_critical_path() {
    let gs = topology::ring(3, 2);
    let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(0), Time(2))]);
    for (delay, expected) in [(0u64, 29u64), (10, 29), (50, 67), (200, 217)] {
        let mut rt = Runtime::new(
            &gs,
            pattern.clone(),
            RuntimeConfig {
                mu: MuConfig {
                    gamma_delay: delay,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        for (g, members) in gs.iter() {
            rt.multicast((members & pattern.correct()).min().unwrap(), g, 0);
        }
        let mut exec = RuntimeExecutor::new(rt);
        assert_eq!(run_fair(&mut exec, 10_000_000), RunOutcome::Quiescent);
        assert_eq!(exec.runtime().now().0, expected, "γ delay {delay}");
    }
}

/// `1^{g∩h}`'s detection delay, strict variant on `two_overlapping(3,1)`
/// with the intersection `p2` crashed at t2: 0 / 10 / 50 / 200 ticks →
/// 22 / 22 / 60 / 210 actions to quiescence.
#[test]
fn ablation_indicator_delay_is_on_the_critical_path() {
    let gs = topology::two_overlapping(3, 1);
    let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(2), Time(2))]);
    for (delay, expected) in [(0u64, 22u64), (10, 22), (50, 60), (200, 210)] {
        let mut rt = Runtime::new(
            &gs,
            pattern.clone(),
            RuntimeConfig {
                variant: Variant::Strict,
                indicator_delay: delay,
                ..Default::default()
            },
        );
        for (g, members) in gs.iter() {
            rt.multicast((members & pattern.correct()).min().unwrap(), g, 0);
        }
        let mut exec = RuntimeExecutor::new(rt);
        assert_eq!(run_fair(&mut exec, 10_000_000), RunOutcome::Quiescent);
        assert_eq!(exec.runtime().now().0, expected, "1^(g∩h) delay {delay}");
    }
}

/// `Ω ∧ Σ` Paxos among 5 processes, each proposing: with `Ω` rotating its
/// leader every 7 ticks until it stabilises at 0 / 100 / 400, the run takes
/// 85 / 176 / 260 steps to quiesce.
#[test]
fn ablation_omega_stabilisation_delays_consensus() {
    let scope = ProcessSet::first_n(5);
    for (stabilize_at, expected) in [(0u64, 85u64), (100, 176), (400, 260)] {
        let pattern = FailurePattern::all_correct(scope);
        let history = OmegaSigmaHistory::new(
            OmegaOracle::new(
                scope,
                pattern.clone(),
                OmegaMode::RotateUntil {
                    stabilize_at: Time(stabilize_at),
                    period: 7,
                },
            ),
            SigmaOracle::new(scope, pattern.clone(), SigmaMode::Alive),
        );
        let processes: Vec<PaxosProcess<u64>> =
            scope.iter().map(|p| PaxosProcess::new(p, scope)).collect();
        let mut sim = Simulator::new(processes, pattern, history);
        for p in scope {
            sim.automaton_mut(p).propose(0, p.0 as u64);
        }
        let mut exec = KernelExecutor::new(sim);
        assert_eq!(run_fair(&mut exec, 10_000_000), RunOutcome::Quiescent);
        assert_eq!(
            exec.sim().trace().total_steps(),
            expected,
            "Ω stabilises at {stabilize_at}"
        );
    }
}
