//! Integration of the message-passing substrate (§4.3 "Implementing the
//! shared objects"): ABD registers from `Σ` and `Ω∧Σ` consensus, driven
//! through the kernel simulator, including a consensus-backed shared log.

use gam_kernel::RunOutcome;
use genuine_multicast::detectors::{OmegaMode, OmegaOracle, SigmaMode, SigmaOracle};
use genuine_multicast::objects::{
    AbdEvent, AbdProcess, OmegaSigmaHistory, PaxosProcess, RegisterId,
};
use genuine_multicast::prelude::*;

#[test]
fn abd_register_linearizes_under_random_schedules_and_crashes() {
    let n = 5;
    let scope = ProcessSet::first_n(n);
    for seed in 0..5u64 {
        let pattern = FailurePattern::from_crashes(scope, [(ProcessId(4), Time(20))]);
        let sigma = SigmaOracle::new(scope, pattern.clone(), SigmaMode::Alive);
        let autos: Vec<AbdProcess<u64>> = (0..n)
            .map(|i| AbdProcess::new(ProcessId(i as u32), scope))
            .collect();
        let mut sim = Simulator::new(autos, pattern, sigma);
        let mut source = RandomSource::new(seed);
        const R: RegisterId = RegisterId(7);
        // sequential writes then concurrent reads
        sim.automaton_mut(ProcessId(0)).write(R, 1);
        assert_eq!(sim.run(&mut source, 500_000), RunOutcome::Quiescent);
        sim.automaton_mut(ProcessId(1)).write(R, 2);
        assert_eq!(sim.run(&mut source, 500_000), RunOutcome::Quiescent);
        for i in 0..3 {
            sim.automaton_mut(ProcessId(i)).read(R);
        }
        sim.run(&mut source, 500_000);
        for i in 0..3 {
            let p = ProcessId(i);
            assert!(
                sim.trace().events_of(p).any(|e| e.event
                    == AbdEvent::ReadDone {
                        reg: R,
                        value: Some(2)
                    }),
                "seed {seed}: {p} must read the last completed write"
            );
        }
    }
}

#[test]
fn consensus_sequence_builds_a_replicated_log() {
    // The universal-construction pattern: a shared log as a sequence of
    // consensus instances; each process proposes its command for successive
    // slots and applies decisions in order. All logs converge.
    let n = 3;
    let scope = ProcessSet::first_n(n);
    let pattern = FailurePattern::all_correct(scope);
    let hist = OmegaSigmaHistory::new(
        OmegaOracle::new(scope, pattern.clone(), OmegaMode::MinAlive),
        SigmaOracle::new(scope, pattern.clone(), SigmaMode::Alive),
    );
    let autos: Vec<PaxosProcess<u64>> = (0..n)
        .map(|i| PaxosProcess::new(ProcessId(i as u32), scope))
        .collect();
    let mut sim = Simulator::new(autos, pattern, hist);
    // every process wants to append its own command; slots 0..3
    for slot in 0..3u64 {
        for i in 0..n {
            // command encodes (slot, proposer)
            sim.automaton_mut(ProcessId(i as u32))
                .propose(slot, slot * 10 + i as u64);
        }
    }
    assert_eq!(
        sim.run(&mut RotatingSource::default(), 2_000_000),
        RunOutcome::Quiescent
    );
    // reconstruct each replica's log from its local decisions
    let log_of = |p: ProcessId| -> Vec<u64> {
        (0..3u64)
            .map(|slot| *sim.automaton(p).decision(slot).expect("decided"))
            .collect()
    };
    let l0 = log_of(ProcessId(0));
    for i in 1..n {
        assert_eq!(log_of(ProcessId(i as u32)), l0, "replica logs agree");
    }
    // validity: each slot's decision is one of the proposals for that slot
    for (slot, v) in l0.iter().enumerate() {
        assert_eq!(*v / 10, slot as u64);
        assert!(*v % 10 < n as u64);
    }
}

#[test]
fn paxos_liveness_with_adversarial_omega_and_minority_crash() {
    let n = 5;
    let scope = ProcessSet::first_n(n);
    let pattern =
        FailurePattern::from_crashes(scope, [(ProcessId(0), Time(50)), (ProcessId(1), Time(80))]);
    let hist = OmegaSigmaHistory::new(
        OmegaOracle::new(
            scope,
            pattern.clone(),
            OmegaMode::RotateUntil {
                stabilize_at: Time(200),
                period: 9,
            },
        ),
        SigmaOracle::new(scope, pattern.clone(), SigmaMode::Alive),
    );
    let autos: Vec<PaxosProcess<u64>> = (0..n)
        .map(|i| PaxosProcess::new(ProcessId(i as u32), scope))
        .collect();
    let mut sim = Simulator::new(autos, pattern.clone(), hist);
    for i in 0..n {
        sim.automaton_mut(ProcessId(i as u32)).propose(0, i as u64);
    }
    assert_eq!(
        sim.run(&mut RandomSource::new(3), 3_000_000),
        RunOutcome::Quiescent
    );
    let decided: Vec<u64> = (scope & pattern.correct())
        .iter()
        .map(|p| {
            *sim.automaton(p)
                .decision(0)
                .expect("correct processes decide")
        })
        .collect();
    assert!(decided.windows(2).all(|w| w[0] == w[1]), "agreement");
}
