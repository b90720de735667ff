//! # gam-engine — one stepping interface over both execution substrates
//!
//! The reproduction executes the paper at two levels: **Level A**
//! (`gam_core::Runtime`, Algorithm 1 over linearizable shared objects,
//! where a scheduling choice fires an enabled guarded action) and **Level
//! B** (`gam_kernel::Simulator`, automata over an asynchronous
//! message-passing network, where a choice picks which pending message a
//! process receives). Both claims are quantified over the same adversary —
//! the schedule — and before this crate every consumer (explorer, replay,
//! bench bins, spec plumbing) carried one driver loop per substrate.
//!
//! `gam-engine` is the seam that removes the duplication:
//!
//! - [`Executor`] — the substrate interface: `enabled_actions` /
//!   `step` / `state_digest` / `is_quiescent` / `idle_tick`, implemented by
//!   [`RuntimeExecutor`] (Level A) and [`KernelExecutor`] (Level B);
//! - [`run_with_source`], [`run_fair`], [`run_recorded`], [`replay`] — the
//!   *single* driver loop every [`ScheduleSource`] now flows through — and
//!   [`Executor::run_fair_tail`], the fair round-robin completion of a run,
//!   which a substrate may specialise (the Level A runtime picks without
//!   listing its choice space);
//! - [`digest`] — the one shared, incremental run-hash implementation.
//!
//! ## Adding a new substrate
//!
//! Implement [`Executor`] for a wrapper over your machine: enumerate the
//! eligible processes with positive option arity (ascending process order,
//! sub-choice `0` = your deterministic default move), execute a
//! [`ChoiceStep`], fold each step into a [`digest::Digest`], and define
//! quiescence. Everything else — fair driving, random swarms, recorded
//! replay, shrinking, bench harnesses — works unchanged.
//!
//! [`ScheduleSource`]: gam_kernel::ScheduleSource
//! [`ChoiceStep`]: gam_kernel::schedule::ChoiceStep

#![warn(missing_docs)]

pub mod digest;
mod exec;
pub mod independence;
mod kernel;
mod runtime;
mod sustained;
mod visited;

pub use exec::{
    replay, run_fair, run_recorded, run_with_source, run_with_source_counted, Executor, PrefixTail,
    SnapshotExec,
};
pub use independence::{actions_commute, groups_conflict, shard_partition};
pub use kernel::{KernelExecutor, KernelSnapshot};
pub use runtime::{RuntimeExecutor, RuntimeSnapshot};
pub use sustained::{run_sustained_par, shard_specs};
pub use visited::VisitedSet;

#[cfg(test)]
mod tests {
    use super::*;
    use gam_core::distributed::{DistProcess, MuHistory};
    use gam_core::{MessageId, Runtime, RuntimeConfig};

    #[test]
    fn runtime_executor_matches_native_loop() {
        use gam_groups::{topology, GroupId};
        use gam_kernel::{FailurePattern, ProcessId, RunOutcome};

        let gs = topology::two_overlapping(3, 1);
        let build = || {
            let mut rt = Runtime::new(
                &gs,
                FailurePattern::all_correct(gs.universe()),
                RuntimeConfig::default(),
            );
            rt.multicast(ProcessId(0), GroupId(0), 7);
            rt.multicast(ProcessId(4), GroupId(1), 8);
            rt
        };
        // Native source-driven loop and the engine driver must agree step
        // for step: same outcome, same report.
        let mut native = build();
        let mut src = gam_kernel::schedule::RandomSource::new(5);
        let out = native.run_with_source(gs.universe(), &mut src, 100_000);
        assert_eq!(out, RunOutcome::Quiescent);

        let mut exec = RuntimeExecutor::new(build());
        let mut src = gam_kernel::schedule::RandomSource::new(5);
        let out2 = run_with_source(&mut exec, &mut src, 100_000);
        assert_eq!(out2, RunOutcome::Quiescent);
        let (a, b) = (native.report(true), exec.report(true));
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.actions_of, b.actions_of);
        assert_eq!(digest::trace_hash(&a), digest::trace_hash(&b));
    }

    #[test]
    fn kernel_executor_matches_native_loop() {
        use gam_groups::{topology, GroupId};
        use gam_kernel::schedule::RandomSource;
        use gam_kernel::{FailurePattern, RunOutcome, Simulator};

        // The Level B twin of `runtime_executor_matches_native_loop`: the
        // simulator's own loop makes the calls `KernelExecutor` makes, so
        // under equal sources the two take the same steps.
        let gs = topology::ring(3, 2);
        let build = || {
            let pattern = FailurePattern::all_correct(gs.universe());
            let autos = gs
                .universe()
                .iter()
                .map(|p| DistProcess::new(p, &gs))
                .collect();
            let mu = gam_detectors::MuOracle::new(
                &gs,
                pattern.clone(),
                gam_detectors::MuConfig::default(),
            );
            let mut sim = Simulator::new(autos, pattern, MuHistory::new(mu));
            for g in 0..3u32 {
                let src = gs.members(GroupId(g)).min().unwrap();
                sim.automaton_mut(src)
                    .multicast(MessageId(u64::from(g)), GroupId(g));
            }
            sim
        };
        for seed in 0..3 {
            let mut native = build();
            let out = native.run(&mut RandomSource::new(seed), 2_000_000);
            assert_eq!(out, RunOutcome::Quiescent, "seed {seed}");

            let mut exec = KernelExecutor::new(build());
            let out2 = run_with_source(&mut exec, &mut RandomSource::new(seed), 2_000_000);
            assert_eq!(out2, out, "seed {seed}");
            let engine = exec.sim();
            assert_eq!(engine.now(), native.now(), "seed {seed}");
            assert_eq!(engine.total_messages(), native.total_messages());
            assert_eq!(engine.counters(), native.counters(), "seed {seed}");
            for p in gs.universe() {
                assert_eq!(
                    engine.automaton(p).delivered(),
                    native.automaton(p).delivered(),
                    "seed {seed}: {p}"
                );
            }
        }
    }

    #[test]
    fn recorded_engine_run_replays_to_same_digest() {
        use gam_groups::{topology, GroupId};
        use gam_kernel::{FailurePattern, RunOutcome};

        let gs = topology::ring(3, 2);
        let build = || {
            let mut rt = Runtime::new(
                &gs,
                FailurePattern::all_correct(gs.universe()),
                RuntimeConfig::default(),
            );
            for g in 0..3u32 {
                let src = gs.members(GroupId(g)).min().unwrap();
                rt.multicast(src, GroupId(g), u64::from(g));
            }
            rt
        };
        let mut exec = RuntimeExecutor::new(build());
        let (out, schedule) = run_recorded(
            &mut exec,
            gam_kernel::schedule::RandomSource::new(13),
            200_000,
        );
        assert_eq!(out, RunOutcome::Quiescent);
        assert!(!schedule.is_empty());

        let mut again = RuntimeExecutor::new(build());
        let out2 = replay(&mut again, &schedule, 200_000);
        assert_eq!(out2, RunOutcome::Quiescent);
        assert_eq!(again.state_digest(), exec.state_digest());
    }

    #[test]
    fn kernel_snapshot_restore_replays_bit_for_bit() {
        use gam_groups::{topology, GroupId};
        use gam_kernel::{FailurePattern, ProcessId, RunOutcome};

        let gs = topology::two_overlapping(3, 1);
        let pattern = FailurePattern::all_correct(gs.universe());
        let autos: Vec<DistProcess> = gs
            .universe()
            .iter()
            .map(|p| DistProcess::new(p, &gs))
            .collect();
        let mu =
            gam_detectors::MuOracle::new(&gs, pattern.clone(), gam_detectors::MuConfig::default());
        let mut sim = gam_kernel::Simulator::new(autos, pattern, MuHistory::new(mu));
        sim.automaton_mut(ProcessId(0))
            .multicast(MessageId(0), GroupId(0));
        let mut exec = KernelExecutor::new(sim);

        // Advance partway, checkpoint, and note where we stand.
        let mut src = gam_kernel::schedule::RandomSource::new(3);
        let out = run_with_source(&mut exec, &mut src, 40);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        let snap = exec.snapshot();
        let at_snap = exec.state_digest();

        // Continue to quiescence, diverge after a restore, then replay the
        // original continuation — digests must match exactly.
        let finish = |exec: &mut KernelExecutor<DistProcess, MuHistory>, seed: u64| {
            let mut src = gam_kernel::schedule::RandomSource::new(seed);
            assert_eq!(
                run_with_source(exec, &mut src, 2_000_000),
                RunOutcome::Quiescent
            );
            exec.state_digest()
        };
        let first = finish(&mut exec, 7);
        exec.restore(&snap);
        assert_eq!(exec.state_digest(), at_snap, "restore lands on checkpoint");
        let other = finish(&mut exec, 8);
        assert_ne!(first, other, "different continuations must diverge");
        exec.restore(&snap);
        assert_eq!(finish(&mut exec, 7), first, "replayed continuation agrees");
    }
}
