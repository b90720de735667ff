//! Driving the Level-B (message-passing) deployment through schedule
//! sources.
//!
//! The runtime-level explorer checks Algorithm 1 over linearizable shared
//! objects; this module aims the same [`ScheduleSource`] machinery at the
//! other end of the stack: `gam_core::distributed::DistProcess` automata
//! under the kernel [`Simulator`], where every
//! scheduling choice is *which pending network message a process receives
//! next*. Both ends now go through the same [`gam_engine::Executor`]
//! stepping layer: this module only builds the Level-B executor for a
//! [`Scenario`] and interprets its terminal state with the shared
//! `gam_core::spec` checkers.
//!
//! [`ScheduleSource`]: gam_kernel::schedule::ScheduleSource

use crate::{PrefixTail, Scenario};
use gam_core::distributed::{run_report, DistProcess, MuHistory};
use gam_core::spec::{check_all, check_integrity, check_pairwise_agreement};
use gam_core::Variant;
use gam_detectors::{MuConfig, MuOracle};
use gam_groups::GroupSystem;
use gam_kernel::schedule::{ChoiceStep, RandomSource, ReplaySource, ScheduleSource};
use gam_kernel::{RunOutcome, Simulator};

use gam_engine::digest::Digest;
use gam_engine::{Executor, KernelExecutor};

/// The outcome of one kernel-level run.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// How the run loop stopped.
    pub outcome: RunOutcome,
    /// The recorded schedule (replay with [`replay_run`]).
    pub schedule: Vec<ChoiceStep>,
    /// Digest of the full run: the executor's incremental step digest
    /// extended with the outcome and per-process delivery sequences.
    pub hash: u64,
    /// The first spec violation found, if any.
    pub violation: Option<String>,
}

impl Scenario {
    /// The Level-B (message passing) executor of the scenario: one
    /// [`DistProcess`] per process under the kernel simulator with a `μ`
    /// history, submissions multicast from their sources. Kernel-level
    /// messages carry no user payload, so submission payloads are dropped.
    /// What the processes share of the topology — `ℱ` — is enumerated once.
    pub fn kernel_executor(&self) -> KernelExecutor<DistProcess, MuHistory> {
        let pattern = self.pattern();
        let cyclic = self.system.cyclic_families();
        let autos = self
            .system
            .universe()
            .iter()
            .map(|p| DistProcess::with_families(p, &self.system, &cyclic))
            .collect();
        let mu = MuOracle::new(&self.system, pattern.clone(), MuConfig::default());
        let mut sim = Simulator::new(autos, pattern, MuHistory::new(mu));
        for (i, (src, g, _payload)) in self.submissions.iter().enumerate() {
            sim.automaton_mut(*src)
                .multicast(gam_core::MessageId(i as u64), *g);
        }
        KernelExecutor::new(sim).with_delivery_msg(|e| Some(e.msg))
    }
}

fn run_with<S: ScheduleSource>(scenario: &Scenario, source: S) -> KernelRun {
    let mut exec = scenario.kernel_executor();
    let (outcome, schedule) = gam_engine::run_recorded(&mut exec, source, scenario.max_steps);
    let quiescent = outcome == RunOutcome::Quiescent;
    let report = run_report(
        exec.sim(),
        &scenario.system,
        &scenario.submissions,
        quiescent,
    );
    // Extend the incremental step digest with the end-of-run summary.
    let mut digest = Digest::resume(exec.state_digest());
    digest.push(u64::from(quiescent));
    for p in scenario.system.universe() {
        digest.push(u64::from(p.0));
        for m in exec.sim().automaton(p).delivered() {
            digest.push(m.0 + 1);
        }
    }
    // Quiescent runs face the full spec; budget-cut and stopped runs only
    // the checks that are sound on partial runs.
    let violation = if quiescent {
        check_all(&report, Variant::Standard).err()
    } else {
        check_integrity(&report)
            .and_then(|()| check_pairwise_agreement(&report))
            .err()
    };
    KernelRun {
        outcome,
        schedule,
        hash: digest.value(),
        violation: violation.map(|v| v.to_string()),
    }
}

/// One failure-free swarm run: one message per group, every receive choice
/// uniformly random under `seed`.
pub fn swarm_run(system: &GroupSystem, seed: u64, max_steps: u64) -> KernelRun {
    let scenario = Scenario::one_per_group(system, max_steps);
    run_with(&scenario, RandomSource::new(seed))
}

/// Replays a recorded kernel schedule (completing with the fair round-robin
/// tail if the schedule ends early). A faithful replay reproduces the
/// original [`KernelRun::hash`] exactly.
pub fn replay_run(system: &GroupSystem, schedule: &[ChoiceStep], max_steps: u64) -> KernelRun {
    let scenario = Scenario::one_per_group(system, max_steps);
    run_with(
        &scenario,
        PrefixTail::new(ReplaySource::new(schedule.to_vec())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_scenarios::fixture;

    #[test]
    fn swarm_is_seed_deterministic() {
        let gs = fixture("ring_3_2").system();
        let a = swarm_run(&gs, 3, 2_000_000);
        let b = swarm_run(&gs, 3, 2_000_000);
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.violation, None, "{:?}", a.violation);
        let c = swarm_run(&gs, 4, 2_000_000);
        assert_ne!(a.hash, c.hash, "different seed, different run");
    }

    #[test]
    fn replay_reproduces_the_swarm_run() {
        let gs = fixture("two_overlapping_3_1").system();
        let original = swarm_run(&gs, 11, 2_000_000);
        assert_eq!(original.outcome, RunOutcome::Quiescent);
        let replayed = replay_run(&gs, &original.schedule, 2_000_000);
        assert_eq!(replayed.hash, original.hash, "byte-identical replay");
        assert_eq!(replayed.outcome, original.outcome);
        assert_eq!(replayed.violation, None);
    }

    #[test]
    fn budget_cut_runs_pass_the_partial_checks() {
        // A tiny budget cuts the run mid-protocol; the partial-run checks
        // must not flag the valid prefix.
        let gs = fixture("ring_3_2").system();
        let cut = swarm_run(&gs, 3, 25);
        assert_eq!(cut.outcome, RunOutcome::BudgetExhausted);
        assert_eq!(cut.violation, None, "{:?}", cut.violation);
    }
}
