//! # gam-explore — schedule-space exploration with shrinking repros
//!
//! The paper's correctness claims are universally quantified over schedules;
//! the fixed-seed integration tests only sample a handful of them. This
//! crate turns the quantifier into tooling:
//!
//! - [`explore`] is the one entry point, in two [`Mode`]s, checking every
//!   terminal state against [`gam_core::spec::check_all`].
//!   `Exhaustive` enumerates **every** schedule of a bounded choice depth,
//!   completing each prefix with a deterministic fair tail to quiescence so
//!   every terminal state is checkable, as a snapshotting depth-first
//!   search: shared schedule prefixes execute once, and checkpoints are
//!   restored on backtrack. `Swarm` drives a seeded `RandomSource` over
//!   the full run, once per seed, recording each schedule (`RecordInto`)
//!   as it goes;
//! - both run on one worker pool with a deterministic merge, so the
//!   reported counterexample is independent of the thread count, and the
//!   exhaustive walk skips subtrees that already completed clean (see
//!   [`ExploreConfig`]). The tests hold it to a restart-from-scratch
//!   enumeration written on this crate's public API;
//! - on a violation, [`shrink()`] delta-debugs the failing run — dropping
//!   crashes and submissions, truncating the schedule, collapsing choices
//!   toward the round-robin default — down to a minimal counterexample;
//! - the result is a [`Repro`]: a self-contained, text-serializable bundle
//!   (topology + failure pattern + schedule + seed) that replays
//!   byte-identically and can be checked into `tests/fixtures/`.
//!
//! The same [`ScheduleSource`] machinery also drives the message-passing
//! Level-B deployment (`gam_core::distributed`) through the kernel
//! simulator — see [`kernel`]. Both substrates run through the *same*
//! [`gam_engine::Executor`] stepping layer; this crate only decides what
//! to run and what to check.

#![warn(missing_docs)]

mod dfs;
mod explorer;
pub mod hunt;
pub mod kernel;
mod repro;
mod shrink;

pub use dfs::subtree_key;
pub use explorer::{
    explore, explore_exhaustive_dfs_par, Counterexample, ExploreConfig, ExploreStats, Mode,
    Outcome, DEFAULT_SHRINK_BUDGET,
};
pub use gam_engine::digest::{self, fnv1a, trace_hash};
pub use gam_engine::PrefixTail;
pub use hunt::{hunt, hunt_one, HuntConfig, HuntFinding, HuntOutcome, HuntReport};
pub use repro::Repro;
pub use shrink::shrink;

use gam_core::spec::{check_all, SpecViolation};
use gam_core::{RunReport, Runtime, RuntimeConfig, Variant};
use gam_engine::{RuntimeExecutor, RuntimeSnapshot, SnapshotExec};
use gam_groups::{GroupId, GroupSystem};
use gam_kernel::schedule::ScheduleSource;
use gam_kernel::{FailurePattern, ProcessId, RunOutcome, Time};

/// A closed, runnable test case: everything about a run except its
/// schedule.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The group topology.
    pub system: GroupSystem,
    /// Crash injections `(process, time)` of the failure pattern.
    pub crashes: Vec<(ProcessId, Time)>,
    /// Up-front submissions `(src, group, payload)`, in order.
    pub submissions: Vec<(ProcessId, GroupId, u64)>,
    /// The problem variation to check against.
    pub variant: Variant,
    /// Step budget of a single run (schedule prefix + fair tail).
    pub max_steps: u64,
    /// Consensus batching width of the Level-A runtime (`1` = unbatched;
    /// the Level-B kernel substrate always runs unbatched).
    pub batch_max: u32,
}

/// A scenario with its executor built once and checkpointed. What a run
/// consults besides the logs (ℱ, `H(p, g)`, `γ`'s exclusion instants, the
/// `Σ`/`Ω` histories, the interned tables) is a function of topology and
/// failure pattern alone, so an exploration constructs and injects once,
/// stamps one executor per worker from that checkpoint — the bit-for-bit
/// twin of [`Scenario::runtime_executor`], by the [`SnapshotExec`] contract
/// — and rewinds it there before every run.
pub(crate) struct Prototype<'a> {
    pub(crate) scenario: &'a Scenario,
    initial: RuntimeSnapshot,
}

impl<'a> Prototype<'a> {
    pub(crate) fn new(scenario: &'a Scenario) -> Self {
        Prototype {
            scenario,
            initial: scenario.runtime_executor().snapshot(),
        }
    }

    /// A fresh executor of the scenario: constructed, submissions applied.
    pub(crate) fn executor(&self) -> RuntimeExecutor {
        RuntimeExecutor::from_snapshot(&self.initial)
    }

    /// Rewinds `exec` — an executor this prototype made — to that fresh
    /// state: what starts every run after an explorer's first.
    pub(crate) fn reset(&self, exec: &mut RuntimeExecutor) {
        exec.restore(&self.initial);
    }
}

impl Scenario {
    /// A failure-free scenario over `system` with one message per group
    /// (from its least member) and the given budget.
    pub fn one_per_group(system: &GroupSystem, max_steps: u64) -> Self {
        let submissions = system
            .iter()
            .map(|(g, members)| (members.min().expect("non-empty group"), g, g.0 as u64))
            .collect();
        Scenario {
            system: system.clone(),
            crashes: Vec::new(),
            submissions,
            variant: Variant::Standard,
            max_steps,
            batch_max: 1,
        }
    }

    /// The same scenario with the Level-A consensus batching width set to
    /// `batch_max` (clamped to at least 1 by the runtime).
    #[must_use]
    pub fn with_batch_max(mut self, batch_max: u32) -> Self {
        self.batch_max = batch_max;
        self
    }

    /// The scenario addressed by a `gam-scn v1` descriptor: generated
    /// topology, crash schedule and traffic trace, checked under the
    /// descriptor's variant within the descriptor's budget. Deterministic —
    /// equal descriptors yield equal scenarios on any thread or host.
    pub fn from_descriptor(descriptor: &gam_scenarios::ScnDescriptor) -> Self {
        let generated = descriptor.generate();
        Scenario {
            system: generated.system,
            crashes: generated.crashes,
            submissions: generated.submissions,
            variant: descriptor.variant,
            max_steps: descriptor.budget,
            batch_max: 1,
        }
    }

    /// The failure pattern of the scenario.
    pub fn pattern(&self) -> FailurePattern {
        FailurePattern::from_crashes(self.system.universe(), self.crashes.iter().copied())
    }

    /// The Level-A (shared objects) executor of the scenario: Algorithm 1
    /// runtime built, submissions applied, ready to drive through any
    /// `gam_engine` driver. One full construction per call; the exploration
    /// engines call it once and stamp their runs from the result.
    pub fn runtime_executor(&self) -> RuntimeExecutor {
        let mut rt = Runtime::new(
            &self.system,
            self.pattern(),
            RuntimeConfig {
                variant: self.variant,
                batch_max: self.batch_max,
                ..Default::default()
            },
        );
        for (src, g, payload) in &self.submissions {
            rt.multicast(*src, *g, *payload);
        }
        RuntimeExecutor::new(rt)
    }

    /// Runs the scenario once, with every scheduling decision taken by
    /// `source`. The report is quiescent iff the run quiesced within
    /// [`Scenario::max_steps`].
    pub fn run<S: ScheduleSource>(&self, source: &mut S) -> RunReport {
        let mut exec = self.runtime_executor();
        let out = gam_engine::run_with_source(&mut exec, source, self.max_steps);
        exec.report(out == RunOutcome::Quiescent)
    }

    /// Runs the scenario and checks it, returning the first violation.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecViolation`] found by `spec::check_all`.
    // gam-lint: allow(U001, reason = "test oracle: the swarm reference of the root equivalence tests (tests/common/mod.rs) checks each run through it")
    pub fn run_checked<S: ScheduleSource>(
        &self,
        source: &mut S,
    ) -> Result<RunReport, SpecViolation> {
        let report = self.run(source);
        check_all(&report, self.variant)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_engine::{run_fair, Executor};
    use gam_kernel::schedule::RotatingSource;

    /// The pinned fixture corpus (its crashy large tree included), each
    /// descriptor unbatched and at `batch_max = 16`.
    pub(crate) fn corpus() -> Vec<(String, Scenario)> {
        let mut out = Vec::new();
        for (name, text) in gam_scenarios::FIXTURES {
            let d = gam_scenarios::ScnDescriptor::parse(text).expect("pinned descriptor");
            let scenario = Scenario::from_descriptor(&d);
            out.push((format!("{name}@16"), scenario.clone().with_batch_max(16)));
            out.push((name.to_string(), scenario));
        }
        out
    }

    /// Everything observable about an executor's present and, after a fair
    /// continuation to the end, its future.
    fn observe(mut exec: RuntimeExecutor, max_steps: u64) -> impl PartialEq + std::fmt::Debug {
        let mut options = Vec::new();
        exec.enabled_actions(&mut options);
        let now = (exec.state_digest(), exec.state_fingerprint(), options);
        let out = run_fair(&mut exec, max_steps);
        let report = exec.report(out == RunOutcome::Quiescent);
        let end = (exec.state_digest(), exec.state_fingerprint());
        (now, out, end, report.delivered, report.actions_of)
    }

    #[test]
    fn a_stamped_executor_is_the_twin_of_a_constructed_one() {
        for (name, scenario) in corpus() {
            let proto = Prototype::new(&scenario);
            let budget = scenario.max_steps;
            let built = observe(scenario.runtime_executor(), budget);
            // Two stamps: the first one's run must not leak into the second.
            assert_eq!(observe(proto.executor(), budget), built, "{name}");
            assert_eq!(observe(proto.executor(), budget), built, "{name} again");

            // Mid-run too: the stamp continues the history digest.
            let mut exec = scenario.runtime_executor();
            let prefix = 50;
            gam_engine::run_with_source(&mut exec, &mut RotatingSource::default(), prefix);
            let stamped = RuntimeExecutor::from_snapshot(&exec.snapshot());
            assert_eq!(
                observe(stamped, budget - prefix),
                observe(exec, budget - prefix),
                "{name} mid-run"
            );
        }
    }
}
