//! The two exploration strategies: bounded exhaustive enumeration and a
//! seeded random swarm.
//!
//! Both come in a sequential flavor (this module) and a parallel,
//! dedup-pruned flavor ([`crate::par`]). The sequential loops are the
//! reference semantics: the parallel engines are verified (by
//! `tests/parallel_determinism.rs`) to produce byte-identical [`Repro`]s.

use crate::par::Worker;
use crate::shrink::shrink;
use crate::{PrefixTail, Prototype, Repro, Scenario};
use gam_core::spec::SpecViolation;
use gam_kernel::schedule::{PathSource, RandomSource, RecordInto, RecordingSource};
use gam_kernel::RunOutcome;
use std::ops::Range;

/// A spec violation found by exploration, shrunk and packaged for replay.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The shrunk, replayable run.
    pub repro: Repro,
    /// The violation the repro reproduces.
    pub violation: SpecViolation,
    /// Candidate runs the shrinker spent.
    pub shrink_runs: u64,
}

/// Why an exploration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The whole space (every bounded prefix / every seed) was covered and
    /// no violation was found.
    Exhausted,
    /// Exploration stopped at a spec violation (packaged in
    /// [`ExploreStats::violations`]).
    ViolationFound,
    /// The run cap was hit before the space was covered — coverage is
    /// partial and violation-free so far.
    RunCapped,
}

/// What an exploration covered and found.
#[derive(Debug, Clone)]
pub struct ExploreStats {
    /// Scheduled runs executed (excluding shrinker candidates; dedup-pruned
    /// prefixes count — their enumerated part did run).
    pub runs: u64,
    /// Counterexamples found (exploration stops at the first).
    pub violations: Vec<Counterexample>,
    /// Why exploration stopped.
    pub outcome: Outcome,
    /// Descents the visited set cut short: runs whose fair-tail completion
    /// was skipped because the post-prefix state fingerprint was already in
    /// the set, plus, for the snapshotting DFS, branches whose whole
    /// subtree was (those are not runs). Always 0 for the sequential
    /// strategies and the swarm, which has no prefix/tail split.
    pub dedup_hits: u64,
    /// Runs executed by each worker of the pool (a single entry for the
    /// sequential strategies).
    pub worker_runs: Vec<u64>,
    /// Substrate steps (scheduled steps plus idle ticks) actually executed,
    /// excluding shrinker candidates and work-item probe runs. The metric
    /// the DFS engine's prefix sharing reduces.
    pub steps_executed: u64,
    /// Checkpoints captured by the snapshotting DFS engine (0 for the
    /// odometer engines and the swarm).
    pub snapshots_taken: u64,
    /// Steps a restart-from-scratch odometer enumeration of the *same*
    /// leaves (with the same dedup decisions) would have executed, minus
    /// [`ExploreStats::steps_executed`] — i.e. the shared-prefix re-execution
    /// the DFS engine skipped (0 for the odometer engines and the swarm).
    pub steps_avoided: u64,
    /// Bytes the DFS engine's checkpoints actually copied, summed across
    /// branch points — with copy-on-write state this is the chunk pointer
    /// tables, not the elements (0 for the odometer engines and the swarm).
    pub snapshot_bytes: u64,
    /// Bytes deep per-element copies of the same checkpoints would have
    /// copied — the Clone baseline the snapshot-bytes threshold of the
    /// `counts` bin (`BENCH_counts.json`) divides by.
    pub snapshot_deep_bytes: u64,
    /// Largest single checkpoint, in copied bytes.
    pub snapshot_bytes_peak: u64,
    /// Subtrees skipped by sleep-set partial-order reduction (0 unless
    /// [`ExploreConfig::por`](crate::ExploreConfig) is on).
    pub por_pruned: u64,
    /// State chunks the pool's executors copied element by element while
    /// exploring — copy-on-write copies after a checkpoint plus restore
    /// copy-backs ([`gam_core::Runtime::chunk_copies`]). What backtracking
    /// costs in memory traffic, as a count: deterministic at one thread
    /// (at N it varies, like [`ExploreStats::dedup_hits`], with which
    /// worker claimed which item); not counted, and 0, for
    /// [`explore_exhaustive`] and the swarms.
    pub chunk_copies: u64,
    /// Fingerprints the per-worker visited sets overwrote because a probe
    /// window was full ([`gam_engine::VisitedSet::evictions`]) — each one a
    /// dedup hit possibly forgone, never a verdict changed.
    pub dedup_evictions: u64,
}

impl ExploreStats {
    /// True when the whole space was covered (no cap, no early stop at a
    /// violation).
    pub fn complete(&self) -> bool {
        self.outcome == Outcome::Exhausted
    }

    /// True when the space was fully covered with no violation.
    pub fn clean(&self) -> bool {
        self.complete() && self.violations.is_empty()
    }

    /// Per-mille of odometer-equivalent steps the engine did *not* execute:
    /// `steps_avoided / (steps_executed + steps_avoided) × 1000` (0 for the
    /// restart-from-scratch engines, where nothing is avoided).
    pub fn steps_avoided_permille(&self) -> u64 {
        let equivalent = self.steps_executed + self.steps_avoided;
        (self.steps_avoided * 1000)
            .checked_div(equivalent)
            .unwrap_or(0)
    }

    pub(crate) fn sequential(
        runs: u64,
        violations: Vec<Counterexample>,
        outcome: Outcome,
        steps_executed: u64,
    ) -> Self {
        ExploreStats {
            runs,
            violations,
            outcome,
            dedup_hits: 0,
            worker_runs: vec![runs],
            steps_executed,
            snapshots_taken: 0,
            steps_avoided: 0,
            snapshot_bytes: 0,
            snapshot_deep_bytes: 0,
            snapshot_bytes_peak: 0,
            por_pruned: 0,
            chunk_copies: 0,
            dedup_evictions: 0,
        }
    }
}

pub(crate) fn found(
    scenario: &Scenario,
    schedule: Vec<gam_kernel::ChoiceStep>,
    violation: SpecViolation,
    seed: u64,
    shrink_budget: u64,
) -> Counterexample {
    let (scenario, schedule, shrink_runs) = shrink(
        scenario.clone(),
        schedule,
        violation.property,
        shrink_budget,
    );
    Counterexample {
        repro: Repro {
            scenario,
            schedule,
            seed,
            property: Some(violation.property.to_string()),
        },
        violation,
        shrink_runs,
    }
}

/// Enumerates **every** schedule of the scenario whose first `depth`
/// scheduling choices differ, completing each prefix with the fair
/// round-robin tail to a checkable terminal state, and checking each
/// against `spec::check_all`.
///
/// The choice tree is walked odometer-style: each run records the
/// branching factor actually met at every depth, which is exactly the
/// information needed to advance to the next unexplored prefix. Stops at
/// the first violation (shrunk within `shrink_budget` candidate runs into a
/// [`Counterexample`]) or after `max_runs` runs; [`ExploreStats::outcome`]
/// reports which.
///
/// For multi-core exploration of the same tree see
/// [`explore_exhaustive_par`](crate::explore_exhaustive_par).
pub fn explore_exhaustive(
    scenario: &Scenario,
    depth: usize,
    max_runs: u64,
    shrink_budget: u64,
) -> ExploreStats {
    let proto = Prototype::new(scenario);
    let mut worker = Worker::new(&proto, 0);
    let mut path = vec![0usize; depth];
    // The per-run state is hoisted out of the loop and reset in place:
    // enumerating a tree means millions of runs, each on the one executor
    // (the worker's), `PathSource` path and recording log.
    let mut path_source = PathSource::new(Vec::new());
    let mut schedule = Vec::new();
    let mut runs = 0u64;
    let mut steps = 0u64;
    loop {
        if runs >= max_runs {
            return ExploreStats::sequential(runs, Vec::new(), Outcome::RunCapped, steps);
        }
        path_source.reset_to(&path);
        schedule.clear();
        proto.reset(&mut worker.exec);
        let out = {
            let mut source = RecordInto::new(PrefixTail::new(&mut path_source), &mut schedule);
            let (out, consumed) = worker.run(&mut source, scenario.max_steps);
            steps += consumed;
            out
        };
        runs += 1;
        if let Err(violation) = worker.verdict(out == RunOutcome::Quiescent, scenario.variant) {
            let schedule = std::mem::take(&mut schedule);
            return ExploreStats::sequential(
                runs,
                vec![found(scenario, schedule, violation, 0, shrink_budget)],
                Outcome::ViolationFound,
                steps,
            );
        }
        // Advance the odometer: bump the deepest consumed digit that still
        // has unexplored siblings, reset everything after it.
        let branching = path_source.branching();
        let used = branching.len().min(depth);
        let Some(bump) = (0..used).rev().find(|&i| path[i] + 1 < branching[i]) else {
            return ExploreStats::sequential(runs, Vec::new(), Outcome::Exhausted, steps);
        };
        path[bump] += 1;
        for digit in path.iter_mut().skip(bump + 1) {
            *digit = 0;
        }
    }
}

/// Runs the scenario once per seed under the uniformly random scheduler,
/// recording each schedule, and checks every terminal state. Stops at the
/// first violation, shrunk within `shrink_budget` candidate runs into a
/// [`Counterexample`].
///
/// For multi-core striping over the same seed range see
/// [`explore_swarm_par`](crate::explore_swarm_par).
pub fn explore_swarm(scenario: &Scenario, seeds: Range<u64>, shrink_budget: u64) -> ExploreStats {
    let proto = Prototype::new(scenario);
    let mut worker = Worker::new(&proto, 0);
    let mut runs = 0u64;
    let mut steps = 0u64;
    for seed in seeds {
        let mut source = RecordingSource::new(RandomSource::new(seed));
        proto.reset(&mut worker.exec);
        let (out, consumed) = worker.run(&mut source, scenario.max_steps);
        steps += consumed;
        runs += 1;
        if let Err(violation) = worker.verdict(out == RunOutcome::Quiescent, scenario.variant) {
            return ExploreStats::sequential(
                runs,
                vec![found(
                    scenario,
                    source.into_log(),
                    violation,
                    seed,
                    shrink_budget,
                )],
                Outcome::ViolationFound,
                steps,
            );
        }
    }
    ExploreStats::sequential(runs, Vec::new(), Outcome::Exhausted, steps)
}

/// The default shrinker budget (candidate runs) of the `explore_*` family.
pub const DEFAULT_SHRINK_BUDGET: u64 = 800;

#[cfg(test)]
mod tests {
    use super::*;
    use gam_groups::topology;

    #[test]
    fn exhaustive_single_group_is_clean_and_complete() {
        let scenario = Scenario::one_per_group(&topology::single_group(2), 20_000);
        let stats = explore_exhaustive(&scenario, 3, 5_000, DEFAULT_SHRINK_BUDGET);
        assert!(stats.clean(), "violations: {:?}", stats.violations);
        assert!(stats.runs > 1, "more than one prefix explored");
        assert_eq!(stats.outcome, Outcome::Exhausted);
        assert_eq!(stats.worker_runs, vec![stats.runs]);
        assert_eq!(stats.dedup_hits, 0);
    }

    #[test]
    fn exhaustive_respects_run_cap() {
        let scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000);
        let stats = explore_exhaustive(&scenario, 4, 7, DEFAULT_SHRINK_BUDGET);
        assert_eq!(stats.runs, 7);
        assert_eq!(stats.outcome, Outcome::RunCapped);
        assert!(!stats.complete());
        assert!(stats.violations.is_empty());
    }

    #[test]
    fn swarm_on_ring_is_clean() {
        let scenario = Scenario::one_per_group(&topology::ring(3, 2), 100_000);
        let stats = explore_swarm(&scenario, 0..5, DEFAULT_SHRINK_BUDGET);
        assert!(stats.clean(), "violations: {:?}", stats.violations);
        assert_eq!(stats.runs, 5);
        assert_eq!(stats.outcome, Outcome::Exhausted);
    }
}
