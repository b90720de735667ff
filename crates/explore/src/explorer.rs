//! The one exploration entry point, [`explore`], and the worker pool it
//! runs on.
//!
//! ## Work items
//!
//! The pool claims numbered work items from a shared queue. In
//! [`Mode::Swarm`] each seed is an item. In [`Mode::Exhaustive`] one thread
//! walks the whole bounded tree as one item, with the snapshotting DFS of
//! [`crate::dfs`]. Several workers need shares, so the tree is split by its
//! first one or two choice digits: the root arity and the second-level
//! arities are probed up front, and each resulting prefix is an item, walked
//! by the same DFS with those digits pinned. The union of the items is the
//! one-item walk, re-ordered only *across* items.
//!
//! ## Deterministic merge
//!
//! Items are ordered, workers claim them in ascending order, and a worker
//! stops its current item at the first violation it meets. The merge then
//! reports the violation of the *lowest* item index — the lowest seed, or
//! the first in the one-item walk's order — and shrinks only that one.
//! `Repro` output is therefore byte-identical for 1 vs N threads (verified
//! by `tests/parallel_determinism.rs`). Run *counts* are deterministic
//! whenever exploration covers the whole space without a visited set; once
//! a violation or the run cap stops it early, how far the other workers got
//! depends on timing.
//!
//! ## Dedup pruning
//!
//! Distinct enumerated prefixes frequently *converge* — two interleavings
//! of independent actions reach the same machine. Each worker keeps a
//! [`VisitedSet`] of [`crate::subtree_key`]s of subtrees and fair tails it
//! completed clean, and skips them when they come round again.
//!
//! The key is what a continuation and a verdict can observe of the state,
//! not the state bit for bit (`gam_core::Runtime::fold_observable`,
//! DESIGN.md decision 17). Two things are left out. *Unit names*: units are
//! walked per group in `L_g` order, so the two orders of a pair of
//! `Inject`s, which allocate the same units under swapped ids, collide.
//! *Who stepped how often*: an append to `LOG_g` or a proposal has the same
//! effect whichever member of `g` performs it, and the only reader of the
//! step counts, minimality, asks whether a process that no message
//! addresses stepped at all — so "p injected m" and "q injected m" collide
//! too. Everything a guard or a checker reads stays in: phases, pair
//! orders, consensus cells, delivery sequences *with* their instants, and
//! the clock, which ticks once per step or idle and is folded first — so
//! equal keys imply equal consumed budget, and the pruned tail could only
//! repeat a verdict already recorded. `tests/dedup_soundness.rs` checks
//! that no key maps to two outcomes.
//!
//! All of it modulo 64-bit fingerprint collisions, the standard
//! hashed-state caveat of explicit-state model checking; `counts` audits
//! the key over every choice point of fig1 at depth 6 and records the
//! collisions, 0, in `BENCH_counts.json`. Crucially, only what completed
//! *clean* is recorded: a violation returns before its key is inserted, so
//! a hit can never hide a violation and the merged counterexample is
//! unaffected by pruning.
//!
//! The set is never shared across workers (probe outcomes would race). At
//! one thread the hit count and `runs` are deterministic; at N they vary
//! with which worker claimed which item, since a cached subtree holds
//! leaves a walk without the set would count. The verdicts and the reported
//! counterexample never vary.

use crate::dfs::dfs_item;
use crate::shrink::shrink;
use crate::{Prototype, Repro, Scenario};
use gam_core::spec::{check_all, SpecViolation};
use gam_core::{RunReport, Variant};
use gam_engine::{run_with_source, run_with_source_counted, Executor, RuntimeExecutor, VisitedSet};
use gam_kernel::schedule::{ChoiceStep, PathSource, RandomSource, RecordingSource};
use gam_kernel::RunOutcome;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
    /// Scheduled runs executed (excluding shrinker candidates; a leaf whose
    /// fair tail the visited set skipped counts — its prefix did run).
    pub runs: u64,
    /// Counterexamples found (exploration stops at the first).
    pub violations: Vec<Counterexample>,
    /// Why exploration stopped.
    pub outcome: Outcome,
    /// Descents the visited set cut short: leaves whose fair tail was
    /// skipped, plus branches whose whole subtree was (those are not runs).
    /// Always 0 for the swarm, which has no prefix/tail split.
    pub dedup_hits: u64,
    /// Substrate steps (scheduled steps plus idle ticks) actually executed,
    /// excluding shrinker candidates and work-item probe runs. The metric
    /// prefix sharing reduces.
    pub steps_executed: u64,
    /// Checkpoints captured by the DFS (0 for the swarm).
    pub snapshots_taken: u64,
    /// Steps a restart-from-scratch enumeration of the *same* leaves (with
    /// the same dedup decisions) would have executed, minus
    /// [`ExploreStats::steps_executed`] — i.e. the shared-prefix
    /// re-execution the DFS skipped (0 for the swarm).
    pub steps_avoided: u64,
    /// Bytes the DFS's checkpoints actually copied, summed across branch
    /// points — with copy-on-write state this is the chunk pointer tables,
    /// not the elements (0 for the swarm).
    pub snapshot_bytes: u64,
    /// Bytes deep per-element copies of the same checkpoints would have
    /// copied — the Clone baseline the snapshot-bytes threshold of the
    /// `counts` bin (`BENCH_counts.json`) divides by.
    pub snapshot_deep_bytes: u64,
    /// Largest single checkpoint, in copied bytes.
    pub snapshot_bytes_peak: u64,
    /// Subtrees skipped by sleep-set partial-order reduction (0 unless
    /// [`ExploreConfig::por`] is on).
    pub por_pruned: u64,
    /// State chunks the pool's executors copied element by element while
    /// exploring — copy-on-write copies after a checkpoint plus restore
    /// copy-backs ([`gam_core::Runtime::chunk_copies`]). What backtracking
    /// costs in memory traffic, as a count: deterministic at one thread (at
    /// N it varies, like [`ExploreStats::dedup_hits`], with which worker
    /// claimed which item).
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

    /// Per-mille of restart-equivalent steps the DFS did *not* execute:
    /// `steps_avoided / (steps_executed + steps_avoided) × 1000` (0 for the
    /// swarm, where nothing is avoided).
    pub fn steps_avoided_permille(&self) -> u64 {
        let equivalent = self.steps_executed + self.steps_avoided;
        (self.steps_avoided * 1000)
            .checked_div(equivalent)
            .unwrap_or(0)
    }
}

/// The default shrinker budget (candidate runs) of an exploration.
pub const DEFAULT_SHRINK_BUDGET: u64 = 800;

/// Tuning of [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Worker threads. `0` (the default) resolves to
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Candidate runs the shrinker may spend on a found violation
    /// (default [`DEFAULT_SHRINK_BUDGET`]).
    pub shrink_budget: u64,
    /// Capacity of each worker's visited set; `0` disables pruning. The
    /// exhaustive walk then skips every fair tail and every subtree that
    /// completed clean before, keyed by [`crate::subtree_key`], and runs no
    /// sleep sets (see [`ExploreConfig::por`]). The swarm has no
    /// prefix/tail split, so the setting does not affect it.
    pub dedup_capacity: usize,
    /// Partial-order reduction in the exhaustive walk when it has no
    /// visited set (`dedup_capacity == 0`): sleep sets prune one of each
    /// pair of commuting sibling orders (see [`crate::independence`]).
    /// Verdicts and the canonical counterexample are unchanged; run counts
    /// are no longer the full tree's, hence off by default. Silently inert
    /// beside a visited set (a subtree explored under a sleep set is not
    /// complete, so it cannot be cached, and the cache alone reaches fewer
    /// leaves), when the scenario has crashes (the relation is only sound
    /// crash-free), and for the swarm.
    pub por: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            threads: 0,
            shrink_budget: DEFAULT_SHRINK_BUDGET,
            dedup_capacity: 1 << 16,
            por: false,
        }
    }
}

impl ExploreConfig {
    /// The actual worker count: `threads` if nonzero, else
    /// [`std::thread::available_parallelism`] (1 if unknown).
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

/// What [`explore`] walks.
#[derive(Debug, Clone)]
pub enum Mode {
    /// **Every** schedule whose first `depth` scheduling choices differ,
    /// each prefix completed by the fair round-robin tail to a checkable
    /// terminal state, walked as a snapshotting depth-first search;
    /// at most `max_runs` runs.
    Exhaustive {
        /// Enumerated choices per schedule.
        depth: usize,
        /// Run cap; [`Outcome::RunCapped`] when it stops the walk.
        max_runs: u64,
    },
    /// One run per seed under the uniformly random scheduler, recorded as
    /// it goes.
    Swarm {
        /// The seeds, each one work item.
        seeds: Range<u64>,
    },
}

/// Explores `scenario` in `mode`, checking every terminal state against
/// `spec::check_all`, on [`ExploreConfig::resolved_threads`] workers. Stops
/// at the first violation, shrunk within [`ExploreConfig::shrink_budget`]
/// candidate runs into a [`Counterexample`] — the same one, byte for byte,
/// at any thread count; [`ExploreStats::outcome`] says why it stopped.
pub fn explore(scenario: &Scenario, mode: Mode, config: &ExploreConfig) -> ExploreStats {
    let proto = &Prototype::new(scenario);
    let threads = config.resolved_threads();
    match mode {
        Mode::Exhaustive { depth, max_runs } => {
            // One worker walks the tree whole; only several need shares.
            let items = match threads {
                1 => vec![Vec::new()],
                _ => exhaustive_items(proto, depth),
            };
            let reserved = AtomicU64::new(0);
            let walk = |i: usize, worker: &mut Worker| {
                dfs_item(
                    proto, depth, &items[i], &reserved, max_runs, worker, config.por,
                )
            };
            let (dedup, shrink) = (config.dedup_capacity, config.shrink_budget);
            pool(proto, items.len(), threads, dedup, shrink, walk)
        }
        Mode::Swarm { seeds } => {
            let span = seeds.end.saturating_sub(seeds.start) as usize;
            let run =
                |i: usize, worker: &mut Worker| swarm_item(proto, seeds.start + i as u64, worker);
            pool(proto, span, threads, 0, config.shrink_budget, run)
        }
    }
}

/// [`explore`] in [`Mode::Exhaustive`], under the name the gated benchmark
/// calls.
pub fn explore_exhaustive_dfs_par(
    scenario: &Scenario,
    depth: usize,
    max_runs: u64,
    config: &ExploreConfig,
) -> ExploreStats {
    explore(scenario, Mode::Exhaustive { depth, max_runs }, config)
}

/// What one worker of an exploration keeps across its work items and its
/// runs, so that a run builds nothing a previous run already built: the
/// executor is rewound ([`Prototype::reset`], or a DFS checkpoint) instead
/// of stamped anew, and every leaf's verdict is read off the one report.
pub(crate) struct Worker {
    pub(crate) exec: RuntimeExecutor,
    report: RunReport,
    /// Subtree keys this worker completed clean (`None`: dedup off).
    pub(crate) visited: Option<VisitedSet>,
}

impl Worker {
    fn new(proto: &Prototype, dedup_capacity: usize) -> Self {
        let exec = proto.executor();
        Worker {
            report: exec.report(false),
            exec,
            visited: (dedup_capacity > 0).then(|| VisitedSet::with_capacity(dedup_capacity)),
        }
    }

    /// The spec verdict on the run the executor has just finished:
    /// `check_all` over its report, whose buffers are the previous leaf's.
    pub(crate) fn verdict(
        &mut self,
        quiescent: bool,
        variant: Variant,
    ) -> Result<(), SpecViolation> {
        self.exec.report_into(&mut self.report, quiescent);
        check_all(&self.report, variant)
    }

    /// `(chunks copied, fingerprints evicted)` by this worker so far.
    fn counters(&self) -> (u64, u64) {
        (
            self.exec.runtime().chunk_copies(),
            self.visited.as_ref().map_or(0, VisitedSet::evictions),
        )
    }
}

/// Total option arity of the choice space reached by driving the scenario
/// through `prefix` (0 when the run terminates within the prefix), probed
/// on `exec`, which is rewound to the initial state first.
fn arity_after(proto: &Prototype, exec: &mut RuntimeExecutor, prefix: &[usize]) -> usize {
    proto.reset(exec);
    let mut src = PathSource::new(prefix.to_vec());
    if run_with_source(exec, &mut src, proto.scenario.max_steps) != RunOutcome::Stopped {
        return 0;
    }
    // Stopped ⇒ the source ran dry at a choice point; the options are still
    // enabled, the driver just didn't get an answer for them.
    let mut options = Vec::new();
    exec.enabled_actions(&mut options);
    options.iter().map(|(_, arity)| arity).sum()
}

/// The work items of the bounded tree for several workers: pinned prefixes
/// of length ≤ 2, in lexicographic (= one-item walk) order.
fn exhaustive_items(proto: &Prototype, depth: usize) -> Vec<Vec<usize>> {
    if depth == 0 {
        return vec![Vec::new()];
    }
    let exec = &mut proto.executor();
    let b0 = arity_after(proto, exec, &[]);
    if b0 == 0 {
        // The run never reaches a choice point: one (schedule-free) run.
        return vec![Vec::new()];
    }
    if depth == 1 {
        return (0..b0).map(|d| vec![d]).collect();
    }
    let mut items = Vec::new();
    for d0 in 0..b0 {
        let b1 = arity_after(proto, exec, &[d0]);
        if b1 == 0 {
            items.push(vec![d0]);
        } else {
            items.extend((0..b1).map(|d1| vec![d0, d1]));
        }
    }
    items
}

/// What one work item ran and found.
#[derive(Debug, Default)]
pub(crate) struct ItemResult {
    pub(crate) runs: u64,
    pub(crate) dedup_hits: u64,
    pub(crate) capped: bool,
    /// The violating schedule, the violation, and the repro seed (the
    /// violating seed for swarm items, 0 for the exhaustive walk).
    pub(crate) violation: Option<(Vec<ChoiceStep>, SpecViolation, u64)>,
    /// Substrate steps + idle ticks this item actually executed.
    pub(crate) steps_executed: u64,
    /// Steps restarting each of this item's leaves from the initial state
    /// executes (with the same dedup decisions); 0 for swarm items.
    pub(crate) steps_odometer: u64,
    /// Checkpoints captured.
    pub(crate) snapshots: u64,
    /// Bytes those checkpoints actually copied (copy-on-write sharing).
    pub(crate) snapshot_bytes: u64,
    /// Bytes deep per-element copies of the same checkpoints would have
    /// copied — the Clone baseline of the snapshot-bytes gate.
    pub(crate) snapshot_deep_bytes: u64,
    /// Largest single checkpoint, in copied bytes.
    pub(crate) snapshot_bytes_peak: u64,
    /// Subtrees skipped by sleep-set partial-order reduction.
    pub(crate) por_pruned: u64,
    /// Chunks the worker's executor copied while on this item, and
    /// fingerprints its visited set evicted (both set by [`pool`]).
    pub(crate) chunk_copies: u64,
    pub(crate) dedup_evictions: u64,
}

/// One swarm seed: a recorded run under [`RandomSource`], checked.
fn swarm_item(proto: &Prototype, seed: u64, worker: &mut Worker) -> ItemResult {
    let mut source = RecordingSource::new(RandomSource::new(seed));
    proto.reset(&mut worker.exec);
    let (out, steps_executed) =
        run_with_source_counted(&mut worker.exec, &mut source, proto.scenario.max_steps);
    let verdict = worker.verdict(out == RunOutcome::Quiescent, proto.scenario.variant);
    ItemResult {
        runs: 1,
        steps_executed,
        violation: verdict.err().map(|v| (source.into_log(), v, seed)),
        ..ItemResult::default()
    }
}

/// The worker pool: `threads` workers (clamped to `items`) claim item
/// indexes in ascending order, skip everything past the lowest violating
/// index, and the results merge deterministically.
fn pool<F>(
    proto: &Prototype,
    items: usize,
    threads: usize,
    dedup_capacity: usize,
    shrink_budget: u64,
    run_item: F,
) -> ExploreStats
where
    F: Fn(usize, &mut Worker) -> ItemResult + Sync,
{
    let next_item = AtomicUsize::new(0);
    // Lowest item index known to hold a violation; items beyond it can only
    // yield canonically-later counterexamples.
    let best_item = AtomicUsize::new(usize::MAX);
    let work = || {
        let mut worker = Worker::new(proto, dedup_capacity);
        let mut results = Vec::new();
        loop {
            // gam-lint: allow(A001, reason = "work-queue ticket: each index is claimed exactly once by atomicity alone; which worker gets it never reaches the report, the merge sorts results by index")
            let i = next_item.fetch_add(1, Ordering::Relaxed);
            // Tickets only grow and the best index only falls, so once past
            // it this worker's every later ticket is too.
            // gam-lint: allow(A001, reason = "lowest-wins skip hint: a stale read only fails to skip work, never skips a candidate below the best; the canonical answer is re-derived in the deterministic merge")
            if i >= items || i > best_item.load(Ordering::Relaxed) {
                return results;
            }
            let before = worker.counters();
            let mut r = run_item(i, &mut worker);
            let after = worker.counters();
            (r.chunk_copies, r.dedup_evictions) = (after.0 - before.0, after.1 - before.1);
            if r.violation.is_some() {
                // gam-lint: allow(A001, reason = "fetch_min is order-insensitive: the cell converges to the minimum regardless of interleaving, and it only prunes indexes strictly above a known violation")
                best_item.fetch_min(i, Ordering::Relaxed);
            }
            results.push((i, r));
        }
    };
    let threads = threads.clamp(1, items.max(1));
    // A lone worker gets a thread too: glibc then serves its visited set
    // from a thread arena, where the caller's own allocations cannot
    // fragment it. Run inline, repeated calls kept a second 2 MiB table
    // resident (peak RSS 5.8 → 7.8 MB on an 8 s `explore_fig1` run).
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .flat_map(|r| r.expect("explorer worker panicked"))
            .collect()
    });
    merge(proto.scenario, results, shrink_budget)
}

/// Deterministic merge: sums the item tallies, and packages the violation
/// of the lowest item index (shrunk once, after the merge).
fn merge(
    scenario: &Scenario,
    mut results: Vec<(usize, ItemResult)>,
    shrink_budget: u64,
) -> ExploreStats {
    results.sort_unstable_by_key(|(i, _)| *i);
    let mut sum = ItemResult::default();
    for (_, r) in results {
        sum.runs += r.runs;
        sum.dedup_hits += r.dedup_hits;
        sum.capped |= r.capped;
        sum.steps_executed += r.steps_executed;
        sum.steps_odometer += r.steps_odometer;
        sum.snapshots += r.snapshots;
        sum.snapshot_bytes += r.snapshot_bytes;
        sum.snapshot_deep_bytes += r.snapshot_deep_bytes;
        sum.snapshot_bytes_peak = sum.snapshot_bytes_peak.max(r.snapshot_bytes_peak);
        sum.por_pruned += r.por_pruned;
        sum.chunk_copies += r.chunk_copies;
        sum.dedup_evictions += r.dedup_evictions;
        // Sorted by index: the first violation is the lowest item's.
        sum.violation = sum.violation.or(r.violation);
    }
    let (outcome, violations) = match sum.violation {
        Some((schedule, violation, seed)) => (
            Outcome::ViolationFound,
            vec![found(scenario, schedule, violation, seed, shrink_budget)],
        ),
        None if sum.capped => (Outcome::RunCapped, Vec::new()),
        None => (Outcome::Exhausted, Vec::new()),
    };
    ExploreStats {
        runs: sum.runs,
        violations,
        outcome,
        dedup_hits: sum.dedup_hits,
        steps_executed: sum.steps_executed,
        snapshots_taken: sum.snapshots,
        // A descent can end at a branch whose children are all slept, or
        // whose subtree is cached: those steps ran but belong to no leaf.
        // Saturated once, over the sums, so the total does not depend on
        // how the tree was split; the identity `executed + avoided =
        // restart cost` is only asserted without POR or dedup.
        steps_avoided: sum.steps_odometer.saturating_sub(sum.steps_executed),
        snapshot_bytes: sum.snapshot_bytes,
        snapshot_deep_bytes: sum.snapshot_deep_bytes,
        snapshot_bytes_peak: sum.snapshot_bytes_peak,
        por_pruned: sum.por_pruned,
        chunk_copies: sum.chunk_copies,
        dedup_evictions: sum.dedup_evictions,
    }
}

/// Shrinks a violating run and packages it as a [`Counterexample`].
pub(crate) fn found(
    scenario: &Scenario,
    schedule: Vec<ChoiceStep>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use gam_groups::topology;

    /// The restart-per-probe `arity_after` the stamped one replaced: a full
    /// construction per probe. Kept as the oracle of `exhaustive_items`.
    fn arity_after_restart(scenario: &Scenario, prefix: &[usize]) -> usize {
        let mut exec = scenario.runtime_executor();
        let mut src = PathSource::new(prefix.to_vec());
        if run_with_source(&mut exec, &mut src, scenario.max_steps) != RunOutcome::Stopped {
            return 0;
        }
        let mut options = Vec::new();
        exec.enabled_actions(&mut options);
        options.iter().map(|(_, arity)| arity).sum()
    }

    fn items_restart(scenario: &Scenario, depth: usize) -> Vec<Vec<usize>> {
        let b0 = arity_after_restart(scenario, &[]);
        if depth == 0 || b0 == 0 {
            return vec![Vec::new()];
        }
        let mut items = Vec::new();
        for d0 in 0..b0 {
            match arity_after_restart(scenario, &[d0]) {
                b1 if depth > 1 && b1 > 0 => items.extend((0..b1).map(|d1| vec![d0, d1])),
                _ => items.push(vec![d0]),
            }
        }
        items
    }

    #[test]
    fn stamped_items_equal_the_restart_per_probe_enumeration() {
        let mut scenarios: Vec<(String, Scenario)> = [
            ("single(2)", topology::single_group(2)),
            ("two(3,1)", topology::two_overlapping(3, 1)),
            ("ring(3,2)", topology::ring(3, 2)),
            ("fig1", topology::fig1()),
        ]
        .into_iter()
        .map(|(name, gs)| (name.to_string(), Scenario::one_per_group(&gs, 100_000)))
        .collect();
        scenarios.extend(crate::tests::corpus());
        for (name, scenario) in &scenarios {
            let proto = Prototype::new(scenario);
            for depth in 0..=3 {
                assert_eq!(
                    exhaustive_items(&proto, depth),
                    items_restart(scenario, depth),
                    "{name} depth {depth}"
                );
            }
        }
    }

    fn config(threads: usize, dedup_capacity: usize) -> ExploreConfig {
        ExploreConfig {
            threads,
            shrink_budget: DEFAULT_SHRINK_BUDGET,
            dedup_capacity,
            por: false,
        }
    }

    #[test]
    fn items_cover_the_root_fanout_in_order() {
        let scenario = Scenario::one_per_group(&topology::single_group(2), 20_000);
        let proto = Prototype::new(&scenario);
        let items = exhaustive_items(&proto, 3);
        assert!(!items.is_empty());
        let mut sorted = items.clone();
        sorted.sort();
        assert_eq!(items, sorted, "items must be in lexicographic order");
        let b0 = arity_after(&proto, &mut proto.executor(), &[]);
        assert!(b0 > 0);
        assert_eq!(
            items
                .iter()
                .map(|i| i[0])
                .collect::<std::collections::BTreeSet<_>>(),
            (0..b0).collect(),
            "every root digit owned by some item"
        );
    }

    #[test]
    fn run_cap_is_exact_at_one_thread() {
        let scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000);
        let mode = Mode::Exhaustive {
            depth: 4,
            max_runs: 7,
        };
        let stats = explore(&scenario, mode, &config(1, 0));
        assert_eq!(stats.runs, 7);
        assert_eq!(stats.outcome, Outcome::RunCapped);
        assert!(!stats.complete());
        assert!(stats.violations.is_empty());
    }

    #[test]
    fn swarm_runs_every_seed_at_any_thread_count() {
        let scenario = Scenario::one_per_group(&topology::ring(3, 2), 100_000);
        for threads in [1, 2, 4] {
            let stats = explore(&scenario, Mode::Swarm { seeds: 0..6 }, &config(threads, 0));
            assert!(stats.clean(), "{threads} threads: {:?}", stats.violations);
            assert_eq!(stats.runs, 6, "{threads} threads");
            assert_eq!((stats.dedup_hits, stats.steps_avoided), (0, 0));
        }
    }

    #[test]
    fn an_explicit_worker_count_is_taken_as_is() {
        assert_eq!(config(3, 0).resolved_threads(), 3);
        assert!(ExploreConfig::default().resolved_threads() >= 1);
    }
}
