//! Parallel, dedup-pruned exploration with a deterministic merge.
//!
//! The sequential strategies of [`crate::explorer`] are the repo's hot path
//! — every correctness claim is quantified over schedules, and covering
//! schedules means running the machine over and over. This module scales
//! them across cores without giving up the property that makes exploration
//! results *citable*: the reported counterexample is independent of the
//! thread count.
//!
//! ## Sharding
//!
//! - [`explore_exhaustive_par`] partitions the bounded choice tree by its
//!   first one or two odometer digits: the root arity and the second-level
//!   arities are probed up front (cheap partial runs), and each resulting
//!   prefix becomes a work item claimed from a shared queue. Within an item
//!   a worker walks exactly the sequential odometer with the leading digits
//!   pinned, so the union of all items is the sequential enumeration,
//!   re-ordered only *across* items.
//! - [`explore_swarm_par`] stripes the seed range: worker `w` of `t` runs
//!   seeds `start+w, start+w+t, …` in ascending order.
//!
//! ## Deterministic merge
//!
//! Work items (and seed stripes) are ordered, and each worker stops its
//! current item/stripe at the first violation it meets. The merge then
//! reports the violation of the *lowest* item index (exhaustive) or the
//! *lowest* seed (swarm) and shrinks only that one — which is precisely the
//! counterexample the sequential loop would have stopped at. `Repro` output
//! is therefore byte-identical for 1 vs N threads (verified by
//! `tests/parallel_determinism.rs`). Run *counts* are deterministic
//! whenever exploration covers the whole space, except for the DFS with a
//! visited set (below); once a violation or the run cap stops it early,
//! how far the other workers got depends on timing.
//!
//! ## Dedup pruning
//!
//! Distinct enumerated prefixes frequently *converge* — two interleavings
//! of independent actions reach the same machine. The sequential explorer
//! re-runs the (long) fair tail after every such prefix; the parallel one
//! keeps a per-worker [`VisitedSet`] of post-prefix
//! [`state_fingerprint`](gam_engine::Executor::state_fingerprint)s and
//! skips the tail when the state was already completed by this worker.
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
//! repeat a verdict already recorded. On fig1 at depth 6 the key cuts the
//! fair tails 22 493 → 837 (27×) against the bit-for-bit walk;
//! `tests/dedup_soundness.rs` checks that no key maps to two outcomes.
//!
//! All of it modulo 64-bit fingerprint collisions, the standard
//! hashed-state caveat of explicit-state model checking; `counts` audits
//! the key over every choice point of fig1 at depth 6 and records the
//! collisions, 0, in `BENCH_counts.json`. Crucially, only states whose tail
//! completed *clean* are recorded: a violating tail returns before its
//! state is inserted, so a hit can never hide a violation and the merged
//! counterexample is unaffected by pruning. The snapshotting DFS uses the
//! same set to cache whole subtrees ([`crate::dfs`]), under the same rule.
//!
//! The set is never shared across workers (probe outcomes would race); at
//! one thread the hit count is deterministic, at N threads it varies with
//! which worker claimed which item. So does `runs` of the DFS, whose
//! cached subtrees hold leaves the odometer would count; the odometer's
//! `runs` does not vary, since every tail it skips is still a run. The
//! verdicts and the reported counterexample never vary. Hit counts land in
//! [`ExploreStats::dedup_hits`].

use crate::explorer::{found, ExploreStats, Outcome, DEFAULT_SHRINK_BUDGET};
use crate::{Prototype, Scenario};
use gam_core::spec::{check_all, SpecViolation};
use gam_core::{RunReport, Variant};
use gam_engine::{run_with_source, run_with_source_reusing, Executor, RuntimeExecutor, VisitedSet};
use gam_kernel::schedule::{ChoiceStep, PathSource, RandomSource, RecordingSource, RotatingSource};
use gam_kernel::{ProcessId, RunOutcome, ScheduleSource};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Tuning of the parallel exploration engines.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Worker threads. `0` (the default) resolves to the
    /// `GAM_EXPLORE_THREADS` environment variable if set, else to
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Candidate runs the shrinker may spend on a found violation
    /// (default [`DEFAULT_SHRINK_BUDGET`]).
    pub shrink_budget: u64,
    /// Capacity of each worker's visited set; `0` disables pruning. The
    /// odometer engine ([`explore_exhaustive_par`]) skips the fair tail of
    /// a post-prefix state that completed clean before; the snapshotting
    /// DFS ([`crate::explore_exhaustive_dfs_par`]) also skips every subtree
    /// that did, keyed by [`crate::subtree_key`], and then runs no sleep
    /// sets (see [`ExploreConfig::por`]). The swarm has no prefix/tail
    /// split, so the setting does not affect it.
    pub dedup_capacity: usize,
    /// Partial-order reduction in the snapshotting DFS engine
    /// ([`crate::explore_exhaustive_dfs_par`]) when it has no visited set
    /// (`dedup_capacity == 0`): sleep sets prune one of each pair of
    /// commuting sibling orders (see [`crate::independence`]). Verdicts and
    /// the canonical counterexample are unchanged; run counts are no
    /// longer comparable to the odometer engines, hence off by default.
    /// Silently inert beside a visited set (a subtree explored under a
    /// sleep set is not complete, so it cannot be cached, and the cache
    /// alone reaches fewer leaves), when the scenario has crashes (the
    /// relation is only sound crash-free), and for the odometer engines.
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
    /// The actual worker count: `threads` if nonzero, else the
    /// `GAM_EXPLORE_THREADS` environment variable, else
    /// [`std::thread::available_parallelism`] (1 if unknown).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(n) = std::env::var("GAM_EXPLORE_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|n| *n > 0)
        {
            return n;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// What one worker of an exploration keeps across its work items and its
/// runs, so that a run builds nothing a previous run already built: the
/// executor is rewound ([`Prototype::reset`], or a DFS checkpoint) instead
/// of stamped anew, and every leaf's verdict is read off the one report.
pub(crate) struct Worker {
    pub(crate) exec: RuntimeExecutor,
    report: RunReport,
    /// Post-prefix fingerprints whose fair tail this worker completed
    /// clean (`None`: dedup off).
    pub(crate) visited: Option<VisitedSet>,
    /// The choice-space buffer every [`Worker::run`] enumerates into.
    options: Vec<(ProcessId, usize)>,
}

impl Worker {
    pub(crate) fn new(proto: &Prototype, dedup_capacity: usize) -> Self {
        let exec = proto.executor();
        Worker {
            report: exec.report(false),
            exec,
            visited: (dedup_capacity > 0).then(|| VisitedSet::with_capacity(dedup_capacity)),
            options: Vec::new(),
        }
    }

    /// Drives the executor from where it stands under `source`
    /// ([`run_with_source_reusing`] on the worker's buffer): the outcome
    /// and the budget consumed.
    pub(crate) fn run<S: ScheduleSource + ?Sized>(
        &mut self,
        source: &mut S,
        max_steps: u64,
    ) -> (RunOutcome, u64) {
        run_with_source_reusing(&mut self.exec, source, max_steps, &mut self.options)
    }

    /// The spec verdict on the run the executor has just finished:
    /// `check_all` over its report, as every engine has always checked a
    /// leaf — only the report's buffers are the previous leaf's.
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

    /// Runs one work item and stamps its result with what the worker's
    /// deterministic counters say it cost.
    pub(crate) fn item(&mut self, run: impl FnOnce(&mut Self) -> ItemResult) -> ItemResult {
        let before = self.counters();
        let mut res = run(self);
        let after = self.counters();
        res.chunk_copies = after.0 - before.0;
        res.dedup_evictions = after.1 - before.1;
        res
    }
}

/// Total option arity of the choice space reached by driving the scenario
/// through `prefix` (0 when the run terminates within the prefix), probed
/// on `exec`, which is rewound to the initial state first.
pub(crate) fn arity_after(
    proto: &Prototype,
    exec: &mut RuntimeExecutor,
    prefix: &[usize],
) -> usize {
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

/// The work items of the bounded tree: pinned odometer prefixes of length
/// ≤ 2, in lexicographic (= sequential enumeration) order.
pub(crate) fn exhaustive_items(proto: &Prototype, depth: usize) -> Vec<Vec<usize>> {
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

/// One worker's contribution to the merge: `(runs, loose_steps, item
/// results)` — see [`merge`] for the field meanings.
pub(crate) type WorkerTally = (u64, u64, Vec<(usize, ItemResult)>);

#[derive(Debug, Default)]
pub(crate) struct ItemResult {
    pub(crate) runs: u64,
    pub(crate) dedup_hits: u64,
    pub(crate) capped: bool,
    /// The violating schedule, the violation, and the repro seed (the
    /// violating seed for swarm items, 0 for enumerated prefixes).
    pub(crate) violation: Option<(Vec<ChoiceStep>, SpecViolation, u64)>,
    /// Substrate steps + idle ticks this item actually executed.
    pub(crate) steps_executed: u64,
    /// Steps a restart-from-scratch odometer walk of the same leaves (same
    /// dedup decisions) executes. Equal to `steps_executed` for the odometer
    /// engine itself; larger for the snapshotting DFS engine.
    pub(crate) steps_odometer: u64,
    /// Checkpoints captured (0 for the odometer engine).
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
    /// fingerprints its visited set evicted (both set by [`Worker::item`]).
    pub(crate) chunk_copies: u64,
    pub(crate) dedup_evictions: u64,
}

/// Walks every enumerated path whose leading digits equal `prefix` —
/// exactly the sequential odometer with those digits pinned — stopping at
/// the item's first violation or when the shared run budget runs dry.
pub(crate) fn explore_item(
    proto: &Prototype,
    depth: usize,
    prefix: &[usize],
    reserved: &AtomicU64,
    max_runs: u64,
    worker: &mut Worker,
) -> ItemResult {
    let scenario = proto.scenario;
    let mut res = ItemResult::default();
    let mut path = vec![0usize; depth];
    path[..prefix.len()].copy_from_slice(prefix);
    loop {
        // Reserve a run from the shared budget *before* running, so the
        // total across all workers matches the sequential cap exactly.
        // gam-lint: allow(A001, reason = "monotonic budget counter: fetch_add totals are exact under any ordering, no data is published through it, and the merge folds per-worker results joined at thread::scope exit")
        if reserved.fetch_add(1, Ordering::Relaxed) >= max_runs {
            res.capped = true;
            return res;
        }
        proto.reset(&mut worker.exec);
        let mut path_source = PathSource::new(path.clone());
        let mut rec = RecordingSource::new(&mut path_source);
        let (out, consumed) = worker.run(&mut rec, scenario.max_steps);
        let mut schedule = rec.into_log();
        res.runs += 1;
        res.steps_executed += consumed;
        res.steps_odometer += consumed;
        let mut tail_state = None;
        let quiescent = if out == RunOutcome::Stopped {
            // The enumerated prefix ran dry mid-run: the fair tail from here
            // is a function of the post-prefix state and the remaining
            // budget alone, so skip it if this state was already completed
            // (clean) by this worker.
            let fp = worker.exec.state_fingerprint();
            if worker
                .visited
                .as_ref()
                .is_some_and(|seen| seen.contains(fp))
            {
                res.dedup_hits += 1;
                None
            } else {
                tail_state = Some(fp);
                let mut tail = RecordingSource::new(RotatingSource::default());
                let (tail_out, tail_steps) = worker.run(&mut tail, scenario.max_steps - consumed);
                res.steps_executed += tail_steps;
                res.steps_odometer += tail_steps;
                schedule.extend(tail.into_log());
                Some(tail_out == RunOutcome::Quiescent)
            }
        } else {
            // The run terminated within the enumerated prefix itself.
            Some(out == RunOutcome::Quiescent)
        };
        if let Some(quiescent) = quiescent {
            if let Err(violation) = worker.verdict(quiescent, scenario.variant) {
                res.violation = Some((schedule, violation, 0));
                return res;
            }
            // Only a *clean* tail verdict is remembered: a violating state
            // never enters the set, so pruning cannot hide a counterexample.
            if let (Some(fp), Some(seen)) = (tail_state, worker.visited.as_mut()) {
                seen.insert(fp);
            }
        }
        // Advance the odometer over the free digits only.
        let branching = path_source.branching();
        let used = branching.len().min(depth);
        let Some(bump) = (prefix.len()..used)
            .rev()
            .find(|&i| path[i] + 1 < branching[i])
        else {
            return res;
        };
        path[bump] += 1;
        for digit in path.iter_mut().skip(bump + 1) {
            *digit = 0;
        }
    }
}

/// The shared worker-pool scaffolding of the parallel exhaustive engines:
/// claims work items from a shared queue, skips items beyond the lowest
/// violating index, and merges deterministically. `run_item` is the
/// per-item walk — the restart-from-scratch odometer ([`explore_item`]) or
/// the snapshotting DFS ([`crate::dfs`]).
pub(crate) fn exhaustive_pool<F>(
    scenario: &Scenario,
    depth: usize,
    max_runs: u64,
    config: &ExploreConfig,
    run_item: F,
) -> ExploreStats
where
    F: Fn(&Prototype, usize, &[usize], &AtomicU64, u64, &mut Worker) -> ItemResult + Sync,
{
    let proto = &Prototype::new(scenario);
    let items = exhaustive_items(proto, depth);
    let threads = config.resolved_threads().clamp(1, items.len().max(1));
    let next_item = AtomicUsize::new(0);
    let reserved = AtomicU64::new(0);
    // Lowest item index known to hold a violation; items beyond it can only
    // yield canonically-later counterexamples, so workers skip them.
    let best_item = AtomicUsize::new(usize::MAX);
    let per_worker: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut worker = Worker::new(proto, config.dedup_capacity);
                    let mut runs = 0u64;
                    let mut results = Vec::new();
                    loop {
                        // gam-lint: allow(A001, reason = "work-queue ticket: each index is claimed exactly once by atomicity alone; which worker gets it never reaches the report, the merge sorts results by index")
                        let i = next_item.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        // gam-lint: allow(A001, reason = "lowest-wins skip hint: a stale read only fails to skip work, never skips a candidate below the best; the canonical answer is re-derived in the deterministic merge")
                        if i > best_item.load(Ordering::Relaxed) {
                            continue;
                        }
                        let r = worker.item(|worker| {
                            run_item(proto, depth, &items[i], &reserved, max_runs, worker)
                        });
                        runs += r.runs;
                        if r.violation.is_some() {
                            // gam-lint: allow(A001, reason = "fetch_min is order-insensitive: the cell converges to the minimum regardless of interleaving, and it only prunes indexes strictly above a known violation")
                            best_item.fetch_min(i, Ordering::Relaxed);
                        }
                        results.push((i, r));
                    }
                    (runs, 0, results)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("explorer worker panicked"))
            .collect()
    });

    merge(scenario, per_worker, config.shrink_budget)
}

/// Parallel, dedup-pruned version of
/// [`explore_exhaustive`](crate::explore_exhaustive): same tree, same
/// checks, same canonical counterexample, spread over
/// [`ExploreConfig::resolved_threads`] workers.
pub fn explore_exhaustive_par(
    scenario: &Scenario,
    depth: usize,
    max_runs: u64,
    config: &ExploreConfig,
) -> ExploreStats {
    exhaustive_pool(scenario, depth, max_runs, config, explore_item)
}

/// Parallel version of [`explore_swarm`](crate::explore_swarm): worker `w`
/// of `t` runs seeds `start+w, start+w+t, …` ascending, and the merge
/// reports the lowest violating seed — the one the sequential sweep would
/// have stopped at.
pub fn explore_swarm_par(
    scenario: &Scenario,
    seeds: Range<u64>,
    config: &ExploreConfig,
) -> ExploreStats {
    let proto = Prototype::new(scenario);
    let span = seeds.end.saturating_sub(seeds.start);
    let threads = (config.resolved_threads() as u64).clamp(1, span.max(1)) as usize;
    // Lowest violating seed found so far; stripes are ascending, so a
    // worker whose next seed is beyond it cannot improve the answer.
    let best_seed = AtomicU64::new(u64::MAX);
    let per_worker: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let seeds = seeds.clone();
                let (best_seed, proto) = (&best_seed, &proto);
                scope.spawn(move || {
                    let mut worker = Worker::new(proto, 0);
                    let mut runs = 0u64;
                    let mut steps = 0u64;
                    let mut results = Vec::new();
                    let mut seed = seeds.start + w as u64;
                    while seed < seeds.end {
                        // gam-lint: allow(A001, reason = "lowest-wins skip hint: a stale read only costs extra runs; the reported seed is the minimum over per-worker results, folded after thread::scope joins")
                        if seed > best_seed.load(Ordering::Relaxed) {
                            break;
                        }
                        let mut source = RecordingSource::new(RandomSource::new(seed));
                        proto.reset(&mut worker.exec);
                        let (out, consumed) = worker.run(&mut source, scenario.max_steps);
                        runs += 1;
                        steps += consumed;
                        let verdict =
                            worker.verdict(out == RunOutcome::Quiescent, scenario.variant);
                        if let Err(violation) = verdict {
                            // gam-lint: allow(A001, reason = "fetch_min converges to the lowest violating seed under any interleaving; it gates skipping only, the answer comes from the deterministic merge")
                            best_seed.fetch_min(seed, Ordering::Relaxed);
                            results.push((
                                (seed - seeds.start) as usize,
                                ItemResult {
                                    violation: Some((source.into_log(), violation, seed)),
                                    ..ItemResult::default()
                                },
                            ));
                            break;
                        }
                        let Some(next) = seed.checked_add(threads as u64) else {
                            break;
                        };
                        seed = next;
                    }
                    (runs, steps, results)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("swarm worker panicked"))
            .collect()
    });

    merge(scenario, per_worker, config.shrink_budget)
}

/// Deterministic merge: sums the run/dedup/step tallies, and packages the
/// violation of the lowest item index (shrunk once, after the merge).
///
/// Each per-worker entry is `(runs, loose_steps, item results)`, where
/// `loose_steps` covers steps not attributed to any item (the swarm counts
/// at the worker level; the exhaustive pools pass 0 and count per item).
pub(crate) fn merge(
    scenario: &Scenario,
    per_worker: Vec<WorkerTally>,
    shrink_budget: u64,
) -> ExploreStats {
    let mut worker_runs = Vec::with_capacity(per_worker.len());
    let mut runs = 0u64;
    let mut dedup_hits = 0u64;
    let mut steps_executed = 0u64;
    let mut snapshots_taken = 0u64;
    let mut steps_avoided = 0u64;
    let mut snapshot_bytes = 0u64;
    let mut snapshot_deep_bytes = 0u64;
    let mut snapshot_bytes_peak = 0u64;
    let mut por_pruned = 0u64;
    let mut chunk_copies = 0u64;
    let mut dedup_evictions = 0u64;
    let mut capped = false;
    let mut best: Option<(usize, Vec<ChoiceStep>, SpecViolation, u64)> = None;
    for (wr, loose_steps, results) in per_worker {
        worker_runs.push(wr);
        runs += wr;
        steps_executed += loose_steps;
        for (idx, r) in results {
            dedup_hits += r.dedup_hits;
            capped |= r.capped;
            steps_executed += r.steps_executed;
            snapshots_taken += r.snapshots;
            // A descent can end at a branch whose children are all slept,
            // or whose subtree is cached: those steps ran but belong to no
            // leaf, so the item's odometer-equivalent cost can fall below
            // its executed cost. Saturate — the identity `executed +
            // avoided = odometer` is only asserted without POR or dedup.
            steps_avoided += r.steps_odometer.saturating_sub(r.steps_executed);
            snapshot_bytes += r.snapshot_bytes;
            snapshot_deep_bytes += r.snapshot_deep_bytes;
            snapshot_bytes_peak = snapshot_bytes_peak.max(r.snapshot_bytes_peak);
            por_pruned += r.por_pruned;
            chunk_copies += r.chunk_copies;
            dedup_evictions += r.dedup_evictions;
            if let Some((schedule, violation, seed)) = r.violation {
                if best.as_ref().is_none_or(|(bi, ..)| idx < *bi) {
                    best = Some((idx, schedule, violation, seed));
                }
            }
        }
    }
    let (outcome, violations) = match best {
        Some((_, schedule, violation, seed)) => (
            Outcome::ViolationFound,
            vec![found(scenario, schedule, violation, seed, shrink_budget)],
        ),
        None if capped => (Outcome::RunCapped, Vec::new()),
        None => (Outcome::Exhausted, Vec::new()),
    };
    ExploreStats {
        runs,
        violations,
        outcome,
        dedup_hits,
        worker_runs,
        steps_executed,
        snapshots_taken,
        steps_avoided,
        snapshot_bytes,
        snapshot_deep_bytes,
        snapshot_bytes_peak,
        por_pruned,
        chunk_copies,
        dedup_evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore_exhaustive, explore_swarm};
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
    fn par_exhaustive_matches_sequential_coverage() {
        let scenario = Scenario::one_per_group(&topology::single_group(2), 20_000);
        let seq = explore_exhaustive(&scenario, 3, 5_000, DEFAULT_SHRINK_BUDGET);
        assert!(seq.clean());
        for threads in [1, 2, 4] {
            let par = explore_exhaustive_par(&scenario, 3, 5_000, &config(threads, 0));
            assert!(par.clean(), "{threads} threads: {:?}", par.violations);
            assert_eq!(par.runs, seq.runs, "{threads} threads");
            assert_eq!(par.outcome, Outcome::Exhausted);
        }
    }

    #[test]
    fn dedup_prunes_tails_without_changing_coverage() {
        let scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000);
        let plain = explore_exhaustive_par(&scenario, 3, 50_000, &config(1, 0));
        let pruned = explore_exhaustive_par(&scenario, 3, 50_000, &config(1, 1 << 12));
        assert!(plain.clean() && pruned.clean());
        assert_eq!(plain.runs, pruned.runs, "dedup must not skip prefixes");
        assert_eq!(plain.dedup_hits, 0);
        assert!(
            pruned.dedup_hits > 0,
            "no converging prefixes pruned in {} runs",
            pruned.runs
        );
    }

    #[test]
    fn par_run_cap_is_exact_at_one_thread() {
        let scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000);
        let par = explore_exhaustive_par(&scenario, 4, 7, &config(1, 0));
        assert_eq!(par.runs, 7);
        assert_eq!(par.outcome, Outcome::RunCapped);
        assert!(!par.complete());
        assert!(par.violations.is_empty());
    }

    #[test]
    fn par_swarm_matches_sequential_on_clean_range() {
        let scenario = Scenario::one_per_group(&topology::ring(3, 2), 100_000);
        let seq = explore_swarm(&scenario, 0..6, DEFAULT_SHRINK_BUDGET);
        assert!(seq.clean());
        for threads in [1, 2, 4] {
            let par = explore_swarm_par(&scenario, 0..6, &config(threads, 0));
            assert!(par.clean(), "{threads} threads: {:?}", par.violations);
            assert_eq!(par.runs, 6, "{threads} threads");
            assert_eq!(par.worker_runs.iter().sum::<u64>(), par.runs);
            assert_eq!(par.worker_runs.len(), threads.min(6));
        }
    }

    #[test]
    fn worker_count_resolution_prefers_explicit_over_env() {
        let explicit = ExploreConfig {
            threads: 3,
            ..ExploreConfig::default()
        };
        assert_eq!(explicit.resolved_threads(), 3);
        let auto = ExploreConfig::default();
        assert!(auto.resolved_threads() >= 1);
    }
}
