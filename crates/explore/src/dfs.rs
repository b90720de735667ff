//! Snapshot-based incremental DFS, the walk of
//! [`Mode::Exhaustive`](crate::Mode::Exhaustive):
//! execute shared schedule prefixes **once**.
//!
//! Restarting every run from the initial state means that two schedules
//! sharing a prefix of `k` choices re-execute those `k` steps (and every
//! idle tick between them) twice. This module walks the bounded choice
//! tree as an explicit depth-first search over a [`SnapshotExec`]
//! executor: at each branch point with more than one sibling it captures a
//! checkpoint, and backtracking `restore`s the checkpoint instead of
//! replaying the prefix from scratch.
//!
//! ## Equivalence to the test oracle
//!
//! The oracle, `tests/common/odometer.rs`, restarts every run: it builds
//! the scenario, drives a path of digits and the fair tail, then bumps the
//! deepest consumed digit that still has unexplored siblings. Without a
//! visited set the DFS is *provably the same exploration*, just cheaper:
//!
//! - **Same leaves, same order.** Bumping the deepest unexhausted digit is
//!   exactly DFS backtracking, so the oracle's lexicographic enumeration
//!   *is* the DFS preorder, and a run cap stops both at the same leaf
//!   (runs are reserved from the shared budget, before any execution).
//! - **Same runs.** [`SnapshotExec::restore`] reproduces the substrate
//!   bit-for-bit, including the incremental history digest, so the steps
//!   after a restore are the steps a fresh replay of the prefix would have
//!   taken: per-run `state_digest`/`state_fingerprint` and the recorded
//!   schedules are identical. Both complete a path with the fair
//!   round-robin tail: the oracle as a `PrefixTail` source over the listed
//!   choice space, the DFS with [`Executor::run_fair_tail`], which makes
//!   the same picks without listing it.
//!
//! `tests/engine_dfs_equivalence.rs` checks all of this — byte-identical
//! [`Repro`](crate::Repro)s included — on every fixture topology, for 1
//! and N threads.
//!
//! ## The subtree cache
//!
//! With a visited set the DFS reaches a subset of those leaves: it skips
//! fair tails and whole subtrees that completed clean before. Every
//! branch past the pinned prefix is probed under its [`subtree_key`]:
//! the post-prefix key of DESIGN.md decision 17 mixed with the remaining
//! depth, the raw key itself at a tail. A hit ends the descent, and a frame
//! records its key when it is popped. A frame is popped only after every
//! child returned clean and uncapped, because a violation or the cap
//! returns first. So the set only ever holds subtrees that completed
//! clean, and a hit can never hide a violation: the first violation and
//! its shrunk repro are the ones the uncached walk reports. On fig1 at
//! depth 6 this gives 3 054 leaves where the uncached walk runs 776 906
//! (DESIGN.md decision 18).
//!
//! ## Accounting
//!
//! Of the [`ExploreStats`](crate::ExploreStats) counters, `steps_executed`
//! counts what this walk actually ran; `steps_avoided` counts the prefix
//! re-execution it skipped, measured so that `steps_executed +
//! steps_avoided` equals the steps the oracle executes on the same leaves
//! (under the subtree cache, a *pruned* set of them — the identity is
//! only asserted without it). `snapshot_bytes` sums what each
//! checkpoint actually copied (chunk pointer tables under copy-on-write
//! state) against the `snapshot_deep_bytes` a deep `Clone` would have
//! copied. `BENCH_counts.json` (section `explore`) tracks both reductions:
//! prefix sharing and the cache.
//!
//! ## Storage
//!
//! Backtracking is the hot loop, so it reuses what it has. A popped
//! [`Frame`] stays in the stack's spare capacity and the next branch point
//! at that depth takes it over: its checkpoint is retaken *into* the old one
//! (`RuntimeExecutor::snapshot_into` — every chunk shared exactly as a
//! fresh snapshot shares it, so the byte accounting above is unchanged;
//! only the pointer tables are recycled). A restore copies back into the
//! chunks the executor already owns (see [`SnapshotExec::restore`]), every
//! leaf is checked through the worker's one report, and the fair tails
//! record into one schedule buffer. A tail lists no choice space at all:
//! the runtime's round-robin picker brings up to date only the rows its
//! scan reaches.

use crate::explorer::{ItemResult, Worker};
use crate::Prototype;
use gam_engine::digest::derive_seed;
use gam_engine::{Executor, RuntimeSnapshot, SnapshotExec};
use gam_kernel::schedule::ChoiceStep;
use gam_kernel::{ProcessId, RunOutcome};
use std::sync::atomic::{AtomicU64, Ordering};

/// One branch point on the current DFS path: the checkpoint taken just
/// before its digit was consumed, plus the odometer bookkeeping needed to
/// resume siblings. Frames are recycled (see the module docs), so every
/// field is rewritten when a branch point takes the frame over.
#[derive(Default)]
struct Frame {
    /// Checkpoint at the branch point. A branch with a single child takes
    /// none (nothing will ever be restored there) and leaves whatever an
    /// earlier occupant of the frame left — never read, because only a
    /// frame with an unexplored sibling is restored.
    snap: Option<RuntimeSnapshot>,
    /// Budget consumed when the checkpoint was taken.
    taken: u64,
    /// Total option arity at the branch (the odometer's `branching[i]`).
    total: usize,
    /// The flat digit currently being explored.
    next: usize,
    /// Length of the recorded schedule at the branch point.
    sched_len: usize,
    /// The branch's [`subtree_key`], inserted into the visited set when the
    /// frame is popped — after its last child returned clean (unused
    /// without a visited set).
    key: u64,
}

/// How one descent from the current branch point ended.
enum Descent {
    /// The run terminated within the enumerated prefix.
    Interior(RunOutcome),
    /// `depth` digits were consumed; a fair tail completes the run.
    Tail,
    /// The visited set holds the reached branch's subtree key: the subtree
    /// completed clean before. Nothing ran, nothing to check.
    Pruned,
}

/// The visited-set key of a choice point with `remaining` enumerated
/// digits below it: the executor's
/// [`state_fingerprint`](Executor::state_fingerprint) itself at a tail
/// leaf (`remaining == 0`), and the fingerprint mixed with `remaining`
/// above one — so a subtree is only ever answered by a subtree of the same
/// depth. For a fixed `remaining` the mix is a bijection of the
/// fingerprint.
pub fn subtree_key(fingerprint: u64, remaining: usize) -> u64 {
    match remaining {
        0 => fingerprint,
        r => derive_seed(fingerprint, r as u64),
    }
}

/// Replicates one iteration chunk of the engine driver loop
/// ([`gam_engine::run_with_source_counted`]): budget check, option
/// enumeration, idle handling. Returns `Some(outcome)` when the run is over (a leaf of the
/// tree) and `None` when the executor stands at a choice point with
/// `options` populated.
fn advance<E: Executor>(
    exec: &mut E,
    taken: &mut u64,
    max_steps: u64,
    options: &mut Vec<(ProcessId, usize)>,
    executed: &mut u64,
) -> Option<RunOutcome> {
    loop {
        if *taken >= max_steps {
            return Some(RunOutcome::BudgetExhausted);
        }
        exec.enabled_actions(options);
        if options.is_empty() {
            if exec.is_quiescent() || !exec.idle_tick() {
                return Some(RunOutcome::Quiescent);
            }
            *taken += 1;
            *executed += 1;
            continue;
        }
        return None;
    }
}

/// Executes the `flat`-th option of the current choice space (the
/// odometer's digit decoding, clamp included), recording the step.
fn step_flat<E: Executor>(
    exec: &mut E,
    options: &[(ProcessId, usize)],
    flat: usize,
    prefix: &mut Vec<ChoiceStep>,
    taken: &mut u64,
    executed: &mut u64,
) {
    let total: usize = options.iter().map(|(_, arity)| arity).sum();
    let mut flat = flat.min(total - 1);
    for (pid, arity) in options {
        if flat < *arity {
            let step = ChoiceStep {
                pid: *pid,
                choice: flat,
            };
            prefix.push(step);
            exec.step(step);
            *taken += 1;
            *executed += 1;
            return;
        }
        flat -= arity;
    }
    unreachable!("flat index clamped below total arity")
}

/// DFS walk of every enumerated path whose leading digits equal `pinned`
/// (the whole tree when `pinned` is empty): one exhaustive work item.
///
/// With a visited set, every branch past the pinned prefix is probed under
/// its [`subtree_key`] and recorded when its frame is popped, so a subtree
/// that completed clean is not walked again. Without one, every leaf of
/// the item is a run.
pub(crate) fn dfs_item(
    proto: &Prototype,
    depth: usize,
    pinned: &[usize],
    reserved: &AtomicU64,
    max_runs: u64,
    worker: &mut Worker,
) -> ItemResult {
    let scenario = proto.scenario;
    let mut res = ItemResult::default();
    proto.reset(&mut worker.exec);
    // `stack[..live]` is the current path; the frames past it are spare.
    let mut stack: Vec<Frame> = Vec::new();
    let mut live = 0usize;
    let mut prefix: Vec<ChoiceStep> = Vec::new();
    let mut options: Vec<(ProcessId, usize)> = Vec::new();
    let mut tail_sched: Vec<ChoiceStep> = Vec::new();
    let mut taken = 0u64;
    let mut started = false;
    loop {
        // Backtrack to the deepest branch with an unexplored sibling —
        // exactly the odometer's "bump the deepest consumed digit" rule.
        // A frame popped here has seen every child return clean (a
        // violation or the cap returns first), so its subtree is recorded.
        if started {
            loop {
                let Some(top) = stack[..live].last_mut() else {
                    return res;
                };
                top.next += 1;
                if top.next < top.total {
                    break;
                }
                let key = top.key;
                live -= 1;
                if let Some(seen) = worker.visited.as_mut() {
                    seen.insert(key);
                }
            }
        }
        // Reserve the run from the shared budget *before* executing anything
        // of it, so the total across all workers matches the sequential cap
        // exactly.
        // Relaxed is enough: monotonic budget counter: fetch_add totals are exact
        // under any ordering and nothing is published through it; capped overshoot
        // is reconciled in the deterministic merge.
        if reserved.fetch_add(1, Ordering::Relaxed) >= max_runs {
            res.capped = true;
            return res;
        }
        let mut digits = 0;
        if started {
            let frame = &stack[live - 1];
            worker.exec.restore(
                frame
                    .snap
                    .as_ref()
                    .expect("a frame with unexplored siblings has a checkpoint"),
            );
            taken = frame.taken;
            prefix.truncate(frame.sched_len);
            // The checkpoint is a choice point (budget not exhausted,
            // options non-empty): re-enumerate and take the sibling digit.
            worker.exec.enabled_actions(&mut options);
            step_flat(
                &mut worker.exec,
                &options,
                frame.next,
                &mut prefix,
                &mut taken,
                &mut res.steps_executed,
            );
            // Frames sit strictly past the pinned region, so the restored
            // path has consumed every pinned digit plus one per frame.
            digits = pinned.len() + live;
        }
        started = true;
        // Descend to a leaf: either the run terminates (interior leaf) or
        // `depth` digits are consumed (tail leaf).
        let leaf = loop {
            match advance(
                &mut worker.exec,
                &mut taken,
                scenario.max_steps,
                &mut options,
                &mut res.steps_executed,
            ) {
                Some(out) => break Descent::Interior(out),
                None if digits == depth => break Descent::Tail,
                None => {
                    let total: usize = options.iter().map(|(_, arity)| arity).sum();
                    let flat = if digits < pinned.len() {
                        pinned[digits].min(total - 1)
                    } else {
                        // A new branch past the pinned prefix: skip its
                        // subtree if one of the same key completed clean.
                        let mut key = 0;
                        if let Some(seen) = &worker.visited {
                            key = subtree_key(worker.exec.state_fingerprint(), depth - digits);
                            if seen.contains(key) {
                                res.dedup_hits += 1;
                                break Descent::Pruned;
                            }
                        }
                        if live == stack.len() {
                            stack.push(Frame::default());
                        }
                        let frame = &mut stack[live];
                        live += 1;
                        if total > 1 {
                            res.snapshots += 1;
                            let (copied, deep) = worker.exec.snapshot_cost();
                            res.snapshot_bytes += copied;
                            res.snapshot_deep_bytes += deep;
                            res.snapshot_bytes_peak = res.snapshot_bytes_peak.max(copied);
                            match &mut frame.snap {
                                Some(slot) => worker.exec.snapshot_into(slot),
                                None => frame.snap = Some(worker.exec.snapshot()),
                            }
                        }
                        frame.taken = taken;
                        frame.total = total;
                        frame.next = 0;
                        frame.sched_len = prefix.len();
                        frame.key = key;
                        0
                    };
                    step_flat(
                        &mut worker.exec,
                        &options,
                        flat,
                        &mut prefix,
                        &mut taken,
                        &mut res.steps_executed,
                    );
                    digits += 1;
                }
            }
        };
        if matches!(leaf, Descent::Pruned) {
            continue;
        }
        res.runs += 1;
        // What a restart-from-scratch odometer run of this leaf costs: the
        // whole prefix drive, whether or not we re-executed it.
        res.steps_odometer += taken;
        if let Descent::Interior(out) = leaf {
            // The run terminated within the enumerated prefix itself.
            if let Err(violation) = worker.verdict(out == RunOutcome::Quiescent, scenario.variant) {
                res.violation = Some((prefix.clone(), violation, 0));
                return res;
            }
            continue;
        }
        // Tail leaf, the cache's `remaining = 0` case: skip the fair tail
        // iff this post-prefix state already completed clean.
        let fp = subtree_key(worker.exec.state_fingerprint(), 0);
        if worker
            .visited
            .as_ref()
            .is_some_and(|seen| seen.contains(fp))
        {
            res.dedup_hits += 1;
            continue;
        }
        tail_sched.clear();
        let (tail_out, tail_steps) = worker
            .exec
            .run_fair_tail(scenario.max_steps - taken, &mut tail_sched);
        res.steps_executed += tail_steps;
        res.steps_odometer += tail_steps;
        if let Err(violation) = worker.verdict(tail_out == RunOutcome::Quiescent, scenario.variant)
        {
            let mut schedule = prefix.clone();
            schedule.extend_from_slice(&tail_sched);
            res.violation = Some((schedule, violation, 0));
            return res;
        }
        // Only a clean tail verdict is remembered: a violating state never
        // enters the set, so pruning cannot hide a counterexample.
        if let Some(seen) = worker.visited.as_mut() {
            seen.insert(fp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use gam_engine::{run_fair, run_with_source};
    use gam_groups::topology;
    use gam_kernel::schedule::PathSource;

    #[test]
    fn restore_reproduces_digest_and_fingerprint_bit_for_bit() {
        // Drive to the first branch, checkpoint, explore child 0 to the
        // end, restore, explore child 1, restore, re-explore child 0 — the
        // two child-0 continuations must agree exactly, and both must equal
        // a fresh from-scratch replay of the same path. "Exactly" is the
        // history digest and the full `fold_state` walk; the fingerprint is
        // a quotient of that walk, asserted beside it.
        let standing = |exec: &gam_engine::RuntimeExecutor| {
            let mut words = Vec::new();
            exec.runtime().fold_state(&mut |w| words.push(w));
            ((exec.state_digest(), words), exec.state_fingerprint())
        };
        let scenario = Scenario::one_per_group(&topology::two_overlapping(3, 1), 50_000);
        let mut exec = scenario.runtime_executor();
        let mut options = Vec::new();
        let mut taken = 0u64;
        let mut executed = 0u64;
        let leaf = advance(
            &mut exec,
            &mut taken,
            scenario.max_steps,
            &mut options,
            &mut executed,
        );
        assert!(leaf.is_none(), "scenario must reach a choice point");
        let total: usize = options.iter().map(|(_, a)| a).sum();
        assert!(total > 1, "scenario must actually branch");
        let snap = exec.snapshot();
        let at_branch = standing(&exec);

        let run_child = |exec: &mut gam_engine::RuntimeExecutor, flat: usize| {
            let mut opts = Vec::new();
            exec.enabled_actions(&mut opts);
            let (mut t, mut e) = (taken, 0u64);
            let mut sched = Vec::new();
            step_flat(exec, &opts, flat, &mut sched, &mut t, &mut e);
            let out = run_fair(exec, scenario.max_steps - t);
            assert_eq!(out, RunOutcome::Quiescent);
            standing(exec)
        };

        let first = run_child(&mut exec, 0);
        exec.restore(&snap);
        let landed = standing(&exec);
        assert_eq!(
            landed.0, at_branch.0,
            "restore must land exactly on the checkpoint"
        );
        assert_eq!(landed.1, at_branch.1, "fingerprint at the checkpoint");
        let other = run_child(&mut exec, 1);
        assert_ne!(first.0, other.0, "distinct children must diverge");
        exec.restore(&snap);
        let again = run_child(&mut exec, 0);
        assert_eq!(
            first.0, again.0,
            "restored continuation must replay bit-for-bit"
        );
        assert_eq!(first.1, again.1, "fingerprint of the restored continuation");

        // And a cold executor replaying child 0's path agrees too. No
        // scheduled step precedes the first branch (advance only idles), so
        // the path is the single child digit; the tail is the fair default.
        let mut fresh = scenario.runtime_executor();
        let mut src = gam_engine::PrefixTail::new(PathSource::new(vec![0]));
        let out = run_with_source(&mut fresh, &mut src, scenario.max_steps);
        assert_eq!(out, RunOutcome::Quiescent);
        let cold = standing(&fresh);
        assert_eq!(
            cold.0, first.0,
            "snapshot continuation must equal a from-scratch run"
        );
        assert_eq!(cold.1, first.1, "fingerprint of the from-scratch run");
    }
}
