//! The sharded parallel sustained-load driver.
//!
//! [`run_sustained_par`] partitions the group system into shards — the
//! connected components of the group-conflict graph
//! ([`crate::shard_partition`]) — runs each shard's projection of the
//! sequential round-robin on a worker over a private `Runtime` clone
//! (cheap: the state lives in copy-on-write columns), then commits
//! the recordings through `gam-core`'s deterministic merge. The final
//! state is **byte-identical** to [`Runtime::run_sustained`] on the same
//! scenario: the full `fold_state` walk, every delivery timestamp, the
//! state digest. See `gam-core`'s `shard` module docs for the projection
//! argument.
//!
//! Scenarios the projection argument does not cover — crashes, the strict
//! variant, mid-run state — fall back to the sequential driver, as do
//! single-shard systems and `threads <= 1`.
//!
//! The workers share one read-only plan (`gam-core`'s tables) and one
//! budget counter, and write neither on every action: a fired action
//! borrows the plan instead of taking a reference count, and the counter
//! is added to once per block of actions (see `Budget`).
//!
//! ## Failure semantics
//!
//! On a `false` return (budget exhaustion, or a shard stuck with
//! obligations) the sequential driver leaves partial progress behind;
//! the parallel driver instead discards the worker clones and leaves the
//! base runtime **untouched**. The boolean outcome always agrees: under a
//! par-eligible scenario the sequential run fires a schedule-independent
//! action multiset, so it quiesces within `max_actions` iff the shards'
//! total fired count stays under it.

use crate::independence::shard_partition;
use gam_core::{Runtime, ShardRun, ShardSpec};
use gam_kernel::{ProcessId, ProcessSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Builds the shard specs of `system` for a run scheduling `set`: one
/// spec per connected group component, carrying the component's groups,
/// all their members, and the scheduled subset. Components whose member
/// processes are all outside `set` are still returned (with empty
/// `pids`) so callers can report shard counts; the driver skips them.
pub fn shard_specs(rt: &Runtime, set: ProcessSet) -> Vec<ShardSpec> {
    let system = rt.system();
    shard_partition(system)
        .into_iter()
        .map(|groups| {
            let mut members = ProcessSet::new();
            for &g in &groups {
                members |= system.members(g);
            }
            let procs: Vec<ProcessId> = members.iter().collect();
            let pids: Vec<ProcessId> = (members & set).iter().collect();
            ShardSpec {
                groups,
                procs,
                pids,
            }
        })
        .collect()
}

/// Fired actions a worker counts on its own before it adds them to the
/// shared budget counter: one atomic add per block, not one per action.
const BUDGET_BLOCK: u64 = 256;

/// One worker's share of the action budget every shard draws from.
///
/// The workers publish their fired counts in blocks of [`BUDGET_BLOCK`],
/// so what a worker knows of the total — everyone's published count as of
/// its own last publication, plus what it fired since — never exceeds
/// what has really fired. A worker stops only once that lower bound
/// reaches the cap, and then the whole run has fired at least `max`
/// actions and fails the cap in any case: a block never aborts a run that
/// one shared counter per action would have let finish. A runaway worker
/// still stops on its own count alone, and the others learn of it within
/// a block of their own.
struct Budget<'a> {
    shared: &'a AtomicU64,
    /// Every worker's published count, as read at this worker's last
    /// publication.
    seen: u64,
    /// Actions this worker fired since then.
    unpublished: u64,
    max: u64,
}

impl<'a> Budget<'a> {
    fn new(shared: &'a AtomicU64, max: u64) -> Self {
        Budget {
            shared,
            seen: 0,
            unpublished: 0,
            max,
        }
    }

    /// Takes one action: `false` once the actions known to have fired
    /// reach the cap.
    fn take(&mut self) -> bool {
        if self.seen + self.unpublished >= self.max {
            return false;
        }
        self.unpublished += 1;
        if self.unpublished == BUDGET_BLOCK {
            self.publish();
        }
        true
    }

    /// Adds the unpublished actions to the shared count and reads back
    /// everyone's.
    fn publish(&mut self) {
        // Relaxed is enough: monotonic budget counter: fetch_add totals are exact
        // under any ordering, nothing is published through it, and on the success
        // path the committed total equals the schedule-independent fired count
        // re-derived from the joined recordings.
        let before = self.shared.fetch_add(self.unpublished, Ordering::Relaxed);
        self.seen = before + self.unpublished;
        self.unpublished = 0;
    }
}

/// Runs `rt` to quiescence of `set` (or budget exhaustion) like
/// [`Runtime::run_sustained`], but with up to `threads` workers serving
/// disjoint group shards in parallel: the calling thread serves the first
/// share and one spawned thread each of the others. Returns `true` on
/// quiescence.
///
/// The committed state — delivery sequences with timestamps, pair orders,
/// unit arena, clock, round-robin cursor — is byte-identical to the
/// sequential driver's. On `false` the base runtime is left untouched
/// (the sequential driver would leave partial progress; see the module
/// docs).
pub fn run_sustained_par(
    rt: &mut Runtime,
    set: ProcessSet,
    max_actions: u64,
    threads: usize,
) -> bool {
    if threads <= 1 || !rt.par_eligible() {
        return rt.run_sustained(set, max_actions);
    }
    let live: Vec<ShardSpec> = shard_specs(rt, set)
        .into_iter()
        .filter(|s| !s.pids.is_empty())
        .collect();
    if live.len() <= 1 {
        return rt.run_sustained(set, max_actions);
    }
    let workers = threads.min(live.len());
    // Shared budget: one unit per fired action across all shards, the same
    // count the sequential driver caps (see `Budget`).
    let fired = AtomicU64::new(0);
    let base: &Runtime = rt;
    // Worker `w` serves shards `w, w + workers, …` in turn on its own clone.
    let worker = |w: usize| {
        let mut clone = base.clone();
        let mine: Vec<&ShardSpec> = live.iter().skip(w).step_by(workers).collect();
        let mut budget = Budget::new(&fired, max_actions);
        move || {
            let mut runs = Vec::with_capacity(mine.len());
            let mut aborted = false;
            for spec in mine {
                if aborted {
                    // Keep run/spec alignment; a default run is
                    // `quiesced: false`, which forces the discard.
                    runs.push(ShardRun::default());
                    continue;
                }
                let run = clone.run_shard_record(&spec.pids, || budget.take());
                aborted = !run.quiesced;
                runs.push(run);
            }
            budget.publish();
            (clone, runs)
        }
    };
    let results: Vec<(Runtime, Vec<ShardRun>)> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|w| scope.spawn(worker(w))).collect();
        let mut results = vec![worker(0)()];
        results.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked")),
        );
        results
    });
    // Re-derive the outcome from the joined recordings alone (not the
    // atomic), so the commit decision is schedule-deterministic.
    let total: u64 = results
        .iter()
        .flat_map(|(_, runs)| runs)
        .map(|r| r.fired_slots.len() as u64)
        .sum();
    let quiesced = results
        .iter()
        .flat_map(|(_, runs)| runs)
        .all(|r| r.quiesced);
    if !quiesced || total >= max_actions {
        return false;
    }
    let mut parts: Vec<(&Runtime, &ShardSpec, &ShardRun)> = Vec::with_capacity(live.len());
    for (w, (clone, runs)) in results.iter().enumerate() {
        for (j, run) in runs.iter().enumerate() {
            parts.push((clone, &live[w + j * workers], run));
        }
    }
    rt.commit_merge(&parts);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_core::{RuntimeConfig, Variant};
    use gam_groups::{topology, GroupId};
    use gam_kernel::{FailurePattern, ProcessId, Time};

    fn fold(rt: &Runtime) -> Vec<u64> {
        let mut v = Vec::new();
        rt.fold_state(&mut |w| v.push(w));
        v
    }

    fn loaded(batch: u32) -> Runtime {
        let gs = topology::disjoint(4, 3);
        let mut rt = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig {
                batch_max: batch,
                ..Default::default()
            },
        );
        for g in 0..4u32 {
            let src = gs.members(GroupId(g)).min().unwrap();
            for i in 0..5u64 {
                rt.multicast(src, GroupId(g), u64::from(g) * 100 + i);
            }
        }
        rt
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        for batch in [1u32, 4] {
            for threads in [2usize, 3, 8] {
                let base = loaded(batch);
                let mut seq = base.clone();
                let mut par = base.clone();
                let set = seq.system().universe();
                assert!(seq.run_sustained(set, 100_000));
                assert!(run_sustained_par(&mut par, set, 100_000, threads));
                assert_eq!(fold(&seq), fold(&par), "batch={batch} threads={threads}");
            }
        }
    }

    #[test]
    fn budget_exhaustion_agrees_and_leaves_base_untouched() {
        let base = loaded(1);
        let mut seq = base.clone();
        let mut par = base.clone();
        let set = base.system().universe();
        let before = fold(&par);
        assert!(!seq.run_sustained(set, 10));
        assert!(!run_sustained_par(&mut par, set, 10, 4));
        assert_eq!(fold(&par), before, "failed parallel run discards state");
        // Exact-budget quiescence also returns false in both drivers: the
        // sequential loop checks the cap before discovering quiescence.
        let mut probe = base.clone();
        assert!(probe.run_sustained(set, 100_000));
        let exact = probe.report(true).actions_of.iter().sum::<u64>();
        let mut seq2 = base.clone();
        let mut par2 = base.clone();
        assert!(!seq2.run_sustained(set, exact));
        assert!(!run_sustained_par(&mut par2, set, exact, 4));
        assert!(run_sustained_par(&mut base.clone(), set, exact + 1, 4));
    }

    /// Two workers draw on one counter. Neither is refused while fewer than
    /// `max` actions have fired in all, whatever it has seen of the other;
    /// once `max` have, each is refused within one block of its own.
    #[test]
    fn block_budgets_refuse_only_past_the_cap() {
        let max = 3 * BUDGET_BLOCK + 7;
        let shared = AtomicU64::new(0);
        let (mut a, mut b) = (Budget::new(&shared, max), Budget::new(&shared, max));
        let (mut fired_a, mut fired_b) = (0, 0);
        // Uneven turns, so each sees the other's count at odd moments.
        while fired_a + fired_b < max {
            if (fired_a + fired_b) % 5 < 3 {
                assert!(a.take(), "a refused at {} fired", fired_a + fired_b);
                fired_a += 1;
            } else {
                assert!(b.take(), "b refused at {} fired", fired_a + fired_b);
                fired_b += 1;
            }
        }
        for worker in [&mut a, &mut b] {
            let more = (0..=BUDGET_BLOCK).take_while(|_| worker.take()).count() as u64;
            assert!(more <= BUDGET_BLOCK, "a worker ran a block past the cap");
        }
        // A worker alone stops on its own count, published or not.
        let fresh = AtomicU64::new(0);
        let mut alone = Budget::new(&fresh, 10);
        assert_eq!((0..20).take_while(|_| alone.take()).count(), 10);
    }

    /// Budgets around the exact action count, on shards that fire several
    /// blocks each: the outcome is the sequential driver's at every worker
    /// count, and a refused run leaves the base untouched.
    #[test]
    fn budgets_across_block_boundaries_agree_with_sequential() {
        let gs = topology::disjoint(4, 3);
        let mut base = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig::default(),
        );
        for g in 0..4u32 {
            let src = gs.members(GroupId(g)).min().unwrap();
            for i in 0..40u64 {
                base.multicast(src, GroupId(g), u64::from(g) * 100 + i);
            }
        }
        let set = base.system().universe();
        let mut probe = base.clone();
        assert!(probe.run_sustained(set, u64::MAX));
        let exact = probe.report(true).actions_of.iter().sum::<u64>();
        assert!(
            exact / 4 > 2 * BUDGET_BLOCK,
            "each shard fires several blocks"
        );
        let before = fold(&base);
        for max in [
            1,
            BUDGET_BLOCK - 1,
            BUDGET_BLOCK,
            BUDGET_BLOCK + 1,
            exact / 2,
            exact - 1,
            exact,
            exact + 1,
        ] {
            let mut seq = base.clone();
            let quiesced = seq.run_sustained(set, max);
            assert_eq!(quiesced, max > exact, "budget {max}");
            for threads in [2usize, 3, 8] {
                let mut par = base.clone();
                let tag = format!("budget {max} threads {threads}");
                assert_eq!(
                    run_sustained_par(&mut par, set, max, threads),
                    quiesced,
                    "{tag}"
                );
                let want = if quiesced { fold(&seq) } else { before.clone() };
                assert_eq!(fold(&par), want, "{tag}");
            }
        }
    }

    #[test]
    fn ineligible_scenarios_fall_back_to_sequential() {
        // Strict variant: the fallback still runs and matches.
        let gs = topology::disjoint(2, 3);
        let mk = || {
            let mut rt = Runtime::new(
                &gs,
                FailurePattern::all_correct(gs.universe()),
                RuntimeConfig {
                    variant: Variant::Strict,
                    ..Default::default()
                },
            );
            rt.multicast(ProcessId(0), GroupId(0), 1);
            rt.multicast(ProcessId(3), GroupId(1), 2);
            rt
        };
        let mut seq = mk();
        let mut par = mk();
        let set = gs.universe();
        let a = seq.run_sustained(set, 100_000);
        let b = run_sustained_par(&mut par, set, 100_000, 4);
        assert_eq!(a, b);
        assert_eq!(fold(&seq), fold(&par));
        // Crashy pattern likewise.
        let crashy = |threads: usize| {
            let mut rt = Runtime::new(
                &gs,
                FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(4))]),
                RuntimeConfig::default(),
            );
            rt.multicast(ProcessId(0), GroupId(0), 1);
            let q = run_sustained_par(&mut rt, gs.universe(), 100_000, threads);
            (q, fold(&rt))
        };
        assert_eq!(crashy(1), crashy(4));
    }

    #[test]
    fn scheduled_subsets_restrict_the_shards() {
        // Schedule only the members of group 0: the other shards stay
        // idle, exactly as under the sequential driver.
        let base = loaded(2);
        let gs = base.system().clone();
        let set = gs.members(GroupId(0));
        let mut seq = base.clone();
        let mut par = base.clone();
        let a = seq.run_sustained(set, 100_000);
        let b = run_sustained_par(&mut par, set, 100_000, 4);
        assert_eq!(a, b);
        assert_eq!(fold(&seq), fold(&par));
        let specs = shard_specs(&base, set);
        assert_eq!(specs.len(), 4);
        assert_eq!(specs.iter().filter(|s| !s.pids.is_empty()).count(), 1);
    }
}
