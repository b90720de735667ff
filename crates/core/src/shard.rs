//! Shard-local execution and the deterministic commit merge behind the
//! parallel sustained-load driver (`gam-engine`'s `run_sustained_par`).
//!
//! ## The projection argument
//!
//! [`Runtime::run_sustained`] is a round-robin scan: starting from
//! `rr_cursor = rr0`, visit slot `j` (for `j = 0, 1, 2, …`) inspects
//! process `(rr0 + j) mod n` and fires its minimum enabled action, if any.
//! Under a *par-eligible* scenario ([`Runtime::par_eligible`]: crash-free
//! pattern, non-strict variant, fresh protocol state) every guard is
//! **time-invariant** — the `γ` timelines have a single entry, no
//! indicators, liveness is universal — so whether a visit fires, and what
//! it fires, is a function of protocol state alone, never of the clock.
//!
//! By genuineness, an action of `p` about a unit of group `g` touches only
//! the pairs `{g, h}` for `h ∈ 𝒢(p)`, the unit's cells and `p`'s rows —
//! all local to `g`'s *shard* (the connected component of the group
//! intersection graph; see `gam-engine`'s `shard_partition`). Hence the
//! global visit stream **projects** onto each shard: the visits landing on
//! a shard's processes form that shard's own round-robin, and their
//! fire/skip decisions depend only on shard-local state. Each worker
//! replays exactly this projection with [`Runtime::run_shard_record`] on a
//! private clone, tagging every fired action with its *global* visit slot
//! `j = ((p − rr0) mod n) + round·n`.
//!
//! Only two pieces of global state cross shards, and both are pure
//! functions of the fired-slot sets:
//!
//! - **the clock** — the sequential driver ticks once per fired action, so
//!   the action fired at slot `j` executes at time `t0 + rank(j)` where
//!   `rank` counts fired slots `≤ j` across all shards (crash-free runs
//!   never idle-tick before quiescence: a full non-firing sweep with
//!   time-invariant guards is a fixpoint, not a stall);
//! - **unit-id allocation order** — `Inject` at slot `j` allocates the
//!   `rank_inject(j)`-th unit id.
//!
//! [`Runtime::commit_merge`] re-sequences exactly these two globals: it
//! ranks the per-shard fired slots in one bitmap, rebuilds the unit arena
//! in global inject order (remapping every recorded unit id), patches
//! delivery timestamps from slots to ranks, and copies every shard-owned
//! pair/unit/process column from its owning worker. The result is
//! byte-identical — the full [`Runtime::fold_state`] walk, not just the
//! digest — to what the sequential driver would have produced.

use crate::arena::{OrderEntry, NO_UNIT};
use crate::runtime::{Delivery, Runtime, Variant};
use gam_groups::GroupId;
use gam_kernel::{ProcessId, ProcessSet, Time};

/// One shard of the connected-group-family partition, as the parallel
/// driver schedules it and the merge consumes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// The shard's groups (one connected component of the intersection
    /// graph), ascending.
    pub groups: Vec<GroupId>,
    /// Every member of the shard's groups, ascending — the processes whose
    /// per-process rows the shard's actions may touch (an `Inject`
    /// activates a unit at *all* members, scheduled or not).
    pub procs: Vec<ProcessId>,
    /// The scheduled subset (the run's `set` ∩ `procs`), ascending — the
    /// population of the shard's round-robin projection.
    pub pids: Vec<ProcessId>,
}

/// What one shard's recorded run produced, in global-visit-slot terms.
#[derive(Debug, Clone, Default)]
pub struct ShardRun {
    /// Global visit slots of the shard's fired actions, strictly
    /// ascending.
    pub fired_slots: Vec<u64>,
    /// `(slot, unit id in the worker's clone)` per fired `Inject`, in fire
    /// order — the data the merge needs to re-sequence unit allocation.
    pub injects: Vec<(u64, u32)>,
    /// Whether the shard reached a fixpoint with no outstanding delivery
    /// obligations. `false` means the global run would not have quiesced
    /// (stuck obligations or budget exhaustion) and the merge must not
    /// commit.
    pub quiesced: bool,
}

impl Runtime {
    /// True when the sharded parallel driver reproduces
    /// [`Runtime::run_sustained`] byte for byte from this state: the
    /// failure pattern is crash-free and the variant non-strict (so every
    /// guard is time-invariant — constant `γ` timelines, no `1^{g∩h}`
    /// indicators, universal liveness), and no unit exists yet (so unit-id
    /// allocation is re-sequenced from zero by the merge). Scenarios
    /// outside this class fall back to the sequential driver.
    pub fn par_eligible(&self) -> bool {
        self.units.count() == 0
            && self.tables.variant != Variant::Strict
            && self.tables.crash_at.iter().all(|&c| c == u64::MAX)
    }

    /// Runs one shard's projection of the sustained round-robin to a local
    /// fixpoint, recording global visit slots: the run loop's
    /// round-robin-min policy over `pids`, with the slot of each pick
    /// recovered from how far the scan travelled to reach it. `take_budget`
    /// is consulted once per fired action; returning `false` aborts the
    /// shard (the caller discards the clone, so partial state is fine).
    ///
    /// The clock is stamped with the *visit slot* before each fired action
    /// — an arbitrary placeholder as far as guards are concerned (they are
    /// time-invariant under [`Runtime::par_eligible`]) that makes every
    /// recorded delivery timestamp invertible to its slot, which
    /// [`Runtime::commit_merge`] patches to the true global time.
    pub fn run_shard_record(
        &mut self,
        pids: &[ProcessId],
        mut take_budget: impl FnMut() -> bool,
    ) -> ShardRun {
        let rr0 = self.rr_cursor;
        debug_assert!(rr0 < self.tables.n, "round-robin cursor is reduced mod n");
        // The scan moves a copy: the clone may go on to record another
        // shard from the same cursor.
        let mut cursor = rr0;
        let set: ProcessSet = pids.iter().copied().collect();
        let mut run = ShardRun::default();
        // Global visit slot of the cursor position: the global scan visits
        // process (rr0 + j) mod n at slot j, and the shard's processes in
        // the same cyclic order.
        let mut base = 0u64;
        run.quiesced = loop {
            let Some((p, action, passed)) = self.pick_round_robin(set, &mut cursor) else {
                // No process of the shard has an enabled action: with
                // time-invariant guards and no cross-shard interference
                // this is a fixpoint forever, exactly when the sequential
                // sweep would stop (or idle-tick to budget death).
                break !self.has_obligations(set);
            };
            let slot = base + passed as u64;
            base = slot + 1;
            if !take_budget() {
                break false; // aborted
            }
            let units = self.units.count();
            self.fire(p, Some(action), Time(slot));
            if self.units.count() > units {
                run.injects.push((slot, units as u32));
            }
            run.fired_slots.push(slot);
        };
        run
    }

    /// Commits the recorded shard runs into `self` (the pre-run state the
    /// workers were cloned from), re-sequencing the two global objects —
    /// the clock and unit-id allocation order — so the result is the state
    /// [`Runtime::run_sustained`] would have reached. Each element of
    /// `parts` pairs a shard's spec and recording with the worker clone
    /// that ran it (a clone may appear for several shards).
    ///
    /// The caller must have verified every shard quiesced within budget;
    /// committing a partial recording would desynchronize the clock.
    pub fn commit_merge(&mut self, parts: &[(&Runtime, &ShardSpec, &ShardRun)]) {
        let t = &*self.tables;
        let n = t.n;
        let t0 = self.now().0;
        debug_assert_eq!(self.units.count(), 0, "par_eligible gated fresh state");
        // Every shard's fired slots in the global sweep order: a slot's
        // rank is the tick its action fired at.
        let runs: Vec<&[u64]> = parts.iter().map(|(_, _, r)| &r.fired_slots[..]).collect();
        let fired = FiredSlots::new(&runs);
        // Global unit order: injects sorted by slot. Per-part remap tables
        // from clone-local unit ids to global ids (a part's pair orders
        // only reference units its own shard injected).
        let mut all_inj: Vec<(u64, usize, u32)> = parts
            .iter()
            .enumerate()
            .flat_map(|(pi, (_, _, r))| r.injects.iter().map(move |&(s, u)| (s, pi, u)))
            .collect();
        all_inj.sort_unstable();
        let mut remap: Vec<Vec<u32>> = parts
            .iter()
            .map(|(w, _, _)| vec![NO_UNIT; w.units.count()])
            .collect();
        for (pos, &(_, pi, cuid)) in all_inj.iter().enumerate() {
            remap[pi][cuid as usize] = pos as u32;
        }
        let lookup = |pi: usize, cuid: u32| -> u32 {
            let u = remap[pi][cuid as usize];
            debug_assert_ne!(
                u, NO_UNIT,
                "order entry references a unit this shard injected"
            );
            u
        };
        // Rebuild the unit arena in global allocation order, copying each
        // unit's cell blocks from the worker that ran it.
        let copies: Vec<_> = all_inj
            .iter()
            .map(|&(_, pi, cuid)| (&parts[pi].0.units, cuid))
            .collect();
        self.units.extend_from(&copies);
        for (u, &(w, cuid)) in copies.iter().enumerate() {
            let cu = cuid as usize;
            let list = &self.lists[w.group[cu].index()];
            let start = w.start[cu] as usize;
            for m in &list[start..start + w.len[cu] as usize] {
                self.unit_of[m.0 as usize] = u as u32;
            }
        }
        // Shard-owned columns, from each shard's owning worker. Pairs are
        // owned by the shard of their first group (both groups of a pair
        // intersect, hence share a component).
        let mut owner = vec![usize::MAX; t.n_groups];
        for (pi, (_, spec, _)) in parts.iter().enumerate() {
            for g in &spec.groups {
                owner[g.index()] = pi;
            }
        }
        for pid in 0..t.pairs.len() {
            let pi = owner[t.pairs[pid].0.index()];
            if pi == usize::MAX {
                continue; // no scheduled process — the pair never moved
            }
            let (w, _, _) = parts[pi];
            let src = &w.pairs[pid];
            let dst = &mut self.pairs[pid];
            dst.max_slot = src.max_slot;
            dst.cursors.clone_from(&src.cursors);
            dst.order.clear();
            dst.order.extend(src.order.iter().map(|e| OrderEntry {
                slot: e.slot,
                rep: e.rep,
                unit: lookup(pi, e.unit),
            }));
        }
        for (pi, &(w, spec, _)) in parts.iter().enumerate() {
            for g in &spec.groups {
                let gi = g.index();
                self.next_new[gi] = w.next_new[gi];
                for r in 0..t.member_list[gi].len() {
                    let gm = t.member_base[gi] as usize + r;
                    self.inject_cursor[gm] = w.inject_cursor[gm];
                }
            }
            for &p in &spec.procs {
                let i = p.index();
                self.actions_of[i] = w.actions_of[i];
                self.owed[i] = w.owed[i];
                // Derived per-process state rides along: the in-flight
                // list, and any column ever added beside it.
                let active = &mut self.active[i];
                active.clear();
                active.extend(w.active[i].iter().map(|&u| lookup(pi, u)));
                let row = &mut self.delivered[i];
                debug_assert!(row.is_empty(), "par_eligible gated fresh state");
                row.clear();
                // A batched `Deliver` stamps its whole unit with one slot:
                // rank each slot once.
                let mut last = (u64::MAX, 0);
                row.extend(w.delivered[i].iter().map(|d| {
                    if last.0 != d.at.0 {
                        last = (d.at.0, t0 + fired.rank(d.at.0));
                    }
                    Delivery {
                        msg: d.msg,
                        at: Time(last.1),
                    }
                }));
            }
        }
        // The two global scalars, re-derived from the merged fired order:
        // one clock tick per fired action, and the cursor one past the
        // process the last-fired slot visited.
        self.set_now(Time(t0 + fired.count()));
        if let Some(last) = fired.last() {
            let idx = (self.rr_cursor + last as usize % n) % n;
            self.rr_cursor = (idx + 1) % n;
        }
        // Every shard-owned column was overwritten behind the ready set.
        self.invalidate_ready();
    }
}

/// The fired slots of every shard as one bitmap, with the number of fired
/// slots before each word: the global rank of a fired slot — the tick its
/// action fired at — in O(1). Slots are unique across shards (slot mod n
/// identifies the process, and a process belongs to one shard). Consecutive
/// fired slots of the sequential sweep lie at most `n` apart (a sweep that
/// fires nothing ends the run), so the map holds about `n / 64` words per
/// fired action at worst — 8 for the largest universe — and at the sweep's
/// usual density far fewer.
struct FiredSlots {
    words: Vec<u64>,
    before: Vec<u64>,
}

impl FiredSlots {
    fn new(runs: &[&[u64]]) -> Self {
        let end = runs
            .iter()
            .filter_map(|r| r.last())
            .max()
            .map_or(0, |&s| s / 64 + 1);
        let mut words = vec![0u64; end as usize];
        for &s in runs.iter().copied().flatten() {
            words[(s / 64) as usize] |= 1 << (s % 64);
        }
        let before = words
            .iter()
            .scan(0, |acc, w| {
                let at = *acc;
                *acc += u64::from(w.count_ones());
                Some(at)
            })
            .collect();
        FiredSlots { words, before }
    }

    /// Fired slots up to and including `slot`, which must be fired itself.
    fn rank(&self, slot: u64) -> u64 {
        let (i, bit) = ((slot / 64) as usize, slot % 64);
        debug_assert!(
            (self.words[i] >> bit) & 1 == 1,
            "delivery timestamp encodes a fired slot"
        );
        self.before[i] + u64::from((self.words[i] & (u64::MAX >> (63 - bit))).count_ones())
    }

    /// Fired slots in all.
    fn count(&self) -> u64 {
        self.last().map_or(0, |slot| self.rank(slot))
    }

    /// The last fired slot (the last word is never empty).
    fn last(&self) -> Option<u64> {
        let i = self.words.len().checked_sub(1)?;
        Some(i as u64 * 64 + 63 - u64::from(self.words[i].leading_zeros()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use gam_groups::topology;
    use gam_kernel::FailurePattern;

    fn fold(rt: &Runtime) -> Vec<u64> {
        let mut v = Vec::new();
        rt.fold_state(&mut |w| v.push(w));
        v
    }

    /// Manual two-shard split on disjoint groups: record each shard on its
    /// own clone, merge, and compare the full state walk against the
    /// sequential driver. This is the single-threaded core of the
    /// equivalence the engine's parallel driver and the workspace grid
    /// test check at scale.
    #[test]
    fn recorded_shards_merge_to_the_sequential_state() {
        for batch in [1u32, 3] {
            let gs = topology::disjoint(3, 3);
            let mut rt = Runtime::new(
                &gs,
                FailurePattern::all_correct(gs.universe()),
                RuntimeConfig {
                    batch_max: batch,
                    ..Default::default()
                },
            );
            for g in 0..3u32 {
                let src = gs.members(GroupId(g)).min().unwrap();
                for i in 0..4u64 {
                    rt.multicast(src, GroupId(g), u64::from(g) * 10 + i);
                }
            }
            assert!(rt.par_eligible());
            let mut seq = rt.clone();
            assert!(seq.run_sustained(gs.universe(), 100_000));

            let specs: Vec<ShardSpec> = (0..3u32)
                .map(|g| {
                    let procs: Vec<ProcessId> = gs.members(GroupId(g)).iter().collect();
                    ShardSpec {
                        groups: vec![GroupId(g)],
                        procs: procs.clone(),
                        pids: procs,
                    }
                })
                .collect();
            let mut clones: Vec<Runtime> = specs.iter().map(|_| rt.clone()).collect();
            let runs: Vec<ShardRun> = specs
                .iter()
                .zip(clones.iter_mut())
                .map(|(spec, c)| c.run_shard_record(&spec.pids, || true))
                .collect();
            assert!(runs.iter().all(|r| r.quiesced));
            let parts: Vec<(&Runtime, &ShardSpec, &ShardRun)> = specs
                .iter()
                .enumerate()
                .map(|(i, spec)| (&clones[i], spec, &runs[i]))
                .collect();
            rt.commit_merge(&parts);
            assert_eq!(fold(&rt), fold(&seq), "batch={batch}");
            assert!(rt.ready_set_is_current(), "merged derived state");
            assert_eq!(rt.rr_cursor, seq.rr_cursor);
            assert_eq!(rt.next_new, seq.next_new);
        }
    }

    /// The bitmap ranks slots as the sorted union of the runs does, across
    /// word boundaries, from slot 0, and with empty runs among the parts.
    #[test]
    fn fired_slots_rank_as_the_sorted_union() {
        let empty = FiredSlots::new(&[&[], &[]]);
        assert_eq!((empty.count(), empty.last()), (0, None));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for n in [1u64, 7, 64, 130, 512] {
            for parts in [1usize, 3, 8] {
                // The sweep's fired slots: ascending, less than `n` apart.
                let mut runs = vec![Vec::new(); parts + 1];
                let mut all = Vec::new();
                let mut slot = next(n);
                for _ in 0..2000 {
                    all.push(slot);
                    runs[next(parts as u64) as usize].push(slot);
                    slot += 1 + next(n);
                }
                let runs: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
                let fired = FiredSlots::new(&runs);
                for (i, &s) in all.iter().enumerate() {
                    assert_eq!(fired.rank(s), i as u64 + 1, "n={n} parts={parts} slot {s}");
                }
                assert_eq!(fired.count(), all.len() as u64);
                assert_eq!(fired.last(), all.last().copied());
            }
        }
    }

    #[test]
    fn par_eligibility_gates_crashes_strict_and_inflight_units() {
        let gs = topology::fig1();
        let fresh = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig::default(),
        );
        assert!(fresh.par_eligible());
        let crashy = Runtime::new(
            &gs,
            FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(2))]),
            RuntimeConfig::default(),
        );
        assert!(!crashy.par_eligible());
        let strict = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig {
                variant: Variant::Strict,
                ..Default::default()
            },
        );
        assert!(!strict.par_eligible());
        let mut inflight = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig::default(),
        );
        inflight.multicast(ProcessId(0), GroupId(0), 1);
        assert!(inflight.par_eligible(), "submissions alone stay eligible");
        inflight.run(3);
        assert!(!inflight.par_eligible(), "in-flight units are not");
    }
}
