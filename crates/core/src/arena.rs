//! Index-interned dense state tables for the Algorithm 1 runtime.
//!
//! The seed runtime kept its shared objects in key-ordered maps —
//! `logs: BTreeMap<(GroupId, GroupId), Log<Datum>>`,
//! `cons: BTreeMap<(MessageId, GroupSet), Consensus<u64>>` and a per-process
//! `BTreeMap<MessageId, Phase>` — so every hot-path guard paid `O(log n)`
//! per lookup plus a full log scan. This module interns every key that is
//! fixed by the *topology* at construction time into a small integer id:
//!
//! - group **pairs** `(g, h)` with `g ∩ h ≠ ∅` (plus the self pairs
//!   `(g, g)`) become dense pair ids in lexicographic key order — the same
//!   order the `BTreeMap` iterated in, so digest streams stay canonical;
//! - group **adjacency** (`h` intersecting `g`, ascending, `g` itself
//!   included) becomes a per-group array, with an `O(1)` position table;
//! - **membership** becomes per-group rank tables, so "the phase of `m` at
//!   `p`" is one array index instead of a map probe;
//! - consensus **families** `H(p, g)` become per-group interned ranks
//!   (under the pairwise weakening there is a single empty family);
//! - the `γ` guard becomes a per-`(group, member)` *timeline*: `γ(p, g, t)`
//!   is piecewise-constant in `t` with breakpoints only at family-exclusion
//!   instants (family faultiness is monotone), so the oracle is queried
//!   once per breakpoint at construction instead of once per guard;
//! - **time** as a whole becomes one sorted list of [`Tables::breakpoints`]:
//!   crashes and detector outputs are input events at instants known from
//!   the failure pattern, so the only instants at which a guard can change
//!   with no action in between are every crash, every `γ` timeline step and
//!   every `1^{g∩h}` firing — the runtime's ready set re-derives rows when
//!   the clock crosses one and at no other tick.
//!
//! Everything in [`Tables`] is immutable after construction and shared by
//! the runtime behind an `Arc`, which is what keeps engine snapshots cheap:
//! cloning a runtime clones dense `Vec`s of plain words plus one `Arc`.
//!
//! The mutable side lives in [`UnitArena`] (struct-of-arrays per-*unit*
//! protocol state — a unit is a batch of consecutive `L_g` entries that
//! share one consensus decision, see the runtime docs) and [`PairState`]
//! (per-pair message order plus *frontier cursors*, the incremental form of
//! the "every message before `m` reached phase `X`" guards: by Claim 8
//! phases only rise and locked prefixes only shrink, so each guard is a
//! monotone frontier that can be maintained eagerly in `O(1)` amortized).

use crate::message::{MessageId, MessageInfo};
use crate::phase::Phase;
use crate::runtime::{RuntimeConfig, Variant};
use gam_detectors::{IndicatorMode, IndicatorOracle, MuOracle};
use gam_groups::{GroupId, GroupSet, GroupSystem};
use gam_kernel::{ColumnStats, CowVec, FailurePattern, ProcessId, Refill};
use std::iter::once;
use std::ops::Range;

/// Sentinel for "no rank": `p` is not a member of the indexing group.
pub(crate) const NO_RANK: u16 = u16::MAX;
/// Sentinel for "no unit": the message has not been injected yet.
pub(crate) const NO_UNIT: u32 = u32::MAX;

/// The guard thresholds the per-pair frontier cursors track, in rising
/// order: index 0 gates `pending` (predecessors committed), index 1 gates
/// `stabilize` (predecessors stable), index 2 gates `deliver`.
pub(crate) const THRESHOLDS: [Phase; 3] = [Phase::Commit, Phase::Stable, Phase::Deliver];
/// Cursor index of the `≥ commit` threshold.
pub(crate) const T_COMMIT: usize = 0;
/// Cursor index of the `≥ stable` threshold.
pub(crate) const T_STABLE: usize = 1;
/// Cursor index of the `≥ deliver` threshold.
pub(crate) const T_DELIVER: usize = 2;

/// Struct-of-arrays storage for message metadata ([`MessageInfo`]).
///
/// The runtime's hot paths only ever need one column at a time (almost
/// always the destination group), so the arena stores sources, groups and
/// payloads in parallel vectors instead of an array of structs. The
/// columns are chunked [`CowVec`]s: cloning the arena (an engine
/// snapshot) shares every sealed chunk instead of copying the columns.
#[derive(Debug, Default)]
pub struct MessageArena {
    src: CowVec<ProcessId>,
    group: CowVec<GroupId>,
    payload: CowVec<u64>,
}

impl Clone for MessageArena {
    fn clone(&self) -> Self {
        let mut out = MessageArena::default();
        out.refill(self, Refill::Share);
        out
    }

    fn clone_from(&mut self, src: &Self) {
        self.refill(src, Refill::CopyBack);
    }
}

impl MessageArena {
    /// Number of messages in the arena.
    pub fn len(&self) -> usize {
        self.group.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.group.is_empty()
    }

    /// Appends a message, returning its id (ids are dense, in submission
    /// order).
    pub fn push(&mut self, info: MessageInfo) -> MessageId {
        let id = MessageId(self.group.len() as u64);
        self.src.push(info.src);
        self.group.push(info.group);
        self.payload.push(info.payload);
        id
    }

    /// The destination group of `m`.
    pub fn group(&self, m: MessageId) -> GroupId {
        self.group[m.0 as usize]
    }

    /// The full metadata record of `m`.
    pub fn get(&self, m: MessageId) -> MessageInfo {
        let i = m.0 as usize;
        MessageInfo {
            src: self.src[i],
            group: self.group[i],
            payload: self.payload[i],
        }
    }

    /// The records in id order (for [`crate::RunReport`]).
    pub fn iter(&self) -> impl Iterator<Item = MessageInfo> + '_ {
        (0..self.len()).map(|i| self.get(MessageId(i as u64)))
    }

    /// [`CowVec::refill`], column by column.
    pub(crate) fn refill(&mut self, src: &Self, how: Refill) {
        let MessageArena {
            src: from,
            group,
            payload,
        } = src;
        self.src.refill(from, how);
        self.group.refill(group, how);
        self.payload.refill(payload, how);
    }

    /// Every column, for the runtime's byte and copy accounting.
    pub(crate) fn columns(&self) -> [&dyn ColumnStats; 3] {
        let MessageArena {
            src,
            group,
            payload,
        } = self;
        [src, group, payload]
    }
}

/// One `(g → h)` edge as seen from a member `p` of `g`: everything the
/// guards need about the pair `LOG_{g∩h}`, pre-resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GpEntry {
    /// The other group (`h = g` for the self pair).
    pub h: GroupId,
    /// Position of `h` in `adj[g]` (the unit's per-adjacency arrays).
    pub adj_idx: u16,
    /// Interned id of the pair `(g, h)` (normalised).
    pub pair: u32,
    /// Rank of `p` among the pair's relevant processes (cursor row).
    pub prank: u16,
}

/// Everything about a runtime that is fixed once the topology, failure
/// pattern and configuration are known. Immutable; shared via `Arc`.
#[derive(Debug)]
pub(crate) struct Tables {
    pub system: GroupSystem,
    pub pattern: FailurePattern,
    pub mu: MuOracle,
    pub variant: Variant,
    /// Effective batch size (≥ 1); 1 reproduces the seed semantics exactly.
    pub batch_max: u32,
    /// Process-index bound (`universe.max + 1`).
    pub n: usize,
    /// Number of groups.
    pub n_groups: usize,
    /// Per group: members ascending.
    pub member_list: Vec<Vec<ProcessId>>,
    /// `[g * n + p]` → rank of `p` in `g`, or [`NO_RANK`].
    pub member_rank: Vec<u16>,
    /// Per group: prefix sum of member counts; last entry = total.
    pub member_base: Vec<u32>,
    /// Per process: crash time, `u64::MAX` if correct.
    pub crash_at: Vec<u64>,
    /// Interned pairs in lexicographic `(g, h)` key order (`g ≤ h`): every
    /// self pair plus every intersecting cross pair.
    pub pairs: Vec<(GroupId, GroupId)>,
    /// Per group: pair id of `(g, g)`.
    pub self_pair: Vec<u32>,
    /// Per group: adjacency (`g` itself plus intersecting groups), ascending.
    pub adj: Vec<Vec<GroupId>>,
    /// `[g * n_groups + h]` → position of `h` in `adj[g]`, or [`NO_RANK`].
    pub adj_pos: Vec<u16>,
    /// Per group: pair id per adjacency entry.
    pub adj_pair: Vec<Vec<u32>>,
    /// Per pair: relevant processes ascending (`g ∩ h`; members for self).
    pub pair_procs: Vec<Vec<ProcessId>>,
    /// Per pair: the instant from which `1^{g∩h}` answers `true` at the
    /// members of `g ∪ h` (strict variant, cross pairs whose intersection
    /// crashes entirely); `u64::MAX` = never.
    pub indicator_at: Vec<u64>,
    /// `[gm(g, p)]` → the pairs `(g, h)` for `h ∈ 𝒢(p)`, ascending in `h`.
    pub per_gp: Vec<Vec<GpEntry>>,
    /// `[gm(g, p)]` → the `(g, g)` entry of `per_gp` (the pending guard's
    /// fast path into the self pair).
    pub self_gp: Vec<GpEntry>,
    /// `[gm(g, p)]` → interned rank of the consensus family `H(p, g)`.
    pub fam_rank: Vec<u16>,
    /// Per group: the interned consensus families, in rank order (each
    /// unit carries one `CONS` cell per entry).
    pub fams: Vec<Vec<GroupSet>>,
    /// `[gm(g, p)]` → ascending `(from, γ(p, g))` steps; first entry is at 0.
    pub gamma_timeline: Vec<Vec<(u64, GroupSet)>>,
    /// Every instant `b` at which some guard input changes by time alone
    /// (each takes effect once `b ≤ now`): crash times, `γ` timeline steps,
    /// indicator firings. Ascending, deduplicated.
    pub breakpoints: Vec<u64>,
}

impl Tables {
    pub fn new(system: &GroupSystem, pattern: FailurePattern, config: &RuntimeConfig) -> Self {
        let n = system.universe().max().map_or(0, |p| p.index() + 1);
        let n_groups = system.len();
        let mu = MuOracle::new(system, pattern.clone(), config.mu);

        let mut member_list = Vec::with_capacity(n_groups);
        let mut member_rank = vec![NO_RANK; n_groups * n];
        let mut member_base = Vec::with_capacity(n_groups + 1);
        let mut base = 0u32;
        for (g, members) in system.iter() {
            let list: Vec<ProcessId> = members.iter().collect();
            for (r, p) in list.iter().enumerate() {
                member_rank[g.index() * n + p.index()] = r as u16;
            }
            member_base.push(base);
            base += list.len() as u32;
            member_list.push(list);
        }
        member_base.push(base);

        let crash_at: Vec<u64> = (0..n)
            .map(|i| {
                pattern
                    .crash_time(ProcessId(i as u32))
                    .map_or(u64::MAX, |t| t.0)
            })
            .collect();

        // Pairs in lexicographic key order — the iteration order the seed's
        // BTreeMap used, kept so the digest stream stays canonical.
        let mut pairs = Vec::new();
        let mut self_pair = vec![0u32; n_groups];
        let mut adj: Vec<Vec<GroupId>> = vec![Vec::new(); n_groups];
        let mut adj_pair: Vec<Vec<u32>> = vec![Vec::new(); n_groups];
        let mut adj_pos = vec![NO_RANK; n_groups * n_groups];
        let mut pair_procs = Vec::new();
        for gi in 0..n_groups {
            let g = GroupId(gi as u32);
            for h in once(g).chain(system.peers(g) - GroupSet::first_n(gi + 1)) {
                let hi = h.index();
                let pid = pairs.len() as u32;
                pairs.push((g, h));
                // `adj[x]` receives every `h < x` while the outer loop is
                // still below `x`, then every `h ≥ x` at `gi = x`: ascending.
                let mut link = |from: usize, to: GroupId| {
                    adj_pos[from * n_groups + to.index()] = adj[from].len() as u16;
                    adj[from].push(to);
                    adj_pair[from].push(pid);
                };
                link(gi, h);
                if hi == gi {
                    self_pair[gi] = pid;
                    pair_procs.push(member_list[gi].clone());
                } else {
                    link(hi, g);
                    pair_procs.push(system.intersection(g, h).iter().collect());
                }
            }
        }
        let mut pair_rank = vec![NO_RANK; pairs.len() * n];
        for (pid, procs) in pair_procs.iter().enumerate() {
            for (r, p) in procs.iter().enumerate() {
                pair_rank[pid * n + p.index()] = r as u16;
            }
        }

        let indicator_at: Vec<u64> = pairs
            .iter()
            .map(|&(g, h)| {
                if config.variant != Variant::Strict || g == h {
                    return u64::MAX;
                }
                IndicatorOracle::new(
                    system.intersection(g, h),
                    system.members(g) | system.members(h),
                    pattern.clone(),
                    config.indicator_delay,
                    IndicatorMode::Truthful,
                )
                .fires_at()
                .map_or(u64::MAX, |t| t.0)
            })
            .collect();

        // Per (group, member): the consensus family H(p, g) and the γ(p, g)
        // timeline, both read off the families of ℱ(p) that contain g. Under
        // the pairwise weakening the runtime behaves as if ℱ = ∅: every
        // process proposes into the single (m, ∅) instance and γ(g) = ∅.
        let total_gm = base as usize;
        let mut h_sets = vec![GroupSet::EMPTY; total_gm];
        let mut gamma_timeline = vec![vec![(0, GroupSet::EMPTY)]; total_gm];
        if config.variant != Variant::Pairwise {
            for gi in 0..n_groups {
                let g = GroupId(gi as u32);
                let peers = system.peers(g);
                for (r, &p) in member_list[gi].iter().enumerate() {
                    let gm = member_base[gi] as usize + r;
                    // (γ(g)'s share of the family, its exclusion instant)
                    let shares: Vec<(GroupSet, Option<u64>)> = mu
                        .gamma()
                        .families_of(p)
                        .filter(|(f, _)| f.contains(g))
                        .map(|(f, from)| (f & peers, from.map(|t| t.0)))
                        .collect();
                    if !shares.is_empty() {
                        h_sets[gm] = shares.iter().fold(GroupSet::singleton(g), |h, s| h | s.0);
                    }
                    // γ(p, g, t) changes only at these families' exclusion
                    // instants (family faultiness is monotone).
                    let gamma_from = |t: u64| {
                        shares
                            .iter()
                            .filter(|(_, from)| from.is_none_or(|from| t < from))
                            .fold(GroupSet::EMPTY, |acc, s| acc | s.0)
                    };
                    let mut instants: Vec<u64> = shares.iter().filter_map(|s| s.1).collect();
                    instants.sort_unstable();
                    instants.dedup();
                    let tl = &mut gamma_timeline[gm];
                    tl[0].1 = gamma_from(0);
                    for b in instants {
                        let v = gamma_from(b);
                        if v != tl.last().expect("timeline starts at 0").1 {
                            tl.push((b, v));
                        }
                    }
                }
            }
        }
        // Families interned per group by value.
        let mut fam_rank = vec![0u16; total_gm];
        let mut fams: Vec<Vec<GroupSet>> = Vec::with_capacity(n_groups);
        for gi in 0..n_groups {
            let of_group = member_base[gi] as usize..member_base[gi + 1] as usize;
            let mut sets = h_sets[of_group.clone()].to_vec();
            sets.sort_unstable();
            sets.dedup();
            for gm in of_group {
                fam_rank[gm] = sets
                    .binary_search(&h_sets[gm])
                    .expect("own family interned") as u16;
            }
            fams.push(sets);
        }

        // Per-(group, member) pair views.
        let mut per_gp = vec![Vec::new(); total_gm];
        let mut self_gp = vec![
            GpEntry {
                h: GroupId(0),
                adj_idx: 0,
                pair: 0,
                prank: 0,
            };
            total_gm
        ];
        for gi in 0..n_groups {
            let g = GroupId(gi as u32);
            for (r, &p) in member_list[gi].iter().enumerate() {
                let gm = member_base[gi] as usize + r;
                let entries = &mut per_gp[gm];
                for h in system.groups_of(p) {
                    let a = adj_pos[gi * n_groups + h.index()];
                    debug_assert_ne!(a, NO_RANK, "p ∈ g ∩ h ⇒ h adjacent to g");
                    let pid = adj_pair[gi][a as usize];
                    let prank = pair_rank[pid as usize * n + p.index()];
                    debug_assert_ne!(prank, NO_RANK, "p ∈ g ∩ h ⇒ p relevant to the pair");
                    let entry = GpEntry {
                        h,
                        adj_idx: a,
                        pair: pid,
                        prank,
                    };
                    if h == g {
                        self_gp[gm] = entry;
                    }
                    entries.push(entry);
                }
            }
        }

        let mut breakpoints: Vec<u64> = crash_at
            .iter()
            .chain(&indicator_at)
            .copied()
            .filter(|&b| b != u64::MAX)
            .chain(
                gamma_timeline
                    .iter()
                    .flat_map(|tl| tl[1..].iter().map(|s| s.0)),
            )
            .collect();
        breakpoints.sort_unstable();
        breakpoints.dedup();

        Tables {
            system: system.clone(),
            pattern,
            mu,
            variant: config.variant,
            batch_max: config.batch_max.max(1),
            n,
            n_groups,
            member_list,
            member_rank,
            member_base,
            crash_at,
            pairs,
            self_pair,
            adj,
            adj_pos,
            adj_pair,
            pair_procs,
            indicator_at,
            per_gp,
            self_gp,
            fam_rank,
            fams,
            gamma_timeline,
            breakpoints,
        }
    }

    /// Rank of `p` among the members of `g` (panics in debug if `p ∉ g`).
    #[inline]
    pub fn rank(&self, g: GroupId, p: ProcessId) -> u16 {
        let r = self.member_rank[g.index() * self.n + p.index()];
        debug_assert_ne!(r, NO_RANK, "{p} ∉ {g}");
        r
    }

    /// Flat `(group, member)` index of `(g, p)`.
    #[inline]
    pub fn gm(&self, g: GroupId, p: ProcessId) -> usize {
        self.member_base[g.index()] as usize + self.rank(g, p) as usize
    }

    /// Position of `h` in `adj[g]` (panics in debug if not adjacent).
    #[inline]
    pub fn adj_of(&self, g: GroupId, h: GroupId) -> usize {
        let a = self.adj_pos[g.index() * self.n_groups + h.index()];
        debug_assert_ne!(a, NO_RANK, "{h} not adjacent to {g}");
        a as usize
    }

    /// `γ(p, g)` at time `now`, via the precomputed timeline.
    #[inline]
    pub fn gamma_at(&self, gm: usize, now: u64) -> GroupSet {
        let tl = &self.gamma_timeline[gm];
        let mut v = tl[0].1;
        for &(from, val) in &tl[1..] {
            if from <= now {
                v = val;
            } else {
                break;
            }
        }
        v
    }

    /// Whether `p` is alive at `now`.
    #[inline]
    pub fn alive(&self, p: ProcessId, now: u64) -> bool {
        now < self.crash_at[p.index()]
    }
}

/// A message entry of a pair's shared order: the `Datum::Msg` rows of the
/// seed's `Log`, kept sorted by `(slot, rep)` — slot order with the a-priori
/// `Datum` order breaking ties, exactly [`gam_objects::Log::before`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OrderEntry {
    pub slot: u64,
    pub rep: MessageId,
    pub unit: u32,
}

impl OrderEntry {
    #[inline]
    pub fn key(&self) -> (u64, MessageId) {
        (self.slot, self.rep)
    }
}

/// Mutable per-pair state: the slot high-water mark (announcement appends
/// consume slots too), the sorted message order and the frontier cursors.
///
/// `cursors[prank * 3 + k]` is the length of the longest order prefix whose
/// every unit has reached `THRESHOLDS[k]` at the `prank`-th relevant
/// process. Guards compare a cursor against a unit's order index; apply
/// keeps cursors *maximal* (phase rises re-advance them, bump reorders fix
/// them up), which is what makes the guards exact rather than conservative.
#[derive(Debug, Default)]
pub(crate) struct PairState {
    pub max_slot: u64,
    pub order: Vec<OrderEntry>,
    pub cursors: Vec<u32>,
}

impl Clone for PairState {
    fn clone(&self) -> Self {
        PairState {
            max_slot: self.max_slot,
            order: self.order.clone(),
            cursors: self.cursors.clone(),
        }
    }

    /// Keeps the two heap buffers: a chunk of pair states copied back on a
    /// restore (see [`CowVec`]) allocates nothing.
    fn clone_from(&mut self, src: &Self) {
        let PairState {
            max_slot,
            order,
            cursors,
        } = src;
        self.max_slot = *max_slot;
        self.order.clone_from(order);
        self.cursors.clone_from(cursors);
    }
}

/// Struct-of-arrays per-unit protocol state.
///
/// A *unit* is a run of consecutive entries of one group list `L_g` that
/// travel through Algorithm 1 as one message: one log entry per relevant
/// pair, one position announcement set, one consensus decision. Its
/// *representative* is its first message id — the id that appears in
/// actions and log orders, so a batch size of 1 reproduces the seed's
/// per-message behaviour action for action.
///
/// Per-unit columns are indexed by unit id; the per-adjacency, per-member
/// and per-family columns are flat slices addressed via the `*_base`
/// offsets (units of different groups have different widths).
///
/// Every column is a chunked [`CowVec`]: a runtime clone (= an engine
/// snapshot) shares the sealed chunks, and post-snapshot writes copy only
/// the touched chunk — O(delta) per branch point instead of O(state).
#[derive(Debug, Default)]
pub(crate) struct UnitArena {
    pub group: CowVec<GroupId>,
    pub start: CowVec<u32>,
    pub len: CowVec<u32>,
    pub rep: CowVec<MessageId>,
    adj_base: CowVec<u32>,
    mem_base: CowVec<u32>,
    fam_base: CowVec<u32>,
    /// Per `(unit, adjacency)`: slot of the unit's `Msg` entry in the pair
    /// (`0` = not appended yet; real slots start at 1).
    pub slot: CowVec<u64>,
    /// Per `(unit, adjacency)`: whether the entry is locked (line 23).
    pub locked: CowVec<bool>,
    /// Per `(unit, adjacency)`: index of the entry in the pair's order.
    pub order_idx: CowVec<u32>,
    /// Per `(unit, adjacency)`: highest announced position `(m, h, i)` in
    /// `LOG_g` (`0` = none). Positions are non-decreasing per `(unit, h)`,
    /// so the maximum doubles as the idempotence check.
    pub ann_max: CowVec<u64>,
    /// Per `(unit, adjacency)`: whether `(m, h) ∈ LOG_g` (line 29).
    pub stab: CowVec<bool>,
    /// Per `(unit, member rank)`: the phase at that member.
    pub phase: CowVec<Phase>,
    /// Per `(unit, family rank)`: the consensus decision (`0` = undecided;
    /// decided positions are ≥ 1).
    pub cons: CowVec<u64>,
}

impl UnitArena {
    /// Number of units.
    #[inline]
    pub fn count(&self) -> usize {
        self.group.len()
    }

    /// Appends a unit with zeroed per-adjacency/member/family state.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        g: GroupId,
        start: u32,
        len: u32,
        rep: MessageId,
        deg: usize,
        members: usize,
        fams: usize,
    ) -> u32 {
        let u = self.group.len() as u32;
        self.group.push(g);
        self.start.push(start);
        self.len.push(len);
        self.rep.push(rep);
        self.adj_base.push(self.slot.len() as u32);
        self.mem_base.push(self.phase.len() as u32);
        self.fam_base.push(self.cons.len() as u32);
        self.slot.resize(self.slot.len() + deg, 0);
        self.locked.resize(self.locked.len() + deg, false);
        self.order_idx.resize(self.order_idx.len() + deg, 0);
        self.ann_max.resize(self.ann_max.len() + deg, 0);
        self.stab.resize(self.stab.len() + deg, false);
        self.phase.resize(self.phase.len() + members, Phase::Start);
        self.cons.resize(self.cons.len() + fams, 0);
        u
    }

    /// Flat index of unit `u`'s `a`-th adjacency cell.
    #[inline]
    pub fn adj(&self, u: u32, a: usize) -> usize {
        self.adj_base[u as usize] as usize + a
    }

    /// Flat index of unit `u`'s phase cell at member rank `r`.
    #[inline]
    pub fn mem(&self, u: u32, r: u16) -> usize {
        self.mem_base[u as usize] as usize + r as usize
    }

    /// Flat index of unit `u`'s consensus cell at family rank `r`.
    #[inline]
    pub fn fam(&self, u: u32, r: u16) -> usize {
        self.fam_base[u as usize] as usize + r as usize
    }

    /// The phase of unit `u` at member `p` of its group.
    #[inline]
    pub fn phase_of(&self, t: &Tables, u: u32, p: ProcessId) -> Phase {
        let g = self.group[u as usize];
        self.phase[self.mem(u, t.rank(g, p))]
    }

    /// Adjacency cell of `unit`'s row in `pair` (for order-index fix-ups
    /// when a bump reorders a pair, and for the state walk).
    pub fn entry_adj(&self, t: &Tables, pair: usize, unit: u32) -> usize {
        let (a, b) = t.pairs[pair];
        let g2 = self.group[unit as usize];
        let other = if g2 == a { b } else { a };
        self.adj(unit, t.adj_of(g2, other))
    }

    /// Width of unit `u`'s adjacency block.
    #[inline]
    pub fn deg(&self, u: u32) -> usize {
        Self::cells(&self.adj_base, u, self.slot.len()).len()
    }

    /// Cells of unit `u` in a flat column addressed by `base` (of length
    /// `end`).
    fn cells(base: &CowVec<u32>, u: u32, end: usize) -> Range<usize> {
        let u = u as usize;
        base[u] as usize..base.get(u + 1).map_or(end, |&b| b as usize)
    }

    /// Appends a copy of each `(arena, unit)` of `units`, in order, as new
    /// units of `self` — every arena over the same tables. Column by
    /// column, so each column is written a chunk at a time: this is how
    /// the sharded commit merge re-sequences the units its workers
    /// allocated.
    pub fn extend_from(&mut self, units: &[(&UnitArena, u32)]) {
        fn gather<T: Clone>(
            dst: &mut CowVec<T>,
            units: &[(&UnitArena, u32)],
            col: impl Fn(&UnitArena) -> &CowVec<T>,
            span: impl Fn(&UnitArena, u32) -> Range<usize>,
        ) {
            dst.extend(units.iter().flat_map(|&(a, u)| {
                let c = col(a);
                span(a, u).map(move |i| c[i].clone())
            }));
        }
        /// Where each copied unit's block starts in a column now `len` long.
        fn bases(
            dst: &mut CowVec<u32>,
            units: &[(&UnitArena, u32)],
            len: usize,
            span: impl Fn(&UnitArena, u32) -> Range<usize>,
        ) {
            dst.extend(units.iter().scan(len, |next, &(a, u)| {
                let at = *next as u32;
                *next += span(a, u).len();
                Some(at)
            }));
        }
        let unit = |_: &UnitArena, u: u32| u as usize..u as usize + 1;
        let adj = |a: &UnitArena, u| Self::cells(&a.adj_base, u, a.slot.len());
        let mem = |a: &UnitArena, u| Self::cells(&a.mem_base, u, a.phase.len());
        let fam = |a: &UnitArena, u| Self::cells(&a.fam_base, u, a.cons.len());
        let UnitArena {
            group,
            start,
            len,
            rep,
            adj_base,
            mem_base,
            fam_base,
            slot,
            locked,
            order_idx,
            ann_max,
            stab,
            phase,
            cons,
        } = self;
        gather(group, units, |a| &a.group, unit);
        gather(start, units, |a| &a.start, unit);
        gather(len, units, |a| &a.len, unit);
        gather(rep, units, |a| &a.rep, unit);
        bases(adj_base, units, slot.len(), adj);
        bases(mem_base, units, phase.len(), mem);
        bases(fam_base, units, cons.len(), fam);
        gather(slot, units, |a| &a.slot, adj);
        gather(locked, units, |a| &a.locked, adj);
        gather(order_idx, units, |a| &a.order_idx, adj);
        gather(ann_max, units, |a| &a.ann_max, adj);
        gather(stab, units, |a| &a.stab, adj);
        gather(phase, units, |a| &a.phase, mem);
        gather(cons, units, |a| &a.cons, fam);
    }

    /// [`CowVec::refill`], column by column.
    pub fn refill(&mut self, src: &Self, how: Refill) {
        let UnitArena {
            group,
            start,
            len,
            rep,
            adj_base,
            mem_base,
            fam_base,
            slot,
            locked,
            order_idx,
            ann_max,
            stab,
            phase,
            cons,
        } = src;
        self.group.refill(group, how);
        self.start.refill(start, how);
        self.len.refill(len, how);
        self.rep.refill(rep, how);
        self.adj_base.refill(adj_base, how);
        self.mem_base.refill(mem_base, how);
        self.fam_base.refill(fam_base, how);
        self.slot.refill(slot, how);
        self.locked.refill(locked, how);
        self.order_idx.refill(order_idx, how);
        self.ann_max.refill(ann_max, how);
        self.stab.refill(stab, how);
        self.phase.refill(phase, how);
        self.cons.refill(cons, how);
    }

    /// Every column, for the runtime's byte and copy accounting.
    pub fn columns(&self) -> [&dyn ColumnStats; 14] {
        let UnitArena {
            group,
            start,
            len,
            rep,
            adj_base,
            mem_base,
            fam_base,
            slot,
            locked,
            order_idx,
            ann_max,
            stab,
            phase,
            cons,
        } = self;
        [
            group, start, len, rep, adj_base, mem_base, fam_base, slot, locked, order_idx, ann_max,
            stab, phase, cons,
        ]
    }
}

impl Clone for UnitArena {
    fn clone(&self) -> Self {
        let mut out = UnitArena::default();
        out.refill(self, Refill::Share);
        out
    }

    fn clone_from(&mut self, src: &Self) {
        self.refill(src, Refill::CopyBack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_groups::topology;
    use gam_kernel::Time;

    fn tables(gs: &GroupSystem) -> Tables {
        Tables::new(
            gs,
            FailurePattern::all_correct(gs.universe()),
            &RuntimeConfig::default(),
        )
    }

    #[test]
    fn pairs_are_interned_in_lexicographic_key_order() {
        let gs = topology::fig1();
        let t = tables(&gs);
        let mut keys = t.pairs.clone();
        keys.sort_unstable();
        assert_eq!(keys, t.pairs, "pair ids follow BTreeMap key order");
        // every self pair plus every intersecting pair
        assert_eq!(
            t.pairs.len(),
            gs.len() + gs.intersecting_pairs().len(),
            "one id per log object"
        );
        for gi in 0..gs.len() {
            let g = GroupId(gi as u32);
            assert_eq!(t.pairs[t.self_pair[gi] as usize], (g, g));
        }
    }

    #[test]
    fn ranks_and_adjacency_round_trip() {
        let gs = topology::fig1();
        let t = tables(&gs);
        for (g, members) in gs.iter() {
            for p in members {
                let r = t.rank(g, p);
                assert_eq!(t.member_list[g.index()][r as usize], p);
            }
            for (a, &h) in t.adj[g.index()].iter().enumerate() {
                assert_eq!(t.adj_of(g, h), a);
                assert!(h == g || gs.intersecting(g, h));
            }
        }
    }

    #[test]
    fn gamma_timeline_matches_oracle_queries() {
        let fig1 = topology::fig1();
        let fig1_crashes = vec![(ProcessId(1), Time(5)), (ProcessId(2), Time(7))];
        // A dense system (hundreds of cyclic families). Losing one edge
        // there excludes families but no group of any γ(g): other cycles
        // still join its endpoints. Losing every edge of g1 fails each
        // family containing g1, so every γ(g) drops g1 — a real step.
        let dense = topology::random(64, 8, 0.45, 7);
        let last = *dense.intersecting_pairs().last().expect("dense");
        let dense_crashes = dense
            .intersecting_pairs()
            .into_iter()
            .filter(|&(g, _)| g == GroupId(0))
            .map(|e| (e, Time(5)))
            .chain([(last, Time(7))])
            .flat_map(|((g, h), at)| dense.intersection(g, h).iter().map(move |p| (p, at)))
            .collect();
        for (gs, crashes) in [(fig1, fig1_crashes), (dense, dense_crashes)] {
            let pattern = FailurePattern::from_crashes(gs.universe(), crashes);
            for gamma_delay in [0, 3] {
                let mut cfg = RuntimeConfig::default();
                cfg.mu.gamma_delay = gamma_delay;
                let t = Tables::new(&gs, pattern.clone(), &cfg);
                let mut steps = 0;
                for (g, members) in gs.iter() {
                    for p in members {
                        let gm = t.gm(g, p);
                        steps += t.gamma_timeline[gm].len() - 1;
                        for now in 0..20u64 {
                            assert_eq!(
                                t.gamma_at(gm, now),
                                t.mu.gamma_groups(p, g, Time(now)),
                                "γ({p}, {g}, {now}) delay {gamma_delay}"
                            );
                        }
                    }
                }
                assert!(steps > 0, "some timeline must change");
            }
        }
    }

    #[test]
    fn indicator_instants_and_breakpoints_match_the_oracles() {
        let gs = topology::fig1();
        // g1 ∩ g2 = {p1} dies at 5; g2 ∩ g3 = {p2} never does.
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(5))]);
        let mut cfg = RuntimeConfig {
            variant: Variant::Strict,
            indicator_delay: 7,
            ..Default::default()
        };
        cfg.mu.gamma_delay = 3;
        let t = Tables::new(&gs, pattern.clone(), &cfg);
        let mut fired = 0;
        for (pid, &(g, h)) in t.pairs.iter().enumerate() {
            if g == h {
                assert_eq!(
                    t.indicator_at[pid],
                    u64::MAX,
                    "self pairs carry no indicator"
                );
                continue;
            }
            let oracle = IndicatorOracle::new(
                gs.intersection(g, h),
                gs.members(g) | gs.members(h),
                pattern.clone(),
                cfg.indicator_delay,
                IndicatorMode::Truthful,
            );
            for now in 0..30u64 {
                for p in gs.members(g) {
                    assert_eq!(
                        Some(t.indicator_at[pid] <= now),
                        oracle.indicates(p, Time(now)),
                        "1^({g}∩{h}) at {p}, time {now}"
                    );
                }
            }
            fired += usize::from(t.indicator_at[pid] != u64::MAX);
        }
        assert!(fired > 0, "some indicator must fire");
        // Every instant a guard input steps at, once each, ascending: the
        // crash, the indicator firing, and the γ exclusions 3 ticks after
        // the crash.
        assert!(t.breakpoints.windows(2).all(|w| w[0] < w[1]));
        for b in [5, 5 + 7, 5 + 3] {
            assert!(t.breakpoints.contains(&b), "{b} ∉ {:?}", t.breakpoints);
        }
        let steps = t.gamma_timeline.iter().flat_map(|tl| &tl[1..]);
        assert!(steps.clone().count() > 0 && steps.clone().all(|s| t.breakpoints.contains(&s.0)));
        assert!(
            tables(&gs).breakpoints.is_empty(),
            "crash-free: no breakpoint"
        );
    }

    #[test]
    fn pairwise_variant_interns_a_single_empty_family() {
        let gs = topology::ring(3, 2);
        let cfg = RuntimeConfig {
            variant: Variant::Pairwise,
            ..Default::default()
        };
        let t = Tables::new(&gs, FailurePattern::all_correct(gs.universe()), &cfg);
        for gi in 0..gs.len() {
            assert_eq!(t.fams[gi], vec![GroupSet::EMPTY]);
        }
        assert!(t.fam_rank.iter().all(|&r| r == 0));
        for gm in 0..t.fam_rank.len() {
            assert_eq!(t.gamma_at(gm, 0), GroupSet::EMPTY);
        }
    }

    #[test]
    fn unit_arena_blocks_are_disjoint() {
        let mut a = UnitArena::default();
        let u0 = a.push(GroupId(0), 0, 2, MessageId(0), 3, 4, 1);
        let u1 = a.push(GroupId(1), 0, 1, MessageId(2), 2, 2, 2);
        assert_eq!(a.count(), 2);
        assert_eq!(a.deg(u0), 3);
        assert_eq!(a.deg(u1), 2);
        assert_eq!(a.adj(u1, 0), 3);
        assert_eq!(a.mem(u1, 0), 4);
        assert_eq!(a.fam(u1, 1), 2);
        let cell = a.adj(u0, 2);
        a.slot[cell] = 9;
        assert_eq!(a.slot[a.adj(u1, 0)], 0, "blocks do not alias");
    }

    #[test]
    fn message_arena_round_trips() {
        let mut a = MessageArena::default();
        assert!(a.is_empty());
        let info = MessageInfo {
            src: ProcessId(1),
            group: GroupId(2),
            payload: 7,
        };
        let m = a.push(info);
        assert_eq!(m, MessageId(0));
        assert_eq!(a.group(m), GroupId(2));
        assert_eq!(a.get(m), info);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![info]);
    }
}
