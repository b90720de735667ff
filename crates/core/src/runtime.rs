//! The Algorithm 1 runtime — genuine atomic multicast from `μ`.
//!
//! This module executes Algorithm 1 of the paper at the shared-memory level:
//! the logs `LOG_{g∩h}` and consensus objects `CONS_{m,𝔣}` are linearizable
//! shared objects, and each simulator step executes one *enabled action*
//! (`multicast`, `pending`, `commit`, `stabilize`, `stable`, `deliver`) at
//! one process, exactly as the `pre:`/`eff:` pseudo-code prescribes. Since
//! one operation applies at a time, the execution *is* the linearization the
//! correctness proofs of §4.4 reason over.
//!
//! The client layer implements the Proposition 1 reduction from vanilla to
//! *group sequential* atomic multicast: each group `g` has a shared list
//! `L_g`; a submission appends to `L_g`, and members of `g` help-multicast
//! listed messages in order, each one only after its predecessor was
//! delivered locally.
//!
//! Two variations are provided as modes (§6):
//! - [`Variant::Strict`] — real-time order, replacing the line-32 guard with
//!   "`(m,h) ∈ LOG_g` or `1^{g∩h}` fired", for **all** `h` intersecting `g`;
//! - [`Variant::Pairwise`] — the pairwise-ordering weakening of §7, which
//!   needs no `γ` (the runtime behaves as if `ℱ = ∅`).
//!
//! # Flat state representation
//!
//! The runtime stores its state in the index-interned dense tables of
//! [`crate::arena`] rather than key-ordered maps: group pairs, adjacency
//! positions, member ranks and consensus families are interned to small
//! integers at construction ([`crate::arena`]'s `Tables`, shared behind an
//! `Arc`), and all evolving protocol state lives in struct-of-arrays unit
//! and pair tables. An action borrows the tables beside the columns it
//! writes (`Step`) instead of cloning the `Arc`, so firing one touches no
//! reference count that clones on other threads share. The "every message
//! before `m` reached phase `X`" guards are maintained incrementally as
//! per-pair *frontier cursors* — by Claim 8 phases only rise and slots only
//! grow, so the satisfying prefix of each pair's message order is a
//! monotone frontier; `apply` re-advances the affected cursors eagerly and
//! a guard is a single integer comparison.
//!
//! # The ready set
//!
//! What each process can do next is kept as *derived state*: per process
//! the sorted list of its enabled actions (its *row*), made of *cells* —
//! `(q, inject g)`, the help-multicast guard of one group of `q`, and
//! `(q, u)`, the guards of unit `u` at the phase `q` has it in; `cell_each`
//! is the one place the guards are written. A row is trusted until a cell
//! of it, or all of it, is marked stale, and brought up to date only when
//! a reader next needs it: a stale cell is dropped from the sorted row and
//! re-evaluated on its own, a wholly stale row re-derived.
//!
//! Which units a derivation looks at follows the frontiers. Below `stable`
//! every unit can act; `active[q]` lists those, the *in-flight* units of
//! `q`. At `stable` a unit waits for `deliver`, whose guard (lines 35–36)
//! asks that everything before it in `LOG_g` be delivered at `q`. Phases
//! only rise (Claim 8) and `q`'s deliver cursor in the self pair is
//! maximal, so of the units `q` holds in `stable` only the entry *at* that
//! cursor — one per group — can pass: the derivation reads that head and
//! never the backlog behind it.
//!
//! Cells go stale by the genuineness footprint of what happened: an action
//! of `p` about a unit `u` of group `g` writes only `g`'s pair logs, `u`'s
//! cells and `p`'s rows, and only some of those are read by another
//! process's guards.
//!
//! | event | stale cells | the write a guard reads |
//! |---|---|---|
//! | `Inject` | `(q, inject g)`, `(q, u)` at every member `q` of `g` | `unit_of`; `u` enters every in-flight list |
//! | `Pending` | `(p, u)`; `(q, u)` at members in `pending` on `u` | `ann_max`, read by commit |
//! | `Commit` | `(p, u)`; **whole rows** of each pair the lock *reorders* | order indices and frontier cursors of that pair |
//! | `Stabilize` | `(q, u)` at members in `commit` on `u` (`p` is one) | `stab`, read by stabilize and stable |
//! | `Stable` | `(p, u)` | `p`'s phase; `u` leaves `p`'s in-flight list |
//! | `Deliver` | `(p, u)`, `(p, inject g)` | `p`'s phase, inject cursor, delivery log |
//! | a phase rise advances a cursor of `p` | `(p, head)`, the unit now at that cursor | the frontier: only its new head can newly pass |
//! | `multicast` to `g` | `(q, inject g)` at every member | `L_g`, read by inject |
//! | clock crosses a breakpoint | **whole rows**, every process | liveness, a `γ` timeline step, an indicator firing |
//! | shard commit merge | **whole rows**, every process | the shard-owned columns |
//!
//! Time is not special-cased per scenario: crashes and detector outputs are
//! input events at instants fixed by the failure pattern, collected once as
//! the sorted `breakpoints` of the arena tables, and a tick that crosses
//! none — every tick of a crash-free run — touches nothing. The ready set
//! is not protocol state: it stays out of `fold_state`, fingerprints,
//! digests and `snapshot_cost_bytes`; a `Clone` copies it along.
//!
//! # One run loop
//!
//! Every driver is the same loop — ask a policy for a pick, fire it, count
//! it; with nothing to pick, stop if nothing is owed and otherwise let one
//! tick pass — and differs only in the policy:
//!
//! - *round-robin-min* ([`Runtime::run_sustained`], and [`Runtime::run`]
//!   over every process): the first process at or after a stored cursor
//!   with an enabled action, and the head of its row. The scan steps over
//!   `stale | nonempty` only, so idle processes cost nothing;
//! - *sourced* ([`Runtime::run_with_source`]): the choice space of
//!   [`Runtime::options_into`], picked from by a [`ScheduleSource`] — a
//!   random run is this loop under `RandomSource`; the runtime holds no
//!   generator of its own;
//! - *recorded slot* (the shard recorder of the parallel driver): the
//!   round-robin pick over one shard's processes, its global visit slot
//!   recovered from how far the scan travelled and stamped on the clock.
//!
//! `gam-engine`'s `Executor` drives the same two halves from outside:
//! [`Runtime::options_into`] and [`Runtime::fire_enabled`].
//!
//! # Batching
//!
//! [`RuntimeConfig::batch_max`] > 1 turns on injection-level batching: an
//! `Inject` picks up to `batch_max` consecutive not-yet-injected entries of
//! `L_g` as one *unit* that travels through Algorithm 1 as a single message
//! (one log entry per pair, one consensus decision), amortising one
//! coordination decision across the whole batch; `Deliver` expands the unit
//! into per-message deliveries in list order. The unit is identified by its
//! first message id, so `batch_max ≤ 1` reproduces the unbatched runtime
//! action for action. Batching preserves every per-group delivery sequence
//! and the pairwise/global order properties over units; concurrently with a
//! unit boundary shift, cross-group interleavings of *individual* messages
//! may differ from an unbatched run (a unit delivers atomically), which is
//! why the equivalence suite compares per-group projections and spec
//! verdicts.

use crate::arena::{
    GpEntry, MessageArena, OrderEntry, PairState, Tables, UnitArena, NO_UNIT, THRESHOLDS, T_COMMIT,
    T_DELIVER, T_STABLE,
};
use crate::message::{MessageId, MessageInfo};
use crate::phase::Phase;
use gam_detectors::{MuConfig, MuOracle};
use gam_groups::{GroupId, GroupSystem};
use gam_kernel::{
    ColumnStats, CowVec, FailurePattern, ProcessId, ProcessSet, Refill, RunOutcome, ScheduleSource,
    Time,
};
use std::sync::Arc;

/// Which variation of atomic multicast the runtime solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// Vanilla (global total order) genuine atomic multicast — Algorithm 1
    /// with the candidate `μ`.
    #[default]
    Standard,
    /// Strict (real-time) ordering — §6.1, requires `μ ∧ (∧ 1^{g∩h})`.
    Strict,
    /// Pairwise ordering — §7, requires only `(∧ Σ_{g∩h}) ∧ (∧ Ω_g)`;
    /// delivery cycles across ≥ 3 groups are permitted.
    Pairwise,
}

/// Configuration of a [`Runtime`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeConfig {
    /// Which problem variation to solve.
    pub variant: Variant,
    /// Tuning of the `μ` oracle components.
    pub mu: MuConfig,
    /// Detection latency of the `1^{g∩h}` indicators (strict variant only).
    pub indicator_delay: u64,
    /// Maximum number of consecutive `L_g` entries one `Inject` bundles
    /// into a single protocol unit (one consensus decision for the whole
    /// batch). `0` and `1` both disable batching and reproduce the
    /// per-message semantics exactly.
    pub batch_max: u32,
}

/// An enabled action of Algorithm 1, at one process, about one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Action {
    /// Help-multicast the next listed message of `L_g` (line 7 + Prop. 1).
    Inject(GroupId, MessageId),
    /// Lines 8–15.
    Pending(MessageId),
    /// Lines 16–24.
    Commit(MessageId),
    /// Lines 25–29, for group `h`.
    Stabilize(MessageId, GroupId),
    /// Lines 30–33.
    Stable(MessageId),
    /// Lines 34–37.
    Deliver(MessageId),
}

/// The classification of an enabled action that the independence relation
/// (`gam_engine::independence`) keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// Help-multicast the next listed message (line 7 + Prop. 1).
    Inject,
    /// Lines 8–15.
    Pending,
    /// Lines 16–24.
    Commit,
    /// Lines 25–29.
    Stabilize,
    /// Lines 30–33.
    Stable,
    /// Lines 34–37 — the only action that records wall-clock state (local
    /// delivery times), which is why the independence relation never
    /// commutes deliveries.
    Deliver,
}

/// An enabled action, described for the independence relation
/// (`gam_engine::independence`): who steps, what kind of action fires, and
/// which group's protocol state it touches.
///
/// An action of process `p` about a unit of group `g` reads and writes
/// only the shared pairs `{g, h}` for `h ∈ 𝒢(p)` (see the arena
/// module's `per_gp` views), so two descriptors' touched pair
/// sets are disjoint iff their groups differ and neither process belongs
/// to the other action's group — the commutation test of
/// `gam_engine::actions_commute`. Kept for the gated benchmark, the one
/// caller of [`Runtime::describe_enabled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionDesc {
    /// The stepping process.
    pub pid: ProcessId,
    /// The action kind.
    pub kind: ActionKind,
    /// The group whose unit/pair state the action touches.
    pub group: GroupId,
    /// The representative message of the action's unit (the injected
    /// message for `Inject`) — a stable diagnostic label.
    pub rep: MessageId,
    /// Disambiguator within the kind: the target group of a `Stabilize`
    /// (several can be enabled at once for the same unit), `0` otherwise.
    /// Descriptor equality then identifies one enabled action exactly.
    pub aux: u32,
}

/// What a single [`Runtime::fire_enabled`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fired {
    /// Whether an action actually fired (`false` when the process crashed
    /// at the very tick of its step — the step is consumed but has no
    /// effect, exactly as in the run loops).
    pub fired: bool,
    /// The message delivered by the action, if it was a `Deliver` — the
    /// unit's representative (first) message under batching.
    pub delivered: Option<MessageId>,
    /// How many messages the action delivered (> 1 only for batched units).
    pub delivered_count: u32,
}

/// A recorded delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The delivered message.
    pub msg: MessageId,
    /// When the delivery happened.
    pub at: Time,
}

/// Everything a property checker needs to know about a finished run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The group system of the run.
    pub system: GroupSystem,
    /// The failure pattern of the run.
    pub pattern: FailurePattern,
    /// Message metadata, indexed by [`MessageId`].
    pub messages: Vec<MessageInfo>,
    /// Submission (user-level multicast) time per message.
    pub multicast_at: Vec<Time>,
    /// Per-process local delivery sequences, in delivery order.
    pub delivered: Vec<Vec<Delivery>>,
    /// Per-process action counts (the "steps" minimality quantifies over).
    pub actions_of: Vec<u64>,
    /// Whether the run reached quiescence within its budget.
    pub quiescent: bool,
}

impl RunReport {
    /// The local delivery sequence of `p`, as message ids.
    pub fn delivered_by(&self, p: ProcessId) -> Vec<MessageId> {
        self.delivered[p.index()].iter().map(|d| d.msg).collect()
    }

    /// Whether `p` delivered `m`.
    pub fn has_delivered(&self, p: ProcessId, m: MessageId) -> bool {
        self.delivered[p.index()].iter().any(|d| d.msg == m)
    }

    /// The earliest delivery time of `m` across processes, if delivered.
    pub fn first_delivery(&self, m: MessageId) -> Option<Time> {
        self.delivered
            .iter()
            .flatten()
            .filter(|d| d.msg == m)
            .map(|d| d.at)
            .min()
    }
}

/// Deterministic counters of the ready set, read with
/// [`Runtime::ready_counters`]: functions of the operations applied to the
/// runtime (and copied by `Clone` like everything else), never of the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadyCounters {
    /// Rows re-derived from protocol state — one pass over every cell of
    /// one process each.
    pub rows_refreshed: u64,
    /// Rows brought up to date by re-evaluating their stale cells only.
    pub rows_patched: u64,
    /// Rows a reader took from the cache as they stood.
    pub rows_reused: u64,
    /// Cells evaluated by either: one per inject guard of a group and per
    /// unit whose guards (those of its phase) ran.
    pub guards_evaluated: u64,
    /// Of those, the cells that enabled at least one action.
    pub guards_passed: u64,
    /// Times the clock crossed a breakpoint and every row went stale.
    pub breakpoint_flushes: u64,
}

/// One cell of a process's row: the actions one guard group can enable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// Help-multicasting the next listed message of this group.
    Inject(GroupId),
    /// This unit, at whatever phase the process has it in.
    Unit(u32),
}

/// Stale cells a row collects before it is cheaper to re-derive it whole.
const STALE_CELLS_MAX: usize = 16;

/// The ready set: per process, its enabled actions in the deterministic
/// `Action` order, kept as *derived state*. A row is trusted unless its
/// process is in `stale`; `apply`, `multicast` and the clock mark stale
/// exactly the cells they can change (see the module docs), and a row is
/// brought up to date only when a reader next needs it. Nothing here is
/// protocol state: it stays out of `fold_state`, fingerprints, digests and
/// `snapshot_cost_bytes`.
#[derive(Debug, Default)]
struct ReadySet {
    /// Per process: the sorted enabled actions (empty for a crashed
    /// process). Meaningful only while the process is not in `stale`.
    rows: Vec<Vec<Action>>,
    /// Processes whose row must be brought up to date before it is read.
    stale: ProcessSet,
    /// Of those, the processes whose row is re-derived whole.
    whole: ProcessSet,
    /// Per process in `stale - whole`: the cells to re-evaluate.
    cells: Vec<Vec<Cell>>,
    /// Processes whose row, when last read, was non-empty — so a scan
    /// over `stale | nonempty` never visits an idle process.
    nonempty: ProcessSet,
    /// Index of the first of `Tables::breakpoints` after `now`.
    next_bp: usize,
    counters: ReadyCounters,
}

impl Clone for ReadySet {
    fn clone(&self) -> Self {
        let mut out = ReadySet::default();
        out.clone_from(self);
        out
    }

    /// Keeps every row's buffer: a restore rewrites the rows in place.
    fn clone_from(&mut self, src: &Self) {
        let ReadySet {
            rows,
            stale,
            whole,
            cells,
            nonempty,
            next_bp,
            counters,
        } = src;
        self.rows.clone_from(rows);
        self.stale = *stale;
        self.whole = *whole;
        self.cells.clone_from(cells);
        self.nonempty = *nonempty;
        self.next_bp = *next_bp;
        self.counters = *counters;
    }
}

impl ReadySet {
    /// Marks the rows of `set` wholly stale.
    fn stale_rows(&mut self, set: ProcessSet) {
        self.stale |= set;
        self.whole |= set;
    }

    /// Marks one cell of `q`'s row stale.
    fn stale_cell(&mut self, q: ProcessId, cell: Cell) {
        if self.whole.contains(q) {
            return;
        }
        self.stale.insert(q);
        let cells = &mut self.cells[q.index()];
        if cells.len() == STALE_CELLS_MAX {
            self.whole.insert(q);
        } else if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
}

/// What a pick policy of the run loop decided for one step.
enum Pick {
    /// Fire this sub-choice of this process.
    Choice(ProcessId, usize),
    /// Fire this action, the head of this process's row.
    Least(ProcessId, Action),
    /// Nothing is enabled: stop if nothing is owed, else let time pass.
    Idle,
    /// The schedule source has no more decisions.
    Stop,
}

/// Chunk capacity of the chunked per-process/per-message columns: small
/// enough that a post-snapshot write copies little, big enough that the
/// pointer tables stay tiny.
const COL_CHUNK: usize = 32;

/// Chunk capacity of the chunked rows holding heap payloads (pair states,
/// active lists, delivery logs): a copied chunk deep-clones its rows, so
/// these chunks stay narrow.
const ROW_CHUNK: usize = 4;

/// The Algorithm 1 runtime. See the module docs.
///
/// All evolving state lives in [`CowVec`] columns or behind `Arc`s, so a
/// `Clone` (= an engine snapshot) copies chunk pointer tables and a few
/// plain scalars — O(state / chunk) — and continuing execution after a
/// snapshot copies only the chunks it actually touches. `clone_from` (= an
/// engine restore) is the copy-back of [`CowVec`]'s module docs, field by
/// field: a runtime that rewinds to the same checkpoint repeatedly keeps
/// its own copies of the chunks it writes and stops allocating.
#[derive(Debug)]
pub struct Runtime {
    /// Immutable interned topology/oracle tables, shared across clones —
    /// this is what keeps engine snapshots cheap.
    pub(crate) tables: Arc<Tables>,
    now: Time,
    // Shared objects, flat.
    pub(crate) pairs: CowVec<PairState>,
    pub(crate) units: UnitArena,
    /// Append-only submission lists `L_g`, shared across clones (mutated
    /// only by [`Runtime::multicast`], never by protocol actions).
    pub(crate) lists: Arc<Vec<Vec<MessageId>>>,
    /// Per message: owning unit, or [`NO_UNIT`] before injection.
    pub(crate) unit_of: CowVec<u32>,
    /// Per group: first `L_g` index not yet claimed by a unit.
    pub(crate) next_new: Vec<u32>,
    // Message metadata.
    arena: MessageArena,
    /// Submission times, shared like `lists`.
    multicast_at: Arc<Vec<Time>>,
    // Per-process state.
    /// Per `(group, member)`: first `L_g` index not locally delivered —
    /// the inject guard's cursor.
    pub(crate) inject_cursor: CowVec<u32>,
    /// Per process: its *in-flight* units — addressed to it and below
    /// `stable` there (`Inject` adds the unit at every member, `Stable`
    /// removes it). The backlog waiting in `stable` is reached through the
    /// deliver frontier of `LOG_g` instead; see the module docs.
    pub(crate) active: CowVec<Vec<u32>>,
    pub(crate) delivered: CowVec<Vec<Delivery>>,
    pub(crate) actions_of: CowVec<u64>,
    /// Per process: undelivered messages addressed to it (obligations).
    pub(crate) owed: CowVec<u64>,
    pub(crate) rr_cursor: usize,
    ready: ReadySet,
}

/// Points `dst` at what `src` points at, touching no reference count when
/// it already does.
fn share<T>(dst: &mut Arc<T>, src: &Arc<T>) {
    if !Arc::ptr_eq(dst, src) {
        *dst = Arc::clone(src);
    }
}

impl Clone for Runtime {
    fn clone(&self) -> Self {
        Runtime {
            tables: Arc::clone(&self.tables),
            now: self.now,
            pairs: self.pairs.clone(),
            units: self.units.clone(),
            lists: Arc::clone(&self.lists),
            unit_of: self.unit_of.clone(),
            next_new: self.next_new.clone(),
            arena: self.arena.clone(),
            multicast_at: Arc::clone(&self.multicast_at),
            inject_cursor: self.inject_cursor.clone(),
            active: self.active.clone(),
            delivered: self.delivered.clone(),
            actions_of: self.actions_of.clone(),
            owed: self.owed.clone(),
            rr_cursor: self.rr_cursor,
            ready: self.ready.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.refill(src, Refill::CopyBack);
    }
}

impl Runtime {
    /// Makes this runtime the one `src` is, reusing the storage it already
    /// holds — [`CowVec::refill`] on every column, `Vec::clone_from` on the
    /// plain vectors and the ready set's rows. [`Refill::CopyBack`] is a
    /// restore (what `clone_from` does); [`Refill::Share`] takes a
    /// checkpoint of `src` into the storage of an old one, sharing every
    /// chunk exactly as `clone` would.
    pub fn refill(&mut self, src: &Self, how: Refill) {
        let Runtime {
            tables,
            now,
            pairs,
            units,
            lists,
            unit_of,
            next_new,
            arena,
            multicast_at,
            inject_cursor,
            active,
            delivered,
            actions_of,
            owed,
            rr_cursor,
            ready,
        } = src;
        share(&mut self.tables, tables);
        self.now = *now;
        self.pairs.refill(pairs, how);
        self.units.refill(units, how);
        share(&mut self.lists, lists);
        self.unit_of.refill(unit_of, how);
        self.next_new.clone_from(next_new);
        self.arena.refill(arena, how);
        share(&mut self.multicast_at, multicast_at);
        self.inject_cursor.refill(inject_cursor, how);
        self.active.refill(active, how);
        self.delivered.refill(delivered, how);
        self.actions_of.refill(actions_of, how);
        self.owed.refill(owed, how);
        self.rr_cursor = *rr_cursor;
        self.ready.clone_from(ready);
    }

    /// Every chunked column of the runtime, for byte and copy accounting.
    fn columns(&self) -> impl Iterator<Item = &dyn ColumnStats> {
        let own: [&dyn ColumnStats; 7] = [
            &self.pairs,
            &self.unit_of,
            &self.inject_cursor,
            &self.active,
            &self.delivered,
            &self.actions_of,
            &self.owed,
        ];
        own.into_iter()
            .chain(self.units.columns())
            .chain(self.arena.columns())
    }

    /// Chunks this runtime has copied element by element so far, over all
    /// its columns: copy-on-write copies (a write met a chunk a checkpoint
    /// still shares) plus restore copy-backs — see
    /// [`CowVec::chunk_copies`]. Deterministic; a `clone` starts at zero
    /// and a restore leaves the count running, so the difference across a
    /// stretch of work is what that stretch copied.
    pub fn chunk_copies(&self) -> u64 {
        self.columns().map(ColumnStats::chunk_copies).sum()
    }

    /// Builds a runtime over `system` with the given failure pattern.
    pub fn new(system: &GroupSystem, pattern: FailurePattern, config: RuntimeConfig) -> Self {
        let tables = Arc::new(Tables::new(system, pattern, &config));
        let n = tables.n;
        let pairs = tables
            .pair_procs
            .iter()
            .map(|procs| PairState {
                max_slot: 0,
                order: Vec::new(),
                cursors: vec![0; procs.len() * 3],
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "`member_base` starts with 0 and has one more entry than there are groups"
        )]
        let total_gm = *tables.member_base.last().expect("base table non-empty") as usize;
        Runtime {
            now: Time::ZERO,
            pairs: CowVec::from_vec(ROW_CHUNK, pairs),
            units: UnitArena::default(),
            lists: Arc::new(vec![Vec::new(); tables.n_groups]),
            unit_of: CowVec::new(COL_CHUNK),
            next_new: vec![0; tables.n_groups],
            arena: MessageArena::default(),
            multicast_at: Arc::new(Vec::new()),
            inject_cursor: CowVec::from_vec(COL_CHUNK, vec![0; total_gm]),
            active: CowVec::from_vec(ROW_CHUNK, vec![Vec::new(); n]),
            delivered: CowVec::from_vec(ROW_CHUNK, vec![Vec::new(); n]),
            actions_of: CowVec::from_vec(COL_CHUNK, vec![0; n]),
            owed: CowVec::from_vec(COL_CHUNK, vec![0; n]),
            rr_cursor: 0,
            ready: ReadySet {
                rows: vec![Vec::new(); n],
                stale: ProcessSet::first_n(n),
                whole: ProcessSet::first_n(n),
                cells: vec![Vec::new(); n],
                nonempty: ProcessSet::EMPTY,
                next_bp: tables.breakpoints.partition_point(|&b| b == 0),
                counters: ReadyCounters::default(),
            },
            tables,
        }
    }

    /// The current global time (one tick per action or submission).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The group system of the runtime.
    pub fn system(&self) -> &GroupSystem {
        &self.tables.system
    }

    /// The failure pattern driving the run.
    pub fn pattern(&self) -> &FailurePattern {
        &self.tables.pattern
    }

    /// The `μ` oracle whose component detectors guard the run's actions.
    pub fn mu(&self) -> &MuOracle {
        &self.tables.mu
    }

    fn alive(&self, p: ProcessId) -> bool {
        self.tables.alive(p, self.now.0)
    }

    /// Moves the clock to `t` — the only way `now` changes. Time reaches a
    /// guard through three inputs (liveness, the `γ` timelines, the
    /// indicator firings), all step functions of the failure pattern whose
    /// steps are `Tables::breakpoints`; crossing one (in either direction:
    /// the shard recorder stamps slots, not successive ticks) marks every
    /// row stale, and no other tick touches the ready set.
    pub(crate) fn set_now(&mut self, t: Time) {
        self.now = t;
        let bps = &self.tables.breakpoints;
        let i = self.ready.next_bp;
        if bps.get(i).is_some_and(|&b| b <= t.0) || (i > 0 && bps[i - 1] > t.0) {
            self.ready.next_bp = bps.partition_point(|&b| b <= t.0);
            self.invalidate_ready();
            self.ready.counters.breakpoint_flushes += 1;
        }
    }

    /// Submits a user-level `multicast(m)` from `src` to `group` (the
    /// Proposition 1 client layer: appends to the shared list `L_g`).
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a member of `group` (closed dissemination
    /// model) or has already crashed.
    pub fn multicast(&mut self, src: ProcessId, group: GroupId, payload: u64) -> MessageId {
        assert!(
            self.tables.system.members(group).contains(src),
            "{src} ∉ {group}: closed model requires src(m) ∈ dst(m)"
        );
        self.set_now(self.now.next());
        assert!(self.alive(src), "{src} has crashed; it cannot multicast");
        let id = self.arena.push(MessageInfo {
            src,
            group,
            payload,
        });
        Arc::make_mut(&mut self.multicast_at).push(self.now);
        self.unit_of.push(NO_UNIT);
        Arc::make_mut(&mut self.lists)[group.index()].push(id);
        for &q in &self.tables.member_list[group.index()] {
            self.owed[q.index()] += 1;
            // A longer `L_g` can enable `Inject` at any member.
            self.ready.stale_cell(q, Cell::Inject(group));
        }
        id
    }

    /// Calls `f` for every action the guards of `cell` enable at `p` — the
    /// one place the guards are written.
    fn cell_each(&self, t: &Tables, p: ProcessId, cell: Cell, f: &mut impl FnMut(Action)) {
        match cell {
            // The first locally-undelivered message of L_g, unless it is
            // already claimed by a unit (i.e. in LOG_g). Deliveries happen
            // in list order per (p, g), so "first undelivered" is a cursor.
            Cell::Inject(g) => {
                let cur = self.inject_cursor[t.gm(g, p)] as usize;
                if let Some(&m) = self.lists[g.index()].get(cur) {
                    if self.unit_of[m.0 as usize] == NO_UNIT {
                        f(Action::Inject(g, m));
                    }
                }
            }
            Cell::Unit(u) => {
                let g = self.units.group[u as usize];
                let rep = self.units.rep[u as usize];
                match self.units.phase_of(t, u, p) {
                    Phase::Start => {
                        if self.pending_enabled(t, p, u, g) {
                            f(Action::Pending(rep));
                        }
                    }
                    Phase::Pending => {
                        if self.commit_enabled(t, p, u, g) {
                            f(Action::Commit(rep));
                        }
                    }
                    Phase::Commit => {
                        let gm = t.gm(g, p);
                        for e in &t.per_gp[gm] {
                            if self.stabilize_enabled(u, e) {
                                f(Action::Stabilize(rep, e.h));
                            }
                        }
                        if self.stable_enabled(t, u, g, gm) {
                            f(Action::Stable(rep));
                        }
                    }
                    Phase::Stable => {
                        if self.deliver_enabled(t, p, u, g) {
                            f(Action::Deliver(rep));
                        }
                    }
                    Phase::Deliver => {}
                }
            }
        }
    }

    /// Calls `f` for every cell of `p`'s row that can hold an action: its
    /// inject guards, its in-flight units, and per group the one unit the
    /// stable backlog can deliver next — the entry at `p`'s deliver
    /// frontier of `LOG_g`.
    fn each_cell(&self, t: &Tables, p: ProcessId, f: &mut impl FnMut(Cell)) {
        for g in t.system.groups_of(p) {
            f(Cell::Inject(g));
            let own = &t.self_gp[t.gm(g, p)];
            let log = &self.pairs[own.pair as usize];
            let head = log.cursors[own.prank as usize * 3 + T_DELIVER] as usize;
            if let Some(entry) = log.order.get(head) {
                if self.units.phase_of(t, entry.unit, p) == Phase::Stable {
                    f(Cell::Unit(entry.unit));
                }
            }
        }
        for &u in &self.active[p.index()] {
            f(Cell::Unit(u));
        }
    }

    /// Brings `row`, the cached row of `p`, up to date — its enabled
    /// actions in the deterministic `Action` order (the replay-stable
    /// sub-choice indexing), none once `p` has crashed. Each of the stale
    /// `cells` is dropped from the sorted row and re-evaluated in place;
    /// with none given, or `p` crashed (the flush of its crash instant may
    /// be long consumed), the row is derived from every cell. Returns how
    /// many cells were evaluated and how many of them passed.
    fn settle(&self, p: ProcessId, cells: Option<&Vec<Cell>>, row: &mut Vec<Action>) -> (u64, u64) {
        let t = &*self.tables;
        let (alive, mut ran, mut passed) = (self.alive(p), 0, 0);
        let cells = cells.filter(|_| alive);
        if cells.is_none() {
            row.clear();
        }
        let mut refresh = |cell| {
            if cells.is_some() {
                row.retain(|a| match (cell, *a) {
                    (Cell::Inject(g), Action::Inject(h, _)) => g != h,
                    (Cell::Inject(_), _) | (Cell::Unit(_), Action::Inject(..)) => true,
                    (
                        Cell::Unit(u),
                        Action::Pending(m)
                        | Action::Commit(m)
                        | Action::Stabilize(m, _)
                        | Action::Stable(m)
                        | Action::Deliver(m),
                    ) => m != self.units.rep[u as usize],
                });
            }
            let before = row.len();
            self.cell_each(t, p, cell, &mut |a| {
                row.insert(row.partition_point(|b| *b < a), a);
            });
            ran += 1;
            passed += u64::from(row.len() > before);
        };
        match cells {
            Some(cells) => cells.iter().copied().for_each(refresh),
            None if alive => self.each_cell(t, p, &mut refresh),
            None => {}
        }
        (ran, passed)
    }

    /// Whether `row` is what a fresh derivation yields for `p` — the
    /// invariant every read of a cached row asserts in debug builds.
    fn is_derivation(&self, p: ProcessId, row: &[Action]) -> bool {
        let mut fresh = Vec::new();
        self.settle(p, None, &mut fresh);
        #[cfg(test)]
        assert_eq!(fresh, self.every_unit_row(p), "derivation of {p}");
        fresh == row
    }

    /// The row of `p`, brought up to date first if it is stale.
    fn row(&mut self, p: ProcessId) -> &[Action] {
        let pi = p.index();
        if self.ready.stale.contains(p) {
            let mut row = std::mem::take(&mut self.ready.rows[pi]);
            let whole = self.ready.whole.contains(p);
            let cells = (!whole).then_some(&self.ready.cells[pi]);
            let (ran, passed) = self.settle(p, cells, &mut row);
            if row.is_empty() {
                self.ready.nonempty.remove(p);
            } else {
                self.ready.nonempty.insert(p);
            }
            self.ready.rows[pi] = row;
            self.ready.cells[pi].clear();
            self.ready.stale.remove(p);
            self.ready.whole.remove(p);
            let counters = &mut self.ready.counters;
            counters.rows_refreshed += u64::from(whole);
            counters.rows_patched += u64::from(!whole);
            counters.guards_evaluated += ran;
            counters.guards_passed += passed;
        } else {
            self.ready.counters.rows_reused += 1;
        }
        let row = &self.ready.rows[pi];
        debug_assert!(self.is_derivation(p, row), "ready row of {p} went wrong");
        row
    }

    /// Reads the row of `p` without write access: the cached row when it
    /// is current, a throw-away derivation when it is stale.
    fn with_row<R>(&self, p: ProcessId, f: impl FnOnce(&[Action]) -> R) -> R {
        if self.ready.stale.contains(p) {
            let mut fresh = Vec::new();
            self.settle(p, None, &mut fresh);
            f(&fresh)
        } else {
            let row = &self.ready.rows[p.index()];
            debug_assert!(self.is_derivation(p, row), "ready row of {p} went wrong");
            f(row)
        }
    }

    /// The processes of `set` whose row may be non-empty — what a scan for
    /// enabled actions visits instead of every process.
    fn maybe_enabled(&self, set: ProcessSet) -> ProcessSet {
        (self.ready.stale | self.ready.nonempty) & set
    }

    /// Marks every row wholly stale: the clock crossed a breakpoint, or a
    /// caller rewrote protocol state without going through `apply` (the
    /// shard commit merge).
    pub(crate) fn invalidate_ready(&mut self) {
        self.ready.stale_rows(ProcessSet::first_n(self.tables.n));
    }

    /// The ready-set counters accumulated so far.
    pub fn ready_counters(&self) -> ReadyCounters {
        self.ready.counters
    }

    /// Whether the derived state is what protocol state says: every cached
    /// row, once its stale cells are re-evaluated, equals a fresh
    /// derivation, and every in-flight list holds units below `stable`
    /// only. Debug builds assert the first row by row at every read;
    /// release test suites call this after every step.
    // gam-lint: allow(U001, reason = "test oracle: tests/ready_set.rs checks the ready set after every step through it")
    pub fn ready_set_is_current(&self) -> bool {
        let t = &*self.tables;
        ProcessSet::first_n(t.n).iter().all(|p| {
            let pi = p.index();
            let mut row = self.ready.rows[pi].clone();
            if self.ready.stale.contains(p) {
                let whole = self.ready.whole.contains(p);
                self.settle(p, (!whole).then_some(&self.ready.cells[pi]), &mut row);
            } else if self.ready.nonempty.contains(p) == row.is_empty() {
                return false;
            }
            let in_flight = |&u| self.units.phase_of(t, u, p) < Phase::Stable;
            self.is_derivation(p, &row) && self.active[pi].iter().all(in_flight)
        })
    }

    /// Lines 9–11: `m ∈ LOG_g` and every message before it committed. The
    /// membership is an invariant (units are appended to `LOG_g` at
    /// inject); the prefix condition is the pair's commit frontier.
    fn pending_enabled(&self, t: &Tables, p: ProcessId, u: u32, g: GroupId) -> bool {
        let e = t.self_gp[t.gm(g, p)];
        let ai = self.units.adj(u, e.adj_idx as usize);
        debug_assert!(self.units.slot[ai] > 0, "unit appended to LOG_g at inject");
        self.pairs[e.pair as usize].cursors[e.prank as usize * 3 + T_COMMIT]
            >= self.units.order_idx[ai]
    }

    /// Lines 17–18: a position announcement from every `h ∈ γ(g)`.
    fn commit_enabled(&self, t: &Tables, p: ProcessId, u: u32, g: GroupId) -> bool {
        let gam = t.gamma_at(t.gm(g, p), self.now.0);
        gam.iter()
            .all(|h| self.units.ann_max[self.units.adj(u, t.adj_of(g, h))] > 0)
    }

    /// Lines 26–28 (plus a progress guard: the announcement is not yet in
    /// `LOG_g` — appending is idempotent, so this only prunes no-op actions).
    fn stabilize_enabled(&self, u: u32, e: &GpEntry) -> bool {
        let ai = self.units.adj(u, e.adj_idx as usize);
        !self.units.stab[ai]
            && self.units.slot[ai] > 0
            && self.pairs[e.pair as usize].cursors[e.prank as usize * 3 + T_STABLE]
                >= self.units.order_idx[ai]
    }

    /// Lines 31–32, with the §6.1 modification under [`Variant::Strict`].
    fn stable_enabled(&self, t: &Tables, u: u32, g: GroupId, gm: usize) -> bool {
        match t.variant {
            Variant::Standard | Variant::Pairwise => self
                .tables
                .gamma_at(gm, self.now.0)
                .iter()
                .all(|h| self.units.stab[self.units.adj(u, t.adj_of(g, h))]),
            Variant::Strict => t.adj[g.index()].iter().enumerate().all(|(a, &h)| {
                h == g
                    || self.units.stab[self.units.adj(u, a)]
                    || t.indicator_at[t.adj_pair[g.index()][a] as usize] <= self.now.0
            }),
        }
    }

    /// Lines 35–36: every message before `m` in any log at `p` that contains
    /// `m` is locally delivered — the pair's deliver frontier.
    fn deliver_enabled(&self, t: &Tables, p: ProcessId, u: u32, g: GroupId) -> bool {
        let gm = t.gm(g, p);
        // `LOG_g` first: of a backlog of stable units only the one at the
        // group's own deliver frontier can pass, so most evaluations end
        // here instead of after the cross-group logs.
        let own = &t.self_gp[gm];
        if self.pairs[own.pair as usize].cursors[own.prank as usize * 3 + T_DELIVER]
            < self.units.order_idx[self.units.adj(u, own.adj_idx as usize)]
        {
            return false;
        }
        for e in &t.per_gp[gm] {
            // Deliberate mutation for explorer smoke-testing: ignore the
            // ordering constraints of the cross-group logs `LOG_{g∩h}`, so
            // overlap replicas may deliver concurrent messages of different
            // groups in different orders. Never enabled in normal builds.
            #[cfg(feature = "mutation")]
            if e.h != g {
                continue;
            }
            let ai = self.units.adj(u, e.adj_idx as usize);
            if self.units.slot[ai] == 0 {
                continue;
            }
            if self.pairs[e.pair as usize].cursors[e.prank as usize * 3 + T_DELIVER]
                < self.units.order_idx[ai]
            {
                return false;
            }
        }
        true
    }
}

/// The write half of one action: everything [`Step::apply`] and its
/// helpers touch, borrowed field by field from a [`Runtime`], beside a
/// plain borrow of its [`Tables`]. Firing an action therefore touches no
/// reference count. On the parallel driver's workers, which share one
/// `Tables`, that count would be a cache line every worker writes.
struct Step<'a> {
    t: &'a Tables,
    now: Time,
    pairs: &'a mut CowVec<PairState>,
    units: &'a mut UnitArena,
    lists: &'a [Vec<MessageId>],
    unit_of: &'a mut CowVec<u32>,
    next_new: &'a mut [u32],
    inject_cursor: &'a mut CowVec<u32>,
    active: &'a mut CowVec<Vec<u32>>,
    delivered: &'a mut CowVec<Vec<Delivery>>,
    actions_of: &'a mut CowVec<u64>,
    owed: &'a mut CowVec<u64>,
    ready: &'a mut ReadySet,
}

impl Step<'_> {
    /// Appends unit `u`'s `Msg` entry to the pair at adjacency `sa` of its
    /// group: fresh slot past the high-water mark, tail of the order. The
    /// new entry cannot extend any frontier (at first-append time every
    /// process relevant to the pair is at most `pending` on `u` — a later
    /// phase would imply it appended the entry itself earlier), so no
    /// cursor re-advance is needed.
    fn append_unit(&mut self, pair: u32, u: u32, sa: usize) {
        let rep = self.units.rep[u as usize];
        let ps = &mut self.pairs[pair as usize];
        let slot = ps.max_slot + 1;
        ps.max_slot = slot;
        let ai = self.units.adj(u, sa);
        self.units.slot[ai] = slot;
        self.units.order_idx[ai] = ps.order.len() as u32;
        ps.order.push(OrderEntry { slot, rep, unit: u });
    }

    /// Advances one frontier cursor to maximality.
    fn advance_from(&self, pair: usize, q: ProcessId, k: usize, mut f: u32) -> u32 {
        let order = &self.pairs[pair].order;
        while let Some(entry) = order.get(f as usize) {
            if self.units.phase_of(self.t, entry.unit, q) >= THRESHOLDS[k] {
                f += 1;
            } else {
                break;
            }
        }
        f
    }

    /// Re-advances every cursor of `pair` (after a bump reorder).
    fn advance_pair_cursors(&mut self, pair: u32) {
        let pid = pair as usize;
        for (pr, &q) in self.t.pair_procs[pid].iter().enumerate() {
            for k in 0..3 {
                let f = self.advance_from(pid, q, k, self.pairs[pid].cursors[pr * 3 + k]);
                self.pairs[pid].cursors[pr * 3 + k] = f;
            }
        }
    }

    /// Raises `u`'s phase at `p` and re-advances the cursors the rise can
    /// extend (only `p`'s rows, only thresholds the new phase satisfies).
    /// Only `p`'s guards read either: `u`'s own cell and, a frontier being
    /// a prefix that passed the threshold, the unit now *at* a moved cursor.
    fn set_phase_and_advance(&mut self, p: ProcessId, g: GroupId, u: u32, ph: Phase) {
        let t = self.t;
        let cell = self.units.mem(u, t.rank(g, p));
        self.units.phase[cell] = ph;
        self.ready.stale_cell(p, Cell::Unit(u));
        let gm = t.gm(g, p);
        for e in &t.per_gp[gm] {
            for (k, &threshold) in THRESHOLDS.iter().enumerate() {
                if threshold > ph {
                    break;
                }
                let pid = e.pair as usize;
                let idx = e.prank as usize * 3 + k;
                let f = self.advance_from(pid, p, k, self.pairs[pid].cursors[idx]);
                if f != self.pairs[pid].cursors[idx] {
                    self.pairs[pid].cursors[idx] = f;
                    if let Some(head) = self.pairs[pid].order.get(f as usize) {
                        self.ready.stale_cell(p, Cell::Unit(head.unit));
                    }
                }
            }
        }
    }

    /// Line 22–23: locks `u`'s entry in one pair at `max(slot, k)`. If the
    /// slot rises the entry migrates right in the pair order (keys only
    /// grow, so the new index is ≥ the old one); order indices and frontier
    /// cursors are fixed up and re-advanced to stay maximal. Returns
    /// whether the entry moved — the one case in which the lock changes
    /// what another process's guards read (order indices and cursors of the
    /// whole pair).
    fn bump_and_lock(&mut self, u: u32, e: &GpEntry, k: u64) -> bool {
        let ai = self.units.adj(u, e.adj_idx as usize);
        if self.units.locked[ai] {
            return false;
        }
        self.units.locked[ai] = true;
        let old = self.units.slot[ai];
        debug_assert!(old > 0, "bump_and_lock on an appended entry");
        if k <= old {
            return false;
        }
        self.units.slot[ai] = k;
        let pid = e.pair as usize;
        let ps = &mut self.pairs[pid];
        ps.max_slot = ps.max_slot.max(k);
        let i = self.units.order_idx[ai] as usize;
        let moved = OrderEntry {
            slot: k,
            rep: ps.order[i].rep,
            unit: u,
        };
        let mut j = i;
        while let Some(&next) = ps.order.get(j + 1) {
            if next.key() >= moved.key() {
                break;
            }
            ps.order[j] = next;
            let nai = self.units.entry_adj(self.t, pid, next.unit);
            self.units.order_idx[nai] = j as u32;
            j += 1;
        }
        ps.order[j] = moved;
        self.units.order_idx[ai] = j as u32;
        if j > i {
            // The entry left positions (i, j]: any frontier spanning them
            // shrinks by the one removed entry, then re-advances (entries
            // that shifted into the prefix may satisfy the threshold).
            let (lo, hi) = (i as u32, j as u32);
            for c in ps.cursors.iter_mut() {
                if *c > lo && *c <= hi {
                    *c -= 1;
                }
            }
            self.advance_pair_cursors(e.pair);
        }
        j > i
    }

    /// Marks `u`'s cell stale at the members of `g` whose phase on `u` is
    /// `phase` — a write to one of `u`'s shared cells matters only to the
    /// members whose current guard on `u` reads it.
    fn stale_members_in(&mut self, g: GroupId, u: u32, phase: Phase) {
        for (r, &q) in self.t.member_list[g.index()].iter().enumerate() {
            if self.units.phase[self.units.mem(u, r as u16)] == phase {
                self.ready.stale_cell(q, Cell::Unit(u));
            }
        }
    }

    /// Applies `action` at `p` (the `eff:` blocks), marking stale the
    /// cells whose guards read something the action writes — its
    /// *footprint*, the per-kind table of the module docs.
    fn apply(&mut self, p: ProcessId, action: Action) {
        let t = self.t;
        self.actions_of[p.index()] += 1;
        match action {
            Action::Inject(g, m) => {
                let gi = g.index();
                let start = self.next_new[gi];
                debug_assert_eq!(self.lists[gi][start as usize], m, "inject targets next-new");
                let avail = self.lists[gi].len() as u32 - start;
                let len = avail.min(t.batch_max);
                let deg = t.adj[gi].len();
                let members = t.member_list[gi].len();
                let fams = t.fams[gi].len();
                let u = self.units.push(g, start, len, m, deg, members, fams);
                for off in 0..len {
                    let claimed = self.lists[gi][(start + off) as usize];
                    self.unit_of[claimed.0 as usize] = u;
                }
                self.next_new[gi] = start + len;
                for &q in &t.member_list[gi] {
                    self.active[q.index()].push(u);
                    // `unit_of` changed under the inject guard, and `u` is
                    // a new cell of the row.
                    self.ready.stale_cell(q, Cell::Inject(g));
                    self.ready.stale_cell(q, Cell::Unit(u));
                }
                let sa = t.adj_of(g, g);
                self.append_unit(t.self_pair[gi], u, sa);
            }
            Action::Pending(m) => {
                let u = self.unit_of[m.0 as usize];
                let g = self.units.group[u as usize];
                let gm = t.gm(g, p);
                let self_pair = t.self_pair[g.index()] as usize;
                for e in &t.per_gp[gm] {
                    let ai = self.units.adj(u, e.adj_idx as usize);
                    if self.units.slot[ai] == 0 {
                        self.append_unit(e.pair, u, e.adj_idx as usize);
                    }
                    // (m, h, i) into LOG_g; a fresh announcement consumes a
                    // slot of the self pair. Positions are non-decreasing
                    // per (unit, h), so equality with the recorded maximum
                    // is exactly the append-idempotence check.
                    let i = self.units.slot[ai];
                    if self.units.ann_max[ai] != i {
                        self.units.ann_max[ai] = i;
                        self.pairs[self_pair].max_slot += 1;
                    }
                }
                self.set_phase_and_advance(p, g, u, Phase::Pending);
                // `ann_max` is read by commit (a member in `pending`). The
                // first appends to pairs are read by stabilize and deliver,
                // but only at processes of those pairs already past
                // `pending` — which appended there themselves.
                self.stale_members_in(g, u, Phase::Pending);
            }
            Action::Commit(m) => {
                let u = self.unit_of[m.0 as usize];
                let ui = u as usize;
                let g = self.units.group[ui];
                let gm = t.gm(g, p);
                // line 19: k = max{i : ∃(m,-,i) ∈ LOG_g}
                let deg = self.units.deg(u);
                let mut k = 0u64;
                for a in 0..deg {
                    k = k.max(self.units.ann_max[self.units.adj(u, a)]);
                }
                debug_assert!(k > 0, "own position announcement present");
                // line 20–21: 𝔣 = H(p, g); k ← CONS_{m,𝔣}.propose(k).
                // First proposal wins; 0 encodes "undecided" (slots are ≥ 1).
                let ci = self.units.fam(u, t.fam_rank[gm]);
                let k = if self.units.cons[ci] != 0 {
                    self.units.cons[ci]
                } else {
                    self.units.cons[ci] = k;
                    k
                };
                // lines 22–23
                for e in &t.per_gp[gm] {
                    if self.bump_and_lock(u, e, k) {
                        let (a, b) = t.pairs[e.pair as usize];
                        self.ready.stale_rows(t.system.intersection(a, b));
                    }
                }
                self.set_phase_and_advance(p, g, u, Phase::Commit);
            }
            Action::Stabilize(m, h) => {
                let u = self.unit_of[m.0 as usize];
                let g = self.units.group[u as usize];
                let ai = self.units.adj(u, t.adj_of(g, h));
                debug_assert!(
                    !self.units.stab[ai],
                    "stabilize pruned to fresh announcements"
                );
                self.units.stab[ai] = true;
                // (m, h) appended to LOG_g consumes a slot of the self pair.
                self.pairs[t.self_pair[g.index()] as usize].max_slot += 1;
                // `stab` is read by stabilize and stable (a member in `commit`).
                self.stale_members_in(g, u, Phase::Commit);
            }
            Action::Stable(m) => {
                let u = self.unit_of[m.0 as usize];
                let g = self.units.group[u as usize];
                self.set_phase_and_advance(p, g, u, Phase::Stable);
                // No longer in flight: from here `u` is reached through
                // `p`'s deliver frontier of `LOG_g`.
                self.active[p.index()].retain(|&x| x != u);
            }
            Action::Deliver(m) => {
                let u = self.unit_of[m.0 as usize];
                let ui = u as usize;
                let g = self.units.group[ui];
                self.set_phase_and_advance(p, g, u, Phase::Deliver);
                let start = self.units.start[ui] as usize;
                let len = self.units.len[ui] as usize;
                let at = self.now;
                let msgs = &self.lists[g.index()][start..start + len];
                self.delivered[p.index()].extend(msgs.iter().map(|&msg| Delivery { msg, at }));
                self.owed[p.index()] -= len as u64;
                self.inject_cursor[t.gm(g, p)] = (start + len) as u32;
                self.ready.stale_cell(p, Cell::Inject(g));
            }
        }
    }
}

impl Runtime {
    /// Runs until quiescence or `max_actions` under the round-robin-min
    /// policy, scheduling every process ([`Runtime::run_sustained`] over the
    /// universe). Returns `true` on quiescence.
    pub fn run(&mut self, max_actions: u64) -> bool {
        self.run_sustained(self.tables.system.universe(), max_actions)
    }

    /// Returns `true` if some live process of `set` still owes a delivery:
    /// a submitted message addressed to it that it has not delivered.
    /// While obligations remain the run is not quiescent — a guard may be
    /// waiting on *time* alone (a γ exclusion, an indicator firing), so the
    /// run loop idles the clock forward instead of stopping.
    pub fn has_obligations(&self, set: ProcessSet) -> bool {
        set.iter()
            .any(|p| self.alive(p) && self.owed[p.index()] > 0)
    }

    /// The sustained-load driver: the run loop under the round-robin-min
    /// policy, scheduling only the processes of `set` — the adversarial
    /// schedules that group parallelism (§6.2) and genuineness quantify
    /// over. Returns `true` on quiescence of `set`: no enabled action *and*
    /// no outstanding delivery obligation. A run whose obligations never
    /// resolve (a liveness failure, e.g. an ablated detector) exhausts its
    /// budget and returns `false`.
    pub fn run_sustained(&mut self, set: ProcessSet, max_actions: u64) -> bool {
        let mut cursor = self.rr_cursor;
        let outcome = self.drive(set, max_actions, |rt| {
            match rt.pick_round_robin(set, &mut cursor) {
                Some((p, action, _)) => Pick::Least(p, action),
                None => Pick::Idle,
            }
        });
        self.rr_cursor = cursor;
        outcome == RunOutcome::Quiescent
    }

    /// Runs with every scheduling decision delegated to `source`,
    /// scheduling only the processes of `set`, until quiescence of `set`,
    /// budget exhaustion, or the source stopping.
    ///
    /// The choice space handed to the source is that of
    /// [`Runtime::options_into`]; sub-choice `0` is the action the
    /// round-robin policy would fire. Idle ticks — the clock advancing
    /// while guards wait on time alone — happen automatically and are not
    /// scheduling choices.
    pub fn run_with_source<S: ScheduleSource>(
        &mut self,
        set: ProcessSet,
        source: &mut S,
        max_actions: u64,
    ) -> RunOutcome {
        let mut options = Vec::new();
        self.drive(set, max_actions, |rt| {
            rt.options_into(set, &mut options);
            if options.is_empty() {
                return Pick::Idle;
            }
            match source.next_choice(&options) {
                Some((idx, choice)) => Pick::Choice(options[idx].0, choice),
                None => Pick::Stop,
            }
        })
    }

    /// The run loop every driver shares: ask the policy for a pick, fire
    /// it, count it. An idle pick ends the run if `set` owes nothing and
    /// otherwise lets one tick pass (which counts against the budget) — a
    /// guard may be waiting on time alone.
    fn drive(
        &mut self,
        set: ProcessSet,
        max_actions: u64,
        mut pick: impl FnMut(&mut Self) -> Pick,
    ) -> RunOutcome {
        let mut taken = 0u64;
        loop {
            if taken >= max_actions {
                return RunOutcome::BudgetExhausted;
            }
            match pick(self) {
                Pick::Choice(p, choice) => {
                    self.fire_enabled(p, choice);
                }
                Pick::Least(p, action) => {
                    self.fire(p, Some(action), self.now.next());
                }
                Pick::Idle if !self.has_obligations(set) => return RunOutcome::Quiescent,
                Pick::Idle => self.idle_tick(),
                Pick::Stop => return RunOutcome::Stopped,
            }
            taken += 1;
        }
    }

    /// The round-robin-min policy: the first process of `set`, scanning
    /// cyclically from `cursor`, that has an enabled action, with its least
    /// action — which the caller fires — and the number of processes the
    /// scan passed over to reach it; `cursor` moves one past it. The scan
    /// steps over `stale | nonempty` only, so idle processes cost nothing.
    /// When it finds nothing, every row of `set` it could have visited is
    /// current and empty.
    pub(crate) fn pick_round_robin(
        &mut self,
        set: ProcessSet,
        cursor: &mut usize,
    ) -> Option<(ProcessId, Action, usize)> {
        let n = self.tables.n;
        let live = self.maybe_enabled(set);
        let start = *cursor;
        // From the cursor to the end, then from 0 up to the cursor.
        for (mut from, end) in [(start, n), (0, start)] {
            while let Some(p) = live.next_from(from).filter(|p| p.index() < end) {
                if let Some(&action) = self.row(p).first() {
                    let i = p.index();
                    *cursor = if i + 1 == n { 0 } else { i + 1 };
                    let passed = if i >= start { i - start } else { i + n - start };
                    return Some((p, action, passed));
                }
                from = p.index() + 1;
            }
        }
        None
    }

    /// One step of the round-robin-min policy on a caller-owned `cursor`
    /// (see [`Runtime::run_sustained`], which keeps its cursor in the
    /// runtime): fires the least enabled action of the first process of
    /// `set` at or after `cursor`, moves `cursor` one past that process, and
    /// returns it with what fired. A cursor that starts at 0 makes exactly
    /// the picks of `gam_kernel::schedule::RotatingSource` over
    /// [`Runtime::options_into`] — sub-choice 0 of the first listed process
    /// at or after the cursor — without listing the choice space.
    ///
    /// `None` means no process of `set` has an enabled action, and then
    /// `set` is quiescent exactly when it owes nothing
    /// ([`Runtime::has_obligations`]).
    pub fn fire_round_robin(
        &mut self,
        set: ProcessSet,
        cursor: &mut usize,
    ) -> Option<(ProcessId, Fired)> {
        let (p, action, _) = self.pick_round_robin(set, cursor)?;
        Some((p, self.fire(p, Some(action), self.now.next())))
    }

    /// The current choice space over `set`, written into a caller-provided
    /// buffer: each live process with at least one enabled action, in
    /// ascending process order, paired with its enabled-action count. This
    /// is the allocation-free option enumerator the `gam-engine` hot loop
    /// uses; sub-choice `c` corresponds to the `c`-th enabled action in the
    /// deterministic `Action` order (fired by [`Runtime::fire_enabled`]).
    /// Re-derives the stale rows of `set` and no others.
    pub fn options_into(&mut self, set: ProcessSet, out: &mut Vec<(ProcessId, usize)>) {
        out.clear();
        for p in self.maybe_enabled(set) {
            let arity = self.row(p).len();
            if arity > 0 {
                out.push((p, arity));
            }
        }
    }

    /// Describes the current choice space over `set` for the independence
    /// relation: one [`ActionDesc`] per enabled action, in
    /// exactly the flat order of [`Runtime::options_into`] followed by
    /// sub-choice index — processes ascending, and within a process the
    /// deterministic `Action` order that [`Runtime::fire_enabled`] indexes.
    /// Kept for the gated benchmark, which times it through
    /// `gam_engine::RuntimeExecutor::describe_enabled`.
    pub fn describe_enabled(&self, set: ProcessSet, out: &mut Vec<ActionDesc>) {
        out.clear();
        for p in self.maybe_enabled(set) {
            self.with_row(p, |row| {
                out.extend(row.iter().map(|&a| {
                    let (kind, group, rep, aux) = match a {
                        Action::Inject(g, m) => (ActionKind::Inject, g, m, 0),
                        Action::Pending(m) => (ActionKind::Pending, self.arena.group(m), m, 0),
                        Action::Commit(m) => (ActionKind::Commit, self.arena.group(m), m, 0),
                        Action::Stabilize(m, h) => {
                            (ActionKind::Stabilize, self.arena.group(m), m, h.0)
                        }
                        Action::Stable(m) => (ActionKind::Stable, self.arena.group(m), m, 0),
                        Action::Deliver(m) => (ActionKind::Deliver, self.arena.group(m), m, 0),
                    };
                    ActionDesc {
                        pid: p,
                        kind,
                        group,
                        rep,
                        aux,
                    }
                }));
            });
        }
    }

    /// Fires the `choice`-th enabled action of `p` (in the deterministic
    /// `Action` order; out-of-range choices clamp to the last action, as
    /// in replay). Advances the clock by one tick first, so a process that
    /// crashes exactly at the new time consumes the step without effect.
    pub fn fire_enabled(&mut self, p: ProcessId, choice: usize) -> Fired {
        let row = self.row(p);
        let action = row.get(choice.min(row.len().saturating_sub(1))).copied();
        self.fire(p, action, self.now.next())
    }

    /// The write half of an action over this runtime's state: every
    /// column [`Step::apply`] may touch, borrowed beside `Tables`.
    fn step(&mut self) -> Step<'_> {
        let Runtime {
            tables,
            now,
            pairs,
            units,
            lists,
            unit_of,
            next_new,
            inject_cursor,
            active,
            delivered,
            actions_of,
            owed,
            ready,
            ..
        } = self;
        Step {
            t: tables,
            now: *now,
            pairs,
            units,
            lists,
            unit_of,
            next_new,
            inject_cursor,
            active,
            delivered,
            actions_of,
            owed,
            ready,
        }
    }

    /// Moves the clock to `at`, then applies `action` at `p` unless there
    /// is none or `p` has crashed by then (the step is consumed either way).
    pub(crate) fn fire(&mut self, p: ProcessId, action: Option<Action>, at: Time) -> Fired {
        self.set_now(at);
        let Some(action) = action.filter(|_| self.alive(p)) else {
            return Fired::default();
        };
        let (delivered, delivered_count) = match action {
            Action::Deliver(m) => {
                let u = self.unit_of[m.0 as usize];
                (Some(m), self.units.len[u as usize])
            }
            _ => (None, 0),
        };
        self.step().apply(p, action);
        Fired {
            fired: true,
            delivered,
            delivered_count,
        }
    }

    /// Advances the clock by one tick without firing an action. Guards can
    /// become enabled purely by the passage of time (detector
    /// stabilisation, γ exclusions), so the run loop idles instead of
    /// stopping while obligations remain.
    pub fn idle_tick(&mut self) {
        self.set_now(self.now.next());
    }

    /// Returns `true` when `set` has quiesced: no live process of `set` has
    /// an enabled action *and* none owes a delivery (see
    /// [`Runtime::has_obligations`]).
    pub fn is_quiescent_in(&self, set: ProcessSet) -> bool {
        self.maybe_enabled(set)
            .iter()
            .all(|p| self.with_row(p, <[Action]>::is_empty))
            && !self.has_obligations(set)
    }

    /// Produces the report for property checking.
    pub fn report(&self, quiescent: bool) -> RunReport {
        let mut report = RunReport {
            system: self.tables.system.clone(),
            pattern: self.tables.pattern.clone(),
            messages: Vec::new(),
            multicast_at: Vec::new(),
            delivered: Vec::new(),
            actions_of: Vec::new(),
            quiescent,
        };
        self.report_into(&mut report, quiescent);
        report
    }

    /// [`Runtime::report`] into a report of an earlier state of the same
    /// scenario, reusing its buffers: the vectors are rewritten in place,
    /// `system` and `pattern` — fixed by the scenario — are left standing.
    /// An explorer checks every leaf through one report this way.
    pub fn report_into(&self, report: &mut RunReport, quiescent: bool) {
        debug_assert!(
            report.system == self.tables.system && report.pattern == self.tables.pattern,
            "report of another scenario"
        );
        report.messages.clear();
        report.messages.extend(self.arena.iter());
        report.multicast_at.clone_from(&self.multicast_at);
        report.delivered.resize_with(self.delivered.len(), Vec::new);
        for (into, seq) in report.delivered.iter_mut().zip(&self.delivered) {
            into.clone_from(seq);
        }
        report.actions_of.clear();
        report.actions_of.extend(&self.actions_of);
        report.quiescent = quiescent;
    }

    /// Batch-occupancy histogram of the units created so far:
    /// `out[w]` counts units spanning exactly `w` messages (index 0 is
    /// unused — units are never empty). The bench records this per case to
    /// show how full the `batch_max` window actually ran.
    pub fn unit_width_histogram(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for u in 0..self.units.count() {
            let w = self.units.len[u] as usize;
            if out.len() <= w {
                out.resize(w + 1, 0);
            }
            out[w] += 1;
        }
        out
    }

    /// Walks every piece of evolving runtime state as a deterministic `u64`
    /// word stream: the clock, every shared object (pair orders and slot
    /// high-water marks, per-unit announcements/stabilisations/consensus
    /// cells, lists), every per-process table (phases, deliveries, action
    /// counts). Two runtimes over the same scenario emitting the same
    /// stream behave identically under any deterministic continuation —
    /// the detector oracles are pure functions of the (fixed) pattern and
    /// the clock, and the remaining fields (frontier cursors, inject
    /// cursors, owed counts, active lists, the ready set) are derived
    /// caches of the walked state, so nothing behavioral lives outside
    /// this walk. Pairs are
    /// visited in interned id order, which is their lexicographic key order
    /// — the same canonical order the seed's `BTreeMap` walk used; each
    /// variable-length section is length-prefixed so the stream is
    /// prefix-free.
    ///
    /// This is the *identity* walk: units in creation order, every action
    /// count. It is what the sharded, batched and schedule-identity suites
    /// compare and what `tests/fixtures/serve_hashes.txt` pins, so its
    /// stream never changes. The explorer's dedup key is the coarser
    /// [`Runtime::fold_observable`].
    pub fn fold_state(&self, push: &mut impl FnMut(u64)) {
        self.walk_state::<false>(push);
    }

    /// The [`Runtime::fold_state`] stream with the two things no
    /// continuation and no verdict can observe taken out — the projection
    /// the engine folds into the executor's state fingerprint, which the
    /// explorer's visited-set dedup prunes on:
    ///
    /// - **units are visited per group in `L_g` position order**, not in
    ///   creation order. A unit id is a name: no guard compares two, rows
    ///   sort by representative message and pair orders by `(slot, rep)`,
    ///   so two `Inject` orders reach the same machine under a renaming;
    /// - **action counts become "has acted" bits, and only for processes
    ///   outside every destination group of a submitted message.** The
    ///   counts are written by `apply` and read by nothing but
    ///   [`Runtime::report`], whose one reader
    ///   ([`crate::spec::check_minimality`]) asks whether a process that no
    ///   message addresses took a step — never how many, never of an
    ///   addressed process.
    ///
    /// Everything else stays, the clock and the delivery instants included:
    /// equal streams mean equal clocks, hence equal remaining budgets.
    pub fn fold_observable(&self, push: &mut impl FnMut(u64)) {
        self.walk_state::<true>(push);
    }

    /// The one state walk behind [`Runtime::fold_state`] (`OBSERVABLE =
    /// false`) and [`Runtime::fold_observable`] (`true`).
    fn walk_state<const OBSERVABLE: bool>(&self, push: &mut impl FnMut(u64)) {
        let t = &*self.tables;
        push(self.now.0);
        // Shared pair orders, in interned (lexicographic key) order.
        push(self.pairs.len() as u64);
        for (pid, ps) in self.pairs.iter().enumerate() {
            let (a, b) = t.pairs[pid];
            push(u64::from(a.0));
            push(u64::from(b.0));
            push(ps.max_slot);
            push(ps.order.len() as u64);
            for entry in &ps.order {
                push(entry.slot);
                push(entry.rep.0);
                push(u64::from(
                    self.units.locked[self.units.entry_adj(t, pid, entry.unit)],
                ));
            }
        }
        // Units: identity, announcements, stabilisations, consensus cells
        // and per-member phases.
        push(self.units.count() as u64);
        if OBSERVABLE {
            // Per group, the units that tile the claimed prefix of `L_g`.
            for (gi, list) in self.lists.iter().enumerate() {
                let mut i = 0;
                while i < self.next_new[gi] as usize {
                    let u = self.unit_of[list[i].0 as usize];
                    self.walk_unit(t, u, push);
                    i += self.units.len[u as usize] as usize;
                }
            }
        } else {
            // Unit id (creation) order — itself a function of the walked
            // state, so the stream stays canonical.
            for u in 0..self.units.count() as u32 {
                self.walk_unit(t, u, push);
            }
        }
        // Group submission lists (append-only; constant within a run but
        // part of the machine nonetheless) — and, for the observable walk,
        // whom they address: the members of every group with a message.
        let mut addressed = ProcessSet::EMPTY;
        push(self.lists.len() as u64);
        for (list, (_, members)) in self.lists.iter().zip(t.system.iter()) {
            push(list.len() as u64);
            for m in list {
                push(m.0);
            }
            if OBSERVABLE && !list.is_empty() {
                addressed |= members;
            }
        }
        // Per-process protocol state.
        for seq in &self.delivered {
            push(seq.len() as u64);
            for d in seq {
                push(d.msg.0);
                push(d.at.0);
            }
        }
        if OBSERVABLE {
            for p in t.system.universe() - addressed {
                push(u64::from(self.actions_of[p.index()] > 0));
            }
        } else {
            for n in &self.actions_of {
                push(*n);
            }
        }
    }

    /// One unit's words of the state walk.
    fn walk_unit(&self, t: &Tables, u: u32, push: &mut impl FnMut(u64)) {
        let ui = u as usize;
        let g = self.units.group[ui];
        push(u64::from(g.0));
        push(u64::from(self.units.start[ui]));
        push(u64::from(self.units.len[ui]));
        for a in 0..self.units.deg(u) {
            let ai = self.units.adj(u, a);
            push(self.units.ann_max[ai]);
            push(u64::from(self.units.stab[ai]));
        }
        for r in 0..t.member_list[g.index()].len() {
            push(self.units.phase[self.units.mem(u, r as u16)] as u64);
        }
        for fr in 0..t.fams[g.index()].len() as u16 {
            push(self.units.cons[self.units.fam(u, fr)]);
        }
    }

    /// Analytic snapshot cost in **heap** bytes, as `(copied, deep)`: what
    /// a `Clone` of this runtime actually copies beyond the inline struct
    /// (chunk pointer tables, plain `Vec` heap) versus what a deep
    /// per-element copy of the same logical state would have copied. The
    /// fixed-size struct itself (clock, cursor, the `CowVec`/`Arc`
    /// headers) moves with *any* snapshot representation and is excluded
    /// from both sides — the ratio measures the heap traffic the
    /// copy-on-write layout saves, which is what a profiler sees. The
    /// explorer sums these at every branch point; their ratio is the
    /// snapshot-bytes headline of the DFS bench. The ready set is left
    /// out of both sides: it is a cache a restore could as well reset.
    pub fn snapshot_cost_bytes(&self) -> (u64, u64) {
        use std::mem::size_of;
        // The plain `Vec` field a clone deep-copies in either layout.
        let base = (self.next_new.len() * size_of::<u32>()) as u64;
        let mut copied = base;
        let mut deep = base;
        // Chunked columns: a clone copies the pointer tables, a deep copy
        // the elements.
        for column in self.columns() {
            copied += column.shallow_bytes();
            deep += column.deep_bytes();
        }
        // Per-row heap payloads behind the chunked rows.
        for ps in self.pairs.iter() {
            deep += (ps.order.len() * size_of::<OrderEntry>() + ps.cursors.len() * size_of::<u32>())
                as u64;
        }
        for row in self.active.iter() {
            deep += (row.len() * size_of::<u32>()) as u64;
        }
        for seq in self.delivered.iter() {
            deep += (seq.len() * size_of::<Delivery>()) as u64;
        }
        // Arc-shared submission state: a clone bumps refcounts, a deep
        // copy would copy the lists.
        deep += (self.multicast_at.len() * size_of::<Time>()) as u64;
        for list in self.lists.iter() {
            deep += ((list.len() + 1) * size_of::<MessageId>()) as u64;
        }
        (copied, deep)
    }

    /// Convenience: run to quiescence (panicking if the budget is exhausted)
    /// and report.
    ///
    /// # Panics
    ///
    /// Panics if the run does not quiesce within `max_actions` — for
    /// experiments that *expect* blocking, use [`Runtime::run`] directly.
    // gam-lint: allow(U001, reason = "the entry point of the crate-level doctest and examples/quickstart.rs; the tests run through it")
    pub fn run_to_quiescence(&mut self, max_actions: u64) -> RunReport {
        let q = self.run(max_actions);
        assert!(q, "runtime did not quiesce within {max_actions} actions");
        self.report(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::NO_RANK;
    use gam_groups::topology;
    use gam_kernel::{RandomSource, RotatingSource};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl Runtime {
        /// The row of `p` by the walk the runtime used before readiness
        /// followed the frontiers: the guards of *every* unit addressed to
        /// `p` that `p` has not delivered, found in the unit table — no
        /// in-flight list, no frontier head. Test builds hold every
        /// derivation against it (see `Runtime::is_derivation`).
        pub(super) fn every_unit_row(&self, p: ProcessId) -> Vec<Action> {
            let t = &*self.tables;
            let mut out = Vec::new();
            if !self.alive(p) {
                return out;
            }
            for g in t.system.groups_of(p) {
                let cur = self.inject_cursor[t.gm(g, p)] as usize;
                match self.lists[g.index()].get(cur) {
                    Some(&m) if self.unit_of[m.0 as usize] == NO_UNIT => {
                        out.push(Action::Inject(g, m));
                    }
                    _ => {}
                }
            }
            for u in 0..self.units.count() as u32 {
                let g = self.units.group[u as usize];
                if t.member_rank[g.index() * t.n + p.index()] == NO_RANK {
                    continue;
                }
                let rep = self.units.rep[u as usize];
                let gm = t.gm(g, p);
                match self.units.phase_of(t, u, p) {
                    Phase::Start if self.pending_enabled(t, p, u, g) => {
                        out.push(Action::Pending(rep));
                    }
                    Phase::Pending if self.commit_enabled(t, p, u, g) => {
                        out.push(Action::Commit(rep));
                    }
                    Phase::Commit => {
                        let stabilize =
                            t.per_gp[gm].iter().filter(|e| self.stabilize_enabled(u, e));
                        out.extend(stabilize.map(|e| Action::Stabilize(rep, e.h)));
                        if self.stable_enabled(t, u, g, gm) {
                            out.push(Action::Stable(rep));
                        }
                    }
                    Phase::Stable if self.deliver_enabled(t, p, u, g) => {
                        out.push(Action::Deliver(rep));
                    }
                    _ => {}
                }
            }
            out.sort_unstable();
            out
        }
    }

    fn runtime(system: &GroupSystem, pattern: FailurePattern) -> Runtime {
        Runtime::new(system, pattern, RuntimeConfig::default())
    }

    #[test]
    fn run_sustained_matches_the_rotating_source() {
        // The sustained driver is `RotatingSource` over the choice space
        // with candidate discovery amortized: on a clone of the same
        // runtime it must fire the identical action sequence, hence reach
        // the identical state.
        for gs in [
            topology::fig1(),
            topology::ring(3, 2),
            topology::two_overlapping(3, 1),
        ] {
            let mut a = runtime(&gs, FailurePattern::all_correct(gs.universe()));
            for (g, members) in gs.iter() {
                a.multicast(members.min().unwrap(), g, u64::from(g.0));
            }
            let mut b = a.clone();
            assert_eq!(
                a.run_with_source(gs.universe(), &mut RotatingSource::default(), 500_000),
                RunOutcome::Quiescent,
                "the sourced loop quiesces"
            );
            assert!(
                b.run_sustained(gs.universe(), 500_000),
                "sustained quiesces"
            );
            let fold = |rt: &Runtime| {
                let mut v = Vec::new();
                rt.fold_state(&mut |w| v.push(w));
                v
            };
            assert_eq!(fold(&a), fold(&b), "state diverged on {gs:?}");
        }
    }

    /// Idles `rt` (nothing enabled, something owed) until an action shows
    /// up, checking at every tick that the ready set tracks protocol state;
    /// returns the instant at which the choice space became non-empty.
    fn idle_until_enabled(rt: &mut Runtime, set: ProcessSet) -> u64 {
        let mut options = Vec::new();
        loop {
            rt.options_into(set, &mut options);
            assert!(rt.ready_set_is_current(), "at {}", rt.now().0);
            if !options.is_empty() {
                return rt.now().0;
            }
            assert!(rt.has_obligations(set), "stuck at {}", rt.now().0);
            rt.idle_tick();
        }
    }

    /// A backlogged runtime: ≥ 30 messages per group of `gs` on average,
    /// skewed towards the low groups, every one submitted up front by a
    /// member that outlives the submissions; `crashes` victims are whole
    /// group intersections (the `isect` plan), dying mid-run.
    fn backlogged(gs: &GroupSystem, crashes: usize, config: RuntimeConfig, seed: u64) -> Runtime {
        let msgs = 32 * gs.len();
        let victims = gs.intersecting_pairs().into_iter().take(crashes);
        let crashes: Vec<_> = victims
            .flat_map(|(g, h)| gs.intersection(g, h))
            .enumerate()
            .map(|(i, p)| (p, Time((msgs + 700 * (i + 1)) as u64)))
            .collect();
        let pattern = FailurePattern::from_crashes(gs.universe(), crashes);
        let mut rt = Runtime::new(gs, pattern, config);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..msgs {
            let skew = rng.gen_range(0..gs.len()).min(rng.gen_range(0..gs.len()));
            let g = GroupId(skew as u32);
            let src = gs.members(g).min().expect("non-empty group");
            rt.multicast(src, g, i as u64);
        }
        rt
    }

    #[test]
    fn readiness_follows_the_frontiers_under_a_backlog() {
        // Every check below is `ready_set_is_current`, which in this build
        // also holds each derivation against `every_unit_row`: the rows
        // that the frontier heads, the in-flight lists and the stale cells
        // produce are the rows a walk over every undelivered unit produces,
        // after every operation of a random schedule started at several
        // depths into the drain of the backlog.
        let mut rng = StdRng::seed_from_u64(14);
        let mut deep_backlog = 0;
        for gs in [topology::random(64, 8, 0.45, 7000), topology::ring(5, 3)] {
            let set = gs.universe();
            for crashes in [0, 2] {
                for variant in [Variant::Standard, Variant::Strict, Variant::Pairwise] {
                    for batch_max in [1, 16] {
                        let config = RuntimeConfig {
                            variant,
                            batch_max,
                            ..Default::default()
                        };
                        let seed = rng.gen_range(0..1_000u64);
                        let mut rt = backlogged(&gs, crashes, config, seed);
                        let mut checkpoint = rt.clone();
                        let tag = format!(
                            "n={} {crashes} crashes {variant:?} batch {batch_max}",
                            gs.len()
                        );
                        for warm_up in [0, 2_000, 4_000, 8_000] {
                            rt.run_sustained(set, warm_up);
                            let held = |p: ProcessId| {
                                let stable = |u: &u32| {
                                    let g = rt.units.group[*u as usize];
                                    gs.members(g).contains(p)
                                        && rt.units.phase_of(&rt.tables, *u, p) == Phase::Stable
                                };
                                (0..rt.units.count() as u32).filter(stable).count()
                            };
                            deep_backlog += usize::from(set.iter().any(|p| held(p) >= 30));
                            let mut options = Vec::new();
                            for step in 0..60 {
                                match rng.gen_range(0..10u32) {
                                    0 => {
                                        let g = GroupId(rng.gen_range(0..gs.len() as u32));
                                        let src = gs.members(g).min().expect("non-empty group");
                                        if rt.tables.alive(src, rt.now.0 + 1) {
                                            rt.multicast(src, g, step);
                                        }
                                    }
                                    1 => checkpoint = rt.clone(),
                                    2 => rt = checkpoint.clone(),
                                    _ => {}
                                }
                                assert!(rt.ready_set_is_current(), "{tag}: step {step}");
                                rt.options_into(set, &mut options);
                                assert!(rt.ready_set_is_current(), "{tag}: step {step}");
                                if options.is_empty() {
                                    rt.idle_tick();
                                } else {
                                    let (p, arity) = options[rng.gen_range(0..options.len())];
                                    rt.fire_enabled(p, rng.gen_range(0..arity + 1));
                                }
                                assert!(rt.ready_set_is_current(), "{tag}: step {step}");
                            }
                        }
                    }
                }
            }
        }
        assert!(
            deep_backlog >= 12,
            "only {deep_backlog} starts had a process holding ≥ 30 units in `stable`"
        );
    }

    #[test]
    fn time_alone_enables_actions_through_breakpoints() {
        // γ: p2 = g1 ∩ g2 of fig1 crashes at 2; the families through that
        // edge turn faulty `gamma_delay` ticks later, and only then does
        // p1's commit stop waiting for g2's announcement. Nothing fires in
        // between: the clock crossing the exclusion instant is what stales
        // the rows.
        let gs = topology::fig1();
        let set = gs.universe();
        let pattern = FailurePattern::from_crashes(set, [(ProcessId(1), Time(2))]);
        let mut cfg = RuntimeConfig::default();
        cfg.mu.gamma_delay = 40;
        let mut rt = Runtime::new(&gs, pattern, cfg);
        rt.multicast(ProcessId(0), GroupId(0), 9);
        assert!(!rt.run_sustained(set, 30), "blocked on γ well before 42");
        let blocked_at = rt.now().0;
        let flushes = rt.ready_counters().breakpoint_flushes;
        let at = idle_until_enabled(&mut rt, set);
        assert_eq!(at, 42, "crash instant + γ delay");
        assert!(blocked_at < at);
        assert_eq!(rt.ready_counters().breakpoint_flushes, flushes + 1);
        assert!(rt.run_sustained(set, 1_000));

        // 1^{g∩h}: under the strict variant p0 waits for g2's
        // stabilisation of m or for the indicator of g1 ∩ g2 = {p2}, which
        // fires `indicator_delay` ticks after p2's crash.
        let gs = topology::two_overlapping(3, 1);
        let set = gs.universe();
        let pattern = FailurePattern::from_crashes(set, [(ProcessId(2), Time(2))]);
        let cfg = RuntimeConfig {
            variant: Variant::Strict,
            indicator_delay: 60,
            ..Default::default()
        };
        let mut rt = Runtime::new(&gs, pattern, cfg);
        rt.multicast(ProcessId(0), GroupId(0), 0);
        assert!(!rt.run_sustained(set, 30), "blocked on 1^{{g∩h}}");
        assert_eq!(
            idle_until_enabled(&mut rt, set),
            62,
            "crash instant + delay"
        );
        assert!(rt.run_sustained(set, 1_000));
    }

    #[test]
    fn single_group_single_message() {
        let gs = topology::single_group(3);
        let mut rt = runtime(&gs, FailurePattern::all_correct(gs.universe()));
        let m = rt.multicast(ProcessId(0), GroupId(0), 7);
        let report = rt.run_to_quiescence(10_000);
        for p in gs.universe() {
            assert_eq!(report.delivered_by(p), vec![m], "{p}");
        }
    }

    #[test]
    fn single_group_orders_messages_identically() {
        let gs = topology::single_group(4);
        let mut rt = runtime(&gs, FailurePattern::all_correct(gs.universe()));
        let m1 = rt.multicast(ProcessId(0), GroupId(0), 1);
        let m2 = rt.multicast(ProcessId(1), GroupId(0), 2);
        let m3 = rt.multicast(ProcessId(2), GroupId(0), 3);
        let report = rt.run_to_quiescence(100_000);
        let expected = vec![m1, m2, m3];
        for p in gs.universe() {
            assert_eq!(report.delivered_by(p), expected, "{p}");
        }
    }

    #[test]
    fn disjoint_groups_progress_independently() {
        let gs = topology::disjoint(3, 2);
        let mut rt = runtime(&gs, FailurePattern::all_correct(gs.universe()));
        let mut per_group = Vec::new();
        for g in 0..3u32 {
            let src = gs.members(GroupId(g)).min().unwrap();
            per_group.push(rt.multicast(src, GroupId(g), g as u64));
        }
        let report = rt.run_to_quiescence(100_000);
        for (g, m) in per_group.iter().enumerate() {
            for p in gs.members(GroupId(g as u32)) {
                assert_eq!(report.delivered_by(p), vec![*m]);
            }
        }
    }

    #[test]
    fn fig1_cross_group_messages_deliver_everywhere() {
        let gs = topology::fig1();
        let mut rt = runtime(&gs, FailurePattern::all_correct(gs.universe()));
        // one message per group, from its minimum member
        let ms: Vec<MessageId> = (0..4u32)
            .map(|g| {
                let src = gs.members(GroupId(g)).min().unwrap();
                rt.multicast(src, GroupId(g), g as u64)
            })
            .collect();
        let report = rt.run_to_quiescence(1_000_000);
        for (g, m) in ms.iter().enumerate() {
            for p in gs.members(GroupId(g as u32)) {
                assert!(report.has_delivered(p, *m), "{p} missing {m}");
            }
        }
    }

    #[test]
    fn ring_topology_with_contention_quiesces() {
        // The minimal cyclic topology: messages in all groups concurrently.
        let gs = topology::ring(3, 2);
        for seed in 0..5u64 {
            let mut rt = runtime(&gs, FailurePattern::all_correct(gs.universe()));
            let ms: Vec<MessageId> = (0..3u32)
                .map(|g| {
                    let src = gs.members(GroupId(g)).min().unwrap();
                    rt.multicast(src, GroupId(g), g as u64)
                })
                .collect();
            let outcome =
                rt.run_with_source(gs.universe(), &mut RandomSource::new(seed), 1_000_000);
            assert_eq!(outcome, RunOutcome::Quiescent, "seed {seed}");
            let report = rt.report(true);
            for (g, m) in ms.iter().enumerate() {
                for p in gs.members(GroupId(g as u32)) {
                    assert!(report.has_delivered(p, *m), "seed {seed}: {p} missing {m}");
                }
            }
        }
    }

    #[test]
    fn group_sequential_discipline_allows_bursts() {
        // Multiple messages submitted to the same group up-front: the
        // Proposition 1 layer sequences them.
        let gs = topology::two_overlapping(3, 1);
        let mut rt = runtime(&gs, FailurePattern::all_correct(gs.universe()));
        let mut ms = Vec::new();
        for i in 0..5u64 {
            ms.push(rt.multicast(ProcessId(0), GroupId(0), i));
        }
        let report = rt.run_to_quiescence(1_000_000);
        for p in gs.members(GroupId(0)) {
            assert_eq!(report.delivered_by(p), ms, "{p}");
        }
    }

    #[test]
    fn crashed_intersection_does_not_block_fig1() {
        // p2 = g1∩g2 crashes immediately after a message to g1 is submitted.
        // γ eventually reports the families through g1∩g2 faulty; the
        // correct members of g1 must still deliver.
        let gs = topology::fig1();
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(2))]);
        let mut rt = runtime(&gs, pattern);
        let m = rt.multicast(ProcessId(0), GroupId(0), 9);
        let report = rt.run_to_quiescence(1_000_000);
        // correct members of g1 = {p1}
        assert!(report.has_delivered(ProcessId(0), m));
    }

    #[test]
    fn multicast_rejects_non_member() {
        let gs = topology::fig1();
        let mut rt = runtime(&gs, FailurePattern::all_correct(gs.universe()));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.multicast(ProcessId(4), GroupId(0), 0) // p5 ∉ g1
        }));
        assert!(result.is_err());
    }

    #[test]
    fn report_accessors() {
        let gs = topology::single_group(2);
        let mut rt = runtime(&gs, FailurePattern::all_correct(gs.universe()));
        let m = rt.multicast(ProcessId(0), GroupId(0), 1);
        let report = rt.run_to_quiescence(10_000);
        assert!(report.first_delivery(m).is_some());
        assert!(report.has_delivered(ProcessId(1), m));
        assert!(report.quiescent);
        assert!(report.actions_of.iter().sum::<u64>() > 0);
    }

    #[test]
    fn batching_preserves_per_group_delivery_sequences() {
        // The same burst under batch sizes 0..4 delivers exactly the same
        // per-group sequences; only the unit granularity differs.
        let gs = topology::fig1();
        let submit = |rt: &mut Runtime| {
            let mut ms = Vec::new();
            for i in 0..6u64 {
                ms.push(rt.multicast(ProcessId(0), GroupId(0), i));
            }
            for i in 0..3u64 {
                ms.push(rt.multicast(ProcessId(2), GroupId(2), 100 + i));
            }
            ms
        };
        let mut reference: Option<Vec<Vec<Vec<MessageId>>>> = None;
        for batch in [0u32, 1, 2, 4] {
            let mut rt = Runtime::new(
                &gs,
                FailurePattern::all_correct(gs.universe()),
                RuntimeConfig {
                    batch_max: batch,
                    ..Default::default()
                },
            );
            submit(&mut rt);
            let report = rt.run_to_quiescence(1_000_000);
            // Units deliver atomically, so the cross-group interleave at an
            // overlap process may legally shift with the batch size; the
            // guarantee is per-group: project each local sequence onto each
            // destination group.
            let seqs: Vec<Vec<Vec<MessageId>>> = gs
                .universe()
                .iter()
                .map(|p| {
                    (0..gs.len())
                        .map(|g| {
                            report
                                .delivered_by(p)
                                .into_iter()
                                .filter(|m| {
                                    report.messages[m.0 as usize].group == GroupId(g as u32)
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            match &reference {
                None => reference = Some(seqs),
                Some(r) => assert_eq!(r, &seqs, "batch_max = {batch}"),
            }
        }
    }

    #[test]
    fn batched_fire_reports_unit_width() {
        let gs = topology::single_group(2);
        let mut rt = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig {
                batch_max: 3,
                ..Default::default()
            },
        );
        for i in 0..3u64 {
            rt.multicast(ProcessId(0), GroupId(0), i);
        }
        let q = rt.run(1_000_000);
        assert!(q);
        let report = rt.report(true);
        // All three messages travel as one unit: each member delivers all
        // of them at a single instant.
        for p in gs.universe() {
            let at: Vec<Time> = report.delivered[p.index()].iter().map(|d| d.at).collect();
            assert_eq!(at.len(), 3);
            assert!(at.windows(2).all(|w| w[0] == w[1]), "atomic unit delivery");
        }
    }

    #[test]
    fn unbatched_and_batch_one_fold_identically() {
        // batch_max 0 and 1 are the same machine; their digest streams
        // must agree step for step.
        let gs = topology::ring(3, 2);
        let mk = |batch: u32| {
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
                rt.multicast(src, GroupId(g), u64::from(g));
            }
            rt.run(100_000);
            let mut words = Vec::new();
            rt.fold_state(&mut |w| words.push(w));
            words
        };
        assert_eq!(mk(0), mk(1));
    }
    fn folds(rt: &Runtime) -> (Vec<u64>, Vec<u64>) {
        let (mut identity, mut observable) = (Vec::new(), Vec::new());
        rt.fold_state(&mut |w| identity.push(w));
        rt.fold_observable(&mut |w| observable.push(w));
        (identity, observable)
    }

    #[test]
    fn the_observable_walk_forgets_unit_names_and_who_of_a_group_stepped() {
        // Two disjoint groups, one message each, both injected: by which
        // member, and in which order (= under which unit ids), is all that
        // tells the three runs apart.
        let gs = topology::disjoint(2, 2);
        let run = |steppers: [u32; 2]| {
            let mut rt = runtime(&gs, FailurePattern::all_correct(gs.universe()));
            for (g, members) in gs.iter() {
                rt.multicast(members.min().unwrap(), g, 0);
            }
            for p in steppers {
                assert!(rt.fire_enabled(ProcessId(p), 0).fired);
            }
            rt
        };
        // disjoint(2,2): g0 = {p0, p1}, g1 = {p2, p3}.
        let (first, swapped, other_member) = (run([0, 2]), run([2, 0]), run([1, 2]));
        let (id, obs) = folds(&first);
        for (what, rt) in [("unit ids", &swapped), ("stepper", &other_member)] {
            let (id2, obs2) = folds(rt);
            assert_ne!(id, id2, "{what}: the identity walk tells them apart");
            assert_eq!(obs, obs2, "{what}: the observable walk does not");
        }
        assert_eq!(
            first.units.group[0], swapped.units.group[1],
            "the orders differ by the unit-id permutation"
        );
    }

    #[test]
    fn the_observable_walk_keeps_whether_an_unaddressed_process_stepped() {
        // Algorithm 1 never lets a process act that no message addresses,
        // so no reachable state sets these bits; minimality is the check
        // that reads them, and a forged count shows both sides of it.
        let gs = topology::disjoint(2, 2);
        let mut rt = runtime(&gs, FailurePattern::all_correct(gs.universe()));
        let (g, members) = gs.iter().next().unwrap();
        rt.multicast(members.min().unwrap(), g, 0);
        let outsider = (gs.universe() - members).min().unwrap();
        let insider = members.min().unwrap();
        let forged = |p: ProcessId, count: u64| {
            let mut rt = rt.clone();
            rt.actions_of[p.index()] = count;
            let minimal = crate::spec::check_minimality(&rt.report(false)).is_ok();
            (folds(&rt).1, minimal)
        };
        let (never, once, often) = (
            forged(outsider, 0),
            forged(outsider, 1),
            forged(outsider, 7),
        );
        assert!(never.1 && !once.1 && !often.1, "minimality reads the bit");
        assert_ne!(never.0, once.0, "so the walk keeps it");
        assert_eq!(once.0, often.0, "and not the count behind it");
        assert_eq!(forged(insider, 0), forged(insider, 7), "addressed: neither");
    }
}
