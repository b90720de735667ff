//! Algorithm 1 over message passing — the Level-B deployment.
//!
//! The shared-memory runtime (`crate::Runtime`) executes Algorithm 1 on
//! linearizable objects; this module deploys the same guarded actions over
//! the wire, using exactly the §4.3 implementation route:
//!
//! - `LOG_g` and the consensus objects `CONS_{m,𝔣}` of messages addressed to
//!   `g` live in one **replicated state machine per group**, ordered by the
//!   `Ω_g ∧ Σ_g` consensus ([`gam_objects::PaxosProcess`]);
//! - each `LOG_{g∩h}` is the **contention-free fast log**
//!   ([`gam_objects::FastLogProcess`]): adopt–commit among `g∩h` on the
//!   fast path, group-`g` consensus as backup (Proposition 47);
//! - each process evaluates the `pre:` guards of Algorithm 1 against its
//!   *local view* (the decided prefix of every object) — sound because all
//!   guards are monotone — and executes the `eff:` blocks as sagas of
//!   sequential object operations, exactly the model's "effects are applied
//!   sequentially until the action returns".
//!
//! The result is a genuine atomic multicast over messages: safety from the
//! ordered objects, liveness from `μ` (γ unblocks faulty cyclic families),
//! and minimality because every object's traffic stays within its scope.
//!
//! ## What a step costs
//!
//! What it touches, not what the process has seen. The `μ` sample arrives
//! by reference from the simulator, which queries the history once per
//! window of `μ` ([`History::stable_until`]). The received envelope goes to
//! the one sub-protocol it is tagged for; each hosted consensus automaton
//! visits its open instances only, and a fast log never rereads a closed
//! slot. Deciding a command folds it into the view *and* into what the
//! guards read about the message it concerns — whether it is known, who
//! announced a position for it (and the highest), who declared it
//! stabilised — so no guard scans a log for announcements, and "everything
//! before `m` in `LOG`" walks the log's own `<_L` index and stops at the
//! first message that blocks. Activity is "a saga is running or an
//! undelivered known message is listed". All of that is derived state of
//! the views and phases; debug builds re-derive it after every step, and
//! `tests/levelb_identity.rs` pins that runs are step-for-step what they
//! were when each step re-read every log.

use crate::message::{Datum, MessageId};
use crate::phase::Phase;
use gam_detectors::MuOracle;
use gam_groups::{GroupId, GroupSet, GroupSystem};
use gam_kernel::{Automaton, Envelope, History, ProcessId, ProcessSet, StepCtx, Time};
use gam_objects::{
    Decided, FastLogFd, FastLogMsg, FastLogProcess, Log, OmegaSigma, PaxosMsg, PaxosProcess, Pos,
    SlotDecided,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A command of a group's replicated state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
// gam-lint: allow(U001, reason = "carried by DistMsg, the Msg type of the public Automaton impl of DistProcess; rustc requires it public")
pub enum GroupCmd {
    /// `LOG_g.append(d)`.
    Append(Datum),
    /// `LOG_g.bumpAndLock(m, k)`.
    BumpLock(MessageId, u64),
    /// `CONS_{m,𝔣}.propose(k)` — first proposal in SMR order decides.
    ConsPropose(MessageId, GroupSet, u64),
}

/// Encodes a `LOG_{g∩h}` operation into the fast log's `u64` command space:
/// bit 63 = bump flag, bits 32..63 = position, bits 0..32 = message id.
fn encode_pair_cmd(bump: Option<u64>, m: MessageId) -> u64 {
    match bump {
        None => m.0 & 0xffff_ffff,
        Some(k) => (1 << 63) | ((k & 0x7fff_ffff) << 32) | (m.0 & 0xffff_ffff),
    }
}

fn decode_pair_cmd(cmd: u64) -> (Option<u64>, MessageId) {
    let m = MessageId(cmd & 0xffff_ffff);
    if cmd >> 63 == 1 {
        (Some((cmd >> 32) & 0x7fff_ffff), m)
    } else {
        (None, m)
    }
}

/// Protocol messages: sub-protocol traffic tagged by its object.
#[derive(Debug, Clone, PartialEq, Eq)]
// gam-lint: allow(U001, reason = "the Msg type of the public Automaton impl of DistProcess; rustc requires it public")
pub enum DistMsg {
    /// Group-`g` SMR traffic.
    Group(GroupId, PaxosMsg<GroupCmd>),
    /// `LOG_{g∩h}` fast-log traffic (normalised `g ≤ h`).
    Pair(GroupId, GroupId, FastLogMsg),
}

/// The pairs `(g, h)`, `g < h`, of `groups`, in lexicographic order: the
/// `LOG_{g∩h}` objects hosted by a process whose groups are `groups` (any
/// two of them intersect, at that process). [`DistFd::pairs`] and the pair
/// views of [`DistProcess`] both follow this order.
fn pairs_among(groups: GroupSet) -> impl Iterator<Item = (GroupId, GroupId)> {
    groups
        .iter()
        .flat_map(move |g| groups.iter().filter(move |h| g < *h).map(move |h| (g, h)))
}

/// The `μ` sample a step of one process consumes, flattened per object
/// scope of **that process**: one entry per group it belongs to, ascending,
/// and one per pair of them ([`DistProcess`] keeps its views in the same
/// order). The scopes it is outside of output `⊥` and are left out.
#[derive(Debug, Clone, PartialEq, Eq)]
// gam-lint: allow(U001, reason = "the Fd type of DistProcess and the Value type of MuHistory; rustc requires it public")
pub struct DistFd {
    /// `(Ω_g, Σ_g)` per group of the process.
    pub groups: Vec<OmegaSigma>,
    /// `Σ_{g∩h}` per pair `g < h` of the process's groups.
    pub pairs: Vec<Option<ProcessSet>>,
    /// `γ(g)` at this process, per group of the process.
    pub gamma: Vec<GroupSet>,
}

/// A [`History`] producing [`DistFd`] samples from a [`MuOracle`]. The
/// oracle is a constant of the run: clones (a simulator checkpoint holds
/// one) share it.
#[derive(Debug, Clone)]
pub struct MuHistory(Arc<MuScopes>);

#[derive(Debug)]
struct MuScopes {
    mu: MuOracle,
    /// Per process index: the layout of its samples, computed once.
    of: Vec<Scopes>,
}

/// The object scopes of one process: its groups, ascending, and the pairs
/// of them.
#[derive(Debug)]
struct Scopes {
    groups: Vec<GroupId>,
    pairs: Vec<(GroupId, GroupId)>,
}

impl MuHistory {
    /// Wraps the candidate oracle.
    pub fn new(mu: MuOracle) -> Self {
        let system = mu.system();
        let n = system.universe().max().map_or(0, |p| p.index() + 1);
        let of = (0..n)
            .map(|i| {
                let groups = system.groups_of(ProcessId(i as u32));
                Scopes {
                    groups: groups.iter().collect(),
                    pairs: pairs_among(groups).collect(),
                }
            })
            .collect();
        MuHistory(Arc::new(MuScopes { mu, of }))
    }
}

impl History for MuHistory {
    type Value = DistFd;

    fn sample(&self, p: ProcessId, t: Time) -> DistFd {
        let mu = &self.0.mu;
        let Scopes { groups, pairs } = &self.0.of[p.index()];
        DistFd {
            groups: groups
                .iter()
                .map(|&g| OmegaSigma {
                    leader: mu.omega(g, p, t),
                    quorum: mu.sigma(g, g, p, t),
                })
                .collect(),
            pairs: pairs.iter().map(|&(g, h)| mu.sigma(g, h, p, t)).collect(),
            gamma: groups.iter().map(|&g| mu.gamma_groups(p, g, t)).collect(),
        }
    }

    /// Every constituent of `μ` vouches for its own output; the sample
    /// holds until the first of them may move.
    fn stable_until(&self, p: ProcessId, t: Time) -> Time {
        self.0.mu.stable_until(p, t)
    }
}

/// What this process has folded about one message: where it stands in
/// Algorithm 1 here, and the announcements about it decided in the log of
/// its group so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MsgState {
    id: MessageId,
    /// `dst(m)`.
    group: GroupId,
    phase: Phase,
    /// Whether the process may act on the message: it was multicast here,
    /// or some earlier step ended with it in `LOG_g`.
    known: bool,
    /// The groups `h` with some `(m, h, i)` in `LOG_g`.
    pos_groups: GroupSet,
    /// The highest such `i` (0: none yet; positions start at 1).
    pos_max: u64,
    /// The groups `h` with `(m, h)` in `LOG_g`.
    stab_groups: GroupSet,
}

/// Every message the process has seen, ascending by id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct MsgTable(Vec<MsgState>);

impl MsgTable {
    fn get(&self, m: MessageId) -> Option<&MsgState> {
        let at = self.0.binary_search_by_key(&m, |s| s.id).ok()?;
        Some(&self.0[at])
    }

    /// The entry of `m`, created (unknown, in `start`) if this is the first
    /// the process sees of it.
    fn entry(&mut self, m: MessageId, group: GroupId) -> &mut MsgState {
        let at = match self.0.binary_search_by_key(&m, |s| s.id) {
            Ok(at) => at,
            Err(at) => {
                let fresh = MsgState {
                    id: m,
                    group,
                    phase: Phase::Start,
                    known: false,
                    pos_groups: GroupSet::EMPTY,
                    pos_max: 0,
                    stab_groups: GroupSet::EMPTY,
                };
                self.0.insert(at, fresh);
                at
            }
        };
        &mut self.0[at]
    }

    fn get_mut(&mut self, m: MessageId) -> Option<&mut MsgState> {
        let at = self.0.binary_search_by_key(&m, |s| s.id).ok()?;
        Some(&mut self.0[at])
    }

    fn phase_of(&self, m: MessageId) -> Phase {
        self.get(m).map_or(Phase::Start, |s| s.phase)
    }

    #[expect(
        clippy::expect_used,
        reason = "a phase is set only on a message the table already knows"
    )]
    fn set_phase(&mut self, m: MessageId, phase: Phase) {
        self.get_mut(m)
            .expect("phases move on known messages")
            .phase = phase;
    }
}

/// The folded view of one group's SMR at this process.
#[derive(Debug, Clone)]
struct GroupView {
    id: GroupId,
    paxos: PaxosProcess<GroupCmd>,
    /// How many instances have been folded so far.
    applied: u64,
    log: Log<Datum>,
    cons: BTreeMap<(MessageId, GroupSet), u64>,
    /// Commands waiting to be ordered.
    outbox: VecDeque<GroupCmd>,
    /// The instance at which the head command was last proposed.
    inflight_at: Option<u64>,
    /// `H(me, g)`: the consensus family this process proposes into (line
    /// 20) — a function of the topology alone.
    family: GroupSet,
}

impl GroupView {
    fn new(id: GroupId, me: ProcessId, members: ProcessSet, family: GroupSet) -> Self {
        GroupView {
            id,
            family,
            paxos: PaxosProcess::new(me, members),
            applied: 0,
            log: Log::new(),
            cons: BTreeMap::new(),
            outbox: VecDeque::new(),
            inflight_at: None,
        }
    }

    /// Returns `true` once `cmd`'s effect is visible in the folded view.
    fn done(&self, cmd: &GroupCmd) -> bool {
        match cmd {
            GroupCmd::Append(d) => self.log.contains(d),
            GroupCmd::BumpLock(m, _) => self.log.locked(&Datum::Msg(*m)),
            GroupCmd::ConsPropose(m, f, _) => self.cons.contains_key(&(*m, *f)),
        }
    }

    /// Folds newly decided instances into the view, into what `msgs` holds
    /// about the messages they concern (the announcement sets; helping —
    /// any `Msg` datum decided into `LOG_g` is `learned`, to become known
    /// when the step ends), and retires the outbox commands they complete.
    fn fold(&mut self, msgs: &mut MsgTable, learned: &mut Vec<MessageId>) {
        while let Some(cmd) = self.paxos.decision(self.applied).cloned() {
            self.applied += 1;
            match cmd {
                GroupCmd::Append(d) => {
                    self.log.append(d);
                    let about = msgs.entry(d.message(), self.id);
                    match d {
                        // what is said of `m` is read in the log of dst(m)
                        _ if about.group != self.id => {}
                        Datum::Msg(m) if !about.known => learned.push(m),
                        Datum::Msg(_) => {}
                        Datum::PosAnn(_, h, i) => {
                            about.pos_groups.insert(h);
                            about.pos_max = about.pos_max.max(i);
                        }
                        Datum::StabAnn(_, h) => {
                            about.stab_groups.insert(h);
                        }
                    }
                }
                GroupCmd::BumpLock(m, k) => {
                    // appended before bumped by the issuing saga's ordering;
                    // a stray bump for an absent datum is a harmless no-op
                    let _ = self.log.try_bump_and_lock(&Datum::Msg(m), Pos(k));
                }
                GroupCmd::ConsPropose(m, f, k) => {
                    self.cons.entry((m, f)).or_insert(k);
                }
            }
        }
        // drop completed head commands and (re)propose the next one
        while let Some(head) = self.outbox.front() {
            if self.done(head) {
                self.outbox.pop_front();
                self.inflight_at = None;
            } else {
                break;
            }
        }
    }

    /// Proposes the head outbox command at the next free instance.
    fn drive(&mut self) {
        if let Some(head) = self.outbox.front() {
            let needs_proposal = match self.inflight_at {
                None => true,
                // the instance we used got decided with someone else's
                // command: move on to the next free instance
                Some(at) => self.paxos.decision(at).is_some(),
            };
            if needs_proposal {
                let mut inst = self.applied;
                while self.paxos.decision(inst).is_some() {
                    inst += 1;
                }
                self.paxos.propose(inst, head.clone());
                self.inflight_at = Some(inst);
            }
        }
    }
}

/// The folded view of one `LOG_{g∩h}` fast log at this process.
#[derive(Debug, Clone)]
struct PairView {
    /// `(g, h)`, `g < h`.
    key: (GroupId, GroupId),
    /// Where `g`'s view (and its `Ω_g ∧ Σ_g` sample) sits among the groups.
    g_slot: usize,
    fl: FastLogProcess,
    applied: usize,
    log: Log<Datum>,
}

impl PairView {
    fn fold(&mut self) {
        for cmd in &self.fl.learnt()[self.applied..] {
            let (bump, m) = decode_pair_cmd(*cmd);
            match bump {
                None => {
                    self.log.append(Datum::Msg(m));
                }
                Some(k) => {
                    // absent ⇒ no-op: the append command precedes the bump
                    // in every saga, but a crashed saga may leave a tail
                    let _ = self.log.try_bump_and_lock(&Datum::Msg(m), Pos(k));
                }
            }
        }
        self.applied = self.fl.learnt().len();
    }

    fn done(&self, cmd: u64) -> bool {
        let (bump, m) = decode_pair_cmd(cmd);
        match bump {
            None => self.log.contains(&Datum::Msg(m)),
            Some(_) => self.log.locked(&Datum::Msg(m)),
        }
    }
}

/// One object operation of an effect saga.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Group(GroupId, GroupCmd),
    Pair(GroupId, GroupId, u64),
    /// Read the position of `m` in `LOG_{g∩h}` and record it for the later
    /// `(m, h, i)` announcement (line 13's returned position).
    ReadPairPos(GroupId, GroupId, MessageId),
}

/// A running action: remaining operations, then a phase transition.
#[derive(Debug, Clone)]
struct Saga {
    msg: MessageId,
    ops: VecDeque<Op>,
    issued: bool,
    /// Phase to enter when the saga completes (None for stabilise sagas).
    then: Option<Phase>,
}

/// Deterministic work counters of a [`DistProcess`], read with
/// [`DistProcess::counters`]: functions of the steps the process took,
/// never of the host, and no part of its state — a `clone` starts counting
/// from zero, `clone_from` rewinds them to the source's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
// gam-lint: allow(U001, reason = "returned by DistProcess::counters, which tests/levelb_identity.rs pins")
pub struct DistCounters {
    /// Consensus instances the proposer loops of the hosted `Ω ∧ Σ`
    /// consensus automata (group SMRs, fast-log backups) visited.
    pub instances_visited: u64,
    /// Walks over a log in `<_L` order (the "everything before `m`" guards
    /// of the pending, stabilise and deliver actions).
    pub log_order_walks: u64,
    /// Received `DistMsg::Pair` messages that matched no pair view here and
    /// were dropped unread: a process of `g∖h` receiving backup traffic of
    /// `LOG_{g∩h}` (ROADMAP item 1).
    pub pair_msgs_unrouted: u64,
}

/// One process of the distributed deployment.
///
/// Protocol state is the views (the sub-protocol automata with the logs
/// and consensus tables folded from their decisions), `delivered`, the
/// running saga and, per message, its phase. The rest is *derived* and kept
/// current as decisions are folded instead of being re-read from the logs
/// at every step: which messages are known, the announcement sets of each,
/// and `live` — so a step costs what it touches, not what the process has
/// seen. Debug builds re-derive all of it after every step.
#[derive(Debug)]
pub struct DistProcess {
    me: ProcessId,
    my_groups: GroupSet,
    /// One view per group of this process, ascending.
    groups: Vec<GroupView>,
    /// One view per pair of them, in [`pairs_among`] order.
    pairs: Vec<PairView>,
    msgs: MsgTable,
    /// The known messages not yet delivered here, ascending: the candidates
    /// of the next action. Empty, with no saga running, is inactivity.
    live: Vec<MessageId>,
    /// Submissions read in a group log during this step (`L_g` is
    /// approximated by gossiping submissions through the group SMR, which
    /// also provides the total order): known from the end of the step on.
    learned: Vec<MessageId>,
    delivered: Vec<MessageId>,
    saga: Option<Saga>,
    /// Pending `(m, h, i)` announcements collected by `ReadPairPos`.
    pending_pos: Vec<(MessageId, GroupId, u64)>,
    /// A delivery performed by the last `schedule_action`, to be emitted.
    pending_delivery: Option<MessageId>,
    counters: DistCounters,
}

impl Clone for DistProcess {
    fn clone(&self) -> Self {
        DistProcess {
            me: self.me,
            my_groups: self.my_groups,
            groups: self.groups.clone(),
            pairs: self.pairs.clone(),
            msgs: self.msgs.clone(),
            live: self.live.clone(),
            learned: self.learned.clone(),
            delivered: self.delivered.clone(),
            saga: self.saga.clone(),
            pending_pos: self.pending_pos.clone(),
            pending_delivery: self.pending_delivery,
            counters: DistCounters::default(),
        }
    }

    /// Rewinds into the buffers this process already holds.
    fn clone_from(&mut self, src: &Self) {
        let DistProcess {
            me,
            my_groups,
            groups,
            pairs,
            msgs,
            live,
            learned,
            delivered,
            saga,
            pending_pos,
            pending_delivery,
            counters,
        } = src;
        self.me = *me;
        self.my_groups = *my_groups;
        self.groups.clone_from(groups);
        self.pairs.clone_from(pairs);
        self.msgs.0.clone_from(&msgs.0);
        self.live.clone_from(live);
        self.learned.clone_from(learned);
        self.delivered.clone_from(delivered);
        self.saga.clone_from(saga);
        self.pending_pos.clone_from(pending_pos);
        self.pending_delivery = *pending_delivery;
        self.counters = *counters;
    }
}

/// Emitted on local delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// gam-lint: allow(U001, reason = "the Event type of the public Automaton impl of DistProcess; rustc requires it public")
pub struct DistDelivered {
    /// The delivered message.
    pub msg: MessageId,
}

impl DistProcess {
    /// Creates the automaton for `me` over `system`. Enumerates `ℱ`; to
    /// build every process of a system, enumerate it once and use
    /// [`DistProcess::with_families`].
    pub fn new(me: ProcessId, system: &GroupSystem) -> Self {
        Self::with_families(me, system, &system.cyclic_families())
    }

    /// [`DistProcess::new`] against an already enumerated `ℱ` (`cyclic`
    /// must be [`GroupSystem::cyclic_families`] of `system`).
    pub fn with_families(me: ProcessId, system: &GroupSystem, cyclic: &[GroupSet]) -> Self {
        let my_groups = system.groups_of(me);
        let groups: Vec<GroupView> = my_groups
            .iter()
            .map(|g| {
                let family = system.h_set_among(cyclic, me, g);
                GroupView::new(g, me, system.members(g), family)
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "`pairs_among(my_groups)` yields pairs whose first group is in `my_groups`"
        )]
        let pairs = pairs_among(my_groups)
            .map(|(g, h)| PairView {
                key: (g, h),
                g_slot: my_groups
                    .iter()
                    .position(|x| x == g)
                    .expect("g ∈ my groups"),
                fl: FastLogProcess::new(me, system.intersection(g, h), system.members(g)),
                applied: 0,
                log: Log::new(),
            })
            .collect();
        DistProcess {
            me,
            my_groups,
            groups,
            pairs,
            msgs: MsgTable::default(),
            live: Vec::new(),
            learned: Vec::new(),
            delivered: Vec::new(),
            saga: None,
            pending_pos: Vec::new(),
            pending_delivery: None,
            counters: DistCounters::default(),
        }
    }

    /// Submits `multicast(m)` to `group` at this (member) process. The id
    /// must be globally unique (the test harness allocates them).
    ///
    /// # Panics
    ///
    /// Panics if this process is not a member of `group`.
    pub fn multicast(&mut self, m: MessageId, group: GroupId) {
        assert!(self.my_groups.contains(group), "src(m) ∈ dst(m) required");
        self.msgs.entry(m, group);
        self.learn(m);
    }

    /// The local delivery sequence.
    pub fn delivered(&self) -> &[MessageId] {
        &self.delivered
    }

    /// The work counters accumulated by this process.
    pub fn counters(&self) -> DistCounters {
        self.counters
    }

    /// Makes a seen message known: a candidate of the next actions.
    fn learn(&mut self, m: MessageId) {
        #[expect(
            clippy::expect_used,
            reason = "a message is recorded in the table when first seen, before it is learned"
        )]
        let about = self.msgs.get_mut(m).expect("seen before known");
        if !about.known {
            about.known = true;
            if let Err(at) = self.live.binary_search(&m) {
                self.live.insert(at, m);
            }
        }
    }

    /// Where the view of `g` sits in `groups` (and `g`'s entries in a
    /// [`DistFd`]).
    #[expect(
        clippy::expect_used,
        reason = "only groups this process hosts are looked up"
    )]
    fn group_slot(&self, g: GroupId) -> usize {
        self.groups
            .binary_search_by_key(&g, |v| v.id)
            .expect("only groups this process hosts are looked up")
    }

    #[expect(
        clippy::expect_used,
        reason = "only pairs this process hosts are looked up"
    )]
    fn pair_slot(&self, g: GroupId, h: GroupId) -> usize {
        self.pairs
            .binary_search_by_key(&(g.min(h), g.max(h)), |v| v.key)
            .expect("only pairs this process hosts are looked up")
    }

    /// The log holding `m`'s entries for pair `(g, h)` (group log if `g=h`).
    fn pair_log(&self, g: GroupId, h: GroupId) -> &Log<Datum> {
        if g == h {
            &self.groups[self.group_slot(g)].log
        } else {
            &self.pairs[self.pair_slot(g, h)].log
        }
    }

    /// Whether every message before `m` in the log of `(g, h)` has reached
    /// `at_least` at this process — a walk over the log's own order that
    /// stops at the first message that has not (vacuous when `m` is not in
    /// the log).
    fn all_before(&mut self, g: GroupId, h: GroupId, m: MessageId, at_least: Phase) -> bool {
        self.counters.log_order_walks += 1;
        self.pair_log(g, h)
            .iter_before(&Datum::Msg(m))
            .filter_map(Datum::as_msg)
            .all(|m2| self.msgs.phase_of(m2) >= at_least)
    }

    fn start_saga(&mut self, msg: MessageId, ops: impl Into<VecDeque<Op>>, then: Option<Phase>) {
        self.saga = Some(Saga {
            msg,
            ops: ops.into(),
            issued: false,
            then,
        });
    }

    /// Starts the next enabled action, if any (one saga at a time): the
    /// first, over the undelivered messages in id order, whose guard holds.
    /// Every group `h` of this process intersects `dst(m)` (here), so the
    /// "`h` with `g ∩ h ≠ ∅`" of Algorithm 1 range over `my_groups`.
    fn schedule_action(&mut self, fd: &DistFd) {
        if self.saga.is_some() {
            return;
        }
        let mut next = 0;
        while let Some(&m) = self.live.get(next) {
            next += 1;
            #[expect(
                clippy::expect_used,
                reason = "a message enters `live` only through `learn`, which finds it in the table"
            )]
            let about = *self.msgs.get(m).expect("live messages are in the table");
            let g = about.group;
            let g_slot = self.group_slot(g);
            match about.phase {
                Phase::Start => {
                    // client layer: inject m into LOG_g (help-multicast),
                    // in submission (id) order per group
                    if !self.groups[g_slot].log.contains(&Datum::Msg(m)) {
                        let earlier_pending = self.live[..next - 1]
                            .iter()
                            .any(|m2| self.msgs.get(*m2).is_some_and(|s| s.group == g));
                        if !earlier_pending {
                            let append = Op::Group(g, GroupCmd::Append(Datum::Msg(m)));
                            self.start_saga(m, [append], None);
                            return;
                        }
                        continue;
                    }
                    // pending action (lines 8–15)
                    if self.all_before(g, g, m, Phase::Commit) {
                        let mut ops = VecDeque::new();
                        for h in self.my_groups {
                            if h != g {
                                ops.push_back(Op::Pair(
                                    g.min(h),
                                    g.max(h),
                                    encode_pair_cmd(None, m),
                                ));
                            }
                            ops.push_back(Op::ReadPairPos(g, h, m));
                        }
                        self.start_saga(m, ops, Some(Phase::Pending));
                        return;
                    }
                }
                Phase::Pending => {
                    // commit action (lines 16–24)
                    if !fd.gamma[g_slot].is_subset(about.pos_groups) {
                        continue;
                    }
                    let view = &self.groups[g_slot];
                    let f = view.family;
                    match view.cons.get(&(m, f)).copied() {
                        None => {
                            let k = about.pos_max.max(1);
                            let propose = Op::Group(g, GroupCmd::ConsPropose(m, f, k));
                            self.start_saga(m, [propose], None);
                        }
                        Some(k) => {
                            let ops: VecDeque<Op> = self
                                .my_groups
                                .iter()
                                .map(|h| {
                                    if h == g {
                                        Op::Group(g, GroupCmd::BumpLock(m, k))
                                    } else {
                                        Op::Pair(g.min(h), g.max(h), encode_pair_cmd(Some(k), m))
                                    }
                                })
                                .collect();
                            self.start_saga(m, ops, Some(Phase::Commit));
                        }
                    }
                    return;
                }
                Phase::Commit => {
                    // stabilise actions (lines 25–29), one group at a time
                    for h in self.my_groups - about.stab_groups {
                        if h != g && self.all_before(g, h, m, Phase::Stable) {
                            let announce = Op::Group(g, GroupCmd::Append(Datum::StabAnn(m, h)));
                            self.start_saga(m, [announce], None);
                            return;
                        }
                    }
                    // stable action (lines 30–33)
                    if fd.gamma[g_slot].is_subset(about.stab_groups) {
                        self.msgs.set_phase(m, Phase::Stable);
                    }
                }
                Phase::Stable => {
                    // deliver action (lines 34–37)
                    let my_groups = self.my_groups;
                    if my_groups
                        .iter()
                        .all(|h| self.all_before(g, h, m, Phase::Deliver))
                    {
                        self.msgs.set_phase(m, Phase::Deliver);
                        self.live.remove(next - 1);
                        self.delivered.push(m);
                        self.pending_delivery = Some(m);
                        return;
                    }
                }
                Phase::Deliver => unreachable!("delivered messages leave `live`"),
            }
        }
    }

    fn op_done(&self, op: &Op) -> bool {
        match op {
            Op::Group(g, cmd) => self.groups[self.group_slot(*g)].done(cmd),
            Op::Pair(g, h, cmd) => self.pairs[self.pair_slot(*g, *h)].done(*cmd),
            Op::ReadPairPos(..) => false, // executed synchronously
        }
    }

    /// Whether the derived state is what the views and phases yield when
    /// read from scratch, the way every step used to: each `Msg` datum of a
    /// group log is known, a message's announcement sets are those a scan
    /// of the log of its group finds, and `live` lists the known messages
    /// short of `deliver` — the invariant every step asserts in debug
    /// builds.
    fn derived_state_is_current(&self) -> bool {
        let logged_are_known = self.groups.iter().all(|v| {
            v.log
                .iter_in_order()
                .filter_map(Datum::as_msg)
                .all(|m| self.msgs.get(m).is_some_and(|s| s.known && s.group == v.id))
        });
        let announcements_match = self.msgs.0.iter().all(|s| {
            let Ok(slot) = self.groups.binary_search_by_key(&s.group, |v| v.id) else {
                return false;
            };
            let (mut pos_groups, mut pos_max, mut stab_groups) =
                (GroupSet::EMPTY, 0, GroupSet::EMPTY);
            for d in self.groups[slot].log.iter_in_order() {
                match d {
                    Datum::PosAnn(m, h, i) if *m == s.id => {
                        pos_groups.insert(*h);
                        pos_max = pos_max.max(*i);
                    }
                    Datum::StabAnn(m, h) if *m == s.id => {
                        stab_groups.insert(*h);
                    }
                    _ => {}
                }
            }
            (pos_groups, pos_max, stab_groups) == (s.pos_groups, s.pos_max, s.stab_groups)
        });
        let live = self
            .msgs
            .0
            .iter()
            .filter(|s| s.known && s.phase != Phase::Deliver)
            .map(|s| &s.id);
        logged_are_known && announcements_match && live.eq(&self.live) && self.learned.is_empty()
    }
}

impl Automaton for DistProcess {
    type Msg = DistMsg;
    type Fd = DistFd;
    type Event = DistDelivered;

    fn step(
        &mut self,
        ctx: &mut StepCtx<DistMsg, DistDelivered>,
        input: Option<Envelope<DistMsg>>,
        fd: &DistFd,
    ) {
        let me = self.me;
        // ---- route incoming traffic to the owning sub-protocol ----------
        let (mut to_group, mut to_pair) = (None, None);
        if let Some(env) = input {
            let Envelope {
                id,
                src,
                dst,
                sent_at,
                payload,
            } = env;
            match payload {
                DistMsg::Group(g, payload) => {
                    let env = Envelope {
                        id,
                        src,
                        dst,
                        sent_at,
                        payload,
                    };
                    to_group = Some((g, env));
                }
                DistMsg::Pair(g, h, payload) => {
                    let env = Envelope {
                        id,
                        src,
                        dst,
                        sent_at,
                        payload,
                    };
                    to_pair = Some(((g, h), env));
                }
            }
        }
        // ---- drive every group SMR --------------------------------------
        for (slot, view) in self.groups.iter_mut().enumerate() {
            let input = match &to_group {
                Some((g, _)) if *g == view.id => to_group.take().map(|(_, env)| env),
                _ => None,
            };
            view.drive();
            let mut sub: StepCtx<PaxosMsg<GroupCmd>, Decided<GroupCmd>> =
                StepCtx::detached(me, ctx.now());
            self.counters.instances_visited +=
                view.paxos.step_counted(&mut sub, input, &fd.groups[slot]);
            for (dst, msg) in sub.take_sends() {
                ctx.send(dst, DistMsg::Group(view.id, msg));
            }
            // decisions are read back through `decision()` during fold
            view.fold(&mut self.msgs, &mut self.learned);
        }
        // ---- drive every pair fast log -----------------------------------
        for (slot, view) in self.pairs.iter_mut().enumerate() {
            let input = match &to_pair {
                Some((key, _)) if *key == view.key => to_pair.take().map(|(_, env)| env),
                _ => None,
            };
            let of_g = &fd.groups[view.g_slot];
            let flfd = FastLogFd {
                inter_quorum: fd.pairs[slot],
                leader: of_g.leader,
                group_quorum: of_g.quorum,
            };
            let mut sub: StepCtx<FastLogMsg, SlotDecided> = StepCtx::detached(me, ctx.now());
            self.counters.instances_visited += view.fl.step_counted(&mut sub, input, &flfd);
            for (dst, msg) in sub.take_sends() {
                ctx.send(dst, DistMsg::Pair(view.key.0, view.key.1, msg));
            }
            view.fold();
        }
        if to_pair.is_some() {
            self.counters.pair_msgs_unrouted += 1;
        }
        // ---- progress the running saga ----------------------------------
        if let Some(mut saga) = self.saga.take() {
            // retire completed operations; execute reads synchronously
            while let Some(op) = saga.ops.front() {
                match *op {
                    Op::ReadPairPos(g, h, m) => {
                        let pos = self.pair_log(g, h).pos(&Datum::Msg(m)).0;
                        if pos > 0 {
                            saga.ops.pop_front();
                            saga.issued = false;
                            self.pending_pos.push((m, h, pos));
                        } else {
                            break;
                        }
                    }
                    _ => {
                        if self.op_done(op) {
                            saga.ops.pop_front();
                            saga.issued = false;
                        } else {
                            break;
                        }
                    }
                }
            }
            // issue the head op, or finish the saga
            if let Some(op) = saga.ops.front() {
                if !saga.issued {
                    saga.issued = true;
                    match op {
                        Op::Group(g, cmd) => {
                            let slot = self.group_slot(*g);
                            self.groups[slot].outbox.push_back(cmd.clone());
                        }
                        Op::Pair(g, h, cmd) => {
                            let slot = self.pair_slot(*g, *h);
                            self.pairs[slot].fl.append(*cmd);
                        }
                        Op::ReadPairPos(..) => {}
                    }
                }
                self.saga = Some(saga);
            } else {
                // saga complete: flush collected announcements, then phase
                let m = saga.msg;
                let then = saga.then;
                if !self.pending_pos.is_empty() {
                    #[expect(
                        clippy::expect_used,
                        reason = "a saga is started only for a live message, which the table knows"
                    )]
                    let g = self.msgs.get(m).expect("sagas run on known messages").group;
                    let ops: VecDeque<Op> = self
                        .pending_pos
                        .drain(..)
                        .map(|(m, h, i)| Op::Group(g, GroupCmd::Append(Datum::PosAnn(m, h, i))))
                        .collect();
                    self.start_saga(m, ops, then);
                } else if let Some(phase) = then {
                    self.msgs.set_phase(m, phase);
                }
            }
        }
        // ---- schedule the next action ------------------------------------
        self.pending_delivery = None;
        self.schedule_action(fd);
        if let Some(m) = self.pending_delivery.take() {
            ctx.emit(DistDelivered { msg: m });
        }
        // what the group logs taught this step is known from the next on
        while let Some(m) = self.learned.pop() {
            self.learn(m);
        }
        debug_assert!(
            self.derived_state_is_current(),
            "derived state of {me} went wrong"
        );
    }

    fn is_active(&self) -> bool {
        self.saga.is_some() || !self.live.is_empty()
    }
}

/// Builds the property-checker [`RunReport`](crate::RunReport) of a
/// kernel-level run driving [`DistProcess`] automata, so Level-B runs flow
/// through the same `spec` checkers as Level-A runs.
///
/// `submissions` lists the user-level multicasts injected before the run,
/// in [`MessageId`] order (index `i` is message `i`); they are stamped at
/// [`Time::ZERO`]. Deliveries and their times come from the
/// [`DistDelivered`] trace events; the per-process action counts are the
/// simulator's step counters.
pub fn run_report(
    sim: &gam_kernel::Simulator<DistProcess, MuHistory>,
    system: &GroupSystem,
    submissions: &[(ProcessId, GroupId, u64)],
    quiescent: bool,
) -> crate::RunReport {
    let n = sim.universe().max().map_or(0, |p| p.index() + 1);
    let mut delivered = vec![Vec::new(); n];
    for ev in sim.trace().events() {
        delivered[ev.pid.index()].push(crate::Delivery {
            msg: ev.event.msg,
            at: ev.time,
        });
    }
    crate::RunReport {
        system: system.clone(),
        pattern: sim.pattern().clone(),
        messages: submissions
            .iter()
            .map(|(src, group, payload)| crate::MessageInfo {
                src: *src,
                group: *group,
                payload: *payload,
            })
            .collect(),
        multicast_at: vec![Time::ZERO; submissions.len()],
        delivered,
        actions_of: sim
            .universe()
            .iter()
            .map(|p| sim.trace().steps_of(p))
            .collect(),
        quiescent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_detectors::MuConfig;
    use gam_groups::topology;
    use gam_kernel::{FailurePattern, RandomSource, RotatingSource, RunOutcome, Simulator};

    fn system(gs: &GroupSystem, pattern: FailurePattern) -> Simulator<DistProcess, MuHistory> {
        let n = gs.universe().len();
        let autos = (0..n)
            .map(|i| DistProcess::new(ProcessId(i as u32), gs))
            .collect();
        let mu = MuOracle::new(gs, pattern.clone(), MuConfig::default());
        Simulator::new(autos, pattern, MuHistory::new(mu))
    }

    fn delivered(sim: &Simulator<DistProcess, MuHistory>, p: ProcessId) -> Vec<MessageId> {
        sim.automaton(p).delivered().to_vec()
    }

    #[test]
    fn single_group_delivers_over_messages() {
        let gs = topology::single_group(3);
        let pattern = FailurePattern::all_correct(gs.universe());
        let mut sim = system(&gs, pattern);
        sim.automaton_mut(ProcessId(0))
            .multicast(MessageId(0), GroupId(0));
        let out = sim.run(&mut RotatingSource::default(), 2_000_000);
        assert_eq!(out, RunOutcome::Quiescent);
        for p in gs.universe() {
            assert_eq!(delivered(&sim, p), vec![MessageId(0)], "{p}");
        }
    }

    #[test]
    fn two_overlapping_groups_agree_on_order() {
        let gs = topology::two_overlapping(3, 1); // g1={p0..p2}, g2={p2..p4}
        let pattern = FailurePattern::all_correct(gs.universe());
        let mut sim = system(&gs, pattern);
        sim.automaton_mut(ProcessId(0))
            .multicast(MessageId(0), GroupId(0));
        sim.automaton_mut(ProcessId(4))
            .multicast(MessageId(1), GroupId(1));
        let out = sim.run(&mut RotatingSource::default(), 5_000_000);
        assert_eq!(out, RunOutcome::Quiescent);
        for p in gs.members(GroupId(0)) {
            assert!(delivered(&sim, p).contains(&MessageId(0)), "{p}");
        }
        for p in gs.members(GroupId(1)) {
            assert!(delivered(&sim, p).contains(&MessageId(1)), "{p}");
        }
        // the overlap replica p2 delivers both, in some order — and every
        // other pair-wise shared destination agrees with it (trivially here)
        assert_eq!(delivered(&sim, ProcessId(2)).len(), 2);
    }

    #[test]
    fn genuineness_over_messages() {
        // a message to g1 only: processes outside g1 exchange no messages
        let gs = topology::disjoint(2, 3); // g1={p0..p2}, g2={p3..p5}
        let pattern = FailurePattern::all_correct(gs.universe());
        let mut sim = system(&gs, pattern);
        sim.automaton_mut(ProcessId(0))
            .multicast(MessageId(0), GroupId(0));
        let out = sim.run(&mut RotatingSource::default(), 2_000_000);
        assert_eq!(out, RunOutcome::Quiescent);
        for p in gs.members(GroupId(0)) {
            assert_eq!(delivered(&sim, p), vec![MessageId(0)]);
        }
        for p in gs.members(GroupId(1)) {
            assert_eq!(sim.trace().sends_of(p), 0, "{p} must send nothing");
            assert_eq!(sim.trace().receives_of(p), 0, "{p} must receive nothing");
        }
    }

    #[test]
    fn random_schedules_converge() {
        let gs = topology::two_overlapping(2, 1); // 3 processes
        for seed in 0..3u64 {
            let pattern = FailurePattern::all_correct(gs.universe());
            let mut sim = system(&gs, pattern);
            sim.automaton_mut(ProcessId(0))
                .multicast(MessageId(0), GroupId(0));
            sim.automaton_mut(ProcessId(2))
                .multicast(MessageId(1), GroupId(1));
            let out = sim.run(&mut RandomSource::new(seed), 5_000_000);
            assert_eq!(out, RunOutcome::Quiescent, "seed {seed}");
            assert_eq!(delivered(&sim, ProcessId(1)).len(), 2, "seed {seed}");
        }
    }

    #[test]
    fn ring_with_concurrent_messages_quiesces() {
        // the cyclic case: γ is live and CONS coordinates the bumps
        let gs = topology::ring(3, 2);
        let pattern = FailurePattern::all_correct(gs.universe());
        let mut sim = system(&gs, pattern);
        for g in 0..3u32 {
            let src = gs.members(GroupId(g)).min().unwrap();
            sim.automaton_mut(src)
                .multicast(MessageId(g as u64), GroupId(g));
        }
        let out = sim.run(&mut RotatingSource::default(), 10_000_000);
        assert_eq!(out, RunOutcome::Quiescent);
        // EXPERIMENTS.md's Level B row of Table 1 quotes this count
        assert_eq!(sim.total_messages(), 243, "protocol messages sent");
        for g in 0..3u32 {
            for p in gs.members(GroupId(g)) {
                assert!(
                    delivered(&sim, p).contains(&MessageId(g as u64)),
                    "{p} missing m{g}"
                );
            }
        }
        // shared destinations agree on the relative order of shared messages
        for p in gs.universe() {
            for q in gs.universe() {
                let (dp, dq) = (delivered(&sim, p), delivered(&sim, q));
                for (i1, m1) in dp.iter().enumerate() {
                    for m2 in dp.iter().skip(i1 + 1) {
                        if let (Some(j1), Some(j2)) = (
                            dq.iter().position(|x| x == m1),
                            dq.iter().position(|x| x == m2),
                        ) {
                            assert!(j1 < j2, "{p}/{q} disagree on {m1:?},{m2:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn survives_group_side_crash() {
        // a non-intersection member of g1 crashes; Σ_g1 adapts and the
        // group SMR keeps deciding
        let gs = topology::two_overlapping(3, 1);
        let pattern =
            FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), gam_kernel::Time(30))]);
        let mut sim = system(&gs, pattern.clone());
        sim.automaton_mut(ProcessId(0))
            .multicast(MessageId(0), GroupId(0));
        let out = sim.run(&mut RotatingSource::default(), 5_000_000);
        assert_eq!(out, RunOutcome::Quiescent);
        for p in gs.members(GroupId(0)) & pattern.correct() {
            assert_eq!(delivered(&sim, p), vec![MessageId(0)], "{p}");
        }
    }

    #[test]
    fn mu_windows_end_where_the_runtime_breaks() {
        // The two substrates agree on when μ can change: every instant at
        // which a window of the Level-B history ends is one the Level-A
        // tables list as a breakpoint (crash instants, γ exclusions).
        let gs = topology::fig1();
        let config = crate::RuntimeConfig::default();
        let mut ended = 0;
        for crashes in [
            vec![],
            vec![(ProcessId(1), Time(5))],
            vec![(ProcessId(1), Time(9)), (ProcessId(2), Time(30))],
            vec![
                (ProcessId(0), Time(2)),
                (ProcessId(3), Time(2)),
                (ProcessId(4), Time(77)),
            ],
        ] {
            let pattern = FailurePattern::from_crashes(gs.universe(), crashes);
            let tables = crate::arena::Tables::new(&gs, pattern.clone(), &config);
            let history = MuHistory::new(MuOracle::new(&gs, pattern, config.mu));
            for p in gs.universe() {
                for t in 0..100 {
                    let until = history.stable_until(p, Time(t));
                    if until != Time::MAX {
                        ended += 1;
                        let moves_at = until.0 + 1;
                        assert!(
                            tables.breakpoints.contains(&moves_at),
                            "μ at {p} may move at t{moves_at} ∉ {:?}",
                            tables.breakpoints
                        );
                    }
                }
            }
        }
        assert!(ended > 0, "some window must end");
    }

    #[test]
    fn the_sample_is_laid_out_as_the_process_hosts_its_objects() {
        let gs = topology::fig1();
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(4))]);
        let mu = MuOracle::new(&gs, pattern, MuConfig::default());
        let history = MuHistory::new(mu.clone());
        for p in gs.universe() {
            let process = DistProcess::new(p, &gs);
            for t in [Time(0), Time(4), Time(50)] {
                let fd = history.sample(p, t);
                assert_eq!(fd.groups.len(), process.groups.len());
                for (view, (os, gamma)) in
                    process.groups.iter().zip(fd.groups.iter().zip(&fd.gamma))
                {
                    assert_eq!(os.leader, mu.omega(view.id, p, t));
                    assert_eq!(os.quorum, mu.sigma(view.id, view.id, p, t));
                    assert_eq!(*gamma, mu.gamma_groups(p, view.id, t));
                }
                assert_eq!(fd.pairs.len(), process.pairs.len());
                for (view, quorum) in process.pairs.iter().zip(&fd.pairs) {
                    assert!(quorum.is_some(), "{p} ∈ g ∩ h for every pair it hosts");
                    assert_eq!(*quorum, mu.sigma(view.key.0, view.key.1, p, t));
                    assert_eq!(process.groups[view.g_slot].id, view.key.0);
                }
            }
        }
    }

    #[test]
    fn counters_are_not_process_state() {
        let gs = topology::ring(3, 2);
        let mut sim = system(&gs, FailurePattern::all_correct(gs.universe()));
        for g in 0..3u32 {
            let src = gs.members(GroupId(g)).min().unwrap();
            sim.automaton_mut(src)
                .multicast(MessageId(g as u64), GroupId(g));
        }
        sim.run(&mut RotatingSource::default(), 200);
        let p = ProcessId(0);
        let counted = sim.automaton(p).counters();
        assert!(counted.instances_visited > 0 && counted.log_order_walks > 0);
        let mut twin = sim.automaton(p).clone();
        assert_eq!(twin.counters(), DistCounters::default());
        twin.clone_from(sim.automaton(p));
        assert_eq!(twin.counters(), counted);
    }

    #[test]
    fn pair_cmd_encoding_round_trips() {
        for (bump, m) in [
            (None, MessageId(0)),
            (None, MessageId(77)),
            (Some(1u64), MessageId(3)),
            (Some(12345), MessageId(0xffff)),
        ] {
            assert_eq!(decode_pair_cmd(encode_pair_cmd(bump, m)), (bump, m));
        }
    }
}
