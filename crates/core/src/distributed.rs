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

/// A command of a group's replicated state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
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
pub enum DistMsg {
    /// Group-`g` SMR traffic.
    Group(GroupId, PaxosMsg<GroupCmd>),
    /// `LOG_{g∩h}` fast-log traffic (normalised `g ≤ h`).
    Pair(GroupId, GroupId, FastLogMsg),
}

/// The `μ` sample a step consumes, flattened per object scope.
#[derive(Debug, Clone)]
pub struct DistFd {
    /// `(Ω_g, Σ_g)` per group index.
    pub groups: Vec<OmegaSigma>,
    /// `Σ_{g∩h}` per intersecting pair (normalised).
    pub pairs: BTreeMap<(GroupId, GroupId), Option<ProcessSet>>,
    /// `γ(g)` per group index, at this process.
    pub gamma: Vec<GroupSet>,
}

/// A [`History`] producing [`DistFd`] samples from a [`MuOracle`].
#[derive(Debug, Clone)]
pub struct MuHistory {
    mu: MuOracle,
}

impl MuHistory {
    /// Wraps the candidate oracle.
    pub fn new(mu: MuOracle) -> Self {
        MuHistory { mu }
    }
}

impl History for MuHistory {
    type Value = DistFd;

    fn sample(&self, p: ProcessId, t: Time) -> DistFd {
        let system = self.mu.system();
        let groups = system
            .iter()
            .map(|(g, _)| OmegaSigma {
                leader: self.mu.omega(g, p, t),
                quorum: self.mu.sigma(g, g, p, t),
            })
            .collect();
        let pairs = system
            .intersecting_pairs()
            .into_iter()
            .map(|(g, h)| ((g, h), self.mu.sigma(g, h, p, t)))
            .collect();
        let gamma = system
            .iter()
            .map(|(g, _)| self.mu.gamma_groups(p, g, t))
            .collect();
        DistFd {
            groups,
            pairs,
            gamma,
        }
    }
}

/// The folded view of one group's SMR at this process.
#[derive(Debug, Clone)]
struct GroupView {
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
    fn new(me: ProcessId, members: ProcessSet, family: GroupSet) -> Self {
        GroupView {
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

    /// Folds newly decided instances; returns `true` if anything changed.
    fn fold(&mut self) -> bool {
        let mut changed = false;
        while let Some(cmd) = self.paxos.decision(self.applied).cloned() {
            self.applied += 1;
            changed = true;
            match cmd {
                GroupCmd::Append(d) => {
                    self.log.append(d);
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
        changed
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
    fl: FastLogProcess,
    applied: usize,
    log: Log<Datum>,
}

impl PairView {
    fn fold(&mut self) -> bool {
        let cmds = self.fl.log();
        let mut changed = false;
        for cmd in &cmds[self.applied..] {
            changed = true;
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
        self.applied = cmds.len();
        changed
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

/// One process of the distributed deployment.
#[derive(Debug, Clone)]
pub struct DistProcess {
    me: ProcessId,
    system: GroupSystem,
    my_groups: GroupSet,
    groups: BTreeMap<GroupId, GroupView>,
    pairs: BTreeMap<(GroupId, GroupId), PairView>,
    phase: BTreeMap<MessageId, Phase>,
    delivered: Vec<MessageId>,
    /// Submitted multicast requests this process knows of: the client layer
    /// broadcast (`L_g` is approximated by gossiping submissions, then the
    /// group SMR provides the actual total order).
    known: BTreeMap<MessageId, GroupId>,
    saga: Option<Saga>,
    /// Pending `(m, h, i)` announcements collected by `ReadPairPos`.
    pending_pos: Vec<(MessageId, GroupId, u64)>,
    /// A delivery performed by the last `schedule_action`, to be emitted.
    pending_delivery: Option<MessageId>,
}

/// Emitted on local delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistDelivered {
    /// The delivered message.
    pub msg: MessageId,
}

impl DistProcess {
    /// Creates the automaton for `me` over `system`.
    pub fn new(me: ProcessId, system: &GroupSystem) -> Self {
        let my_groups = system.groups_of(me);
        let cyclic = system.cyclic_families();
        let mut groups = BTreeMap::new();
        let mut pairs = BTreeMap::new();
        for g in my_groups {
            let family = system.h_set_among(&cyclic, me, g);
            groups.insert(g, GroupView::new(me, system.members(g), family));
            for h in my_groups {
                if g < h && system.intersecting(g, h) {
                    let inter = system.intersection(g, h);
                    pairs.insert(
                        (g, h),
                        PairView {
                            fl: FastLogProcess::new(me, inter, system.members(g)),
                            applied: 0,
                            log: Log::new(),
                        },
                    );
                }
            }
        }
        DistProcess {
            me,
            system: system.clone(),
            my_groups,
            groups,
            pairs,
            phase: BTreeMap::new(),
            delivered: Vec::new(),
            known: BTreeMap::new(),
            saga: None,
            pending_pos: Vec::new(),
            pending_delivery: None,
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
        self.known.insert(m, group);
    }

    /// The local delivery sequence.
    pub fn delivered(&self) -> &[MessageId] {
        &self.delivered
    }

    fn phase_of(&self, m: MessageId) -> Phase {
        self.phase.get(&m).copied().unwrap_or(Phase::Start)
    }

    /// The log holding `m`'s entries for pair `(g, h)` (group log if `g=h`).
    fn pair_log(&self, g: GroupId, h: GroupId) -> Option<&Log<Datum>> {
        if g == h {
            self.groups.get(&g).map(|v| &v.log)
        } else {
            let key = if g < h { (g, h) } else { (h, g) };
            self.pairs.get(&key).map(|v| &v.log)
        }
    }

    fn msgs_before(&self, g: GroupId, h: GroupId, m: MessageId) -> Vec<MessageId> {
        let Some(log) = self.pair_log(g, h) else {
            return Vec::new();
        };
        let me = Datum::Msg(m);
        log.iter_in_order()
            .filter(|d| log.before(d, &me))
            .filter_map(|d| d.as_msg())
            .collect()
    }

    /// Starts the next enabled action, if any (one saga at a time).
    fn schedule_action(&mut self, fd: &DistFd) {
        if self.saga.is_some() {
            return;
        }
        // Collect candidate messages addressed to one of my groups.
        let mut candidates: Vec<(MessageId, GroupId)> = self
            .known
            .iter()
            .map(|(m, g)| (*m, *g))
            .filter(|(_, g)| self.my_groups.contains(*g))
            .collect();
        candidates.sort();
        for (m, g) in candidates {
            let group_log = &self.groups[&g].log;
            match self.phase_of(m) {
                Phase::Start => {
                    // client layer: inject m into LOG_g (help-multicast),
                    // in submission (id) order per group
                    if !group_log.contains(&Datum::Msg(m)) {
                        let earlier_pending = self.known.iter().any(|(m2, g2)| {
                            *g2 == g && *m2 < m && self.phase_of(*m2) != Phase::Deliver
                        });
                        if !earlier_pending {
                            self.saga = Some(Saga {
                                msg: m,
                                ops: VecDeque::from([Op::Group(
                                    g,
                                    GroupCmd::Append(Datum::Msg(m)),
                                )]),
                                issued: false,
                                then: None,
                            });
                            return;
                        }
                        continue;
                    }
                    // pending action (lines 8–15)
                    let prior_ok = self
                        .msgs_before(g, g, m)
                        .into_iter()
                        .all(|m2| self.phase_of(m2) >= Phase::Commit);
                    if prior_ok {
                        let mut ops = VecDeque::new();
                        for h in self.my_groups {
                            if h == g || self.system.intersecting(g, h) {
                                if h != g {
                                    ops.push_back(Op::Pair(
                                        g.min(h),
                                        g.max(h),
                                        encode_pair_cmd(None, m),
                                    ));
                                }
                                ops.push_back(Op::ReadPairPos(g, h, m));
                            }
                        }
                        self.saga = Some(Saga {
                            msg: m,
                            ops,
                            issued: false,
                            then: Some(Phase::Pending),
                        });
                        return;
                    }
                }
                Phase::Pending => {
                    // commit action (lines 16–24)
                    let gamma_g = fd.gamma[g.index()];
                    let have_all = gamma_g.iter().all(|h| {
                        group_log
                            .iter_in_order()
                            .any(|d| matches!(d, Datum::PosAnn(m2, h2, _) if *m2 == m && *h2 == h))
                    });
                    if !have_all {
                        continue;
                    }
                    let view = &self.groups[&g];
                    let f = view.family;
                    let decided = view.cons.get(&(m, f)).copied();
                    match decided {
                        None => {
                            let k = group_log
                                .iter_in_order()
                                .filter_map(|d| match d {
                                    Datum::PosAnn(m2, _, i) if *m2 == m => Some(*i),
                                    _ => None,
                                })
                                .max()
                                .unwrap_or(1);
                            self.saga = Some(Saga {
                                msg: m,
                                ops: VecDeque::from([Op::Group(g, GroupCmd::ConsPropose(m, f, k))]),
                                issued: false,
                                then: None,
                            });
                            return;
                        }
                        Some(k) => {
                            let mut ops = VecDeque::new();
                            for h in self.my_groups {
                                if h == g {
                                    ops.push_back(Op::Group(g, GroupCmd::BumpLock(m, k)));
                                } else if self.system.intersecting(g, h) {
                                    ops.push_back(Op::Pair(
                                        g.min(h),
                                        g.max(h),
                                        encode_pair_cmd(Some(k), m),
                                    ));
                                }
                            }
                            self.saga = Some(Saga {
                                msg: m,
                                ops,
                                issued: false,
                                then: Some(Phase::Commit),
                            });
                            return;
                        }
                    }
                }
                Phase::Commit => {
                    // stabilise actions (lines 25–29), one group at a time
                    for h in self.my_groups {
                        if h == g || !self.system.intersecting(g, h) {
                            continue;
                        }
                        if group_log.contains(&Datum::StabAnn(m, h)) {
                            continue;
                        }
                        let prior_stable = self
                            .msgs_before(g, h, m)
                            .into_iter()
                            .all(|m2| self.phase_of(m2) >= Phase::Stable);
                        if prior_stable {
                            self.saga = Some(Saga {
                                msg: m,
                                ops: VecDeque::from([Op::Group(
                                    g,
                                    GroupCmd::Append(Datum::StabAnn(m, h)),
                                )]),
                                issued: false,
                                then: None,
                            });
                            return;
                        }
                    }
                    // stable action (lines 30–33)
                    let gamma_g = fd.gamma[g.index()];
                    let stable_ok = gamma_g
                        .iter()
                        .all(|h| group_log.contains(&Datum::StabAnn(m, h)));
                    if stable_ok {
                        self.phase.insert(m, Phase::Stable);
                        continue;
                    }
                }
                Phase::Stable => {
                    // deliver action (lines 34–37)
                    let ok = self.my_groups.iter().all(|h| {
                        if h != g && !self.system.intersecting(g, h) {
                            return true;
                        }
                        self.msgs_before(g, h, m)
                            .into_iter()
                            .all(|m2| self.phase_of(m2) == Phase::Deliver)
                    });
                    if ok {
                        self.phase.insert(m, Phase::Deliver);
                        self.delivered.push(m);
                        self.pending_delivery = Some(m);
                        return;
                    }
                }
                Phase::Deliver => {}
            }
        }
    }
}

impl DistProcess {
    fn op_done(&self, op: &Op) -> bool {
        match op {
            Op::Group(g, cmd) => self.groups[g].done(cmd),
            Op::Pair(g, h, cmd) => self.pairs[&(*g, *h)].done(*cmd),
            Op::ReadPairPos(..) => false, // executed synchronously
        }
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
        let mut group_inputs: Vec<(GroupId, Envelope<PaxosMsg<GroupCmd>>)> = Vec::new();
        let mut pair_inputs: Vec<((GroupId, GroupId), Envelope<FastLogMsg>)> = Vec::new();
        if let Some(env) = input {
            match env.payload {
                DistMsg::Group(g, msg) => group_inputs.push((
                    g,
                    Envelope {
                        id: env.id,
                        src: env.src,
                        dst: env.dst,
                        sent_at: env.sent_at,
                        payload: msg,
                    },
                )),
                DistMsg::Pair(g, h, msg) => pair_inputs.push((
                    (g, h),
                    Envelope {
                        id: env.id,
                        src: env.src,
                        dst: env.dst,
                        sent_at: env.sent_at,
                        payload: msg,
                    },
                )),
            }
        }
        // ---- drive every group SMR --------------------------------------
        let group_ids: Vec<GroupId> = self.groups.keys().copied().collect();
        for g in group_ids {
            let gi = group_inputs
                .iter()
                .position(|(g2, _)| *g2 == g)
                .map(|i| group_inputs.swap_remove(i).1);
            let view = self
                .groups
                .get_mut(&g)
                .expect("key was drawn from groups.keys(); views are never removed");
            view.drive();
            let mut sub: StepCtx<PaxosMsg<GroupCmd>, Decided<GroupCmd>> =
                StepCtx::detached(me, ctx.now());
            view.paxos.step(&mut sub, gi, &fd.groups[g.index()]);
            for (dst, msg) in sub.take_sends() {
                ctx.send(dst, DistMsg::Group(g, msg));
            }
            // decisions are read back through `decision()` during fold
            let _ = sub.take_events();
            view.fold();
        }
        // ---- drive every pair fast log -----------------------------------
        let pair_ids: Vec<(GroupId, GroupId)> = self.pairs.keys().copied().collect();
        for key in pair_ids {
            let pi = pair_inputs
                .iter()
                .position(|(k, _)| *k == key)
                .map(|i| pair_inputs.swap_remove(i).1);
            let view = self
                .pairs
                .get_mut(&key)
                .expect("key was drawn from pairs.keys(); views are never removed");
            let flfd = FastLogFd {
                inter_quorum: fd.pairs.get(&key).copied().flatten(),
                leader: fd.groups[key.0.index()].leader,
                group_quorum: fd.groups[key.0.index()].quorum,
            };
            let mut sub: StepCtx<FastLogMsg, SlotDecided> = StepCtx::detached(me, ctx.now());
            view.fl.step(&mut sub, pi, &flfd);
            for (dst, msg) in sub.take_sends() {
                ctx.send(dst, DistMsg::Pair(key.0, key.1, msg));
            }
            let _ = sub.take_events();
            view.fold();
        }
        // ---- progress the running saga ----------------------------------
        if let Some(mut saga) = self.saga.take() {
            // retire completed operations; execute reads synchronously
            while let Some(op) = saga.ops.front().cloned() {
                match op {
                    Op::ReadPairPos(g, h, m) => {
                        let pos = self
                            .pair_log(g, h)
                            .map(|l| l.pos(&Datum::Msg(m)).0)
                            .unwrap_or(0);
                        if pos > 0 {
                            saga.ops.pop_front();
                            saga.issued = false;
                            self.pending_pos.push((m, h, pos));
                        } else {
                            break;
                        }
                    }
                    _ => {
                        if self.op_done(&op) {
                            saga.ops.pop_front();
                            saga.issued = false;
                        } else {
                            break;
                        }
                    }
                }
            }
            // issue the head op, or finish the saga
            if let Some(op) = saga.ops.front().cloned() {
                if !saga.issued {
                    saga.issued = true;
                    match op {
                        Op::Group(g, cmd) => {
                            self.groups
                                .get_mut(&g)
                                .expect("sagas only target groups this process hosts")
                                .outbox
                                .push_back(cmd);
                        }
                        Op::Pair(g, h, cmd) => {
                            self.pairs
                                .get_mut(&(g, h))
                                .expect("sagas only target pairs this process hosts")
                                .fl
                                .append(cmd);
                        }
                        Op::ReadPairPos(..) => {}
                    }
                }
                self.saga = Some(saga);
            } else {
                // saga complete: flush collected announcements, then phase
                let m = saga.msg;
                let then = saga.then;
                let anns = std::mem::take(&mut self.pending_pos);
                if !anns.is_empty() {
                    let g = self.known[&m];
                    let ops: VecDeque<Op> = anns
                        .into_iter()
                        .map(|(m, h, i)| Op::Group(g, GroupCmd::Append(Datum::PosAnn(m, h, i))))
                        .collect();
                    self.saga = Some(Saga {
                        msg: m,
                        ops,
                        issued: false,
                        then,
                    });
                } else if let Some(phase) = then {
                    self.phase.insert(m, phase);
                }
            }
        }
        // ---- schedule the next action ------------------------------------
        self.pending_delivery = None;
        self.schedule_action(fd);
        if let Some(m) = self.pending_delivery.take() {
            ctx.emit(DistDelivered { msg: m });
        }
        // learn new submissions via the group logs (helping: any Msg datum
        // seen in LOG_g becomes known)
        let learned: Vec<(MessageId, GroupId)> = self
            .groups
            .iter()
            .flat_map(|(g, v)| {
                v.log
                    .iter_in_order()
                    .filter_map(|d| d.as_msg())
                    .map(|m| (m, *g))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (m, g) in learned {
            self.known.entry(m).or_insert(g);
        }
    }

    fn is_active(&self) -> bool {
        self.saga.is_some()
            || self
                .known
                .iter()
                .any(|(m, g)| self.my_groups.contains(*g) && self.phase_of(*m) != Phase::Deliver)
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
    use gam_kernel::{FailurePattern, RunOutcome, Scheduler, Simulator};

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
        let out = sim.run(Scheduler::RoundRobin, 2_000_000);
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
        let out = sim.run(Scheduler::RoundRobin, 5_000_000);
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
        let out = sim.run(Scheduler::RoundRobin, 2_000_000);
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
            let mut sim = system(&gs, pattern).with_seed(seed);
            sim.automaton_mut(ProcessId(0))
                .multicast(MessageId(0), GroupId(0));
            sim.automaton_mut(ProcessId(2))
                .multicast(MessageId(1), GroupId(1));
            let out = sim.run(Scheduler::Random { null_prob: 0.2 }, 5_000_000);
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
        let out = sim.run(Scheduler::RoundRobin, 10_000_000);
        assert_eq!(out, RunOutcome::Quiescent);
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
        let out = sim.run(Scheduler::RoundRobin, 5_000_000);
        assert_eq!(out, RunOutcome::Quiescent);
        for p in gs.members(GroupId(0)) & pattern.correct() {
            assert_eq!(delivered(&sim, p), vec![MessageId(0)], "{p}");
        }
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
