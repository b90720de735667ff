//! The contention-free fast log for `LOG_{g∩h}` — the modified universal
//! construction of §4.3 and Proposition 47.
//!
//! `μ` offers no consensus in `g ∩ h`, so the log shared by two intersecting
//! groups is built from an unbounded list of *contention-free fast*
//! consensus objects: each slot is guarded by an adopt–commit object
//! implemented from `Σ_{g∩h}`-quorums **among the intersection only**, and
//! falls back to an `Ω_g ∧ Σ_g` consensus (Paxos) **in the full group `g`**
//! only when the adopt–commit fails. When processes execute operations in
//! the exact same order (no step contention), every slot commits on the
//! fast path and *only the processes of `g ∩ h` take steps* — which is how
//! the construction preserves minimality (Proposition 47).
//!
//! The adopt–commit here is the classic two-phase quorum protocol: phase 1
//! announces the proposal and collects the values seen by a quorum; phase 2
//! announces `(value, clean?)` and commits iff a quorum saw only clean
//! announcements of a single value.

use crate::paxos::{Decided, PaxosMsg, PaxosProcess};
use gam_kernel::{Automaton, Envelope, History, ProcessId, ProcessSet, StepCtx, Time};
use std::collections::{BTreeMap, BTreeSet};

/// The failure-detector sample the fast log consumes:
/// `Σ_{g∩h} ∧ Ω_g ∧ Σ_g`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastLogFd {
    /// `Σ_{g∩h}` (⊥ outside the intersection).
    pub inter_quorum: Option<ProcessSet>,
    /// `Ω_g` (⊥ outside `g`).
    pub leader: Option<ProcessId>,
    /// `Σ_g` (⊥ outside `g`).
    pub group_quorum: Option<ProcessSet>,
}

/// A [`History`] bundling the three constituent oracles.
#[derive(Debug, Clone)]
pub struct FastLogHistory<I, O, G> {
    inter: I,
    omega: O,
    group: G,
}

impl<I, O, G> FastLogHistory<I, O, G> {
    /// Bundles `Σ_{g∩h}`, `Ω_g` and `Σ_g` histories.
    pub fn new(inter: I, omega: O, group: G) -> Self {
        FastLogHistory {
            inter,
            omega,
            group,
        }
    }
}

impl<I, O, G> History for FastLogHistory<I, O, G>
where
    I: History<Value = Option<ProcessSet>>,
    O: History<Value = Option<ProcessId>>,
    G: History<Value = Option<ProcessSet>>,
{
    type Value = FastLogFd;

    fn sample(&self, p: ProcessId, t: Time) -> FastLogFd {
        FastLogFd {
            inter_quorum: self.inter.sample(p, t),
            leader: self.omega.sample(p, t),
            group_quorum: self.group.sample(p, t),
        }
    }

    fn stable_until(&self, p: ProcessId, t: Time) -> Time {
        self.inter
            .stable_until(p, t)
            .min(self.omega.stable_until(p, t))
            .min(self.group.stable_until(p, t))
    }
}

/// Protocol messages of the fast log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastLogMsg {
    /// AC phase 1: announce a proposal for `slot`.
    AcP1 {
        /// Log slot.
        slot: u64,
        /// Proposed command.
        value: u64,
    },
    /// AC phase-1 acknowledgement: the values this replica has seen.
    AcP1Ack {
        /// Log slot.
        slot: u64,
        /// Snapshot of phase-1 values seen by the replica.
        seen: Vec<u64>,
    },
    /// AC phase 2: announce `(value, clean)`.
    AcP2 {
        /// Log slot.
        slot: u64,
        /// Carried value.
        value: u64,
        /// Whether phase 1 saw only this value.
        clean: bool,
    },
    /// AC phase-2 acknowledgement: the `(value, clean)` entries seen.
    AcP2Ack {
        /// Log slot.
        slot: u64,
        /// Snapshot of phase-2 entries seen by the replica.
        seen: Vec<(u64, bool)>,
    },
    /// Fast-path decision announcement within `g ∩ h`.
    SlotDecide {
        /// Log slot.
        slot: u64,
        /// Decided command.
        value: u64,
    },
    /// Encapsulated backup-consensus traffic (within `g`).
    Paxos(PaxosMsg<u64>),
}

/// Emitted when a slot's command is learnt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotDecided {
    /// Log slot.
    pub slot: u64,
    /// Decided command.
    pub value: u64,
}

#[derive(Debug, Clone)]
enum AcState {
    P1 {
        value: u64,
        acks: ProcessSet,
        union: BTreeSet<u64>,
    },
    P2 {
        value: u64,
        clean: bool,
        acks: ProcessSet,
        union: BTreeSet<(u64, bool)>,
    },
}

/// One process of the fast log: replica + client + backup-consensus member.
#[derive(Debug, Clone)]
pub struct FastLogProcess {
    me: ProcessId,
    /// `g ∩ h` — the fast-path participants.
    inter: ProcessSet,
    /// `g` — the backup-consensus participants.
    group: ProcessSet,
    /// Replica state: phase-1 values and phase-2 entries per slot.
    p1_seen: BTreeMap<u64, BTreeSet<u64>>,
    p2_seen: BTreeMap<u64, BTreeSet<(u64, bool)>>,
    /// Learnt slots, contiguous or not.
    decided: BTreeMap<u64, u64>,
    /// The learnt log prefix: the commands of slots `0..prefix.len()`, all
    /// decided — extended as slots close, so no step walks closed slots.
    prefix: Vec<u64>,
    /// Client: commands waiting to be appended.
    queue: std::collections::VecDeque<u64>,
    /// How much of `prefix` has been searched for the head of `queue`.
    searched: usize,
    /// The in-flight adopt–commit attempt (slot, state).
    attempt: Option<(u64, AcState)>,
    /// Slots for which a backup consensus is engaged.
    fallback: BTreeSet<u64>,
    paxos: PaxosProcess<u64>,
}

impl FastLogProcess {
    /// Creates the automaton for process `me` with fast path in `inter` and
    /// backup consensus in `group`.
    ///
    /// # Panics
    ///
    /// Panics if `inter ⊄ group` or `me ∉ group`.
    pub fn new(me: ProcessId, inter: ProcessSet, group: ProcessSet) -> Self {
        assert!(inter.is_subset(group), "g∩h must be within g");
        assert!(group.contains(me), "{me} must be in g");
        FastLogProcess {
            me,
            inter,
            group,
            p1_seen: BTreeMap::new(),
            p2_seen: BTreeMap::new(),
            decided: BTreeMap::new(),
            prefix: Vec::new(),
            queue: Default::default(),
            searched: 0,
            attempt: None,
            fallback: BTreeSet::new(),
            paxos: PaxosProcess::new(me, group),
        }
    }

    /// Queues `append(cmd)` — only members of `g ∩ h` may append (they are
    /// the processes executing log operations in Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if this process is outside `g ∩ h`.
    pub fn append(&mut self, cmd: u64) {
        assert!(self.inter.contains(self.me), "only g∩h appends");
        self.queue.push_back(cmd);
    }

    /// The backup-consensus scope `g`.
    pub fn group(&self) -> ProcessSet {
        self.group
    }

    /// The learnt command of `slot`, if any.
    pub fn slot(&self, slot: u64) -> Option<u64> {
        self.decided.get(&slot).copied()
    }

    /// The learnt log prefix, in slot order.
    pub fn log(&self) -> Vec<u64> {
        self.prefix.clone()
    }

    /// [`FastLogProcess::log`], borrowed.
    pub fn learnt(&self) -> &[u64] {
        &self.prefix
    }

    fn next_free_slot(&self) -> u64 {
        self.prefix.len() as u64
    }

    fn decide(
        &mut self,
        slot: u64,
        value: u64,
        ctx: &mut StepCtx<FastLogMsg, SlotDecided>,
        announce: bool,
    ) {
        if self.decided.insert(slot, value).is_none() {
            while let Some(v) = self.decided.get(&(self.prefix.len() as u64)) {
                self.prefix.push(*v);
            }
            ctx.emit(SlotDecided { slot, value });
            if announce {
                ctx.send(self.inter, FastLogMsg::SlotDecide { slot, value });
            }
        }
    }

    /// Steps the backup consensus; returns the instances it visited.
    fn drive_paxos(
        &mut self,
        ctx: &mut StepCtx<FastLogMsg, SlotDecided>,
        input: Option<Envelope<PaxosMsg<u64>>>,
        fd: &FastLogFd,
    ) -> u64 {
        let mut sub: StepCtx<PaxosMsg<u64>, Decided<u64>> = StepCtx::detached(self.me, ctx.now());
        let visited = self.paxos.step_counted(
            &mut sub,
            input,
            &crate::paxos::OmegaSigma {
                leader: fd.leader,
                quorum: fd.group_quorum,
            },
        );
        for (dst, msg) in sub.take_sends() {
            ctx.send(dst, FastLogMsg::Paxos(msg));
        }
        for d in sub.take_events() {
            self.decide(d.instance, d.value, ctx, false);
        }
        visited
    }

    /// [`Automaton::step`], returning how many instances of the backup
    /// consensus the step visited (see [`PaxosProcess::step_counted`]).
    pub fn step_counted(
        &mut self,
        ctx: &mut StepCtx<FastLogMsg, SlotDecided>,
        input: Option<Envelope<FastLogMsg>>,
        fd: &FastLogFd,
    ) -> u64 {
        let me = self.me;
        let mut visited = 0;
        // ---- message handling ------------------------------------------
        let mut paxos_input: Option<Envelope<PaxosMsg<u64>>> = None;
        if let Some(env) = input {
            let src = env.src;
            match env.payload {
                FastLogMsg::AcP1 { slot, value } => {
                    let seen = self.p1_seen.entry(slot).or_default();
                    seen.insert(value);
                    let snapshot: Vec<u64> = seen.iter().copied().collect();
                    ctx.send_to(
                        src,
                        FastLogMsg::AcP1Ack {
                            slot,
                            seen: snapshot,
                        },
                    );
                }
                FastLogMsg::AcP2 { slot, value, clean } => {
                    let seen = self.p2_seen.entry(slot).or_default();
                    seen.insert((value, clean));
                    let snapshot: Vec<(u64, bool)> = seen.iter().copied().collect();
                    ctx.send_to(
                        src,
                        FastLogMsg::AcP2Ack {
                            slot,
                            seen: snapshot,
                        },
                    );
                }
                FastLogMsg::AcP1Ack { slot, seen } => {
                    if let Some((s, AcState::P1 { acks, union, .. })) = &mut self.attempt {
                        if *s == slot {
                            acks.insert(src);
                            union.extend(seen);
                        }
                    }
                }
                FastLogMsg::AcP2Ack { slot, seen } => {
                    if let Some((s, AcState::P2 { acks, union, .. })) = &mut self.attempt {
                        if *s == slot {
                            acks.insert(src);
                            union.extend(seen);
                        }
                    }
                }
                FastLogMsg::SlotDecide { slot, value } => {
                    self.decide(slot, value, ctx, false);
                }
                FastLogMsg::Paxos(msg) => {
                    paxos_input = Some(Envelope {
                        id: env.id,
                        src: env.src,
                        dst: env.dst,
                        sent_at: env.sent_at,
                        payload: msg,
                    });
                }
            }
        }

        // ---- adopt–commit phase transitions -----------------------------
        match self.attempt.take() {
            Some((slot, AcState::P1 { value, acks, union })) => {
                if self.decided.contains_key(&slot) {
                    // decided underneath us (fast or backup path)
                } else if fd.inter_quorum.as_ref().is_some_and(|q| q.is_subset(acks)) {
                    let clean = union.iter().all(|v| *v == value);
                    #[expect(
                        clippy::expect_used,
                        reason = "an unclean union holds a value other than ours, so it is not empty"
                    )]
                    let est = if clean {
                        value
                    } else {
                        *union.iter().min().expect("phase 1 saw at least our value")
                    };
                    self.attempt = Some((
                        slot,
                        AcState::P2 {
                            value: est,
                            clean,
                            acks: ProcessSet::EMPTY,
                            union: BTreeSet::new(),
                        },
                    ));
                    ctx.send(
                        self.inter,
                        FastLogMsg::AcP2 {
                            slot,
                            value: est,
                            clean,
                        },
                    );
                } else {
                    self.attempt = Some((slot, AcState::P1 { value, acks, union }));
                }
            }
            Some((
                slot,
                AcState::P2 {
                    value,
                    clean,
                    acks,
                    union,
                },
            )) => {
                if self.decided.contains_key(&slot) {
                    // decided underneath us
                } else if fd.inter_quorum.as_ref().is_some_and(|q| q.is_subset(acks)) {
                    let all_clean_same = union.iter().all(|(v, c)| *c && *v == value) && clean;
                    if all_clean_same {
                        // fast-path commit
                        self.decide(slot, value, ctx, true);
                    } else {
                        // adopt: carry a clean value if one exists, else est
                        let carried = union
                            .iter()
                            .find(|(_, c)| *c)
                            .map(|(v, _)| *v)
                            .unwrap_or(value);
                        self.fallback.insert(slot);
                        self.paxos.propose(slot, carried);
                    }
                } else {
                    self.attempt = Some((
                        slot,
                        AcState::P2 {
                            value,
                            clean,
                            acks,
                            union,
                        },
                    ));
                }
            }
            None => {}
        }

        // ---- backup consensus -------------------------------------------
        // Drive Paxos when it has traffic or an engaged fallback slot; this
        // is the *only* path on which processes of g \ (g∩h) take steps.
        if paxos_input.is_some() || !self.fallback.is_empty() {
            visited = self.drive_paxos(ctx, paxos_input, fd);
            let decided = &self.decided;
            self.fallback.retain(|s| !decided.contains_key(s));
        }

        // ---- client: launch the next append -----------------------------
        if self.attempt.is_none() && self.inter.contains(me) {
            if let Some(cmd) = self.queue.front().copied() {
                // retry at successive slots until our command lands; what
                // was searched for this command before stays searched
                if self.prefix[self.searched..].contains(&cmd) {
                    self.queue.pop_front();
                    self.searched = 0;
                } else {
                    self.searched = self.prefix.len();
                    let slot = self.next_free_slot();
                    self.attempt = Some((
                        slot,
                        AcState::P1 {
                            value: cmd,
                            acks: ProcessSet::EMPTY,
                            union: BTreeSet::new(),
                        },
                    ));
                    ctx.send(self.inter, FastLogMsg::AcP1 { slot, value: cmd });
                }
            }
        }
        visited
    }
}

impl Automaton for FastLogProcess {
    type Msg = FastLogMsg;
    type Fd = FastLogFd;
    type Event = SlotDecided;

    fn step(
        &mut self,
        ctx: &mut StepCtx<FastLogMsg, SlotDecided>,
        input: Option<Envelope<FastLogMsg>>,
        fd: &FastLogFd,
    ) {
        self.step_counted(ctx, input, fd);
    }

    fn is_active(&self) -> bool {
        !self.queue.is_empty() || self.attempt.is_some() || !self.fallback.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_detectors::{OmegaMode, OmegaOracle, SigmaMode, SigmaOracle};
    use gam_kernel::{FailurePattern, RandomSource, RotatingSource, RunOutcome, Simulator};

    /// g = {p0..p4}, g∩h = {p0, p1}.
    fn system(
        pattern: FailurePattern,
    ) -> Simulator<FastLogProcess, FastLogHistory<SigmaOracle, OmegaOracle, SigmaOracle>> {
        let group = ProcessSet::first_n(5);
        let inter = ProcessSet::from_iter([0u32, 1]);
        let autos = group
            .iter()
            .map(|p| FastLogProcess::new(p, inter, group))
            .collect();
        let hist = FastLogHistory::new(
            SigmaOracle::new(inter, pattern.clone(), SigmaMode::Alive),
            OmegaOracle::new(group, pattern.clone(), OmegaMode::MinAlive),
            SigmaOracle::new(group, pattern.clone(), SigmaMode::Alive),
        );
        Simulator::new(autos, pattern, hist)
    }

    #[test]
    fn contention_free_appends_use_only_the_intersection() {
        // Proposition 47: sequential appends (same order everywhere) stay
        // on the adopt–commit fast path — no process of g \ (g∩h) takes a
        // single step.
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(5));
        let mut sim = system(pattern);
        let mut rr = RotatingSource::default();
        for (i, cmd) in [10u64, 20, 30].iter().enumerate() {
            let appender = ProcessId((i % 2) as u32); // alternate p0/p1
            sim.automaton_mut(appender).append(*cmd);
            let out = sim.run(&mut rr, 100_000);
            assert_eq!(out, RunOutcome::Quiescent);
        }
        for p in [ProcessId(0), ProcessId(1)] {
            assert_eq!(sim.automaton(p).log(), vec![10, 20, 30], "{p}");
        }
        for p in [ProcessId(2), ProcessId(3), ProcessId(4)] {
            assert_eq!(
                sim.trace().steps_of(p),
                0,
                "{p} ∈ g∖(g∩h) must take no steps (Prop. 47)"
            );
        }
    }

    #[test]
    fn contention_falls_back_to_group_consensus() {
        // Concurrent conflicting appends: the adopt–commit fails and the
        // backup consensus in g engages — now g∖(g∩h) does step, and the
        // replicas still agree on a total order containing both commands.
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(5));
        for seed in 0..5u64 {
            let mut sim = system(pattern.clone());
            sim.automaton_mut(ProcessId(0)).append(111);
            sim.automaton_mut(ProcessId(1)).append(222);
            let out = sim.run(&mut RandomSource::new(seed), 2_000_000);
            assert_eq!(out, RunOutcome::Quiescent, "seed {seed}");
            let l0 = sim.automaton(ProcessId(0)).log();
            let l1 = sim.automaton(ProcessId(1)).log();
            assert_eq!(l0, l1, "seed {seed}: replica logs agree");
            assert!(
                l0.contains(&111) && l0.contains(&222),
                "seed {seed}: {l0:?}"
            );
        }
    }

    #[test]
    fn fast_path_survives_group_side_crashes() {
        // Crashes outside g∩h do not disturb the fast path at all.
        let pattern = FailurePattern::from_crashes(
            ProcessSet::first_n(5),
            [(ProcessId(3), Time(0)), (ProcessId(4), Time(0))],
        );
        let mut sim = system(pattern);
        sim.automaton_mut(ProcessId(0)).append(7);
        let out = sim.run(&mut RotatingSource::default(), 100_000);
        assert_eq!(out, RunOutcome::Quiescent);
        assert_eq!(sim.automaton(ProcessId(1)).log(), vec![7]);
    }

    #[test]
    fn slot_accessors() {
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(5));
        let mut sim = system(pattern);
        sim.automaton_mut(ProcessId(0)).append(42);
        sim.run(&mut RotatingSource::default(), 100_000);
        assert_eq!(sim.automaton(ProcessId(0)).slot(0), Some(42));
        assert_eq!(sim.automaton(ProcessId(0)).slot(1), None);
    }

    #[test]
    #[should_panic(expected = "only g∩h appends")]
    fn append_outside_intersection_rejected() {
        let group = ProcessSet::first_n(3);
        let inter = ProcessSet::from_iter([0u32]);
        let mut p = FastLogProcess::new(ProcessId(2), inter, group);
        p.append(1);
    }
}
