//! The contention-free fast log for `LOG_{g∩h}` — the modified universal
//! construction of §4.3 and Proposition 47.
//!
//! `μ` offers no consensus in `g ∩ h`, so the log shared by two intersecting
//! groups is built from an unbounded list of *contention-free fast*
//! consensus objects: each slot is guarded by an adopt–commit object
//! implemented from `Σ_{g∩h}`-quorums **among the intersection only**, and
//! falls back to an `Ω_g ∧ Σ_g` consensus **in the full group `g`** only
//! when the adopt–commit fails. When processes execute operations in the
//! exact same order (no step contention), every slot commits on the fast
//! path and *only the processes of `g ∩ h` take steps* — which is how the
//! construction preserves minimality (Proposition 47).
//!
//! [`FastLogProcess`] is the replica, the client and the adopt–commit; the
//! backup consensus is its host's. A slot whose adopt–commit adopts without
//! committing is handed out ([`FastLogProcess::take_adopted`]) with the
//! value the adopt–commit carried, and the host hands the backup's decision
//! back ([`FastLogProcess::learn`]). Safety needs only that the backup
//! decides one of the values handed to it: adopt–commit makes every adopter
//! carry the value committed on the fast path, if any, so any of them
//! agrees with every fast-path commit.
//!
//! The adopt–commit here is the classic two-phase quorum protocol: phase 1
//! announces the proposal and collects the values seen by a quorum; phase 2
//! announces `(value, clean?)` and commits iff a quorum saw only clean
//! announcements of a single value.

use gam_kernel::{Automaton, Envelope, ProcessId, ProcessSet, StepCtx};
use std::collections::{BTreeMap, BTreeSet};

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

/// One process of the fast log: replica + client + adopt–commit, over
/// `g ∩ h`. Its failure-detector sample is `Σ_{g∩h}`.
#[derive(Debug, Clone)]
pub struct FastLogProcess {
    me: ProcessId,
    /// `g ∩ h` — the fast-path participants.
    inter: ProcessSet,
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
    /// The slot handed to the backup and not learnt yet: the client waits
    /// on it instead of running adopt–commit on it again.
    handed: Option<u64>,
    /// The `(slot, carried value)` handed out and not yet taken by the host.
    adopted: Option<(u64, u64)>,
}

impl FastLogProcess {
    /// Creates the automaton for process `me` with fast path in `inter`.
    pub fn new(me: ProcessId, inter: ProcessSet) -> Self {
        FastLogProcess {
            me,
            inter,
            p1_seen: BTreeMap::new(),
            p2_seen: BTreeMap::new(),
            decided: BTreeMap::new(),
            prefix: Vec::new(),
            queue: Default::default(),
            searched: 0,
            attempt: None,
            handed: None,
            adopted: None,
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

    /// The slot whose adopt–commit adopted without committing, with the
    /// value it carried, once: the host proposes it to the backup
    /// consensus and hands the decision back through
    /// [`FastLogProcess::learn`].
    pub fn take_adopted(&mut self) -> Option<(u64, u64)> {
        self.adopted.take()
    }

    fn next_free_slot(&self) -> u64 {
        self.prefix.len() as u64
    }

    /// Learns that `slot` holds `value`: decided by the backup consensus
    /// (the host calls this), or on the fast path.
    pub fn learn(&mut self, slot: u64, value: u64) {
        let learnt = *self.decided.entry(slot).or_insert(value);
        debug_assert_eq!(learnt, value, "slot {slot} decided twice");
        while let Some(v) = self.decided.get(&(self.prefix.len() as u64)) {
            self.prefix.push(*v);
        }
        if self.handed == Some(slot) {
            self.handed = None;
        }
    }
}

impl Automaton for FastLogProcess {
    type Msg = FastLogMsg;
    type Fd = Option<ProcessSet>;
    type Event = ();

    fn step(
        &mut self,
        ctx: &mut StepCtx<FastLogMsg, ()>,
        input: Option<Envelope<FastLogMsg>>,
        quorum: &Option<ProcessSet>,
    ) {
        // ---- message handling ------------------------------------------
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
                    self.learn(slot, value);
                }
            }
        }

        // ---- adopt–commit phase transitions -----------------------------
        match self.attempt.take() {
            Some((slot, AcState::P1 { value, acks, union })) => {
                if self.decided.contains_key(&slot) {
                    // decided underneath us (fast or backup path)
                } else if quorum.as_ref().is_some_and(|q| q.is_subset(acks)) {
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
                } else if quorum.as_ref().is_some_and(|q| q.is_subset(acks)) {
                    let all_clean_same = union.iter().all(|(v, c)| *c && *v == value) && clean;
                    if all_clean_same {
                        // fast-path commit
                        self.learn(slot, value);
                        ctx.send(self.inter, FastLogMsg::SlotDecide { slot, value });
                    } else {
                        // adopt: carry a clean value if one exists, else est,
                        // and hand the slot to the backup consensus in g
                        let carried = union
                            .iter()
                            .find(|(_, c)| *c)
                            .map(|(v, _)| *v)
                            .unwrap_or(value);
                        self.handed = Some(slot);
                        self.adopted = Some((slot, carried));
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

        // ---- client: launch the next append -----------------------------
        if self.attempt.is_none() && self.handed.is_none() {
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
    }

    fn is_active(&self) -> bool {
        self.attempt.is_some() || (!self.queue.is_empty() && self.handed.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_detectors::{SigmaMode, SigmaOracle};
    use gam_kernel::{FailurePattern, RandomSource, RotatingSource, RunOutcome, Simulator};

    /// g∩h = {p0, p1}.
    fn system() -> Simulator<FastLogProcess, SigmaOracle> {
        let inter = ProcessSet::first_n(2);
        let pattern = FailurePattern::all_correct(inter);
        let autos = inter
            .iter()
            .map(|p| FastLogProcess::new(p, inter))
            .collect();
        let hist = SigmaOracle::new(inter, pattern.clone(), SigmaMode::Alive);
        Simulator::new(autos, pattern, hist)
    }

    #[test]
    fn sequential_appends_never_reach_the_backup() {
        // Proposition 47: sequential appends (same order everywhere) stay
        // on the adopt–commit fast path — no slot is handed to the backup
        // consensus in g, so no process of g∖(g∩h) has anything to do.
        let mut sim = system();
        let mut rr = RotatingSource::default();
        for (i, cmd) in [10u64, 20, 30].iter().enumerate() {
            let appender = ProcessId((i % 2) as u32); // alternate p0/p1
            sim.automaton_mut(appender).append(*cmd);
            let out = sim.run(&mut rr, 100_000);
            assert_eq!(out, RunOutcome::Quiescent);
        }
        for p in [ProcessId(0), ProcessId(1)] {
            assert_eq!(sim.automaton(p).log(), vec![10, 20, 30], "{p}");
            assert_eq!(sim.automaton_mut(p).take_adopted(), None, "{p}");
        }
    }

    #[test]
    fn contended_slots_take_the_backups_decision() {
        // Concurrent conflicting appends: an adopt–commit that adopts hands
        // its slot out. The test plays the backup consensus in g — the
        // first proposal per slot wins — and learns its decision at both
        // replicas right away. A value a replica already holds for a slot
        // (committed on the fast path) is the backup's, and the replicas
        // agree on a total order containing both commands.
        let inter = ProcessSet::first_n(2);
        let mut engaged = 0;
        for seed in 0..20u64 {
            let mut sim = system();
            sim.automaton_mut(ProcessId(0)).append(111);
            sim.automaton_mut(ProcessId(1)).append(222);
            let mut source = RandomSource::new(seed);
            let mut backup = BTreeMap::new();
            let mut steps = 0;
            while sim.run(&mut source, 1) != RunOutcome::Quiescent {
                steps += 1;
                assert!(steps < 100_000, "seed {seed}: no quiescence");
                for p in inter {
                    let Some((slot, carried)) = sim.automaton_mut(p).take_adopted() else {
                        continue;
                    };
                    engaged += 1;
                    let decided = *backup.entry(slot).or_insert(carried);
                    for q in inter {
                        let held = sim.automaton(q).slot(slot);
                        assert!(
                            held.is_none_or(|v| v == decided),
                            "seed {seed}: {q} holds {held:?} in slot {slot}, backup {decided}"
                        );
                        sim.automaton_mut(q).learn(slot, decided);
                    }
                }
            }
            let l0 = sim.automaton(ProcessId(0)).log();
            let l1 = sim.automaton(ProcessId(1)).log();
            assert_eq!(l0, l1, "seed {seed}: replica logs agree");
            assert!(
                l0.contains(&111) && l0.contains(&222),
                "seed {seed}: {l0:?}"
            );
        }
        assert!(engaged > 0, "some seed engages the backup");
    }

    #[test]
    fn slot_accessors() {
        let mut sim = system();
        sim.automaton_mut(ProcessId(0)).append(42);
        sim.run(&mut RotatingSource::default(), 100_000);
        assert_eq!(sim.automaton(ProcessId(0)).slot(0), Some(42));
        assert_eq!(sim.automaton(ProcessId(0)).slot(1), None);
    }

    #[test]
    #[should_panic(expected = "only g∩h appends")]
    fn append_outside_intersection_rejected() {
        let inter = ProcessSet::from_iter([0u32]);
        let mut p = FastLogProcess::new(ProcessId(2), inter);
        p.append(1);
    }
}
