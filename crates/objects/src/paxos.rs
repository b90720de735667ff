//! Indulgent consensus from `Ω ∧ Σ` (message passing).
//!
//! §4.3 implements consensus objects inside a group `g` from the failure
//! detector `Σ_g ∧ Ω_g`: registers from `Σ_g` give an obstruction-free
//! consensus that `Ω_g` boosts into a wait-free one. This module provides the
//! classic flattened form of that construction — a single-decree,
//! multi-instance, leader-based protocol (à la Paxos):
//!
//! * safety (agreement/validity) holds **whatever** the detector outputs —
//!   the algorithm is *indulgent*;
//! * liveness holds once `Ω` stabilises on a correct leader and `Σ` returns
//!   live quorums.
//!
//! Ballots are partitioned per process (`ballot ≡ pid (mod n)`), so two
//! proposers never reuse a ballot.

use gam_detectors::{OmegaOracle, SigmaOracle};
use gam_kernel::{Automaton, Envelope, History, ProcessId, ProcessSet, StepCtx, Time};
use std::collections::BTreeMap;

/// The combined `Ω ∧ Σ` sample consumed at each step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmegaSigma {
    /// The `Ω` output (⊥ outside its scope).
    pub leader: Option<ProcessId>,
    /// The `Σ` output (⊥ outside its scope).
    pub quorum: Option<ProcessSet>,
}

/// A [`History`] pairing an [`OmegaOracle`] with a [`SigmaOracle`] — the
/// conjunction `Ω_P ∧ Σ_P`.
#[derive(Debug, Clone)]
pub struct OmegaSigmaHistory {
    omega: OmegaOracle,
    sigma: SigmaOracle,
}

impl OmegaSigmaHistory {
    /// Pairs the two oracles.
    pub fn new(omega: OmegaOracle, sigma: SigmaOracle) -> Self {
        OmegaSigmaHistory { omega, sigma }
    }
}

impl History for OmegaSigmaHistory {
    type Value = OmegaSigma;

    fn sample(&self, p: ProcessId, t: Time) -> OmegaSigma {
        OmegaSigma {
            leader: self.omega.leader(p, t),
            quorum: self.sigma.quorum(p, t),
        }
    }

    fn stable_until(&self, p: ProcessId, t: Time) -> Time {
        self.omega
            .stable_until(p, t)
            .min(self.sigma.stable_until(p, t))
    }
}

/// Protocol messages, tagged by consensus instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaxosMsg<V> {
    /// Phase-1a: reserve `ballot`.
    Prepare {
        /// Consensus instance.
        instance: u64,
        /// Proposer ballot.
        ballot: u64,
    },
    /// Phase-1b: promise, reporting the highest accepted proposal.
    Promise {
        /// Consensus instance.
        instance: u64,
        /// Promised ballot.
        ballot: u64,
        /// Highest accepted `(ballot, value)` so far, if any.
        accepted: Option<(u64, V)>,
    },
    /// Rejection of a stale ballot, reporting the ballot promised instead.
    Nack {
        /// Consensus instance.
        instance: u64,
        /// The stale ballot being rejected.
        ballot: u64,
        /// The higher ballot the acceptor has promised.
        promised: u64,
    },
    /// Phase-2a: accept `value` at `ballot`.
    Accept {
        /// Consensus instance.
        instance: u64,
        /// Proposer ballot.
        ballot: u64,
        /// Proposed value.
        value: V,
    },
    /// Phase-2b: acceptance acknowledgement.
    Accepted {
        /// Consensus instance.
        instance: u64,
        /// Accepted ballot.
        ballot: u64,
    },
    /// A non-leader forwards its proposal to the current `Ω` leader.
    Forward {
        /// Consensus instance.
        instance: u64,
        /// Forwarded proposal.
        value: V,
    },
    /// Learn the decision.
    Decide {
        /// Consensus instance.
        instance: u64,
        /// Decided value.
        value: V,
    },
}

/// Emitted once per process per instance upon learning the decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decided<V> {
    /// The decided instance.
    pub instance: u64,
    /// The decision.
    pub value: V,
}

#[derive(Debug, Clone)]
enum Attempt<V> {
    Prepare {
        ballot: u64,
        promises: ProcessSet,
        best: Option<(u64, V)>,
    },
    Accept {
        ballot: u64,
        acks: ProcessSet,
        value: V,
    },
}

#[derive(Debug, Clone)]
struct Instance<V> {
    // Acceptor state.
    promised: u64,
    accepted: Option<(u64, V)>,
    // Proposer state.
    proposal: Option<V>,
    attempt: Option<Attempt<V>>,
    max_ballot_seen: u64,
    decided: Option<V>,
    forwarded_to: Option<ProcessId>,
}

impl<V> Default for Instance<V> {
    fn default() -> Self {
        Instance {
            promised: 0,
            accepted: None,
            proposal: None,
            attempt: None,
            max_ballot_seen: 0,
            decided: None,
            forwarded_to: None,
        }
    }
}

/// The per-process consensus automaton, hosting unboundedly many instances.
///
/// A step's proposer work visits the *open* instances only — those this
/// process has a proposal for and no decision of; a decided instance costs
/// later steps nothing and stays readable through
/// [`PaxosProcess::decision`].
#[derive(Debug, Clone)]
pub struct PaxosProcess<V> {
    me: ProcessId,
    scope: ProcessSet,
    n: u64,
    instances: BTreeMap<u64, Instance<V>>,
    /// The ids `i` with `instances[i].proposal.is_some()` and
    /// `instances[i].decided.is_none()`, ascending.
    open: Vec<u64>,
}

impl<V: Clone + std::fmt::Debug + PartialEq> PaxosProcess<V> {
    /// Creates the automaton for process `me` within `scope`.
    ///
    /// # Panics
    ///
    /// Panics if `me ∉ scope`.
    pub fn new(me: ProcessId, scope: ProcessSet) -> Self {
        assert!(scope.contains(me), "{me} must be in the consensus scope");
        PaxosProcess {
            me,
            scope,
            n: scope.max().map_or(1, |p| p.0 as u64 + 1),
            instances: BTreeMap::new(),
            open: Vec::new(),
        }
    }

    /// Proposes `value` in `instance`. A later decision is reported through
    /// a [`Decided`] event; re-proposing in a decided instance is a no-op.
    pub fn propose(&mut self, instance: u64, value: V) {
        let inst = self.instances.entry(instance).or_default();
        if inst.proposal.is_none() && inst.decided.is_none() {
            inst.proposal = Some(value);
            if let Err(at) = self.open.binary_search(&instance) {
                self.open.insert(at, instance);
            }
        }
    }

    /// Whether `open` is what a walk over every instance yields — the
    /// invariant every step re-checks in debug builds.
    fn open_is_current(&self) -> bool {
        self.instances
            .iter()
            .filter(|(_, i)| i.proposal.is_some() && i.decided.is_none())
            .map(|(id, _)| id)
            .eq(&self.open)
    }

    /// [`Automaton::step`], returning how many instances the proposer loop
    /// visited — a deterministic work count for whoever hosts the automaton.
    pub fn step_counted(
        &mut self,
        ctx: &mut StepCtx<PaxosMsg<V>, Decided<V>>,
        input: Option<Envelope<PaxosMsg<V>>>,
        fd: &OmegaSigma,
    ) -> u64 {
        self.handle(ctx, input);
        let visited = self.drive_open(ctx, fd);
        debug_assert!(self.open_is_current(), "open set of {} went wrong", self.me);
        visited
    }

    /// The local decision of `instance`, if known.
    pub fn decision(&self, instance: u64) -> Option<&V> {
        self.instances
            .get(&instance)
            .and_then(|i| i.decided.as_ref())
    }

    /// My next ballot strictly above `above`: the smallest ballot `b ≡ me
    /// (mod n)` with `b > above`.
    fn next_ballot(&self, above: u64) -> u64 {
        let base = self.me.0 as u64 + 1;
        let mut b = base;
        while b <= above {
            b += self.n;
        }
        b
    }

    fn decide(
        me: ProcessId,
        inst: &mut Instance<V>,
        instance: u64,
        value: V,
        ctx: &mut StepCtx<PaxosMsg<V>, Decided<V>>,
        scope: ProcessSet,
        broadcast: bool,
    ) {
        if inst.decided.is_none() {
            inst.decided = Some(value.clone());
            inst.attempt = None;
            ctx.emit(Decided {
                instance,
                value: value.clone(),
            });
            if broadcast {
                ctx.send(
                    scope - ProcessSet::singleton(me),
                    PaxosMsg::Decide { instance, value },
                );
            }
        }
    }
}

impl<V: Clone + std::fmt::Debug + PartialEq> PaxosProcess<V> {
    /// Acceptor, learner and attempt bookkeeping for one received message.
    fn handle(
        &mut self,
        ctx: &mut StepCtx<PaxosMsg<V>, Decided<V>>,
        input: Option<Envelope<PaxosMsg<V>>>,
    ) {
        let me = self.me;
        let scope = self.scope;
        if let Some(env) = input {
            match env.payload {
                PaxosMsg::Prepare { instance, ballot } => {
                    let inst = self.instances.entry(instance).or_default();
                    inst.max_ballot_seen = inst.max_ballot_seen.max(ballot);
                    if ballot > inst.promised {
                        inst.promised = ballot;
                        ctx.send_to(
                            env.src,
                            PaxosMsg::Promise {
                                instance,
                                ballot,
                                accepted: inst.accepted.clone(),
                            },
                        );
                    } else {
                        ctx.send_to(
                            env.src,
                            PaxosMsg::Nack {
                                instance,
                                ballot,
                                promised: inst.promised,
                            },
                        );
                    }
                }
                PaxosMsg::Accept {
                    instance,
                    ballot,
                    value,
                } => {
                    let inst = self.instances.entry(instance).or_default();
                    inst.max_ballot_seen = inst.max_ballot_seen.max(ballot);
                    if ballot >= inst.promised {
                        inst.promised = ballot;
                        inst.accepted = Some((ballot, value));
                        ctx.send_to(env.src, PaxosMsg::Accepted { instance, ballot });
                    } else {
                        ctx.send_to(
                            env.src,
                            PaxosMsg::Nack {
                                instance,
                                ballot,
                                promised: inst.promised,
                            },
                        );
                    }
                }
                PaxosMsg::Promise {
                    instance,
                    ballot,
                    accepted,
                } => {
                    let inst = self.instances.entry(instance).or_default();
                    if let Some(Attempt::Prepare {
                        ballot: b,
                        promises,
                        best,
                    }) = &mut inst.attempt
                    {
                        if *b == ballot {
                            promises.insert(env.src);
                            if let Some((ab, av)) = accepted {
                                if best.as_ref().is_none_or(|(bb, _)| ab > *bb) {
                                    *best = Some((ab, av));
                                }
                            }
                        }
                    }
                }
                PaxosMsg::Accepted { instance, ballot } => {
                    let inst = self.instances.entry(instance).or_default();
                    if let Some(Attempt::Accept {
                        ballot: b, acks, ..
                    }) = &mut inst.attempt
                    {
                        if *b == ballot {
                            acks.insert(env.src);
                        }
                    }
                }
                PaxosMsg::Nack {
                    instance,
                    ballot,
                    promised,
                } => {
                    let inst = self.instances.entry(instance).or_default();
                    inst.max_ballot_seen = inst.max_ballot_seen.max(promised);
                    // Abandon the attempt using this stale ballot.
                    let stale = match &inst.attempt {
                        Some(Attempt::Prepare { ballot: b, .. })
                        | Some(Attempt::Accept { ballot: b, .. }) => *b == ballot,
                        None => false,
                    };
                    if stale {
                        inst.attempt = None;
                    }
                }
                PaxosMsg::Forward { instance, value } => self.propose(instance, value),
                PaxosMsg::Decide { instance, value } => {
                    let inst = self.instances.entry(instance).or_default();
                    Self::decide(me, inst, instance, value, ctx, scope, false);
                    if let Ok(at) = self.open.binary_search(&instance) {
                        self.open.remove(at);
                    }
                }
            }
        }
    }

    /// Proposer progress on every open instance, in ascending id order,
    /// guarded by the current `Ω ∧ Σ` sample. Returns how many it visited.
    fn drive_open(&mut self, ctx: &mut StepCtx<PaxosMsg<V>, Decided<V>>, fd: &OmegaSigma) -> u64 {
        let me = self.me;
        let scope = self.scope;
        let i_lead = fd.leader == Some(me);
        let mut visited = 0;
        let mut next = 0;
        while let Some(&id) = self.open.get(next) {
            visited += 1;
            let max_seen = self.instances[&id].max_ballot_seen;
            let fresh_ballot = self.next_ballot(max_seen);
            #[expect(
                clippy::expect_used,
                reason = "id was drawn from the open set; instances are never removed"
            )]
            let inst = self
                .instances
                .get_mut(&id)
                .expect("id was drawn from the open set; instances are never removed");
            // A non-leader relays its proposal to the leader (once per
            // leader change), so the leader has something to drive.
            if !i_lead {
                if let Some(l) = fd.leader {
                    if inst.forwarded_to != Some(l) {
                        inst.forwarded_to = Some(l);
                        #[expect(
                            clippy::expect_used,
                            reason = "the open set holds only instances with a proposal"
                        )]
                        let value = inst.proposal.clone().expect("proposal present");
                        ctx.send_to(
                            l,
                            PaxosMsg::Forward {
                                instance: id,
                                value,
                            },
                        );
                    }
                }
            }
            match inst.attempt.take() {
                None => {
                    if i_lead {
                        let ballot = fresh_ballot;
                        inst.max_ballot_seen = ballot;
                        inst.attempt = Some(Attempt::Prepare {
                            ballot,
                            promises: ProcessSet::EMPTY,
                            best: None,
                        });
                        ctx.send(
                            scope,
                            PaxosMsg::Prepare {
                                instance: id,
                                ballot,
                            },
                        );
                    }
                }
                Some(Attempt::Prepare {
                    ballot,
                    promises,
                    best,
                }) => {
                    let quorum_ok = fd.quorum.as_ref().is_some_and(|q| q.is_subset(promises));
                    if quorum_ok {
                        #[expect(
                            clippy::expect_used,
                            reason = "the open set holds only instances with a proposal"
                        )]
                        let value = best
                            .map(|(_, v)| v)
                            .unwrap_or_else(|| inst.proposal.clone().expect("proposal present"));
                        inst.attempt = Some(Attempt::Accept {
                            ballot,
                            acks: ProcessSet::EMPTY,
                            value: value.clone(),
                        });
                        ctx.send(
                            scope,
                            PaxosMsg::Accept {
                                instance: id,
                                ballot,
                                value,
                            },
                        );
                    } else {
                        inst.attempt = Some(Attempt::Prepare {
                            ballot,
                            promises,
                            best,
                        });
                    }
                }
                Some(Attempt::Accept {
                    ballot,
                    acks,
                    value,
                }) => {
                    let quorum_ok = fd.quorum.as_ref().is_some_and(|q| q.is_subset(acks));
                    if quorum_ok {
                        Self::decide(me, inst, id, value, ctx, scope, true);
                    } else {
                        inst.attempt = Some(Attempt::Accept {
                            ballot,
                            acks,
                            value,
                        });
                    }
                }
            }
            if inst.decided.is_some() {
                self.open.remove(next);
            } else {
                next += 1;
            }
        }
        visited
    }
}

impl<V: Clone + std::fmt::Debug + PartialEq> Automaton for PaxosProcess<V> {
    type Msg = PaxosMsg<V>;
    type Fd = OmegaSigma;
    type Event = Decided<V>;

    fn step(
        &mut self,
        ctx: &mut StepCtx<PaxosMsg<V>, Decided<V>>,
        input: Option<Envelope<PaxosMsg<V>>>,
        fd: &OmegaSigma,
    ) {
        self.step_counted(ctx, input, fd);
    }

    fn is_active(&self) -> bool {
        !self.open.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_detectors::{OmegaMode, SigmaMode};
    use gam_kernel::{FailurePattern, RandomSource, RotatingSource, RunOutcome, Simulator};

    fn system(
        n: usize,
        pattern: FailurePattern,
        omega_mode: OmegaMode,
    ) -> Simulator<PaxosProcess<u64>, OmegaSigmaHistory> {
        let scope = ProcessSet::first_n(n);
        let autos = (0..n)
            .map(|i| PaxosProcess::new(ProcessId(i as u32), scope))
            .collect();
        let hist = OmegaSigmaHistory::new(
            OmegaOracle::new(scope, pattern.clone(), omega_mode),
            SigmaOracle::new(scope, pattern.clone(), SigmaMode::Alive),
        );
        Simulator::new(autos, pattern, hist)
    }

    fn decisions(sim: &Simulator<PaxosProcess<u64>, OmegaSigmaHistory>, inst: u64) -> Vec<u64> {
        sim.trace()
            .events()
            .iter()
            .filter(|e| e.event.instance == inst)
            .map(|e| e.event.value)
            .collect()
    }

    #[test]
    fn single_proposer_decides_everywhere() {
        let n = 3;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = system(n, pattern, OmegaMode::MinAlive);
        sim.automaton_mut(ProcessId(0)).propose(0, 99);
        let out = sim.run(&mut RotatingSource::default(), 200_000);
        assert_eq!(out, RunOutcome::Quiescent);
        let d = decisions(&sim, 0);
        assert_eq!(d.len(), n, "every process learns");
        assert!(d.iter().all(|v| *v == 99));
    }

    #[test]
    fn concurrent_proposals_agree() {
        let n = 5;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut lengths = std::collections::BTreeSet::new();
        for seed in 0..10u64 {
            let mut sim = system(n, pattern.clone(), OmegaMode::MinAlive);
            for i in 0..n {
                sim.automaton_mut(ProcessId(i as u32)).propose(0, i as u64);
            }
            sim.run(&mut RandomSource::new(seed), 500_000);
            lengths.insert(sim.trace().total_steps());
            let d = decisions(&sim, 0);
            assert!(!d.is_empty(), "seed {seed}: someone decides");
            assert!(
                d.iter().all(|v| *v == d[0]),
                "seed {seed}: agreement violated: {d:?}"
            );
            assert!(*d.first().unwrap() < n as u64, "validity");
        }
        // ten schedules, not one schedule ten times
        assert!(lengths.len() > 1, "every seed ran {lengths:?} steps");
    }

    #[test]
    fn decides_despite_leader_crash() {
        let n = 5;
        // p0 (initial Ω choice) crashes early.
        let pattern =
            FailurePattern::from_crashes(ProcessSet::first_n(n), [(ProcessId(0), Time(10))]);
        let mut sim = system(n, pattern, OmegaMode::MinAlive);
        for i in 1..n {
            sim.automaton_mut(ProcessId(i as u32)).propose(0, 7);
        }
        let out = sim.run(&mut RotatingSource::default(), 500_000);
        assert_eq!(out, RunOutcome::Quiescent);
        let d = decisions(&sim, 0);
        assert!(d.len() >= n - 1);
        assert!(d.iter().all(|v| *v == 7));
    }

    #[test]
    fn agreement_survives_adversarial_omega() {
        // Ω rotates for a long while — safety must hold throughout, and
        // liveness resumes after stabilisation.
        let n = 4;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = system(
            n,
            pattern,
            OmegaMode::RotateUntil {
                stabilize_at: Time(300),
                period: 7,
            },
        );
        for i in 0..n {
            sim.automaton_mut(ProcessId(i as u32))
                .propose(0, 100 + i as u64);
        }
        sim.run(&mut RandomSource::new(0), 1_000_000);
        let d = decisions(&sim, 0);
        assert!(!d.is_empty());
        assert!(d.iter().all(|v| *v == d[0]), "agreement: {d:?}");
    }

    #[test]
    fn instances_are_independent() {
        let n = 3;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = system(n, pattern, OmegaMode::MinAlive);
        sim.automaton_mut(ProcessId(0)).propose(0, 11);
        sim.automaton_mut(ProcessId(1)).propose(1, 22);
        sim.automaton_mut(ProcessId(2)).propose(2, 33);
        sim.run(&mut RotatingSource::default(), 500_000);
        for (inst, v) in [(0u64, 11u64), (1, 22), (2, 33)] {
            let d = decisions(&sim, inst);
            assert_eq!(d.len(), n);
            assert!(d.iter().all(|x| *x == v), "instance {inst}: {d:?}");
        }
    }

    #[test]
    fn decision_accessor_matches_events() {
        let n = 3;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = system(n, pattern, OmegaMode::MinAlive);
        sim.automaton_mut(ProcessId(2)).propose(5, 42);
        sim.run(&mut RotatingSource::default(), 200_000);
        for i in 0..n {
            assert_eq!(sim.automaton(ProcessId(i as u32)).decision(5), Some(&42));
        }
    }

    #[test]
    fn ballot_partitioning_is_disjoint() {
        let scope = ProcessSet::first_n(3);
        let p0: PaxosProcess<u64> = PaxosProcess::new(ProcessId(0), scope);
        let p1: PaxosProcess<u64> = PaxosProcess::new(ProcessId(1), scope);
        let b0: Vec<u64> = (0..5)
            .scan(0, |a, _| {
                *a = p0.next_ballot(*a);
                Some(*a)
            })
            .collect();
        let b1: Vec<u64> = (0..5)
            .scan(0, |a, _| {
                *a = p1.next_ballot(*a);
                Some(*a)
            })
            .collect();
        assert!(b0.iter().all(|b| !b1.contains(b)));
        assert_eq!(b0, vec![1, 4, 7, 10, 13]);
    }
}
