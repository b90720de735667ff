//! ABD atomic registers from the quorum detector `Σ` (message passing).
//!
//! §4 of the paper builds its shared objects bottom-up: "`Σ_g` permits to
//! build shared atomic registers in `g`". This module implements the
//! classic two-phase ABD emulation, generalised from majorities to
//! `Σ`-quorums as in Delporte-Gallet et al.: an operation completes once
//! every member of *some* quorum currently output by `Σ` has acknowledged.
//! Quorum intersection gives atomicity; `Σ`-liveness (eventually only correct
//! processes in quorums) gives wait-freedom for correct clients.
//!
//! The automaton hosts any number of registers, keyed by [`RegisterId`], and
//! serves one client operation at a time per process.

use gam_kernel::{Automaton, Envelope, ProcessId, ProcessSet, StepCtx};

/// Names a register within the ABD automaton's register space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegisterId(pub u64);

/// A logical timestamp `(sequence, writer)` ordered lexicographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Stamp {
    /// The write sequence number.
    pub seq: u64,
    /// The writer process (tie-breaker).
    pub writer: u32,
}

/// Protocol messages of the ABD emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbdMsg<V> {
    /// Phase-1 query: send me your (stamp, value) for `reg`.
    Query {
        /// Target register.
        reg: RegisterId,
        /// Client-local operation tag.
        tag: u64,
    },
    /// Phase-1 reply.
    QueryAck {
        /// Target register.
        reg: RegisterId,
        /// Echoed operation tag.
        tag: u64,
        /// Replica stamp.
        stamp: Stamp,
        /// Replica value (None when never written).
        value: Option<V>,
    },
    /// Phase-2 update: adopt `(stamp, value)` if newer.
    Update {
        /// Target register.
        reg: RegisterId,
        /// Client-local operation tag.
        tag: u64,
        /// Stamp to install.
        stamp: Stamp,
        /// Value to install.
        value: V,
    },
    /// Phase-2 reply.
    UpdateAck {
        /// Target register.
        reg: RegisterId,
        /// Echoed operation tag.
        tag: u64,
    },
}

/// Completion events emitted by the automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbdEvent<V> {
    /// A `read` completed with the given value.
    ReadDone {
        /// The register read.
        reg: RegisterId,
        /// The value read (None when the register was never written).
        value: Option<V>,
    },
    /// A `write` completed.
    WriteDone {
        /// The register written.
        reg: RegisterId,
    },
}

#[derive(Debug, Clone)]
enum Pending<V> {
    /// Phase 1 of a read or write: collecting `QueryAck`s.
    Query {
        tag: u64,
        reg: RegisterId,
        acks: ProcessSet,
        best: (Stamp, Option<V>),
        write: Option<V>,
    },
    /// Phase 2: collecting `UpdateAck`s.
    Update {
        tag: u64,
        reg: RegisterId,
        acks: ProcessSet,
        is_read: bool,
        value: Option<V>,
    },
}

/// The per-process ABD automaton: replica plus client.
///
/// Drive it by calling [`AbdProcess::read`] / [`AbdProcess::write`] between
/// simulator steps, then run the simulator until the corresponding
/// [`AbdEvent`] appears in the trace.
#[derive(Debug, Clone)]
pub struct AbdProcess<V> {
    me: ProcessId,
    scope: ProcessSet,
    replicas: std::collections::BTreeMap<RegisterId, (Stamp, Option<V>)>,
    pending: Option<Pending<V>>,
    queued: std::collections::VecDeque<(RegisterId, Option<V>)>,
    next_tag: u64,
    started: bool,
}

impl<V: Clone + std::fmt::Debug> AbdProcess<V> {
    /// Creates the automaton for process `me` within `scope`.
    ///
    /// # Panics
    ///
    /// Panics if `me ∉ scope`.
    pub fn new(me: ProcessId, scope: ProcessSet) -> Self {
        assert!(scope.contains(me), "{me} must be in the register scope");
        AbdProcess {
            me,
            scope,
            replicas: Default::default(),
            pending: None,
            queued: Default::default(),
            next_tag: 0,
            started: false,
        }
    }

    /// Enqueues a read of `reg`. Completes with [`AbdEvent::ReadDone`].
    pub fn read(&mut self, reg: RegisterId) {
        self.queued.push_back((reg, None));
    }

    /// Enqueues a write of `value` to `reg`. Completes with
    /// [`AbdEvent::WriteDone`].
    pub fn write(&mut self, reg: RegisterId, value: V) {
        self.queued.push_back((reg, Some(value)));
    }

    fn replica(&mut self, reg: RegisterId) -> &mut (Stamp, Option<V>) {
        self.replicas.entry(reg).or_insert((Stamp::default(), None))
    }

    fn start_next(&mut self, ctx: &mut StepCtx<AbdMsg<V>, AbdEvent<V>>) {
        if self.pending.is_some() {
            return;
        }
        let Some((reg, write)) = self.queued.pop_front() else {
            return;
        };
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending = Some(Pending::Query {
            tag,
            reg,
            acks: ProcessSet::EMPTY,
            best: (Stamp::default(), None),
            write,
        });
        ctx.send(self.scope, AbdMsg::Query { reg, tag });
    }

    fn quorum_acked(acks: ProcessSet, sigma: &Option<ProcessSet>) -> bool {
        sigma.as_ref().is_some_and(|q| q.is_subset(acks))
    }
}

impl<V: Clone + std::fmt::Debug> Automaton for AbdProcess<V> {
    type Msg = AbdMsg<V>;
    /// The `Σ_scope` sample (⊥ outside the scope).
    type Fd = Option<ProcessSet>;
    type Event = AbdEvent<V>;

    fn step(
        &mut self,
        ctx: &mut StepCtx<AbdMsg<V>, AbdEvent<V>>,
        input: Option<Envelope<AbdMsg<V>>>,
        sigma: &Option<ProcessSet>,
    ) {
        self.started = true;
        // Replica + client message handling.
        if let Some(env) = input {
            match env.payload {
                AbdMsg::Query { reg, tag } => {
                    let (stamp, value) = self.replica(reg).clone();
                    ctx.send_to(
                        env.src,
                        AbdMsg::QueryAck {
                            reg,
                            tag,
                            stamp,
                            value,
                        },
                    );
                }
                AbdMsg::Update {
                    reg,
                    tag,
                    stamp,
                    value,
                } => {
                    let replica = self.replica(reg);
                    if stamp > replica.0 {
                        *replica = (stamp, Some(value));
                    }
                    ctx.send_to(env.src, AbdMsg::UpdateAck { reg, tag });
                }
                AbdMsg::QueryAck {
                    reg,
                    tag,
                    stamp,
                    value,
                } => {
                    if let Some(Pending::Query {
                        tag: t,
                        reg: r,
                        acks,
                        best,
                        ..
                    }) = &mut self.pending
                    {
                        if *t == tag && *r == reg {
                            acks.insert(env.src);
                            if stamp > best.0 {
                                *best = (stamp, value);
                            }
                        }
                    }
                }
                AbdMsg::UpdateAck { reg, tag } => {
                    if let Some(Pending::Update {
                        tag: t,
                        reg: r,
                        acks,
                        ..
                    }) = &mut self.pending
                    {
                        if *t == tag && *r == reg {
                            acks.insert(env.src);
                        }
                    }
                }
            }
        }
        // Phase transitions, guarded by the current Σ sample.
        match self.pending.take() {
            Some(Pending::Query {
                tag,
                reg,
                acks,
                best,
                write,
            }) => {
                if Self::quorum_acked(acks, sigma) {
                    let (is_read, stamp, value) = match write {
                        Some(v) => (
                            false,
                            Stamp {
                                seq: best.0.seq + 1,
                                writer: self.me.0,
                            },
                            Some(v),
                        ),
                        None => (true, best.0, best.1.clone()),
                    };
                    match &value {
                        Some(v) => {
                            let tag2 = self.next_tag;
                            self.next_tag += 1;
                            self.pending = Some(Pending::Update {
                                tag: tag2,
                                reg,
                                acks: ProcessSet::EMPTY,
                                is_read,
                                value: value.clone(),
                            });
                            ctx.send(
                                self.scope,
                                AbdMsg::Update {
                                    reg,
                                    tag: tag2,
                                    stamp,
                                    value: v.clone(),
                                },
                            );
                        }
                        None => {
                            // Read of a never-written register: no
                            // write-back needed (all replicas agree on ⊥).
                            ctx.emit(AbdEvent::ReadDone { reg, value: None });
                        }
                    }
                } else {
                    self.pending = Some(Pending::Query {
                        tag,
                        reg,
                        acks,
                        best,
                        write,
                    });
                }
            }
            Some(Pending::Update {
                tag,
                reg,
                acks,
                is_read,
                value,
            }) => {
                if Self::quorum_acked(acks, sigma) {
                    if is_read {
                        ctx.emit(AbdEvent::ReadDone { reg, value });
                    } else {
                        ctx.emit(AbdEvent::WriteDone { reg });
                    }
                } else {
                    self.pending = Some(Pending::Update {
                        tag,
                        reg,
                        acks,
                        is_read,
                        value,
                    });
                }
            }
            None => {}
        }
        self.start_next(ctx);
    }

    fn is_active(&self) -> bool {
        // Need a spontaneous step to launch a queued operation, or to
        // re-check quorum membership as Σ evolves.
        !self.queued.is_empty() || self.pending.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_detectors::{SigmaMode, SigmaOracle};
    use gam_kernel::{
        FailurePattern, ProcessSet, RandomSource, RotatingSource, RunOutcome, Simulator, Time,
    };

    fn system(n: usize, pattern: FailurePattern) -> Simulator<AbdProcess<u64>, SigmaOracle> {
        let scope = ProcessSet::first_n(n);
        let autos = (0..n)
            .map(|i| AbdProcess::new(ProcessId(i as u32), scope))
            .collect();
        let sigma = SigmaOracle::new(scope, pattern.clone(), SigmaMode::Alive);
        Simulator::new(autos, pattern, sigma)
    }

    const R: RegisterId = RegisterId(0);

    #[test]
    fn write_then_read_returns_value() {
        let n = 3;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = system(n, pattern);
        sim.automaton_mut(ProcessId(0)).write(R, 42);
        let mut rr = RotatingSource::default();
        let out = sim.run(&mut rr, 100_000);
        assert_eq!(out, RunOutcome::Quiescent);
        assert!(sim
            .trace()
            .events_of(ProcessId(0))
            .any(|e| matches!(e.event, AbdEvent::WriteDone { .. })));
        // Now read from another process.
        sim.automaton_mut(ProcessId(1)).read(R);
        sim.run(&mut rr, 100_000);
        assert!(sim.trace().events_of(ProcessId(1)).any(|e| e.event
            == AbdEvent::ReadDone {
                reg: R,
                value: Some(42)
            }));
    }

    #[test]
    fn read_of_unwritten_register_is_none() {
        let n = 3;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = system(n, pattern);
        sim.automaton_mut(ProcessId(2)).read(R);
        sim.run(&mut RotatingSource::default(), 100_000);
        assert!(sim.trace().events_of(ProcessId(2)).any(|e| e.event
            == AbdEvent::ReadDone {
                reg: R,
                value: None
            }));
    }

    #[test]
    fn survives_minority_crash() {
        let n = 5;
        let pattern = FailurePattern::from_crashes(
            ProcessSet::first_n(n),
            [(ProcessId(3), Time(1)), (ProcessId(4), Time(1))],
        );
        let mut sim = system(n, pattern);
        sim.automaton_mut(ProcessId(0)).write(R, 7);
        sim.automaton_mut(ProcessId(1)).read(R);
        let out = sim.run(&mut RotatingSource::default(), 200_000);
        assert_eq!(out, RunOutcome::Quiescent);
        assert!(sim
            .trace()
            .events_of(ProcessId(0))
            .any(|e| matches!(e.event, AbdEvent::WriteDone { .. })));
        // The read returns either ⊥ or 7 (concurrent with the write) but completes.
        assert!(sim
            .trace()
            .events_of(ProcessId(1))
            .any(|e| matches!(e.event, AbdEvent::ReadDone { .. })));
    }

    #[test]
    fn reads_after_write_completion_are_never_stale() {
        // Sequential: w(1); w(2); then reads from every process see 2.
        let n = 4;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = system(n, pattern);
        let mut rr = RotatingSource::default();
        sim.automaton_mut(ProcessId(0)).write(R, 1);
        sim.run(&mut rr, 100_000);
        sim.automaton_mut(ProcessId(1)).write(R, 2);
        sim.run(&mut rr, 100_000);
        for i in 0..n {
            sim.automaton_mut(ProcessId(i as u32)).read(R);
        }
        sim.run(&mut RandomSource::new(0), 400_000);
        for i in 0..n {
            let p = ProcessId(i as u32);
            assert!(
                sim.trace().events_of(p).any(|e| e.event
                    == AbdEvent::ReadDone {
                        reg: R,
                        value: Some(2)
                    }),
                "{p} read a stale value"
            );
        }
    }

    #[test]
    fn multiple_registers_are_independent() {
        let n = 3;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = system(n, pattern);
        sim.automaton_mut(ProcessId(0)).write(RegisterId(1), 10);
        sim.automaton_mut(ProcessId(1)).write(RegisterId(2), 20);
        let mut rr = RotatingSource::default();
        sim.run(&mut rr, 200_000);
        sim.automaton_mut(ProcessId(2)).read(RegisterId(1));
        sim.automaton_mut(ProcessId(2)).read(RegisterId(2));
        sim.run(&mut rr, 200_000);
        let reads: Vec<_> = sim
            .trace()
            .events_of(ProcessId(2))
            .filter_map(|e| match &e.event {
                AbdEvent::ReadDone { reg, value } => Some((*reg, *value)),
                _ => None,
            })
            .collect();
        assert!(reads.contains(&(RegisterId(1), Some(10))));
        assert!(reads.contains(&(RegisterId(2), Some(20))));
    }

    #[test]
    fn stamp_ordering_is_lexicographic() {
        let a = Stamp { seq: 1, writer: 9 };
        let b = Stamp { seq: 2, writer: 0 };
        let c = Stamp { seq: 2, writer: 1 };
        assert!(a < b && b < c);
    }
}
