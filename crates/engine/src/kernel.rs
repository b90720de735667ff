//! [`Executor`] over the Level-B substrate: the message-passing
//! [`Simulator`] of `gam-kernel`.
//!
//! A scheduling option of process `p` with `k` pending messages is one of
//! `0..k` (receive the `c`-th oldest) plus, when the automaton is active,
//! `k` (the null message) — the mapping [`Simulator::step_choice`] defines.
//! The executor folds each step into an incremental [`Digest`] as it
//! happens (time, process, received message) — every scheduled step,
//! including one whose process had crashed by its instant and so received
//! nothing.

use crate::digest::Digest;
use crate::event::{Observer, TraceEvent};
use crate::exec::{Executor, SnapshotExec};
use gam_core::MessageId;
use gam_kernel::schedule::ChoiceStep;
use gam_kernel::{Automaton, History, ProcessId, ProcessSet, Simulator};

/// Extracts the delivered message (if any) from a protocol event, so the
/// trace bus can name it in [`TraceEvent::Deliver`].
pub type DeliveryMsgFn<A> = fn(&<A as Automaton>::Event) -> Option<MessageId>;

/// The kernel simulator as an [`Executor`].
///
/// Generic over the automaton, like the simulator itself; a delivery
/// extractor (see [`KernelExecutor::with_delivery_msg`]) lets the trace bus
/// name the delivered message of a protocol event.
pub struct KernelExecutor<A: Automaton, H: History<Value = A::Fd>> {
    sim: Simulator<A, H>,
    set: ProcessSet,
    digest: Digest,
    observers: Vec<Box<dyn Observer + Send>>,
    delivery_msg: Option<DeliveryMsgFn<A>>,
    events_seen: usize,
    crashed_seen: ProcessSet,
}

impl<A: Automaton, H: History<Value = A::Fd>> KernelExecutor<A, H> {
    /// Wraps `sim`, scheduling every process of its universe.
    pub fn new(sim: Simulator<A, H>) -> Self {
        let set = sim.universe();
        KernelExecutor::with_set(sim, set)
    }

    /// Wraps `sim`, scheduling **only** the processes of `set` (the
    /// adversarial subset schedules of §5).
    pub fn with_set(sim: Simulator<A, H>, set: ProcessSet) -> Self {
        KernelExecutor {
            sim,
            set,
            digest: Digest::new(),
            observers: Vec::new(),
            delivery_msg: None,
            events_seen: 0,
            crashed_seen: ProcessSet::EMPTY,
        }
    }

    /// Registers an extractor naming the delivered message of a protocol
    /// event, so [`TraceEvent::Deliver`] carries a [`MessageId`] instead of
    /// `None`.
    pub fn with_delivery_msg(mut self, f: DeliveryMsgFn<A>) -> Self {
        self.delivery_msg = Some(f);
        self
    }

    /// Read access to the wrapped simulator.
    pub fn sim(&self) -> &Simulator<A, H> {
        &self.sim
    }

    /// Consumes the executor, returning the simulator.
    // gam-lint: allow(U001, reason = "tests/levelb_identity.rs reads the deliveries and counters off the simulator a run leaves")
    pub fn into_sim(self) -> Simulator<A, H> {
        self.sim
    }

    fn publish(&mut self, ev: &TraceEvent) {
        for obs in &mut self.observers {
            obs.on_event(ev);
        }
    }
}

/// A [`KernelExecutor`] checkpoint: the whole simulator (automata,
/// in-flight messages, clock, trace) plus the executor's history
/// digest and publication cursors. Observers and the delivery extractor
/// are configuration and stay out (see [`SnapshotExec`]).
#[derive(Debug, Clone)]
pub struct KernelSnapshot<A: Automaton, H: History<Value = A::Fd>> {
    sim: Simulator<A, H>,
    digest: Digest,
    events_seen: usize,
    crashed_seen: ProcessSet,
}

impl<A, H> SnapshotExec for KernelExecutor<A, H>
where
    A: Automaton + Clone + Send,
    A::Msg: Send,
    // the simulator's per-process detector samples ride in the snapshot
    A::Fd: Send,
    // `Sync` rides along with `Send` here: the trace's sealed log chunks
    // are `Arc`-shared between a snapshot and its executor, and an
    // `Arc<Vec<E>>` only crosses threads when `E: Send + Sync`.
    A::Event: Send + Sync,
    H: History<Value = A::Fd> + Clone + Send,
{
    type Snapshot = KernelSnapshot<A, H>;

    fn snapshot(&self) -> KernelSnapshot<A, H> {
        KernelSnapshot {
            sim: self.sim.clone(),
            digest: self.digest,
            events_seen: self.events_seen,
            crashed_seen: self.crashed_seen,
        }
    }

    fn restore(&mut self, snap: &KernelSnapshot<A, H>) {
        self.sim.clone_from(&snap.sim);
        self.digest = snap.digest;
        self.events_seen = snap.events_seen;
        self.crashed_seen = snap.crashed_seen;
    }
}

impl<A: Automaton, H: History<Value = A::Fd>> Executor for KernelExecutor<A, H>
where
    Self: Send,
{
    fn enabled_actions(&mut self, out: &mut Vec<(ProcessId, usize)>) {
        self.sim.options_into(self.set, out);
    }

    fn step(&mut self, action: ChoiceStep) {
        let sends_before = self.sim.total_messages();
        let received = self.sim.step_choice(action.pid, action.choice);
        let now = self.sim.now();
        // Incremental digest: time, process, received message (0 = none).
        self.digest.push(now.0);
        self.digest.push(u64::from(action.pid.0));
        self.digest.push(received.map_or(0, |m| m.0 + 1));
        if self.observers.is_empty() {
            return;
        }
        let pid = action.pid;
        self.publish(&TraceEvent::Step {
            time: now,
            pid,
            choice: action.choice,
        });
        let newly_crashed = (self.sim.universe() - self.sim.alive()) - self.crashed_seen;
        for p in newly_crashed {
            self.crashed_seen.insert(p);
            self.publish(&TraceEvent::Crash { time: now, pid: p });
        }
        if self.sim.alive().contains(pid) {
            self.publish(&TraceEvent::FdQuery { time: now, pid });
        }
        if let Some(msg) = received {
            self.publish(&TraceEvent::Receive {
                time: now,
                pid,
                msg,
            });
        }
        for _ in sends_before..self.sim.total_messages() {
            self.publish(&TraceEvent::Send { time: now, pid });
        }
        let n_events = self.sim.trace().events().len();
        for i in self.events_seen..n_events {
            let ev = &self.sim.trace().events()[i];
            let deliver = TraceEvent::Deliver {
                time: ev.time,
                pid: ev.pid,
                msg: self.delivery_msg.and_then(|f| f(&ev.event)),
            };
            self.publish(&deliver);
        }
        self.events_seen = n_events;
    }

    fn state_digest(&self) -> u64 {
        self.digest.value()
    }

    fn is_quiescent(&self) -> bool {
        self.sim.is_quiescent_in(self.set)
    }

    fn idle_tick(&mut self) -> bool {
        // The kernel has no time-gated guards: an empty choice space is
        // final, so there is nothing to wait for.
        false
    }

    fn attach(&mut self, observer: Box<dyn Observer + Send>) {
        self.observers.push(observer);
    }
}
