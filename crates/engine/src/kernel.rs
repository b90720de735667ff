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
use crate::exec::{Executor, SnapshotExec};
use gam_kernel::schedule::ChoiceStep;
use gam_kernel::{Automaton, History, ProcessId, ProcessSet, Simulator};

/// The kernel simulator as an [`Executor`], generic over the automaton like
/// the simulator itself.
pub struct KernelExecutor<A: Automaton, H: History<Value = A::Fd>> {
    sim: Simulator<A, H>,
    set: ProcessSet,
    digest: Digest,
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
        }
    }

    /// Read access to the wrapped simulator.
    pub fn sim(&self) -> &Simulator<A, H> {
        &self.sim
    }

    /// Consumes the executor, returning the simulator.
    pub fn into_sim(self) -> Simulator<A, H> {
        self.sim
    }
}

/// A [`KernelExecutor`] checkpoint: the whole simulator (automata,
/// in-flight messages, clock, trace) plus the executor's history digest.
/// The scheduled process set is configuration, not state, and stays out.
#[derive(Debug, Clone)]
pub struct KernelSnapshot<A: Automaton, H: History<Value = A::Fd>> {
    sim: Simulator<A, H>,
    digest: Digest,
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
        }
    }

    fn restore(&mut self, snap: &KernelSnapshot<A, H>) {
        self.sim.clone_from(&snap.sim);
        self.digest = snap.digest;
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
        let received = self.sim.step_choice(action.pid, action.choice);
        // Incremental digest: time, process, received message (0 = none).
        self.digest.push(self.sim.now().0);
        self.digest.push(u64::from(action.pid.0));
        self.digest.push(received.map_or(0, |m| m.0 + 1));
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
}
