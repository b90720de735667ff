//! Run traces and per-process accounting.
//!
//! A run of an algorithm is a tuple `(F, H, I, S, T)`. The simulator records
//! the observable events emitted along the way, together with the
//! per-process step and message counters that the *minimality*
//! (genuineness) property quantifies over. The schedule `S` itself is the
//! [`ScheduleSource`](crate::ScheduleSource)'s: wrap the source in
//! [`RecordInto`](crate::schedule::RecordInto) to keep it.

use crate::cow::CowVec;
use crate::process::ProcessId;
use crate::time::Time;

/// Chunk capacity of the sealed event log: big enough that the pointer
/// table stays tiny, small enough that a post-snapshot append copies
/// little.
const LOG_CHUNK: usize = 64;

/// An observable event emitted by a process at a given time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent<E> {
    /// When the event was emitted.
    pub time: Time,
    /// The emitting process.
    pub pid: ProcessId,
    /// The protocol-level event (e.g. a delivery).
    pub event: E,
}

/// The record of a run: events and counters.
///
/// The event log is append-only, so it lives in sealed [`CowVec`] chunks: cloning a `Trace` (as the DFS explorer's kernel
/// snapshots do) shares every sealed chunk and copies only the chunk
/// pointer table — O(len / chunk) instead of O(len).
#[derive(Debug)]
pub struct Trace<E> {
    events: CowVec<TraceEvent<E>>,
    steps_per_process: Vec<u64>,
    sends_per_process: Vec<u64>,
    receives_per_process: Vec<u64>,
}

impl<E: Clone> Clone for Trace<E> {
    fn clone(&self) -> Self {
        Trace {
            events: self.events.clone(),
            steps_per_process: self.steps_per_process.clone(),
            sends_per_process: self.sends_per_process.clone(),
            receives_per_process: self.receives_per_process.clone(),
        }
    }

    /// The restore direction of the event chunks (see [`crate::cow`]); the
    /// counter vectors keep their buffers.
    fn clone_from(&mut self, src: &Self) {
        let Trace {
            events,
            steps_per_process,
            sends_per_process,
            receives_per_process,
        } = src;
        self.events.clone_from(events);
        self.steps_per_process.clone_from(steps_per_process);
        self.sends_per_process.clone_from(sends_per_process);
        self.receives_per_process.clone_from(receives_per_process);
    }
}

impl<E> Trace<E> {
    /// Creates an empty trace for `n` processes.
    pub fn new(n: usize) -> Self {
        Trace {
            events: CowVec::new(LOG_CHUNK),
            steps_per_process: vec![0; n],
            sends_per_process: vec![0; n],
            receives_per_process: vec![0; n],
        }
    }

    pub(crate) fn record_step(&mut self, pid: ProcessId, received: bool) {
        self.steps_per_process[pid.index()] += 1;
        self.receives_per_process[pid.index()] += u64::from(received);
    }

    pub(crate) fn record_send(&mut self, pid: ProcessId) {
        self.sends_per_process[pid.index()] += 1;
    }

    pub(crate) fn record_event(&mut self, time: Time, pid: ProcessId, event: E)
    where
        E: Clone,
    {
        self.events.push(TraceEvent { time, pid, event });
    }

    /// All events emitted during the run, in emission order.
    pub fn events(&self) -> &CowVec<TraceEvent<E>> {
        &self.events
    }

    /// Events emitted by a given process, in order.
    // gam-lint: allow(U001, reason = "test oracle: tests/substrate.rs and the simulator tests check per-process events through it")
    pub fn events_of(&self, p: ProcessId) -> impl Iterator<Item = &TraceEvent<E>> {
        self.events.iter().filter(move |e| e.pid == p)
    }

    /// Number of steps taken by `p`.
    pub fn steps_of(&self, p: ProcessId) -> u64 {
        self.steps_per_process[p.index()]
    }

    /// Number of send operations performed by `p`.
    // gam-lint: allow(U001, reason = "minimality oracle: gam-core tests assert a non-addressed process sends nothing; examples/message_passing.rs prints it")
    pub fn sends_of(&self, p: ProcessId) -> u64 {
        self.sends_per_process[p.index()]
    }

    /// Number of non-null messages received by `p`.
    // gam-lint: allow(U001, reason = "minimality oracle: gam-core tests assert a non-addressed process receives nothing; examples/message_passing.rs prints it")
    pub fn receives_of(&self, p: ProcessId) -> u64 {
        self.receives_per_process[p.index()]
    }

    /// Total number of steps across all processes.
    pub fn total_steps(&self) -> u64 {
        self.steps_per_process.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t: Trace<&'static str> = Trace::new(3);
        t.record_step(ProcessId(0), false);
        t.record_step(ProcessId(0), true);
        t.record_send(ProcessId(0));
        t.record_event(Time(2), ProcessId(0), "deliver");
        assert_eq!(t.steps_of(ProcessId(0)), 2);
        assert_eq!(t.receives_of(ProcessId(0)), 1);
        assert_eq!(t.sends_of(ProcessId(0)), 1);
        assert_eq!(t.total_steps(), 2);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn events_of_filters_by_process() {
        let mut t: Trace<u32> = Trace::new(2);
        t.record_event(Time(1), ProcessId(0), 1);
        t.record_event(Time(2), ProcessId(1), 2);
        t.record_event(Time(3), ProcessId(0), 3);
        let of0: Vec<u32> = t.events_of(ProcessId(0)).map(|e| e.event).collect();
        assert_eq!(of0, vec![1, 3]);
    }
}
