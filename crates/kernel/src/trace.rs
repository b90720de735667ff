//! Run traces and per-process accounting.
//!
//! A run of an algorithm is a tuple `(F, H, I, S, T)`. The simulator records
//! the schedule `S` (who stepped, at which time, receiving what) and the
//! observable events emitted along the way, together with the per-process
//! step and message counters that the *minimality* (genuineness) property
//! quantifies over.

use crate::cow::CowVec;
use crate::message::MsgId;
use crate::process::{ProcessId, ProcessSet};
use crate::time::Time;

/// Chunk capacity of the sealed step/event logs: big enough that the
/// pointer table stays tiny, small enough that a post-snapshot append
/// copies little.
const LOG_CHUNK: usize = 64;

/// One recorded step of the schedule `S`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRecord {
    /// When the step was taken (`T[i]`).
    pub time: Time,
    /// The stepping process.
    pub pid: ProcessId,
    /// The received message, or `None` for the null message `m_⊥`.
    pub received: Option<MsgId>,
}

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

/// The full record of a run: schedule, events and counters.
///
/// The step and event logs are append-only, so they live in sealed
/// [`CowVec`] chunks: cloning a `Trace` (as the DFS explorer's kernel
/// snapshots do) shares every sealed chunk and copies only the chunk
/// pointer table — O(len / chunk) instead of O(len).
#[derive(Debug)]
pub struct Trace<E> {
    steps: CowVec<StepRecord>,
    events: CowVec<TraceEvent<E>>,
    steps_per_process: Vec<u64>,
    sends_per_process: Vec<u64>,
    receives_per_process: Vec<u64>,
    record_schedule: bool,
}

impl<E: Clone> Clone for Trace<E> {
    fn clone(&self) -> Self {
        Trace {
            steps: self.steps.clone(),
            events: self.events.clone(),
            steps_per_process: self.steps_per_process.clone(),
            sends_per_process: self.sends_per_process.clone(),
            receives_per_process: self.receives_per_process.clone(),
            record_schedule: self.record_schedule,
        }
    }

    /// The restore direction of the log chunks (see [`crate::cow`]); the
    /// counter vectors keep their buffers.
    fn clone_from(&mut self, src: &Self) {
        let Trace {
            steps,
            events,
            steps_per_process,
            sends_per_process,
            receives_per_process,
            record_schedule,
        } = src;
        self.steps.clone_from(steps);
        self.events.clone_from(events);
        self.steps_per_process.clone_from(steps_per_process);
        self.sends_per_process.clone_from(sends_per_process);
        self.receives_per_process.clone_from(receives_per_process);
        self.record_schedule = *record_schedule;
    }
}

impl<E> Trace<E> {
    /// Creates an empty trace for `n` processes.
    ///
    /// When `record_schedule` is false, individual [`StepRecord`]s are not
    /// retained (the counters still are), which keeps long runs cheap.
    pub fn new(n: usize, record_schedule: bool) -> Self {
        Trace {
            steps: CowVec::new(LOG_CHUNK),
            events: CowVec::new(LOG_CHUNK),
            steps_per_process: vec![0; n],
            sends_per_process: vec![0; n],
            receives_per_process: vec![0; n],
            record_schedule,
        }
    }

    pub(crate) fn record_step(&mut self, time: Time, pid: ProcessId, received: Option<MsgId>) {
        self.steps_per_process[pid.index()] += 1;
        if received.is_some() {
            self.receives_per_process[pid.index()] += 1;
        }
        if self.record_schedule {
            self.steps.push(StepRecord {
                time,
                pid,
                received,
            });
        }
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

    /// The recorded schedule (empty unless schedule recording was enabled).
    pub fn steps(&self) -> &CowVec<StepRecord> {
        &self.steps
    }

    /// All events emitted during the run, in emission order.
    pub fn events(&self) -> &CowVec<TraceEvent<E>> {
        &self.events
    }

    /// Events emitted by a given process, in order.
    pub fn events_of(&self, p: ProcessId) -> impl Iterator<Item = &TraceEvent<E>> {
        self.events.iter().filter(move |e| e.pid == p)
    }

    /// Number of steps taken by `p`.
    pub fn steps_of(&self, p: ProcessId) -> u64 {
        self.steps_per_process[p.index()]
    }

    /// Number of send operations performed by `p`.
    pub fn sends_of(&self, p: ProcessId) -> u64 {
        self.sends_per_process[p.index()]
    }

    /// Number of non-null messages received by `p`.
    pub fn receives_of(&self, p: ProcessId) -> u64 {
        self.receives_per_process[p.index()]
    }

    /// Returns `true` if `p` sent or received a (non-null) message — the
    /// activity that the minimality property of genuine atomic multicast
    /// forbids for non-addressed processes.
    pub fn communicated(&self, p: ProcessId) -> bool {
        self.sends_of(p) > 0 || self.receives_of(p) > 0
    }

    /// The set of processes that communicated during the run.
    pub fn communicating_processes(&self, universe: ProcessSet) -> ProcessSet {
        universe.iter().filter(|p| self.communicated(*p)).collect()
    }

    /// Total number of steps across all processes.
    pub fn total_steps(&self) -> u64 {
        self.steps_per_process.iter().sum()
    }

    /// Total number of send operations across all processes.
    pub fn total_sends(&self) -> u64 {
        self.sends_per_process.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t: Trace<&'static str> = Trace::new(3, true);
        t.record_step(Time(1), ProcessId(0), None);
        t.record_step(Time(2), ProcessId(0), Some(MsgId(9)));
        t.record_send(ProcessId(0));
        t.record_event(Time(2), ProcessId(0), "deliver");
        assert_eq!(t.steps_of(ProcessId(0)), 2);
        assert_eq!(t.receives_of(ProcessId(0)), 1);
        assert_eq!(t.sends_of(ProcessId(0)), 1);
        assert!(t.communicated(ProcessId(0)));
        assert!(!t.communicated(ProcessId(1)));
        assert_eq!(t.total_steps(), 2);
        assert_eq!(t.steps().len(), 2);
        assert_eq!(t.events().len(), 1);
        assert_eq!(
            t.communicating_processes(ProcessSet::first_n(3)),
            ProcessSet::singleton(ProcessId(0))
        );
    }

    #[test]
    fn schedule_recording_can_be_disabled() {
        let mut t: Trace<()> = Trace::new(1, false);
        t.record_step(Time(1), ProcessId(0), None);
        assert!(t.steps().is_empty());
        assert_eq!(t.steps_of(ProcessId(0)), 1);
    }

    #[test]
    fn events_of_filters_by_process() {
        let mut t: Trace<u32> = Trace::new(2, false);
        t.record_event(Time(1), ProcessId(0), 1);
        t.record_event(Time(2), ProcessId(1), 2);
        t.record_event(Time(3), ProcessId(0), 3);
        let of0: Vec<u32> = t.events_of(ProcessId(0)).map(|e| e.event).collect();
        assert_eq!(of0, vec![1, 3]);
    }
}
