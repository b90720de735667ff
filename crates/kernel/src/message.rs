//! Messages and the message buffer.
//!
//! Processes communicate by messages with a sender `src(m)`, a destination
//! set `dst(m)` and a payload. The message buffer `BUFF` holds all messages
//! sent but not yet received; a process attempting to receive either removes
//! a message addressed to it or obtains the null message.

use crate::process::{ProcessId, ProcessSet};
use crate::time::Time;
use std::collections::VecDeque;
use std::fmt;

/// A unique identifier assigned by the simulator to each sent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MsgId(pub u64);

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A message in transit: identity, sender, destination set, payload and the
/// time at which it was sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Simulator-assigned unique id.
    pub id: MsgId,
    /// The sender `src(m)`.
    pub src: ProcessId,
    /// The destination group `dst(m)`.
    pub dst: ProcessSet,
    /// The time at which the message was sent.
    pub sent_at: Time,
    /// The protocol-level payload.
    pub payload: M,
}

/// The message buffer `BUFF`, a mapping from processes to the messages in
/// transit addressed to them.
///
/// Sending a message to a destination set enqueues one copy per recipient
/// (all sharing the same [`MsgId`]). Receiving removes one copy from the
/// recipient's queue; the choice of *which* copy is made by the scheduler.
#[derive(Debug)]
pub struct MessageBuffer<M> {
    queues: Vec<VecDeque<Envelope<M>>>,
    next_id: u64,
    total_sent: u64,
}

impl<M: Clone> Clone for MessageBuffer<M> {
    fn clone(&self) -> Self {
        MessageBuffer {
            queues: self.queues.clone(),
            next_id: self.next_id,
            total_sent: self.total_sent,
        }
    }

    /// Keeps every queue's ring buffer (a simulator restore lands here).
    fn clone_from(&mut self, src: &Self) {
        let MessageBuffer {
            queues,
            next_id,
            total_sent,
        } = src;
        self.queues.clone_from(queues);
        self.next_id = *next_id;
        self.total_sent = *total_sent;
    }
}

impl<M: Clone> MessageBuffer<M> {
    /// Creates an empty buffer for `n` processes.
    pub fn new(n: usize) -> Self {
        MessageBuffer {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            next_id: 0,
            total_sent: 0,
        }
    }

    /// Total number of messages ever sent through the buffer.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// Sends `payload` from `src` to every process of `dst`, returning the
    /// assigned message id.
    ///
    /// # Panics
    ///
    /// Panics if a destination index is out of range.
    pub fn send(&mut self, src: ProcessId, dst: ProcessSet, sent_at: Time, payload: M) -> MsgId {
        let id = MsgId(self.next_id);
        self.next_id += 1;
        self.total_sent += 1;
        for p in dst {
            let env = Envelope {
                id,
                src,
                dst,
                sent_at,
                payload: payload.clone(),
            };
            self.queues[p.index()].push_back(env);
        }
        id
    }

    /// Number of messages currently pending for `p`.
    pub fn pending(&self, p: ProcessId) -> usize {
        self.queues[p.index()].len()
    }

    /// Removes and returns the `k`-th oldest pending message for `p`, or
    /// `None` if fewer than `k + 1` are pending.
    pub fn receive_nth(&mut self, p: ProcessId, k: usize) -> Option<Envelope<M>> {
        self.queues[p.index()].remove(k)
    }

    /// Discards every message pending for `p` (used when `p` crashes — a
    /// crashed process takes no further step, so its copies are dead).
    pub fn drop_for(&mut self, p: ProcessId) {
        self.queues[p.index()].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_fans_out_to_all_recipients() {
        let mut buf: MessageBuffer<&'static str> = MessageBuffer::new(4);
        let dst = ProcessSet::from_iter([1u32, 3]);
        let id = buf.send(ProcessId(0), dst, Time(1), "hello");
        assert_eq!(buf.pending(ProcessId(1)), 1);
        assert_eq!(buf.pending(ProcessId(3)), 1);
        assert_eq!(buf.pending(ProcessId(0)), 0);
        let e = buf.receive_nth(ProcessId(1), 0).unwrap();
        assert_eq!(e.id, id);
        assert_eq!(e.src, ProcessId(0));
        assert_eq!(e.dst, dst);
        assert_eq!(e.payload, "hello");
    }

    #[test]
    fn fifo_order_per_recipient() {
        let mut buf: MessageBuffer<u32> = MessageBuffer::new(2);
        for i in 0..5 {
            buf.send(
                ProcessId(0),
                ProcessSet::singleton(ProcessId(1)),
                Time(i),
                i as u32,
            );
        }
        let mut got = Vec::new();
        while let Some(e) = buf.receive_nth(ProcessId(1), 0) {
            got.push(e.payload);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn receive_nth_removes_specific_message() {
        let mut buf: MessageBuffer<u32> = MessageBuffer::new(1);
        for i in 0..3 {
            buf.send(
                ProcessId(0),
                ProcessSet::singleton(ProcessId(0)),
                Time(0),
                i,
            );
        }
        let e = buf.receive_nth(ProcessId(0), 1).unwrap();
        assert_eq!(e.payload, 1);
        assert_eq!(buf.pending(ProcessId(0)), 2);
        assert!(buf.receive_nth(ProcessId(0), 5).is_none());
    }

    #[test]
    fn drop_for_discards_pending_copies() {
        let mut buf: MessageBuffer<u32> = MessageBuffer::new(3);
        let all = ProcessSet::first_n(3);
        assert!(all.iter().all(|p| buf.pending(p) == 0));
        buf.send(ProcessId(0), all, Time(0), 7);
        assert!(all.iter().all(|p| buf.pending(p) == 1));
        for p in all {
            buf.drop_for(p);
        }
        assert!(all.iter().all(|p| buf.pending(p) == 0));
        assert_eq!(buf.total_sent(), 1);
    }
}
