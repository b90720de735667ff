//! The baseline the paper positions itself against.
//!
//! [`BroadcastBased`] is the naive, **non-genuine** solution of §1/§2.3:
//! every message goes through a single atomic broadcast and every process
//! scans the whole log, delivering only what is addressed to it. Its weakest
//! failure detector is `Ω ∧ Σ` (Table 1, first row), but it fails
//! *minimality*: processes take steps for messages not addressed to them,
//! which is why it does not scale with the number of groups [33, 37].

use crate::message::{MessageId, MessageInfo};
use crate::runtime::{Delivery, RunReport};
use gam_groups::{GroupId, GroupSystem};
use gam_kernel::{FailurePattern, ProcessId, Time};

/// The naive multicast over one global atomic broadcast.
///
/// At the shared-memory level the broadcast is a single shared log that
/// every process scans in order; the scan of a non-addressed entry still
/// costs a step — exactly the waste genuineness rules out.
#[derive(Debug)]
pub struct BroadcastBased {
    system: GroupSystem,
    pattern: FailurePattern,
    now: Time,
    log: Vec<MessageId>,
    cursor: Vec<usize>,
    messages: Vec<MessageInfo>,
    multicast_at: Vec<Time>,
    delivered: Vec<Vec<Delivery>>,
    actions_of: Vec<u64>,
}

impl BroadcastBased {
    /// Creates the baseline over `system` with the given failure pattern.
    pub fn new(system: &GroupSystem, pattern: FailurePattern) -> Self {
        let n = system.universe().max().map_or(0, |p| p.index() + 1);
        BroadcastBased {
            system: system.clone(),
            pattern,
            now: Time::ZERO,
            log: Vec::new(),
            cursor: vec![0; n],
            messages: Vec::new(),
            multicast_at: Vec::new(),
            delivered: vec![Vec::new(); n],
            actions_of: vec![0; n],
        }
    }

    /// Submits a multicast: appends to the global broadcast log.
    ///
    /// # Panics
    ///
    /// Panics if `src ∉ group`.
    pub fn multicast(&mut self, src: ProcessId, group: GroupId, payload: u64) -> MessageId {
        assert!(self.system.members(group).contains(src));
        self.now = self.now.next();
        let id = MessageId(self.messages.len() as u64);
        self.messages.push(MessageInfo {
            src,
            group,
            payload,
        });
        self.multicast_at.push(self.now);
        self.log.push(id);
        id
    }

    /// Runs round-robin until every live process has scanned the whole log
    /// or `max_actions` is exhausted; returns `true` on quiescence.
    pub fn run(&mut self, max_actions: u64) -> bool {
        let n = self.cursor.len();
        let mut taken = 0u64;
        loop {
            let mut progressed = false;
            for i in 0..n {
                let p = ProcessId(i as u32);
                if self.pattern.is_crashed(p, self.now) {
                    continue;
                }
                if self.cursor[i] < self.log.len() {
                    if taken >= max_actions {
                        return false;
                    }
                    self.now = self.now.next();
                    let m = self.log[self.cursor[i]];
                    self.cursor[i] += 1;
                    self.actions_of[i] += 1; // a step, addressed or not
                    let dst = self.system.members(self.messages[m.0 as usize].group);
                    if dst.contains(p) {
                        self.delivered[i].push(Delivery {
                            msg: m,
                            at: self.now,
                        });
                    }
                    progressed = true;
                    taken += 1;
                }
            }
            if !progressed {
                return true;
            }
        }
    }

    /// Produces a [`RunReport`] compatible with the `spec` checkers.
    pub fn report(&self, quiescent: bool) -> RunReport {
        RunReport {
            system: self.system.clone(),
            pattern: self.pattern.clone(),
            messages: self.messages.clone(),
            multicast_at: self.multicast_at.clone(),
            delivered: self.delivered.clone(),
            actions_of: self.actions_of.clone(),
            quiescent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use gam_groups::topology;

    #[test]
    fn broadcast_based_delivers_and_orders() {
        let gs = topology::disjoint(3, 2);
        let mut bb = BroadcastBased::new(&gs, FailurePattern::all_correct(gs.universe()));
        // A single message, addressed to g1 only: the other four processes
        // are addressed by nothing, yet the broadcast makes them step.
        bb.multicast(ProcessId(0), GroupId(0), 7);
        assert!(bb.run(100_000));
        let r = bb.report(true);
        spec::check_integrity(&r).unwrap();
        spec::check_ordering(&r).unwrap();
        spec::check_termination(&r).unwrap();
        // Non-genuine: every process scanned the message.
        assert_eq!(
            spec::check_minimality(&r).unwrap_err().property,
            "minimality"
        );
        assert!(r.actions_of.iter().all(|c| *c == 1));
    }

    #[test]
    fn broadcast_minimality_holds_when_everyone_addressed() {
        let gs = topology::single_group(3);
        let mut bb = BroadcastBased::new(&gs, FailurePattern::all_correct(gs.universe()));
        bb.multicast(ProcessId(0), GroupId(0), 0);
        assert!(bb.run(1000));
        spec::check_minimality(&bb.report(true)).unwrap();
    }
}
