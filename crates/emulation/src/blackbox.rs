//! A black-box model of an arbitrary genuine atomic multicast algorithm `A`.
//!
//! The necessity proofs of §5 and §6 treat `A` as a black box and only use
//! three of its behaviours:
//!
//! 1. *(Termination)* if every not-crashed process of the destination group
//!    participates, multicast messages get delivered;
//! 2. *(Genuineness)* only processes addressed by some message take steps;
//! 3. *(Conservatism / indistinguishability)* a run in which some processes
//!    of the destination group take no steps is indistinguishable from one
//!    in which they crashed; a **realistic** `A` cannot deliver "around" a
//!    process that might merely be slow without risking an ordering
//!    violation in the glued run (Lemmas 56–57).
//!
//! [`BlackBox`] models exactly this envelope: an instance is created with a
//! *participant set* (the processes the adversarial scheduler runs — line 2
//! of Algorithms 2 and 3), and a message is delivered at the participants
//! once every not-yet-crashed member of its destination group is a
//! participant. This is the most conservative behaviour consistent with the
//! paper's model, and the one its extraction arguments are built on; see
//! DESIGN.md ("Substitutions") for the discussion.

use gam_core::MessageId;
use gam_groups::{GroupId, GroupSystem};
use gam_kernel::{FailurePattern, ProcessId, ProcessSet, Time};

/// One multicast instance of the black-box algorithm `A`, with a restricted
/// participant set.
#[derive(Debug, Clone)]
pub struct BlackBox {
    system: GroupSystem,
    pattern: FailurePattern,
    participants: ProcessSet,
    /// Submitted messages: (id, src, group, submitted-at).
    messages: Vec<(MessageId, ProcessId, GroupId, Time)>,
    /// Delivery time of each message (same order as `messages`).
    delivered_at: Vec<Option<Time>>,
    next_id: u64,
}

impl BlackBox {
    /// Creates an instance over `system` in which only `participants` take
    /// steps.
    pub fn new(system: &GroupSystem, pattern: FailurePattern, participants: ProcessSet) -> Self {
        BlackBox {
            system: system.clone(),
            pattern,
            participants,
            messages: Vec::new(),
            delivered_at: Vec::new(),
            next_id: 0,
        }
    }

    /// The participant set of the instance.
    pub fn participants(&self) -> ProcessSet {
        self.participants
    }

    /// `A.multicast(m)` from `src` to `group` at time `now`. Ignored (and
    /// `None` returned) if the source is not a live participant.
    pub fn multicast(&mut self, src: ProcessId, group: GroupId, now: Time) -> Option<MessageId> {
        if !self.participants.contains(src) || self.pattern.is_crashed(src, now) {
            return None;
        }
        let id = MessageId(self.next_id);
        self.next_id += 1;
        self.messages.push((id, src, group, now));
        self.delivered_at.push(None);
        Some(id)
    }

    /// Advances the instance to time `now`: a pending message is delivered
    /// once every not-crashed member of its destination group is a live
    /// participant (the conservative gate).
    pub fn advance(&mut self, now: Time) {
        let crashed = self.pattern.faulty_at(now);
        for (i, (_, src, group, sent)) in self.messages.iter().enumerate() {
            if self.delivered_at[i].is_some() || *sent > now {
                continue;
            }
            // The source must have survived long enough to launch it — it
            // did (checked at multicast time).
            let _ = src;
            let needed = self.system.members(*group) - crashed;
            if needed.is_empty() {
                continue; // no live destination: nothing to deliver to
            }
            if needed.is_subset(self.participants) {
                self.delivered_at[i] = Some(now);
            }
        }
    }

    /// Whether `m` has been delivered (at the live participants of its
    /// destination group) by time `now`.
    pub fn delivered(&self, m: MessageId, now: Time) -> bool {
        self.messages
            .iter()
            .position(|(id, ..)| *id == m)
            .and_then(|i| self.delivered_at[i])
            .is_some_and(|t| t <= now)
    }

    /// Whether any message of the instance has been delivered by `now`
    /// (the `A_{g,x}.deliver(-)` trigger of Algorithm 2, line 8).
    pub fn any_delivered(&self, now: Time) -> bool {
        self.delivered_at
            .iter()
            .any(|d| d.is_some_and(|t| t <= now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_groups::topology;

    #[test]
    fn full_participation_delivers() {
        let gs = topology::two_overlapping(3, 1);
        let mut bb = BlackBox::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            gs.members(GroupId(0)),
        );
        let m = bb.multicast(ProcessId(0), GroupId(0), Time(1)).unwrap();
        bb.advance(Time(2));
        assert!(bb.delivered(m, Time(2)));
        assert!(bb.any_delivered(Time(2)));
    }

    #[test]
    fn partial_participation_blocks_until_crash() {
        // g = {p0,p1,p2}; participants {p0,p1}. Delivery blocked while p2 is
        // alive — a realistic A cannot rule out that p2 is merely slow.
        let gs = topology::two_overlapping(3, 1);
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(2), Time(10))]);
        let x = ProcessSet::from_iter([0u32, 1]);
        let mut bb = BlackBox::new(&gs, pattern, x);
        let m = bb.multicast(ProcessId(0), GroupId(0), Time(1)).unwrap();
        bb.advance(Time(5));
        assert!(!bb.delivered(m, Time(5)));
        // once p2 crashes, the run is indistinguishable from a crash of p2
        // at start: A must deliver to the remaining members.
        bb.advance(Time(10));
        assert!(bb.delivered(m, Time(10)));
    }

    #[test]
    fn non_participant_source_is_ignored() {
        let gs = topology::two_overlapping(3, 1);
        let mut bb = BlackBox::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            ProcessSet::from_iter([1u32]),
        );
        assert!(bb.multicast(ProcessId(0), GroupId(0), Time(1)).is_none());
    }

    #[test]
    fn crashed_source_cannot_multicast() {
        let gs = topology::two_overlapping(3, 1);
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(0), Time(0))]);
        let mut bb = BlackBox::new(&gs, pattern, gs.members(GroupId(0)));
        assert!(bb.multicast(ProcessId(0), GroupId(0), Time(1)).is_none());
    }

    #[test]
    fn delivery_time_is_monotone_queryable() {
        let gs = topology::two_overlapping(3, 1);
        let mut bb = BlackBox::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            gs.members(GroupId(0)),
        );
        let m = bb.multicast(ProcessId(1), GroupId(0), Time(3)).unwrap();
        bb.advance(Time(4));
        assert!(!bb.delivered(m, Time(2)));
        assert!(bb.delivered(m, Time(4)));
        assert!(bb.delivered(m, Time(9)));
    }
}
