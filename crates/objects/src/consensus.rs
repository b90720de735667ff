//! Consensus objects (sequential specification).
//!
//! Algorithm 1 indexes consensus objects by message and family
//! (`CONS_{m,𝔣}`, line 3) and uses them to agree on the final position of a
//! message in the logs. In the shared-memory execution level the object is
//! linearizable by construction: `propose` decides the first proposed value.
//!
//! The message-passing implementation — an `Ω`-boosted indulgent consensus
//! over `Σ`-quorums, the route of §4.3 "Implementing the shared objects" —
//! lives in [`crate::paxos`].

use std::fmt;

/// A one-shot consensus object: the first proposal wins.
///
/// Satisfies *validity* (the decision was proposed), *agreement* (every
/// `propose` returns the same value) and *integrity* (the decision never
/// changes).
///
/// # Examples
///
/// ```
/// use gam_objects::Consensus;
///
/// let mut c = Consensus::new();
/// assert_eq!(c.propose(7), 7);
/// assert_eq!(c.propose(9), 7); // decided
/// assert_eq!(c.decision(), Some(&7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Consensus<V: Clone> {
    decided: Option<V>,
    proposals: u64,
}

impl<V: Clone> Consensus<V> {
    /// Creates an undecided consensus object.
    pub fn new() -> Self {
        Consensus {
            decided: None,
            proposals: 0,
        }
    }

    /// Proposes `v`; returns the decision (the first value ever proposed).
    pub fn propose(&mut self, v: V) -> V {
        self.proposals += 1;
        self.decided.get_or_insert(v).clone()
    }

    /// The decision, if any proposal has been made.
    pub fn decision(&self) -> Option<&V> {
        self.decided.as_ref()
    }
}

impl<V: Clone + fmt::Display> fmt::Display for Consensus<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.decided {
            Some(v) => write!(f, "decided({v})"),
            None => write!(f, "undecided"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_proposal_wins() {
        let mut c = Consensus::new();
        assert_eq!(c.decision(), None);
        assert_eq!(c.propose("a"), "a");
        assert_eq!(c.propose("b"), "a");
        assert_eq!(c.proposals, 2);
        assert_eq!(c.to_string(), "decided(a)");
    }

    proptest! {
        /// Agreement + validity over arbitrary proposal sequences.
        #[test]
        fn prop_agreement_validity(proposals in proptest::collection::vec(0u32..100, 1..20)) {
            let mut c = Consensus::new();
            let mut outs = Vec::new();
            for v in &proposals {
                outs.push(c.propose(*v));
            }
            // agreement
            prop_assert!(outs.iter().all(|o| *o == outs[0]));
            // validity
            prop_assert!(proposals.contains(&outs[0]));
            // the decision is the first proposal (sequential spec)
            prop_assert_eq!(outs[0], proposals[0]);
        }
    }
}
