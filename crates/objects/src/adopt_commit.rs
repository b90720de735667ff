//! Adopt–commit objects (Gafni's round-by-round fault detectors).
//!
//! The contention-free fast consensus of §4.3 guards each consensus object
//! with an adopt–commit object `AC`: `propose(v)` first goes through `AC`,
//! and only when `AC` *fails* (returns `adopt`) is the heavier consensus
//! object called. When processes execute operations in the exact same order,
//! only the adopt–commit objects are used — which is how the modified
//! universal construction for `LOG_{g∩h}` keeps minimality (Proposition 47).
//!
//! An adopt–commit object guarantees:
//!
//! - *(Validity)* the output value was proposed;
//! - *(Agreement)* if some process outputs `(commit, v)`, every output has
//!   value `v`;
//! - *(Convergence)* if all proposals are for the same value `v`, every
//!   output is `(commit, v)`.

use std::fmt;

/// The grade of an adopt–commit output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grade {
    /// The value is decided; no other value can ever be committed.
    Commit,
    /// The value must be adopted (carried to the backup consensus), but
    /// other processes may have adopted a different value.
    Adopt,
}

impl fmt::Display for Grade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Grade::Commit => write!(f, "commit"),
            Grade::Adopt => write!(f, "adopt"),
        }
    }
}

/// An adopt–commit object (sequential specification).
///
/// The sequential linearization commits while all proposals agree with the
/// first one, and degrades to `adopt` as soon as a conflicting value shows
/// up.
///
/// # Examples
///
/// ```
/// use gam_objects::{AdoptCommit, Grade};
///
/// let mut ac = AdoptCommit::new();
/// assert_eq!(ac.propose(1), (Grade::Commit, 1));
/// assert_eq!(ac.propose(1), (Grade::Commit, 1));
/// assert_eq!(ac.propose(2), (Grade::Adopt, 1)); // conflict: adopt first value
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdoptCommit<V: Clone + PartialEq> {
    first: Option<V>,
    conflicted: bool,
}

impl<V: Clone + PartialEq> AdoptCommit<V> {
    /// Creates a fresh adopt–commit object.
    pub fn new() -> Self {
        AdoptCommit {
            first: None,
            conflicted: false,
        }
    }

    /// Proposes `v`, returning a graded value.
    pub fn propose(&mut self, v: V) -> (Grade, V) {
        match &self.first {
            None => {
                self.first = Some(v.clone());
                (Grade::Commit, v)
            }
            Some(f) => {
                if *f != v {
                    self.conflicted = true;
                }
                let grade = if self.conflicted {
                    Grade::Adopt
                } else {
                    Grade::Commit
                };
                (grade, f.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn convergence_when_unanimous() {
        let mut ac = AdoptCommit::new();
        for _ in 0..5 {
            assert_eq!(ac.propose("v"), (Grade::Commit, "v"));
        }
        assert!(!ac.conflicted);
    }

    #[test]
    fn conflict_degrades_to_adopt() {
        let mut ac = AdoptCommit::new();
        assert_eq!(ac.propose(1), (Grade::Commit, 1));
        assert_eq!(ac.propose(2), (Grade::Adopt, 1));
        // even a later proposal of the first value only adopts now
        assert_eq!(ac.propose(1), (Grade::Adopt, 1));
        assert!(ac.conflicted);
    }

    #[test]
    fn grade_display() {
        assert_eq!(Grade::Commit.to_string(), "commit");
        assert_eq!(Grade::Adopt.to_string(), "adopt");
    }

    proptest! {
        /// Validity + agreement over arbitrary proposal sequences.
        #[test]
        fn prop_adopt_commit_axioms(proposals in proptest::collection::vec(0u32..5, 1..25)) {
            let mut ac = AdoptCommit::new();
            let mut outs = Vec::new();
            for v in &proposals {
                outs.push(ac.propose(*v));
            }
            for (grade, v) in &outs {
                // validity
                prop_assert!(proposals.contains(v));
                // agreement: a commit pins every output's value
                if *grade == Grade::Commit {
                    prop_assert!(outs.iter().all(|(_, w)| w == v));
                }
            }
            // convergence
            if proposals.iter().all(|v| *v == proposals[0]) {
                prop_assert!(outs.iter().all(|(g, v)| *g == Grade::Commit && *v == proposals[0]));
            }
        }
    }
}
