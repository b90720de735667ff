//! # gam-groups — destination groups and cyclic families
//!
//! The combinatorics that the weakest failure detector `μ` is built from
//! (§2–§3 of the paper): the set `𝒢` of destination groups, their
//! intersection graph, *families* of groups, the closed paths `cpaths(𝔣)`,
//! *cyclic* families (hamiltonian intersection graphs) and their faultiness,
//! plus the `H(q, g)` sets of Lemma 30.
//!
//! ## Quickstart
//!
//! ```
//! use gam_groups::{topology, GroupId};
//! use gam_kernel::{ProcessId, ProcessSet};
//!
//! let gs = topology::fig1();
//! // 𝔣 = {g1, g2, g3} is cyclic, and faulty once p2 crashes.
//! let f: gam_groups::GroupSet = [GroupId(0), GroupId(1), GroupId(2)].into_iter().collect();
//! assert!(gs.cyclic_families().contains(&f));
//! assert!(gs.family_faulty(f, ProcessSet::from_iter([1u32])));
//! ```

#![warn(missing_docs)]

mod family;
mod graph;
mod group;
pub mod topology;

pub use family::ClosedPath;
pub use group::{GroupId, GroupSet, GroupSetIter, GroupSystem};
