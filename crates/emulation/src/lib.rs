//! # gam-emulation — the necessity side
//!
//! The §5/§6 reductions that extract the constituents of `μ` from an
//! arbitrary algorithm `A` solving (a variation of) genuine atomic
//! multicast:
//!
//! - [`SigmaExtraction`] — Algorithm 2: `Σ_{g∩h}` via responsive subsets and
//!   the Bonnet–Raynal ranking function;
//! - [`GammaExtraction`] — Algorithm 3: `γ` via closed-path probes around
//!   each cyclic family;
//! - [`IndicatorExtraction`] — Algorithm 4: `1^{g∩h}` from *strict* atomic
//!   multicast;
//! - `algorithm5` — the CHT-style simulation forest extracting `Ω_{g∩h}`
//!   from a *strongly genuine* algorithm.
//!
//! The black box `A` is modelled by [`BlackBox`]; see its docs and DESIGN.md
//! for the substitution argument.

#![warn(missing_docs)]

mod algorithm2;
mod algorithm3;
mod algorithm4;
pub mod algorithm5;
mod blackbox;

pub use algorithm2::SigmaExtraction;
pub use algorithm3::GammaExtraction;
pub use algorithm4::IndicatorExtraction;
pub use algorithm5::{
    FirstClaimWins, Gadget, GadgetKind, LeaderDefers, OmegaExtraction, SimConfig, SimProcess,
    SimulationTree, Tag, Valency,
};
pub use blackbox::BlackBox;
