//! # gam-detectors — failure detector classes and oracles
//!
//! The failure detectors of §3 and §6 of the paper, as oracles over a
//! ground-truth [`FailurePattern`](gam_kernel::FailurePattern):
//!
//! - [`SigmaOracle`] — the quorum detector `Σ` and its restriction `Σ_P`;
//! - [`OmegaOracle`] — the leader detector `Ω` / `Ω_P`;
//! - [`GammaOracle`] — the new *cyclicity* detector `γ`;
//! - [`IndicatorOracle`] — the indicator `1^P` of §6.1;
//! - [`PerfectOracle`] — the perfect detector `𝒫`;
//! - [`MuOracle`] — the candidate
//!   `μ_𝒢 = (∧_{g,h} Σ_{g∩h}) ∧ (∧_g Ω_g) ∧ γ`.
//!
//! Each oracle can realise several *valid histories* of its class (eager,
//! lazy, adversarially rotating before stabilisation), and the
//! [`validate`] module provides checkers that certify an arbitrary sampled
//! history against the class axioms — used to verify the emulations of
//! Algorithms 2–5.
//!
//! ## Quickstart
//!
//! ```
//! use gam_detectors::{GammaOracle, MuConfig, MuOracle};
//! use gam_groups::topology;
//! use gam_kernel::*;
//!
//! let gs = topology::fig1();
//! let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(5))]);
//! let mu = MuOracle::new(&gs, pattern, MuConfig::default());
//! // After p2 crashes, γ stops reporting the families through g1∩g2.
//! assert_eq!(mu.gamma_families(ProcessId(0), Time(5)).len(), 1);
//! ```

#![warn(missing_docs)]

mod gamma;
mod indicator;
mod mu;
mod omega;
mod perfect;
mod sigma;
pub mod validate;

pub use gamma::GammaOracle;
pub use indicator::{IndicatorMode, IndicatorOracle};
pub use mu::{MuConfig, MuOracle};
pub use omega::{OmegaMode, OmegaOracle};
pub use perfect::PerfectOracle;
pub use sigma::{SigmaMode, SigmaOracle};
pub use validate::Violation;
