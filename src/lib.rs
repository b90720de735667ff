//! # genuine-multicast
//!
//! A Rust reproduction of *“The Weakest Failure Detector for Genuine Atomic
//! Multicast”* (Pierre Sutra, PODC 2022 brief announcement / extended
//! version): the candidate detector
//! `μ = (∧_{g,h∈𝒢} Σ_{g∩h}) ∧ (∧_{g∈𝒢} Ω_g) ∧ γ`, the genuine atomic
//! multicast algorithm it supports (Algorithm 1), the §6 problem
//! variations, and the necessity-side extractions (Algorithms 2–5) — all on
//! top of a deterministic simulator of the asynchronous model with failure
//! detectors.
//!
//! This crate is an umbrella over the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`kernel`] | processes, failure patterns, message buffer, simulator |
//! | [`groups`] | destination groups, intersection graphs, cyclic families |
//! | [`detectors`] | Σ, Ω, γ, 1^P, 𝒫 oracles; μ; class validators |
//! | [`objects`] | logs, consensus, adopt–commit; ABD registers; Paxos |
//! | [`core`] | Algorithm 1, variations, baselines, property checkers |
//! | [`engine`] | one [`Executor`](engine::Executor) stepping layer over both substrates: drivers, trace bus, run digests |
//! | [`emulation`] | Algorithms 2–5: extracting μ's constituents |
//! | [`explore`] | schedule-space explorer, shrinking counterexamples, repros |
//! | [`scenarios`] | seeded scenario corpus: `gam-scn v1` descriptors, families, workloads |
//!
//! ## Quickstart
//!
//! ```
//! use genuine_multicast::prelude::*;
//!
//! // The paper's Figure 1 system: five processes, four groups.
//! let gs = topology::fig1();
//! let pattern = FailurePattern::all_correct(gs.universe());
//! let mut rt = Runtime::new(&gs, pattern, RuntimeConfig::default());
//!
//! // Multicast one message to each group and run to quiescence.
//! for (g, members) in gs.iter() {
//!     rt.multicast(members.min().unwrap(), g, 0);
//! }
//! let report = rt.run_to_quiescence(1_000_000);
//!
//! // Integrity, minimality, termination, ordering — all hold.
//! spec::check_all(&report, Variant::Standard).unwrap();
//! ```

#![warn(missing_docs)]

pub use gam_core as core;
pub use gam_detectors as detectors;
pub use gam_emulation as emulation;
pub use gam_engine as engine;
pub use gam_explore as explore;
pub use gam_groups as groups;
pub use gam_kernel as kernel;
pub use gam_objects as objects;
pub use gam_scenarios as scenarios;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use gam_core::distributed;
    pub use gam_core::spec;
    pub use gam_core::variants;
    pub use gam_core::{Delivery, MessageId, Phase, RunReport, Runtime, RuntimeConfig, Variant};
    pub use gam_detectors::{
        GammaOracle, IndicatorOracle, MuConfig, MuOracle, OmegaOracle, PerfectOracle, SigmaOracle,
    };
    pub use gam_engine::{
        run_fair, run_with_source, Executor, KernelExecutor, RuntimeExecutor, SnapshotExec,
    };
    pub use gam_explore::{explore, ExploreConfig, Mode, Repro, Scenario};
    pub use gam_groups::{topology, GroupId, GroupSet, GroupSystem};
    pub use gam_kernel::{
        Environment, FailurePattern, ProcessId, ProcessSet, RandomSource, RotatingSource,
        Simulator, Time,
    };
    pub use gam_objects::{AdoptCommit, Consensus, Log, Pos};
    pub use gam_scenarios::{fixture, ScnDescriptor};
}
