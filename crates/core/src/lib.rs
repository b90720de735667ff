//! # gam-core — genuine atomic multicast with the weakest failure detector
//!
//! The paper's primary contribution: Algorithm 1, a genuine solution to
//! (group sequential) atomic multicast using
//! `μ = (∧_{g,h} Σ_{g∩h}) ∧ (∧_g Ω_g) ∧ γ`, executed over linearizable
//! shared logs and consensus objects; plus the §6 variations (strict
//! real-time order, strong genuineness, pairwise ordering), the property
//! checkers for every axiom of the problem, and the baselines the paper
//! positions itself against.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod arena;
pub mod baseline;
pub mod distributed;
mod message;
mod phase;
mod runtime;
mod shard;
pub mod spec;
pub mod variants;

pub use arena::MessageArena;
pub use message::{Datum, MessageId, MessageInfo};
pub use phase::Phase;
pub use runtime::{
    ActionDesc, ActionKind, Delivery, Fired, ReadyCounters, RunReport, Runtime, RuntimeConfig,
    Variant,
};
pub use shard::{ShardRun, ShardSpec};
