//! # gam-objects — wait-free shared objects
//!
//! The shared-object substrate of §4.3 "Implementing the shared objects":
//!
//! - **Sequential specifications** applied atomically in the shared-memory
//!   execution level: the [`Log`] of Algorithm 1 (slots, `append`,
//!   `bumpAndLock`, `pos`, `locked`, the order `<_L`), one-shot
//!   [`Consensus`], and Gafni's [`AdoptCommit`] objects.
//! - **Message-passing constructions** over the `gam-kernel` simulator:
//!   [`AbdProcess`] builds atomic registers from `Σ`-quorums, and
//!   [`PaxosProcess`] is the `Ω`-boosted indulgent consensus the paper uses
//!   inside each destination group.
//!
//! ## Quickstart
//!
//! ```
//! use gam_objects::{Log, Pos};
//!
//! let mut log: Log<&str> = Log::new();
//! log.append("m1");
//! log.append("m2");
//! log.bump_and_lock(&"m1", Pos(3)); // Skeen-style bump
//! assert!(log.before(&"m2", &"m1"));
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod abd;
mod adopt_commit;
mod consensus;
mod fast_log;
mod log;
mod paxos;

pub use abd::{AbdEvent, AbdMsg, AbdProcess, RegisterId, Stamp};
pub use adopt_commit::{AdoptCommit, Grade};
pub use consensus::Consensus;
pub use fast_log::{FastLogMsg, FastLogProcess};
pub use log::{Log, Pos};
pub use paxos::{Decided, OmegaSigma, OmegaSigmaHistory, PaxosMsg, PaxosProcess};
