//! # gam-kernel — the asynchronous model with failure detectors
//!
//! This crate implements the computational model of Chandra–Toueg unreliable
//! failure detectors (Appendix A of the paper): asynchronous processes that
//! communicate through a message buffer, crash according to a *failure
//! pattern*, and query a local *failure-detector history* at every step. A
//! deterministic, seeded discrete-event [`Simulator`] drives process
//! [`Automaton`]s, injects crashes, and records [`Trace`]s, including the
//! adversarial scheduling controls (subset-only runs, message selection) that
//! the paper's necessity arguments quantify over.
//!
//! ## Quickstart
//!
//! ```
//! use gam_kernel::*;
//!
//! // A one-shot echo server.
//! #[derive(Default)]
//! struct Echo;
//! impl Automaton for Echo {
//!     type Msg = &'static str;
//!     type Fd = ();
//!     type Event = &'static str;
//!     fn step(
//!         &mut self,
//!         ctx: &mut StepCtx<&'static str, &'static str>,
//!         input: Option<Envelope<&'static str>>,
//!         _fd: &(),
//!     ) {
//!         if let Some(env) = input {
//!             ctx.emit(env.payload);
//!         }
//!     }
//! }
//!
//! let universe = ProcessSet::first_n(2);
//! let pattern = FailurePattern::all_correct(universe);
//! let mut sim = Simulator::new(vec![Echo, Echo], pattern, NoDetector);
//! # let _ = &mut sim;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
pub mod cow;
mod failure;
mod message;
mod process;
pub mod schedule;
mod sim;
mod time;
mod trace;

pub use automaton::{Automaton, History, NoDetector, StepCtx};
pub use cow::{ColumnStats, CowVec, Refill};
pub use failure::{Environment, FailurePattern};
pub use message::{Envelope, MessageBuffer, MsgId};
pub use process::{Iter as ProcessSetIter, ProcessId, ProcessSet, MAX_PROCESSES};
pub use schedule::{
    ChoiceStep, PathSource, RandomSource, RecordingSource, ReplaySource, RotatingSource,
    ScheduleSource,
};
pub use sim::{Receive, RunOutcome, Scheduler, SimCounters, Simulator};
pub use time::Time;
pub use trace::{StepRecord, Trace, TraceEvent};
