//! The repo's benchmark: seven workloads from a seed, descriptor text in,
//! delivery sequences and a spec verdict out, every output checked; the
//! end-to-end metrics with tracing off, the per-layer metrics from a traced
//! pass that times calls into the layer crates' public functions.
//!
//! See `README.md` beside this crate for the definitions, and
//! `BENCHMARK.json` at the repository root for the contract with the driver.

#![forbid(unsafe_code)]

pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
