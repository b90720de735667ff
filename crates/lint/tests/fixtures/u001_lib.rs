//! A library crate whose public items the U001 census counts callers for.
use std::fmt;

/// Called from another crate's source file: not listed.
pub fn called_elsewhere() -> u32 {
    helper_only_here() + 1
}

/// Used only inside this file: listed.
pub fn helper_only_here() -> u32 {
    7
}

/// Named only by an integration test: listed.
pub struct OnlyInTests;

/// Called only from the benchmark: not listed.
pub fn benchmarked() -> u32 {
    3
}

/// Named by the caller; its trait-impl method `fmt` cannot be bare `pub`,
/// so it is never a census entry.
pub struct Counter(pub u32);

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A test oracle nobody else calls, kept with a reason.
// gam-lint: allow(U001, reason = "test oracle the integration tests compare against")
pub fn oracle() -> u32 {
    called_elsewhere()
}
