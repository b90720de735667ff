//! Oracles the explorer is held to, shared by the integration suites (each
//! suite uses some of them).
#![allow(
    dead_code,
    reason = "each suite uses a different subset of these oracles"
)]

pub mod odometer;

use genuine_multicast::explore::{Counterexample, Scenario};
use genuine_multicast::kernel::{RandomSource, RecordInto};

/// The swarm oracle: the first seed whose random run violates the spec,
/// shrunk.
pub fn swarm(scenario: &Scenario, seeds: std::ops::Range<u64>) -> Option<Counterexample> {
    for seed in seeds {
        let mut schedule = Vec::new();
        let mut source = RecordInto::new(RandomSource::new(seed), &mut schedule);
        if let Err(violation) = scenario.run_checked(&mut source) {
            return Some(odometer::counterexample(
                scenario, schedule, violation, seed,
            ));
        }
    }
    None
}
