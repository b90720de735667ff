//! Oracles the explorer is held to, shared by the integration suites (each
//! suite uses some of them).
#![allow(dead_code)]

pub mod odometer;

use genuine_multicast::explore::{Counterexample, Scenario};
use genuine_multicast::kernel::{RandomSource, RecordingSource};

/// The swarm oracle: the first seed whose random run violates the spec,
/// shrunk.
pub fn swarm(scenario: &Scenario, seeds: std::ops::Range<u64>) -> Option<Counterexample> {
    for seed in seeds {
        let mut source = RecordingSource::new(RandomSource::new(seed));
        if let Err(violation) = scenario.run_checked(&mut source) {
            let schedule = source.into_log();
            return Some(odometer::counterexample(
                scenario, schedule, violation, seed,
            ));
        }
    }
    None
}
