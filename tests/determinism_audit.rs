//! The determinism audit: the property gam-lint exists to protect,
//! asserted end-to-end.
//!
//! Every result in this repository — visited-set pruning, parallel-merge
//! identity, replayable counterexamples — quantifies over executors that
//! are *deterministic functions of the schedule*. This test pins that
//! property directly: one fixed schedule, recorded once per substrate over
//! the fig. 1 topology, replayed twice on fresh executors, must land on
//! identical `state_digest`s, identical states (Level A: the full
//! `Runtime::fold_state` word vector), identical `state_fingerprint`s — the
//! dedup key, a quotient of the state since it stopped telling unit names
//! and action counts apart, so it is asserted beside the state and not in
//! its place — and (through the `gam-repro v1` text format) byte-identical
//! `Repro` serializations.
//!
//! If a `HashMap` iteration order or a wall-clock read ever leaks back into
//! a deterministic crate (the regressions gam-lint D001/D002 catch
//! statically), this test is the dynamic tripwire that fails.

use gam_kernel::schedule::RandomSource;
use gam_kernel::RunOutcome;
use genuine_multicast::engine::{self, Executor};
use genuine_multicast::prelude::*;

const MAX_STEPS: u64 = 2_000_000;
const SEED: u64 = 0xDA17; // arbitrary fixed provenance seed

/// Where a run ended: the history digest, the substrate's state as words,
/// and the dedup key.
type Standing = ((u64, Vec<u64>), u64);

/// Records one schedule on `exec` (driven by a seeded source), then replays
/// it twice on executors produced by `fresh`, returning the [`Standing`] of
/// the recording and of each replay; `state` reads an executor's state.
fn record_and_replay_twice<E: Executor>(
    mut exec: E,
    fresh: impl Fn() -> E,
    state: impl Fn(&E) -> Vec<u64>,
) -> [Standing; 3] {
    let standing = |e: &E| ((e.state_digest(), state(e)), e.state_fingerprint());
    let (outcome, schedule) = engine::run_recorded(&mut exec, RandomSource::new(SEED), MAX_STEPS);
    assert_eq!(
        outcome,
        RunOutcome::Quiescent,
        "scenario must quiesce in budget"
    );
    let replay = || {
        let mut again = fresh();
        let outcome = engine::replay(&mut again, &schedule, MAX_STEPS);
        assert_eq!(outcome, RunOutcome::Quiescent, "replay must quiesce too");
        standing(&again)
    };
    [standing(&exec), replay(), replay()]
}

fn assert_replays_agree([recorded, replays @ ..]: [Standing; 3]) {
    for (i, replay) in replays.iter().enumerate() {
        assert_eq!(recorded.0, replay.0, "replay {i} diverged");
        assert_eq!(recorded.1, replay.1, "replay {i}: fingerprint diverged");
    }
}

fn audit_scenario() -> Scenario {
    Scenario::one_per_group(&topology::fig1(), MAX_STEPS)
}

#[test]
fn level_a_runtime_is_a_function_of_the_schedule() {
    let scenario = audit_scenario();
    assert_replays_agree(record_and_replay_twice(
        scenario.runtime_executor(),
        || scenario.runtime_executor(),
        |exec| {
            let mut words = Vec::new();
            exec.runtime().fold_state(&mut |w| words.push(w));
            words
        },
    ));
}

#[test]
fn level_b_kernel_is_a_function_of_the_schedule() {
    // The kernel executor has no state walk: its fingerprint is its history
    // digest, and the digest is all there is to compare.
    let scenario = audit_scenario();
    assert_replays_agree(record_and_replay_twice(
        scenario.kernel_executor(),
        || scenario.kernel_executor(),
        |_| Vec::new(),
    ));
}

#[test]
fn repro_serialization_is_byte_identical_across_replays() {
    let scenario = audit_scenario();
    let mut exec = scenario.runtime_executor();
    let (outcome, schedule) = engine::run_recorded(&mut exec, RandomSource::new(SEED), MAX_STEPS);
    assert_eq!(outcome, RunOutcome::Quiescent);

    let repro = Repro {
        scenario: scenario.clone(),
        schedule,
        seed: SEED,
        property: None,
    };
    // The recorded schedule must replay clean, deterministically.
    let h1 = repro.trace_hash();
    let h2 = repro.trace_hash();
    assert_eq!(h1, h2, "trace hash must not depend on the replay instance");
    repro.verify().expect("fair fig. 1 run satisfies the spec");

    // And its gam-repro v1 text must round-trip byte-for-byte.
    let text = repro.to_text();
    let parsed = Repro::parse(&text).expect("self-produced text parses");
    assert_eq!(
        parsed.to_text(),
        text,
        "gam-repro v1 round-trip changed bytes"
    );
    assert_eq!(parsed.trace_hash(), h1, "parsed repro replays differently");
}
