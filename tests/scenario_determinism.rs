//! Determinism of the scenario generator, in the three dimensions the
//! corpus relies on:
//!
//! - **Threads**: the same `(family, seed)` regenerates byte-identical
//!   topology, crash plan, workload and descriptor text on every thread.
//! - **Engines**: exploring a generated scenario gives the coverage and the
//!   byte-identical shrunk `Repro` of the restart-from-scratch odometer of
//!   `tests/common`, at 1 or 2 workers.
//! - **Parsing**: the descriptor parser is total — seeded random mutations
//!   of valid descriptors never panic, they produce either a descriptor or
//!   a typed [`ScnError`].

mod common;

use common::odometer::odometer;
use genuine_multicast::explore::{Mode, Outcome, Scenario};
use genuine_multicast::prelude::*;
use genuine_multicast::scenarios::{corpus, ScnDescriptor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn generation_is_identical_across_spawned_threads() {
    // Every corpus template at three seeds, regenerated on four threads at
    // once: descriptor text and the full generated scenario (topology,
    // crashes, submissions) must be byte-identical to the main thread's.
    let grid: Vec<ScnDescriptor> = corpus()
        .iter()
        .flat_map(|(_, t)| (0..3).map(|seed| t.with_seed(seed)))
        .collect();
    let reference: Vec<(String, String)> = grid
        .iter()
        .map(|d| (d.render(), format!("{:?}", d.generate())))
        .collect();

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let grid = grid.clone();
            std::thread::spawn(move || {
                grid.iter()
                    .map(|d| (d.render(), format!("{:?}", d.generate())))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for (i, worker) in workers.into_iter().enumerate() {
        let got = worker.join().expect("worker thread");
        assert_eq!(got, reference, "thread {i} generated differently");
    }
}

#[test]
fn engines_and_thread_counts_agree_on_generated_scenarios() {
    // A generated scenario starved of budget violates termination on every
    // schedule: the counterexample the explorer reports — its `Repro` text
    // and replay digest — must be byte-identical to the restart-from-scratch
    // odometer's at 1 and 2 workers. A well-budgeted sibling must give
    // identical clean coverage everywhere.
    let starved = ScnDescriptor::parse("gam-scn v1 family=two(3,1) seed=5 budget=12").unwrap();
    let scenario = Scenario::from_descriptor(&starved);
    let config = |threads| ExploreConfig {
        threads,
        dedup_capacity: 0,
        ..ExploreConfig::default()
    };
    let mode = || Mode::Exhaustive {
        depth: 3,
        max_runs: 10_000,
    };

    let reference = odometer(&scenario, 3, 10_000).violation.expect("violates");
    assert_eq!(reference.violation.property, "termination");
    for threads in [1, 2] {
        let stats = explore(&scenario, mode(), &config(threads));
        assert_eq!(stats.outcome, Outcome::ViolationFound, "{threads} threads");
        let cx = &stats.violations[0];
        assert_eq!(
            cx.repro.to_text(),
            reference.repro.to_text(),
            "{threads} threads: repro text diverged"
        );
        assert_eq!(
            cx.repro.trace_hash(),
            reference.repro.trace_hash(),
            "{threads} threads: replay digest diverged"
        );
    }

    let clean = Scenario::from_descriptor(&starved.with_budget(50_000));
    let reference = odometer(&clean, 3, 10_000);
    assert_eq!(reference.outcome, Outcome::Exhausted);
    for threads in [1, 2] {
        let stats = explore(&clean, mode(), &config(threads));
        assert!(stats.clean(), "{threads} threads: {:?}", stats.violations);
        assert_eq!(
            stats.runs, reference.runs,
            "{threads} threads: coverage diverged"
        );
    }
}

/// Mutates `text` with `n` seeded random byte edits (replace, insert,
/// delete) drawn from a descriptor-plausible alphabet.
fn mutate(text: &str, rng: &mut StdRng, n: usize) -> String {
    const ALPHABET: &[u8] = b"gam-scn v1 family=seedcrashtrafficvariantbudget()0123456789,=# \n\t~";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..n {
        let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        match rng.gen_range(0..3u32) {
            0 if !bytes.is_empty() => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = c;
            }
            1 => {
                let i = rng.gen_range(0..bytes.len() + 1);
                bytes.insert(i, c);
            }
            _ if !bytes.is_empty() => {
                bytes.remove(rng.gen_range(0..bytes.len()));
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The parser is total under mutation: valid descriptors stay
    /// round-trippable, and any seeded mutilation of one either parses to
    /// a validated descriptor or returns a typed error — never panics.
    #[test]
    fn mutated_descriptors_never_panic_the_parser(
        template in 0usize..7,
        seed in any::<u64>(),
        edits in 1usize..12,
    ) {
        let corpus = corpus();
        let (_, d) = &corpus[template % corpus.len()];
        let text = d.with_seed(seed % 1000).render();
        prop_assert_eq!(ScnDescriptor::parse(&text).unwrap().render(), text.clone());

        let mut rng = StdRng::seed_from_u64(seed);
        let mutated = mutate(&text, &mut rng, edits);
        match ScnDescriptor::parse(&mutated) {
            // survived the mutation: still canonicalizes
            Ok(d) => prop_assert_eq!(ScnDescriptor::parse(&d.render()).unwrap(), d),
            // rejected: the error is typed and prints
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}
