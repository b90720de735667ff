//! `gam-scenarios` — the seeded scenario corpus.
//!
//! The verification machinery used to run on three hand-written fixtures.
//! This crate turns "a scenario" into an *address*: a compact `gam-scn v1`
//! descriptor string (see [`ScnDescriptor`]) that names a parameterized
//! topology family, a generation seed, a crash plan and a traffic trace —
//! and regenerates the identical topology + workload from it, on any
//! thread, any engine, any host. Descriptors round-trip
//! (`parse ∘ render = id`), so a one-line string in a fixture file, bench
//! record or CI log is a complete, replayable scenario.
//!
//! The families deliberately sweep the paper's solvability axis — the
//! cyclic-vs-acyclic structure of the group intersection graph
//! (arXiv:2208.07650): `chain`/`two`/`disjoint`/`single`/`randacyclic`
//! generate systems with `ℱ = ∅`, while `ring`/`hub`/`randcyclic`/`fig1`
//! contain cyclic families, the side of the boundary where genuine atomic
//! multicast needs the full failure detector `μ`.
//!
//! Generation is schedule-deterministic by construction: the only
//! randomness is `StdRng::seed_from_u64` over sub-seeds derived from the
//! descriptor seed ([`gam_engine::digest::derive_seed`]), one independent
//! stream per ingredient. Clippy enforces the rest: no clock, no hash
//! order and no float outside two reasoned exceptions in `generate.rs`.
//! One of them computes Zipf weights with `f64::powf`, so a `zipf`
//! workload is the same on every host with the same libm.

#![warn(missing_docs)]

pub mod descriptor;
mod fixtures;
mod generate;

pub use descriptor::{CrashPlan, Family, ScnDescriptor, ScnError, TrafficPlan, DEFAULT_BUDGET};
pub use fixtures::{fixture, try_fixture, FIXTURES};
pub use generate::Generated;

use gam_core::Variant;

/// The standard sweep corpus: one descriptor template per family, spanning
/// both sides of the solvability boundary and all traffic shapes. Seeds are
/// applied per instance with [`ScnDescriptor::with_seed`]; the `corpus`
/// section of `gam-bench`'s `counts` bin and the conformance grid both draw
/// from this list so the committed count record (`BENCH_counts.json`) and
/// the test corpus stay aligned.
pub fn corpus() -> Vec<(&'static str, ScnDescriptor)> {
    let one = TrafficPlan::One;
    let uniform = TrafficPlan::Uniform { msgs: 6 };
    let zipf = TrafficPlan::Zipf {
        s_permille: 1200,
        msgs: 6,
    };
    let hot = TrafficPlan::Hot {
        hot_permille: 700,
        msgs: 6,
    };
    let entry = |family, traffic| {
        let mut d = ScnDescriptor::new(family);
        d.traffic = traffic;
        d.variant = Variant::Standard;
        // Headroom over the default: the corpus instances must quiesce under
        // any schedule, so a termination violation means a real bug, not a
        // starved budget.
        d.budget = 500_000;
        d
    };
    vec![
        ("chain", entry(Family::Chain { k: 4, size: 3 }, uniform)),
        (
            "multichain",
            entry(
                Family::Multichain {
                    c: 3,
                    k: 2,
                    size: 3,
                },
                uniform,
            ),
        ),
        ("ring", entry(Family::Ring { k: 3, size: 2 }, zipf)),
        ("hub", entry(Family::Hub { k: 4, size: 2 }, hot)),
        (
            "two",
            entry(
                Family::Two {
                    size: 3,
                    overlap: 1,
                },
                uniform,
            ),
        ),
        (
            "rand",
            entry(
                Family::Rand {
                    n: 8,
                    k: 4,
                    density_permille: 450,
                },
                uniform,
            ),
        ),
        (
            "randacyclic",
            entry(Family::RandAcyclic { k: 5, size: 3 }, zipf),
        ),
        (
            "randcyclic",
            entry(
                Family::RandCyclic {
                    k: 4,
                    size: 2,
                    chords: 1,
                },
                one,
            ),
        ),
        // Crash/churn variants: the same committed templates under failures.
        // `chain_crash` kills one adversarial intersection process (the
        // paper's victim shape) on an acyclic topology, where γ owes
        // nothing and termination survives even a fully crashed overlap;
        // `rand_churn` staggers seeded-random crashes across a dense cyclic
        // topology, where victims keep every group *and* every pairwise
        // intersection live (the `CrashPlan::Rand` eligibility rule) so the
        // sweep stays out of the Lemma 25 traversal-semantics corner
        // (DESIGN.md "Deviations", note 1). Within that regime the corpus
        // termination obligation holds and a violation is a real bug.
        ("chain_crash", {
            let mut d = entry(Family::Chain { k: 4, size: 3 }, uniform);
            d.crash = CrashPlan::Isect { count: 1 };
            d
        }),
        ("rand_churn", {
            let mut d = entry(
                Family::Rand {
                    n: 8,
                    k: 4,
                    density_permille: 450,
                },
                zipf,
            );
            d.crash = CrashPlan::Rand { count: 2 };
            d
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_spans_the_solvability_boundary() {
        let corpus = corpus();
        assert!(corpus.len() >= 5, "at least five families");
        let mut acyclic = 0;
        let mut cyclic = 0;
        for (name, d) in &corpus {
            d.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            // every template round-trips
            assert_eq!(ScnDescriptor::parse(&d.render()).unwrap(), *d);
            match d.family.known_acyclic() {
                Some(true) => acyclic += 1,
                Some(false) => cyclic += 1,
                None => {}
            }
            // generation is total for a spread of seeds
            for seed in 0..3 {
                let gen = d.with_seed(seed).generate();
                assert!(!gen.system.is_empty(), "{name} seed {seed}");
                assert!(!gen.submissions.is_empty(), "{name} seed {seed}");
            }
        }
        assert!(acyclic >= 2, "corpus has acyclic families");
        assert!(cyclic >= 2, "corpus has cyclic families");
        let crashing = corpus
            .iter()
            .filter(|(_, d)| d.crash != CrashPlan::None)
            .count();
        assert!(crashing >= 2, "corpus has crash/churn templates");
    }
}
