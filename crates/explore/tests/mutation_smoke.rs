//! Mutation smoke test: with `--features mutation`, gam-core's
//! `deliver_enabled` deliberately skips the cross-group log ordering
//! constraints (`LOG_{g∩h}`), the sole cross-group order enforcement on
//! topologies with no cyclic families. The explorer must find the resulting
//! ordering violation within a fixed budget and shrink it to a small,
//! deterministically replayable repro — and the DFS must report the same
//! repro with its visited set on or off, at 1 or 2 threads.
//!
//! Run with: `cargo test -p gam-explore --features mutation`
#![cfg(feature = "mutation")]

use gam_explore::{explore, ExploreConfig, Mode, Repro, Scenario};
use gam_groups::topology;

#[test]
fn explorer_finds_and_shrinks_the_seeded_ordering_bug() {
    // two_overlapping has no cyclic family (γ = ∅ throughout), so the
    // mutated guard is the only thing ordering cross-group deliveries.
    let scenario = Scenario::one_per_group(&topology::two_overlapping(4, 2), 200_000);
    let swarm = Mode::Swarm { seeds: 0..64 };
    let stats = explore(&scenario, swarm, &ExploreConfig::default());
    assert!(
        !stats.violations.is_empty(),
        "mutation survived {} swarm seeds",
        stats.runs
    );
    let cx = &stats.violations[0];
    assert_eq!(cx.violation.property, "ordering");

    // The shrunk repro is minimal-ish: no crashes to drop, few schedule
    // entries left, and the shrinker stayed within its run budget.
    let repro = &cx.repro;
    assert!(repro.scenario.crashes.is_empty(), "failure-free scenario");
    assert!(
        repro.schedule.len() <= 64,
        "shrunk schedule still has {} entries",
        repro.schedule.len()
    );
    assert!(cx.shrink_runs <= 800, "shrinker blew its budget");

    // It still violates the same property, deterministically: two replays
    // hash identically, and the text round-trip preserves the verdict.
    assert_eq!(repro.trace_hash(), repro.trace_hash());
    repro
        .verify()
        .expect("shrunk repro still violates ordering");
    let reparsed = Repro::parse(&repro.to_text()).expect("round-trips");
    assert_eq!(reparsed.trace_hash(), repro.trace_hash());
    reparsed
        .verify()
        .expect("parsed repro still violates ordering");
}

#[test]
fn the_dfs_reports_one_repro_whatever_prunes_it() {
    // The visited set caches subtrees that completed clean; it may not
    // change which violation is reported.
    let scenario = Scenario::one_per_group(&topology::two_overlapping(4, 2), 200_000);
    let walk = |threads, dedup_capacity| {
        let config = ExploreConfig {
            threads,
            dedup_capacity,
            ..ExploreConfig::default()
        };
        let mode = Mode::Exhaustive {
            depth: 5,
            max_runs: u64::MAX,
        };
        explore(&scenario, mode, &config)
    };
    let reference = walk(1, 0);
    assert_eq!(reference.violations[0].violation.property, "ordering");
    let reference = &reference.violations[0].repro;
    for threads in [1, 2] {
        for dedup_capacity in [0, 1 << 16] {
            let got = walk(threads, dedup_capacity);
            let what = format!("{threads} threads, dedup {dedup_capacity}");
            assert!(!got.violations.is_empty(), "{what}: mutation survived");
            let repro = &got.violations[0].repro;
            assert_eq!(repro.to_text(), reference.to_text(), "{what}");
            assert_eq!(repro.trace_hash(), reference.trace_hash(), "{what}");
        }
    }
}

#[test]
fn clean_topologies_still_pass_under_mutation_when_no_overlap() {
    // Sanity: the mutation only bites where groups intersect; disjoint
    // groups must stay clean, so a finding above really is the seeded bug.
    let scenario = Scenario::one_per_group(&topology::disjoint(2, 3), 200_000);
    let swarm = Mode::Swarm { seeds: 0..8 };
    let stats = explore(&scenario, swarm, &ExploreConfig::default());
    assert!(stats.clean(), "violations: {:?}", stats.violations);
}
