//! Pinned fixture descriptors.
//!
//! The regression fixtures under `tests/fixtures/` used to hard-code their
//! topology construction at every consumer (kernel tests, bench bins, the
//! regression suite). They are now just pinned `gam-scn v1` descriptors:
//! every consumer calls [`fixture`] and gets byte-identical topology and
//! workload, and the checked-in `.scn` files carry the same strings.

use crate::descriptor::ScnDescriptor;

/// The pinned fixture corpus: `(name, canonical descriptor)`.
///
/// The seeds mirror the swarm seeds of the matching `.repro` files (the
/// generation seed is unused by these crash-free `traffic=one` descriptors,
/// but keeping them aligned documents provenance), and the budgets match
/// the recorded `budget` lines.
pub const FIXTURES: &[(&str, &str)] = &[
    (
        "fig1",
        "gam-scn v1 family=fig1 seed=1 crash=none traffic=one variant=standard budget=500000",
    ),
    (
        "ring_3_2",
        "gam-scn v1 family=ring(3,2) seed=2 crash=none traffic=one variant=standard budget=500000",
    ),
    (
        "two_overlapping_3_1",
        "gam-scn v1 family=two(3,1) seed=3 crash=none traffic=one variant=standard budget=500000",
    ),
    // The large-instance pin: a 240-group random tree over 479 processes
    // with Zipf-skewed traffic and staggered intersection crashes — the
    // sustained-load shape `counts`' serve rows drain and the fixture cells
    // of `tests/schedule_identity.rs` pin (the benchmark's
    // `serve_tree_crashy` serves the same shape over other seeds).
    (
        "large_tree_240",
        "gam-scn v1 family=randacyclic(240,2) seed=9 crash=isect(4) traffic=zipf(1100,480) variant=standard budget=2000000",
    ),
];

/// Looks up a pinned fixture descriptor by name.
pub fn try_fixture(name: &str) -> Option<ScnDescriptor> {
    FIXTURES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| ScnDescriptor::parse(text).expect("pinned descriptors are valid"))
}

/// Looks up a pinned fixture descriptor by name.
///
/// # Panics
///
/// Panics (listing the known names) if `name` is not a pinned fixture —
/// fixture lookups are compile-time-known call sites, so a miss is a bug.
pub fn fixture(name: &str) -> ScnDescriptor {
    try_fixture(name).unwrap_or_else(|| {
        let known: Vec<&str> = FIXTURES.iter().map(|(n, _)| *n).collect();
        panic!("unknown fixture {name:?}; known fixtures: {known:?}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fixtures_parse_and_render_canonically() {
        use crate::descriptor::{CrashPlan, TrafficPlan};
        for (name, text) in FIXTURES {
            let d = fixture(name);
            assert_eq!(&d.render(), text, "{name} is pinned in canonical form");
            // the descriptor regenerates a valid system
            let gen = d.generate();
            assert!(!gen.system.is_empty());
            if d.traffic == TrafficPlan::One {
                assert_eq!(gen.submissions.len(), gen.system.len());
            } else {
                assert!(!gen.submissions.is_empty());
            }
            assert_eq!(gen.crashes.is_empty(), d.crash == CrashPlan::None, "{name}");
        }
    }

    #[test]
    fn large_tree_fixture_reaches_hundreds_of_groups() {
        let gen = fixture("large_tree_240").generate();
        assert_eq!(gen.system.len(), 240, "hundreds of groups");
        assert_eq!(gen.system.universe().len(), 479);
        assert_eq!(gen.crashes.len(), 4);
        assert_eq!(gen.submissions.len(), 480);
        // acyclic by construction: generation stays cheap at this scale
        assert!(gen.system.cyclic_families().is_empty());
    }

    #[test]
    fn unknown_fixture_is_a_loud_error() {
        assert!(try_fixture("nope").is_none());
    }

    #[test]
    fn fixture_topologies_match_the_legacy_builders() {
        use gam_groups::topology;
        assert_eq!(fixture("fig1").system(), topology::fig1());
        assert_eq!(fixture("ring_3_2").system(), topology::ring(3, 2));
        assert_eq!(
            fixture("two_overlapping_3_1").system(),
            topology::two_overlapping(3, 1)
        );
    }
}
