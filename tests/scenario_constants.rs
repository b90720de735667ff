//! The per-scenario constants — `ℱ` and `γ`'s output — against brute force.
//!
//! Everything Algorithm 1's guards consult besides the logs is a function
//! of the group system and the failure pattern, computed once per
//! construction by index-resolved, early-exit code. This suite pins that
//! code to the definitions: `|ℱ|` on two known systems, and
//! `GammaOracle::families`/`groups` against a reference assembled from
//! `GroupSystem::family_faulty` (all hamiltonian cycles, every query).

use genuine_multicast::prelude::*;
use std::collections::BTreeMap;

fn system_of(text: &str) -> (GroupSystem, FailurePattern) {
    let generated = ScnDescriptor::parse(text).expect("descriptor").generate();
    let pattern = FailurePattern::from_crashes(generated.system.universe(), generated.crashes);
    (generated.system, pattern)
}

#[test]
fn cyclic_family_counts_are_pinned() {
    assert_eq!(topology::fig1().cyclic_families().len(), 3);
    let (dense, _) = system_of("gam-scn v1 family=rand(64,8,450) seed=7000");
    assert_eq!(dense.cyclic_families().len(), 219);
}

#[test]
fn gamma_oracle_matches_the_family_faulty_reference() {
    let mut cases = Vec::new();
    for family in ["fig1", "ring(4,2)", "rand(64,8,450) seed=7000"] {
        for crash in ["isect(4)", "rand(3)"] {
            let text = format!("gam-scn v1 family={family} crash={crash}");
            let (gs, pattern) = system_of(&text);
            cases.push((text, gs, pattern));
        }
    }
    // The generated plans cannot empty a 13-process intersection of the
    // dense system; take two whole edges down so families there do fail.
    let (dense, _) = system_of("gam-scn v1 family=rand(64,8,450) seed=7000");
    let edges = dense.intersecting_pairs();
    let crashes: Vec<(ProcessId, Time)> = [(edges[0], Time(4)), (edges[9], Time(9))]
        .into_iter()
        .flat_map(|((g, h), at)| dense.intersection(g, h).iter().map(move |p| (p, at)))
        .collect();
    let pattern = FailurePattern::from_crashes(dense.universe(), crashes);
    cases.push(("rand(64,8,450) two edges down".to_string(), dense, pattern));

    for (text, gs, pattern) in cases {
        let mut excluded_here = false;
        let cyclic = gs.cyclic_families();
        // The faulty families per distinct crashed set, by definition.
        let mut faulty: BTreeMap<ProcessSet, Vec<GroupSet>> = BTreeMap::new();
        let crash_times: Vec<u64> = pattern
            .faulty()
            .iter()
            .filter_map(|p| pattern.crash_time(p))
            .map(|t| t.0)
            .collect();
        for delay in [0u64, 2, 10] {
            let gamma = GammaOracle::new(&gs, pattern.clone(), delay);
            let mut instants = vec![0];
            for c in &crash_times {
                instants.extend([c + delay - 1, c + delay, c + delay + 1]);
            }
            for t in instants {
                // Excluded at t: faulty since at least `delay` ticks.
                let gone: &[GroupSet] = match t.checked_sub(delay) {
                    None => &[],
                    Some(since) => faulty
                        .entry(pattern.faulty_at(Time(since)))
                        .or_insert_with_key(|crashed| {
                            cyclic
                                .iter()
                                .copied()
                                .filter(|f| gs.family_faulty(*f, *crashed))
                                .collect()
                        }),
                };
                excluded_here |= !gone.is_empty();
                for p in gs.universe() {
                    let expected: Vec<GroupSet> = cyclic
                        .iter()
                        .copied()
                        .filter(|f| gs.in_some_intersection(*f, p) && !gone.contains(f))
                        .collect();
                    assert_eq!(
                        gamma.families(p, Time(t)),
                        expected,
                        "{text} delay={delay}: γ({p}, {t})"
                    );
                    for g in gs.groups_of(p) {
                        let mut groups = GroupSet::new();
                        for f in expected.iter().filter(|f| f.contains(g)) {
                            for h in *f {
                                if h != g && gs.intersecting(g, h) {
                                    groups.insert(h);
                                }
                            }
                        }
                        assert_eq!(
                            gamma.groups(p, g, Time(t)),
                            groups,
                            "{text} delay={delay}: γ({g}) at ({p}, {t})"
                        );
                    }
                }
            }
        }
        // On these systems every edge lies on the only cycle of some family
        // (a triangle, or the ring itself), so the reference must have
        // excluded something exactly where an edge dies.
        let edge_dies = gs
            .intersecting_pairs()
            .iter()
            .any(|(g, h)| pattern.set_faulty(gs.intersection(*g, *h)));
        assert_eq!(excluded_here, edge_dies, "{text}: exclusions");
    }
}
