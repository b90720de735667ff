//! A library of standard group topologies.
//!
//! The experiment suites (Table 1, the performance benches) sweep over these
//! topologies: the paper's Figure 1 system, pairwise-disjoint groups, acyclic
//! chains, rings of groups (the minimal cyclic family), hub-and-spoke
//! systems, and single-group (atomic broadcast) systems.

use crate::group::GroupSystem;
use gam_kernel::{ProcessId, ProcessSet};

/// The worked example of Figure 1: `𝒫 = {p1..p5}`,
/// `g1 = {p1,p2}`, `g2 = {p2,p3}`, `g3 = {p1,p3,p4}`, `g4 = {p1,p4,p5}`.
pub fn fig1() -> GroupSystem {
    GroupSystem::new(
        ProcessSet::first_n(5),
        vec![
            ProcessSet::from_iter([0u32, 1]),
            ProcessSet::from_iter([1u32, 2]),
            ProcessSet::from_iter([0u32, 2, 3]),
            ProcessSet::from_iter([0u32, 3, 4]),
        ],
    )
}

/// A single group of `n` processes — atomic multicast degenerates to atomic
/// broadcast.
pub fn single_group(n: usize) -> GroupSystem {
    GroupSystem::new(ProcessSet::first_n(n), vec![ProcessSet::first_n(n)])
}

/// `k` pairwise-disjoint groups of `size` processes each — the embarrassingly
/// parallel workload of §2.3.
pub fn disjoint(k: usize, size: usize) -> GroupSystem {
    let universe = ProcessSet::first_n(k * size);
    let groups = (0..k)
        .map(|i| (i * size..(i + 1) * size).collect())
        .collect();
    GroupSystem::new(universe, groups)
}

/// A chain of `k` groups, adjacent groups sharing exactly one process:
/// `g_i = {q_i, s_i1..s_i(size-2), q_{i+1}}`. The intersection graph is a
/// path, so `ℱ = ∅`.
///
/// # Panics
///
/// Panics if `size < 2` or `k == 0`.
pub fn chain(k: usize, size: usize) -> GroupSystem {
    assert!(size >= 2 && k >= 1);
    // Processes: k+1 "joint" processes q_0..q_k, then inner processes.
    let inner = size - 2;
    let n = (k + 1) + k * inner;
    let universe = ProcessSet::first_n(n);
    let groups = (0..k)
        .map(|i| {
            let mut g = ProcessSet::new();
            g.insert(ProcessId(i as u32)); // q_i
            g.insert(ProcessId((i + 1) as u32)); // q_{i+1}
            for j in 0..inner {
                g.insert(ProcessId((k + 1 + i * inner + j) as u32));
            }
            g
        })
        .collect();
    GroupSystem::new(universe, groups)
}

/// A ring of `k ≥ 3` groups, adjacent groups sharing exactly one process —
/// the minimal topology with a cyclic family (the whole ring).
///
/// # Panics
///
/// Panics if `k < 3` or `size < 2`.
pub fn ring(k: usize, size: usize) -> GroupSystem {
    assert!(k >= 3 && size >= 2);
    let inner = size - 2;
    let n = k + k * inner;
    let universe = ProcessSet::first_n(n);
    let groups = (0..k)
        .map(|i| {
            let mut g = ProcessSet::new();
            g.insert(ProcessId(i as u32)); // q_i
            g.insert(ProcessId(((i + 1) % k) as u32)); // q_{i+1 mod k}
            for j in 0..inner {
                g.insert(ProcessId((k + i * inner + j) as u32));
            }
            g
        })
        .collect();
    GroupSystem::new(universe, groups)
}

/// `k` groups all sharing one hub process, otherwise disjoint. For `k ≥ 3`
/// every subset of ≥ 3 groups is a cyclic family (the intersection graph is
/// complete).
pub fn hub(k: usize, size: usize) -> GroupSystem {
    assert!(size >= 2 && k >= 1);
    let spokes = size - 1;
    let n = 1 + k * spokes;
    let universe = ProcessSet::first_n(n);
    let groups = (0..k)
        .map(|i| {
            let mut g = ProcessSet::singleton(ProcessId(0));
            for j in 0..spokes {
                g.insert(ProcessId((1 + i * spokes + j) as u32));
            }
            g
        })
        .collect();
    GroupSystem::new(universe, groups)
}

/// Two groups intersecting in `overlap` processes — the minimal system in
/// which `Σ_{g∩h}` is required (and where the `𝒰_2` impossibility of
/// Guerraoui & Schiper applies when `overlap = 2`).
pub fn two_overlapping(size: usize, overlap: usize) -> GroupSystem {
    assert!(overlap >= 1 && overlap <= size);
    let n = 2 * size - overlap;
    let universe = ProcessSet::first_n(n);
    let g: ProcessSet = (0..size).collect();
    let h: ProcessSet = (size - overlap..n).collect();
    GroupSystem::new(universe, vec![g, h])
}

/// A seeded random group system: `n` processes, `k` distinct groups of size
/// ≥ 2 with independent membership probability `density` (default sweeps use
/// 0.45). Deterministic in the seed.
///
/// # Panics
///
/// Panics if `n < 2`, `k == 0`, or `density` is not in `(0, 1]`, or if the
/// generator cannot find `k` distinct groups (density too low for `n`).
#[expect(
    clippy::disallowed_types,
    reason = "the membership probability is drawn with rand's `gen_bool(f64)`; \
              nothing is computed in floating point"
)]
pub fn random(n: usize, k: usize, density: f64, seed: u64) -> GroupSystem {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    assert!(n >= 2 && k >= 1);
    assert!(density > 0.0 && density <= 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut groups: Vec<ProcessSet> = Vec::new();
    let mut attempts = 0;
    while groups.len() < k {
        attempts += 1;
        assert!(attempts < 10_000, "cannot find {k} distinct groups");
        let mut g = ProcessSet::new();
        for i in 0..n {
            if rng.gen_bool(density) {
                g.insert(ProcessId(i as u32));
            }
        }
        if g.len() >= 2 && !groups.contains(&g) {
            groups.push(g);
        }
    }
    GroupSystem::new(ProcessSet::first_n(n), groups)
}

/// A named topology suite for experiment sweeps.
// gam-lint: allow(U001, reason = "Table 1's headline row sweeps it: tests/table1.rs, tests/end_to_end.rs, tests/proptest_invariants.rs")
pub fn suite() -> Vec<(&'static str, GroupSystem)> {
    vec![
        ("single-group(4)", single_group(4)),
        ("disjoint(3x3)", disjoint(3, 3)),
        ("chain(4,3)", chain(4, 3)),
        ("two-overlapping(3,1)", two_overlapping(3, 1)),
        ("two-overlapping(4,2)", two_overlapping(4, 2)),
        ("ring(3,3)", ring(3, 3)),
        ("ring(4,2)", ring(4, 2)),
        ("hub(3,3)", hub(3, 3)),
        ("fig1", fig1()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupId;

    #[test]
    fn fig1_shape() {
        let gs = fig1();
        assert_eq!(gs.len(), 4);
        assert_eq!(gs.universe().len(), 5);
    }

    #[test]
    fn disjoint_is_disjoint() {
        let gs = disjoint(4, 3);
        assert!(gs.intersecting_pairs().is_empty());
        assert_eq!(gs.universe().len(), 12);
        assert!(gs.cyclic_families().is_empty());
    }

    #[test]
    fn chain_is_acyclic_and_connected() {
        let gs = chain(5, 3);
        assert_eq!(gs.intersecting_pairs().len(), 4);
        assert_eq!(gs.components().len(), 1);
        assert!(gs.cyclic_families().is_empty());
        // adjacent groups intersect in exactly one process
        for i in 0..4u32 {
            assert_eq!(gs.intersection(GroupId(i), GroupId(i + 1)).len(), 1);
        }
        // non-adjacent don't intersect
        assert!(!gs.intersecting(GroupId(0), GroupId(2)));
    }

    #[test]
    fn ring_has_exactly_one_cyclic_family() {
        let gs = ring(4, 3);
        let fams = gs.cyclic_families();
        assert_eq!(fams.len(), 1);
        assert_eq!(fams[0], crate::group::GroupSet::first_n(4));
    }

    #[test]
    fn ring_minimum_size() {
        let gs = ring(3, 2);
        assert_eq!(gs.universe().len(), 3);
        assert_eq!(gs.cyclic_families().len(), 1);
    }

    #[test]
    fn hub_is_complete_graph() {
        let gs = hub(4, 3);
        assert_eq!(gs.intersecting_pairs().len(), 6); // K4
                                                      // every subset of ≥3 groups is cyclic: C(4,3) + C(4,4) = 5
        assert_eq!(gs.cyclic_families().len(), 5);
    }

    #[test]
    fn two_overlapping_shapes() {
        let gs = two_overlapping(4, 2);
        assert_eq!(gs.universe().len(), 6);
        assert_eq!(gs.intersection(GroupId(0), GroupId(1)).len(), 2);
        assert!(gs.cyclic_families().is_empty());
    }

    #[test]
    fn random_is_deterministic_and_valid() {
        let a = random(6, 3, 0.45, 42);
        let b = random(6, 3, 0.45, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        for (_, members) in a.iter() {
            assert!(members.len() >= 2);
        }
        let c = random(6, 3, 0.45, 43);
        assert_ne!(a, c, "different seeds give different systems (w.h.p.)");
    }

    #[test]
    fn suite_builds() {
        for (name, gs) in suite() {
            assert!(!gs.is_empty(), "{name} has groups");
        }
    }
}
