//! Families of destination groups, closed paths and cyclicity (§3).
//!
//! A *family* is a set of destination groups. `cpaths(𝔣)` are the closed
//! paths in the intersection graph of `𝔣` visiting all its groups; the family
//! is *cyclic* when such a path exists (its intersection graph is
//! hamiltonian). A cyclic family is *faulty at `t`* when every such path
//! visits an edge `(g, h)` with `g ∩ h` faulty at `t`.

use crate::group::{GroupId, GroupSet, GroupSystem};
use gam_kernel::{ProcessId, ProcessSet};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::ControlFlow;

/// A closed path `π ∈ cpaths(𝔣)`: a sequence of groups with
/// `π[0] = π[|π|-1]`, visiting every group of the family exactly once and
/// following edges of the intersection graph.
///
/// Paths are *oriented*; [`ClosedPath::direction`] distinguishes the two
/// traversal directions of the same cycle, and equal [`ClosedPath::edges`]
/// identify paths visiting the same edge set (written `π ≡ π'` in §5.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClosedPath {
    seq: Vec<GroupId>,
}

impl ClosedPath {
    /// Builds a closed path from its vertex sequence (first = last).
    ///
    /// # Panics
    ///
    /// Panics if the sequence is not a closed path over at least three
    /// distinct groups, or revisits a group.
    pub fn new(seq: Vec<GroupId>) -> Self {
        assert!(seq.len() >= 4, "a closed path visits at least 3 groups");
        assert_eq!(seq[0], seq[seq.len() - 1], "path must be closed");
        let inner = &seq[..seq.len() - 1];
        let distinct: BTreeSet<_> = inner.iter().collect();
        assert_eq!(distinct.len(), inner.len(), "groups may not repeat");
        ClosedPath { seq }
    }

    /// `|π|`: the length of the sequence (number of groups + 1).
    #[expect(
        clippy::len_without_is_empty,
        reason = "a closed path visits at least three groups, so it is never empty"
    )]
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// `π[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= |π|`.
    pub fn get(&self, i: usize) -> GroupId {
        self.seq[i]
    }

    /// The family visited by the path.
    pub fn family(&self) -> GroupSet {
        self.seq.iter().copied().collect()
    }

    /// The undirected edges of the path, normalised as ordered pairs.
    pub fn edges(&self) -> BTreeSet<(GroupId, GroupId)> {
        self.seq
            .windows(2)
            .map(|w| {
                if w[0] < w[1] {
                    (w[0], w[1])
                } else {
                    (w[1], w[0])
                }
            })
            .collect()
    }

    /// The path traversing the same cycle in the converse direction,
    /// starting from the same group.
    fn reversed(&self) -> ClosedPath {
        let mut seq = self.seq.clone();
        seq.reverse();
        ClosedPath { seq }
    }

    /// The rotation of the path starting at position `k` (same orientation).
    fn rotated(&self, k: usize) -> ClosedPath {
        let inner = &self.seq[..self.seq.len() - 1];
        let n = inner.len();
        let mut seq: Vec<GroupId> = (0..n).map(|i| inner[(k + i) % n]).collect();
        seq.push(seq[0]);
        ClosedPath { seq }
    }

    /// The direction of the path: `+1` ("clockwise") or `-1`, for the
    /// canonical representation that rotates the cycle to start at its
    /// minimum group. Equivalent paths of opposite orientation have opposite
    /// directions.
    pub fn direction(&self) -> i8 {
        let inner = &self.seq[..self.seq.len() - 1];
        let min_pos = inner
            .iter()
            .enumerate()
            .min_by_key(|(_, g)| **g)
            .map(|(i, _)| i)
            .expect("non-empty");
        let n = inner.len();
        let succ = inner[(min_pos + 1) % n];
        let pred = inner[(min_pos + n - 1) % n];
        if succ < pred {
            1
        } else {
            -1
        }
    }
}

impl fmt::Display for ClosedPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, g) in self.seq.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{g}")?;
        }
        Ok(())
    }
}

impl GroupSystem {
    /// The canonical hamiltonian cycles of the intersection graph of family
    /// `f` — one representative per equivalence class of `cpaths(f)`.
    ///
    /// Each is returned as a closed path starting at the minimum group of
    /// `f`, with its second group smaller than its second-to-last (so
    /// reflections are not repeated).
    fn hamiltonian_cycles(&self, f: GroupSet) -> Vec<ClosedPath> {
        let mut cycles = Vec::new();
        self.each_hamiltonian_cycle(f, &mut |seq| {
            let mut seq = seq.to_vec();
            seq.push(seq[0]);
            cycles.push(ClosedPath::new(seq));
            ControlFlow::Continue(())
        });
        cycles
    }

    /// Calls `visit` with the open vertex sequence of each canonical
    /// hamiltonian cycle of `f` (the order of `hamiltonian_cycles`, closing
    /// edge implied) until it breaks; returns `true` iff it broke.
    pub fn each_hamiltonian_cycle(
        &self,
        f: GroupSet,
        visit: &mut impl FnMut(&[GroupId]) -> ControlFlow<()>,
    ) -> bool {
        let Some(start) = f.min().filter(|_| f.len() >= 3) else {
            return false;
        };
        let mut path = vec![start];
        let mut used = GroupSet::singleton(start);
        self.ham_extend(f, &mut path, &mut used, visit).is_break()
    }

    fn ham_extend(
        &self,
        f: GroupSet,
        path: &mut Vec<GroupId>,
        used: &mut GroupSet,
        visit: &mut impl FnMut(&[GroupId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let last = *path.last().expect("non-empty");
        if used.len() == f.len() {
            if self.intersecting(last, path[0]) && path[1] < last {
                visit(path)?;
            }
            return ControlFlow::Continue(());
        }
        // `used` is restored after every child, so the snapshot stays exact.
        for g in (f & self.peers(last)) - *used {
            path.push(g);
            used.insert(g);
            let flow = self.ham_extend(f, path, used, visit);
            used.remove(g);
            path.pop();
            flow?;
        }
        ControlFlow::Continue(())
    }

    /// `cpaths(f)`: every closed path of the intersection graph of `f`
    /// visiting all its groups — all rotations and both directions of every
    /// hamiltonian cycle.
    pub fn cpaths(&self, f: GroupSet) -> Vec<ClosedPath> {
        let mut out = Vec::new();
        for cycle in self.hamiltonian_cycles(f) {
            let k = cycle.len() - 1;
            for rot in 0..k {
                let r = cycle.rotated(rot);
                out.push(r.reversed());
                out.push(r);
            }
        }
        out
    }

    /// Returns `true` if family `f` is cyclic (its intersection graph is
    /// hamiltonian).
    fn is_cyclic_family(&self, f: GroupSet) -> bool {
        self.each_hamiltonian_cycle(f, &mut |_| ControlFlow::Break(()))
    }

    /// `ℱ`: all cyclic families in `2^𝒢`.
    ///
    /// The enumeration first prunes the intersection graph to its 2-core
    /// (a group of degree < 2 can never lie on a hamiltonian cycle), so
    /// acyclic and sparsely-connected systems of any size are cheap: each
    /// pruning pass costs `O(|𝒢|)` word operations, counting every group's
    /// stored peers within the remaining core.
    ///
    /// # Panics
    ///
    /// Panics if the 2-core has more than 20 groups (the remaining
    /// enumeration is exponential; the paper's constructions target small
    /// cyclic structure).
    pub fn cyclic_families(&self) -> Vec<GroupSet> {
        // Iteratively remove groups with fewer than two intersecting peers.
        let mut core = self.all();
        loop {
            let pruned: GroupSet = core
                .iter()
                .filter(|g| (self.peers(*g) & core).len() >= 2)
                .collect();
            if pruned == core {
                break;
            }
            core = pruned;
        }
        if core.len() < 3 {
            return Vec::new();
        }
        let ids: Vec<GroupId> = core.iter().collect();
        assert!(
            ids.len() <= 20,
            "cyclic-family enumeration caps at a 20-group 2-core"
        );
        let mut out = Vec::new();
        for mask in 0u64..(1u64 << ids.len()) {
            let f: GroupSet = ids
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, g)| *g)
                .collect();
            if f.len() >= 3 && self.subset_connected(f) && self.is_cyclic_family(f) {
                out.push(f);
            }
        }
        out.sort();
        out
    }

    /// Quick pruning helper: is the intersection graph restricted to `f`
    /// connected with minimum degree ≥ 2? (Necessary for hamiltonicity.)
    fn subset_connected(&self, f: GroupSet) -> bool {
        let Some(start) = f.min() else {
            return false;
        };
        if f.iter().any(|g| (self.peers(g) & f).len() < 2) {
            return false;
        }
        // BFS for connectivity.
        let mut seen = GroupSet::singleton(start);
        let mut frontier = vec![start];
        while let Some(g) = frontier.pop() {
            for h in (self.peers(g) & f) - seen {
                seen.insert(h);
                frontier.push(h);
            }
        }
        seen == f
    }

    /// `ℱ(p)`: the cyclic families `𝔣` such that `p` belongs to some group
    /// intersection of `𝔣` (∃ g, h ∈ 𝔣 distinct with `p ∈ g ∩ h`).
    pub fn families_of_process(&self, p: ProcessId) -> Vec<GroupSet> {
        self.cyclic_families()
            .into_iter()
            .filter(|f| self.in_some_intersection(*f, p))
            .collect()
    }

    /// Returns `true` if `p` lies in some intersection `g ∩ h` of distinct
    /// groups `g, h ∈ f`.
    pub fn in_some_intersection(&self, f: GroupSet, p: ProcessId) -> bool {
        (f & self.groups_of(p)).len() >= 2
    }

    /// A family is *faulty* given the crashed set when every path of
    /// `cpaths(f)` visits an edge `(g, h)` with `g ∩ h ⊆ crashed`.
    ///
    /// Since equivalent paths share edges, this is equivalent to every
    /// hamiltonian cycle containing a crashed edge.
    pub fn family_faulty(&self, f: GroupSet, crashed: ProcessSet) -> bool {
        let cycles = self.hamiltonian_cycles(f);
        if cycles.is_empty() {
            return false; // not cyclic; faultiness is about cyclic families
        }
        cycles.iter().all(|c| {
            c.edges()
                .iter()
                .any(|(g, h)| self.intersection(*g, *h).is_subset(crashed))
        })
    }

    /// `H(q, g)` from Lemma 30: the groups `h` such that some cyclic family
    /// `𝔣' ∈ ℱ(q)` contains both `g` and `h` with `g ∩ h ≠ ∅`.
    ///
    /// (When `g = h`, `g ∩ h = g ≠ ∅`, so `g ∈ H(q, g)` whenever `g` belongs
    /// to a family of `ℱ(q)` — matching line 20 of Algorithm 1.)
    // gam-lint: allow(U001, reason = "test oracle: the Lemma 30 reference that h_set_lemma30_fig1 and tests/proptest_invariants.rs hold h_set_among to")
    pub fn h_set(&self, q: ProcessId, g: GroupId) -> GroupSet {
        self.h_set_among(&self.cyclic_families(), q, g)
    }

    /// [`GroupSystem::h_set`] against an already enumerated `ℱ`
    /// (`families` must be [`GroupSystem::cyclic_families`] of this system):
    /// callers evaluating `H` for many `(q, g)` enumerate `ℱ` once.
    pub fn h_set_among(&self, families: &[GroupSet], q: ProcessId, g: GroupId) -> GroupSet {
        let mut out = GroupSet::new();
        for f in families {
            if !f.contains(g) || !self.in_some_intersection(*f, q) {
                continue;
            }
            out |= *f & (self.peers(g) | GroupSet::singleton(g));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1 system: 5 processes, 4 groups.
    fn fig1() -> GroupSystem {
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

    fn gset(ids: &[u32]) -> GroupSet {
        ids.iter().map(|i| GroupId(*i)).collect()
    }

    #[test]
    fn fig1_cyclic_families_are_f_fprime_fsecond() {
        let gs = fig1();
        let fams = gs.cyclic_families();
        // 𝔣 = {g1,g2,g3}, 𝔣' = {g1,g3,g4}, 𝔣'' = {g1,g2,g3,g4}
        assert_eq!(fams.len(), 3);
        assert!(fams.contains(&gset(&[0, 1, 2])));
        assert!(fams.contains(&gset(&[0, 2, 3])));
        assert!(fams.contains(&gset(&[0, 1, 2, 3])));
        // {g1,g2,g4} is not cyclic: g2 ∩ g4 = ∅
        assert!(!gs.is_cyclic_family(gset(&[0, 1, 3])));
    }

    #[test]
    fn fig1_families_of_group_and_process() {
        let gs = fig1();
        // ℱ(g2) = {𝔣, 𝔣''}: the cyclic families containing g2
        let of_g2: Vec<GroupSet> = gs
            .cyclic_families()
            .into_iter()
            .filter(|f| f.contains(GroupId(1)))
            .collect();
        assert_eq!(of_g2, vec![gset(&[0, 1, 2]), gset(&[0, 1, 2, 3])]);
        // ℱ(p1) = ℱ (p1 belongs to every cyclic family's intersections)
        assert_eq!(gs.families_of_process(ProcessId(0)), gs.cyclic_families());
        // ℱ(p5) = ∅ (p5 is in no group intersection)
        assert!(gs.families_of_process(ProcessId(4)).is_empty());
    }

    #[test]
    fn fig1_family_faultiness() {
        let gs = fig1();
        let f = gset(&[0, 1, 2]); // 𝔣 = {g1, g2, g3}
        let fpp = gset(&[0, 1, 2, 3]); // 𝔣'' = 𝒢
        let fprime = gset(&[0, 2, 3]); // 𝔣' = {g1, g3, g4}
                                       // p2 crashes: g1 ∩ g2 = {p2} becomes faulty.
        let crashed = ProcessSet::from_iter([1u32]);
        assert!(gs.family_faulty(f, crashed), "𝔣 is faulty when p2 fails");
        assert!(
            gs.family_faulty(fpp, crashed),
            "𝔣'' is faulty when p2 fails"
        );
        assert!(
            !gs.family_faulty(fprime, crashed),
            "𝔣' survives the crash of p2"
        );
        // nobody crashed: nothing is faulty
        assert!(!gs.family_faulty(f, ProcessSet::EMPTY));
    }

    #[test]
    fn cpaths_of_triangle() {
        let gs = fig1();
        let f = gset(&[0, 1, 2]);
        let cycles = gs.hamiltonian_cycles(f);
        assert_eq!(cycles.len(), 1, "a triangle has one cycle class");
        let paths = gs.cpaths(f);
        // 3 rotations × 2 directions
        assert_eq!(paths.len(), 6);
        // all are equivalent: they visit the same edges
        for p in &paths {
            assert_eq!(p.edges(), cycles[0].edges());
            assert_eq!(p.family(), f);
            assert_eq!(p.len(), 4);
        }
        // exactly half of them go in each direction
        let forward = paths.iter().filter(|p| p.direction() == 1).count();
        assert_eq!(forward, 3);
    }

    #[test]
    fn cpaths_of_four_cycle() {
        let gs = fig1();
        let f = gset(&[0, 1, 2, 3]);
        // 𝔣'' has a single hamiltonian cycle class: g1-g2-g3-g4-g1
        let cycles = gs.hamiltonian_cycles(f);
        assert_eq!(cycles.len(), 1);
        assert_eq!(gs.cpaths(f).len(), 8);
    }

    #[test]
    fn complete_graph_has_three_cycle_classes() {
        // Four groups pairwise intersecting through a hub process.
        let hub = 0u32;
        let gs = GroupSystem::new(
            ProcessSet::first_n(5),
            (0..4u32)
                .map(|i| ProcessSet::from_iter([hub, i + 1]))
                .collect(),
        );
        // K4 has 3 hamiltonian cycles.
        assert_eq!(gs.hamiltonian_cycles(GroupSet::first_n(4)).len(), 3);
    }

    #[test]
    fn path_direction_and_reversal() {
        let seq: Vec<GroupId> = [2u32, 0, 1, 2].iter().map(|i| GroupId(*i)).collect();
        let p = ClosedPath::new(seq);
        let r = p.reversed();
        assert_eq!(p.edges(), r.edges());
        assert_eq!(p.direction(), -r.direction());
        assert_eq!(p.get(0), r.get(0)); // reversal keeps the start
                                        // rotations keep direction
        assert_eq!(p.rotated(1).direction(), p.direction());
        assert_eq!(p.rotated(2).direction(), p.direction());
    }

    #[test]
    fn display_path() {
        let seq: Vec<GroupId> = [0u32, 1, 2, 0].iter().map(|i| GroupId(*i)).collect();
        assert_eq!(ClosedPath::new(seq).to_string(), "g1→g2→g3→g1");
    }

    #[test]
    #[should_panic(expected = "must be closed")]
    fn rejects_open_path() {
        let seq: Vec<GroupId> = [0u32, 1, 2, 3].iter().map(|i| GroupId(*i)).collect();
        ClosedPath::new(seq);
    }

    #[test]
    fn h_set_lemma30_fig1() {
        let gs = fig1();
        // For p1 ∈ g1∩g3 and g = g1: families of p1 containing g1 are all
        // three; groups intersecting g1 in them: g1 itself, g2, g3, g4.
        let h = gs.h_set(ProcessId(0), GroupId(0));
        assert_eq!(h, gset(&[0, 1, 2, 3]));
        // For p2 ∈ g1∩g2, same g = g1: ℱ(p2) = {𝔣, 𝔣''}; in these,
        // groups intersecting g1: g1, g2, g3 (from 𝔣) and g4 (from 𝔣'').
        let h2 = gs.h_set(ProcessId(1), GroupId(0));
        assert_eq!(h2, gset(&[0, 1, 2, 3]));
        // Lemma 30: equal for two processes in intersections of the family.
        assert_eq!(h, h2);
        // p5 has no family: empty H-set.
        assert!(gs.h_set(ProcessId(4), GroupId(3)).is_empty());
    }

    #[test]
    fn acyclic_chain_has_no_cyclic_family() {
        // g1 - g2 - g3 in a chain: no hamiltonian cycle.
        let gs = GroupSystem::new(
            ProcessSet::first_n(5),
            vec![
                ProcessSet::from_iter([0u32, 1]),
                ProcessSet::from_iter([1u32, 2, 3]),
                ProcessSet::from_iter([3u32, 4]),
            ],
        );
        assert!(gs.cyclic_families().is_empty());
    }
}
