//! Destination groups and the group system `𝒢`.
//!
//! Atomic multicast is fully determined by the set `𝒢` of destination groups
//! (§2.2): every message `m` is addressed to some `dst(m) ∈ 𝒢`, and under the
//! closed dissemination model any member of a group may multicast to it. A
//! [`GroupSystem`] holds `𝒢` and answers the intersection queries the paper's
//! constructions are built from.

use gam_kernel::{ProcessId, ProcessSet};
use std::fmt;

/// The identity of a destination group: an index into the [`GroupSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(pub u32);

impl GroupId {
    /// Returns the index of this group as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0 + 1)
    }
}

impl From<usize> for GroupId {
    fn from(v: usize) -> Self {
        GroupId(v as u32)
    }
}

/// A set of groups, as a 256-bit bitset over group indices.
///
/// Families of destination groups (§3) are [`GroupSet`]s; so are the edges of
/// closed paths once projected to their endpoints. The total order compares
/// sets as the numbers their bit patterns encode (word 0 holds the lowest
/// group indices), so ordered collections keyed by families iterate
/// deterministically regardless of the backing width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GroupSet([u64; GROUP_WORDS]);

/// Number of 64-bit words backing a [`GroupSet`].
const GROUP_WORDS: usize = 4;

/// Maximum number of destination groups supported by [`GroupSet`].
const MAX_GROUPS: usize = GROUP_WORDS * 64;

impl GroupSet {
    /// The empty set of groups.
    pub const EMPTY: GroupSet = GroupSet([0; GROUP_WORDS]);

    /// Creates an empty set.
    pub fn new() -> Self {
        GroupSet::EMPTY
    }

    /// The set of the first `n` groups.
    ///
    /// # Panics
    ///
    /// Panics if `n > 256`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= MAX_GROUPS, "at most {MAX_GROUPS} groups");
        let mut words = [0u64; GROUP_WORDS];
        let (full, rest) = (n / 64, n % 64);
        words[..full].fill(u64::MAX);
        if rest > 0 {
            words[full] = (1u64 << rest) - 1;
        }
        GroupSet(words)
    }

    /// A singleton set.
    pub fn singleton(g: GroupId) -> Self {
        let mut s = GroupSet::EMPTY;
        s.insert(g);
        s
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, g: GroupId) -> bool {
        self.0[g.index() / 64] & (1u64 << (g.index() % 64)) != 0
    }

    /// Inserts `g`, returning whether it was absent.
    pub fn insert(&mut self, g: GroupId) -> bool {
        let had = self.contains(g);
        self.0[g.index() / 64] |= 1u64 << (g.index() % 64);
        !had
    }

    /// Removes `g`, returning whether it was present.
    pub fn remove(&mut self, g: GroupId) -> bool {
        let had = self.contains(g);
        self.0[g.index() / 64] &= !(1u64 << (g.index() % 64));
        had
    }

    /// Number of groups in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Emptiness test.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == [0; GROUP_WORDS]
    }

    /// Subset test (`self ⊆ other`).
    #[inline]
    pub fn is_subset(self, other: GroupSet) -> bool {
        (0..GROUP_WORDS).all(|i| self.0[i] & !other.0[i] == 0)
    }

    /// Intersection test.
    #[inline]
    pub fn intersects(self, other: GroupSet) -> bool {
        (0..GROUP_WORDS).any(|i| self.0[i] & other.0[i] != 0)
    }

    /// The minimum group of the set, if any.
    pub fn min(self) -> Option<GroupId> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| GroupId((i * 64) as u32 + w.trailing_zeros()))
    }

    /// The backing words, low group indices first — the canonical encoding
    /// digest and fingerprint code folds.
    #[inline]
    pub fn words(self) -> [u64; GROUP_WORDS] {
        self.0
    }

    /// Iterates over the groups in ascending order.
    pub fn iter(self) -> GroupSetIter {
        GroupSetIter {
            words: self.0,
            word: 0,
        }
    }
}

impl PartialOrd for GroupSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GroupSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Numeric order of the encoded bit pattern: high words first.
        self.0.iter().rev().cmp(other.0.iter().rev())
    }
}

impl fmt::Debug for GroupSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, g) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{g}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for GroupSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over a [`GroupSet`] in ascending index order.
#[derive(Debug, Clone)]
pub struct GroupSetIter {
    words: [u64; GROUP_WORDS],
    word: usize,
}

impl Iterator for GroupSetIter {
    type Item = GroupId;

    fn next(&mut self) -> Option<GroupId> {
        while self.word < GROUP_WORDS {
            let w = self.words[self.word];
            if w == 0 {
                self.word += 1;
                continue;
            }
            let idx = w.trailing_zeros();
            self.words[self.word] = w & (w - 1);
            return Some(GroupId((self.word * 64) as u32 + idx));
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.words[self.word.min(GROUP_WORDS)..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for GroupSetIter {}

impl IntoIterator for GroupSet {
    type Item = GroupId;
    type IntoIter = GroupSetIter;
    fn into_iter(self) -> GroupSetIter {
        self.iter()
    }
}

impl FromIterator<GroupId> for GroupSet {
    fn from_iter<I: IntoIterator<Item = GroupId>>(iter: I) -> Self {
        let mut s = GroupSet::new();
        for g in iter {
            s.insert(g);
        }
        s
    }
}

impl std::ops::BitOr for GroupSet {
    type Output = GroupSet;
    fn bitor(mut self, rhs: GroupSet) -> GroupSet {
        for i in 0..GROUP_WORDS {
            self.0[i] |= rhs.0[i];
        }
        self
    }
}

impl std::ops::BitOrAssign for GroupSet {
    fn bitor_assign(&mut self, rhs: GroupSet) {
        *self = *self | rhs;
    }
}

impl std::ops::BitAnd for GroupSet {
    type Output = GroupSet;
    fn bitand(mut self, rhs: GroupSet) -> GroupSet {
        for i in 0..GROUP_WORDS {
            self.0[i] &= rhs.0[i];
        }
        self
    }
}

impl std::ops::Sub for GroupSet {
    type Output = GroupSet;
    fn sub(mut self, rhs: GroupSet) -> GroupSet {
        for i in 0..GROUP_WORDS {
            self.0[i] &= !rhs.0[i];
        }
        self
    }
}

/// The set `𝒢` of destination groups over a universe of processes.
///
/// # Examples
///
/// The Figure 1 system of the paper:
///
/// ```
/// use gam_groups::GroupSystem;
/// use gam_kernel::ProcessSet;
///
/// let gs = GroupSystem::new(
///     ProcessSet::first_n(5),
///     vec![
///         ProcessSet::from_iter([0u32, 1]),       // g1 = {p1, p2}
///         ProcessSet::from_iter([1u32, 2]),       // g2 = {p2, p3}
///         ProcessSet::from_iter([0u32, 2, 3]),    // g3 = {p1, p3, p4}
///         ProcessSet::from_iter([0u32, 3, 4]),    // g4 = {p1, p4, p5}
///     ],
/// );
/// assert_eq!(gs.len(), 4);
/// assert_eq!(gs.cyclic_families().len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct GroupSystem {
    universe: ProcessSet,
    groups: Vec<ProcessSet>,
    /// Per process index up to `universe.max() + 1`: `𝒢(p)`.
    member_of: Vec<GroupSet>,
    /// Per group `g`: the groups `h ≠ g` with `g ∩ h ≠ ∅` — the intersection
    /// graph of `𝒢` as adjacency sets.
    adj: Vec<GroupSet>,
}

impl GroupSystem {
    /// Builds a group system, and its intersection graph once: `𝒢(p)` per
    /// process and the peers of every group, in `O(Σ|g| + Σ_p |𝒢(p)|)` word
    /// operations.
    ///
    /// # Panics
    ///
    /// Panics if any group is empty, not a subset of the universe, or listed
    /// twice, or if there are more than 256 groups (the width of a
    /// [`GroupSet`]).
    pub fn new(universe: ProcessSet, groups: Vec<ProcessSet>) -> Self {
        assert!(
            groups.len() <= MAX_GROUPS,
            "at most {MAX_GROUPS} destination groups"
        );
        // The first index that repeats an earlier group: sorted by value
        // (ties by index), a repeat is the later of two equal neighbours.
        let mut by_value: Vec<usize> = (0..groups.len()).collect();
        by_value.sort_unstable_by_key(|&i| (groups[i], i));
        let repeat = by_value
            .windows(2)
            .filter(|w| groups[w[0]] == groups[w[1]])
            .map(|w| w[1])
            .min();
        for (i, g) in groups.iter().enumerate() {
            assert!(!g.is_empty(), "group g{} is empty", i + 1);
            assert!(
                g.is_subset(universe),
                "group g{} is not within the universe",
                i + 1
            );
            assert!(repeat != Some(i), "group g{} is listed twice", i + 1);
        }
        let n = universe.max().map_or(0, |p| p.index() + 1);
        let mut member_of = vec![GroupSet::EMPTY; n];
        for (i, members) in groups.iter().enumerate() {
            for p in members.iter() {
                member_of[p.index()].insert(GroupId(i as u32));
            }
        }
        let adj = groups
            .iter()
            .enumerate()
            .map(|(i, members)| {
                let reach = members
                    .iter()
                    .fold(GroupSet::EMPTY, |acc, p| acc | member_of[p.index()]);
                reach - GroupSet::singleton(GroupId(i as u32))
            })
            .collect();
        GroupSystem {
            universe,
            groups,
            member_of,
            adj,
        }
    }

    /// The universe of processes.
    pub fn universe(&self) -> ProcessSet {
        self.universe
    }

    /// Number of destination groups `|𝒢|`.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Returns `true` if there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The members of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn members(&self, g: GroupId) -> ProcessSet {
        self.groups[g.index()]
    }

    /// Iterates over all `(GroupId, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, ProcessSet)> + '_ {
        self.groups
            .iter()
            .enumerate()
            .map(|(i, g)| (GroupId(i as u32), *g))
    }

    /// All group ids, as a set.
    pub fn all(&self) -> GroupSet {
        GroupSet::first_n(self.groups.len())
    }

    /// `𝒢(p)`: the groups containing process `p`.
    pub fn groups_of(&self, p: ProcessId) -> GroupSet {
        self.member_of.get(p.index()).copied().unwrap_or_default()
    }

    /// The peers of group `g` in the intersection graph: every `h ≠ g` with
    /// `g ∩ h ≠ ∅`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn peers(&self, g: GroupId) -> GroupSet {
        self.adj[g.index()]
    }

    /// `g ∩ h` as a process set.
    pub fn intersection(&self, g: GroupId, h: GroupId) -> ProcessSet {
        self.members(g) & self.members(h)
    }

    /// Returns `true` if `g` and `h` are distinct intersecting groups.
    pub fn intersecting(&self, g: GroupId, h: GroupId) -> bool {
        self.peers(g).contains(h)
    }

    /// All unordered pairs `(g, h)` of distinct intersecting groups — the
    /// edges of the intersection graph of `𝒢` — in lexicographic order.
    pub fn intersecting_pairs(&self) -> Vec<(GroupId, GroupId)> {
        self.iter()
            .flat_map(|(g, _)| {
                let above = self.peers(g) - GroupSet::first_n(g.index() + 1);
                above.iter().map(move |h| (g, h))
            })
            .collect()
    }

    /// All distinct non-empty intersections `g ∩ h` with `g ≠ h`,
    /// deduplicated, in the order of their first edge.
    pub fn intersections(&self) -> Vec<ProcessSet> {
        let mut seen = std::collections::BTreeSet::new();
        self.intersecting_pairs()
            .into_iter()
            .map(|(g, h)| self.intersection(g, h))
            .filter(|x| seen.insert(*x))
            .collect()
    }
}

impl fmt::Debug for GroupSystem {
    /// The defining facts only; the intersection graph is derived from them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupSystem")
            .field("universe", &self.universe)
            .field("groups", &self.groups)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1 system: 5 processes, 4 groups.
    pub(crate) fn fig1() -> GroupSystem {
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

    #[test]
    fn groups_of_matches_fig1() {
        let gs = fig1();
        // p1 (index 0) belongs to g1, g3, g4.
        assert_eq!(
            gs.groups_of(ProcessId(0)),
            GroupSet::from_iter([GroupId(0), GroupId(2), GroupId(3)])
        );
        // p5 (index 4) belongs only to g4.
        assert_eq!(gs.groups_of(ProcessId(4)), GroupSet::singleton(GroupId(3)));
    }

    #[test]
    fn intersections_match_fig1() {
        let gs = fig1();
        // g1 ∩ g2 = {p2}
        assert_eq!(
            gs.intersection(GroupId(0), GroupId(1)),
            ProcessSet::from_iter([1u32])
        );
        // g2 ∩ g4 = ∅
        assert!(!gs.intersecting(GroupId(1), GroupId(3)));
        // edges of the intersection graph: all pairs except (g2,g4)
        let edges = gs.intersecting_pairs();
        assert_eq!(edges.len(), 5);
        assert!(!edges.contains(&(GroupId(1), GroupId(3))));
    }

    #[test]
    fn dedup_intersections() {
        let gs = GroupSystem::new(
            ProcessSet::first_n(4),
            vec![
                ProcessSet::from_iter([0u32, 1]),
                ProcessSet::from_iter([1u32, 2]),
                ProcessSet::from_iter([1u32, 3]),
            ],
        );
        // all three pairwise intersections are {p2}
        assert_eq!(gs.intersections(), vec![ProcessSet::from_iter([1u32])]);
    }

    #[test]
    fn disjoint_groups_have_no_edges() {
        let gs = GroupSystem::new(
            ProcessSet::first_n(6),
            vec![
                ProcessSet::from_iter([0u32, 1]),
                ProcessSet::from_iter([2u32, 3]),
                ProcessSet::from_iter([4u32, 5]),
            ],
        );
        assert!(gs.intersecting_pairs().is_empty());
        assert!(gs.intersections().is_empty());
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn rejects_empty_group() {
        GroupSystem::new(ProcessSet::first_n(2), vec![ProcessSet::EMPTY]);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn rejects_duplicate_group() {
        let g = ProcessSet::from_iter([0u32, 1]);
        GroupSystem::new(ProcessSet::first_n(2), vec![g, g]);
    }

    #[test]
    #[should_panic(expected = "group g5 is listed twice")]
    fn duplicate_names_the_later_index() {
        let groups = [[0u32, 1], [1, 2], [2, 3], [3, 4], [0, 1]];
        GroupSystem::new(
            ProcessSet::first_n(5),
            groups.iter().map(|g| ProcessSet::from_iter(*g)).collect(),
        );
    }

    /// The queries the stored intersection graph answers, each held to the
    /// pairwise scan it replaced (written out here as the oracle).
    mod stored_graph {
        use super::super::*;
        use crate::topology;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn scan_intersecting(gs: &GroupSystem, g: GroupId, h: GroupId) -> bool {
            g != h && !gs.intersection(g, h).is_empty()
        }

        fn scan_groups_of(gs: &GroupSystem, p: ProcessId) -> GroupSet {
            gs.iter()
                .filter(|(_, members)| members.contains(p))
                .map(|(g, _)| g)
                .collect()
        }

        fn scan_pairs(gs: &GroupSystem) -> Vec<(GroupId, GroupId)> {
            let mut out = Vec::new();
            for (g, _) in gs.iter() {
                for (h, _) in gs.iter().filter(|(h, _)| g < *h) {
                    if scan_intersecting(gs, g, h) {
                        out.push((g, h));
                    }
                }
            }
            out
        }

        fn scan_intersections(gs: &GroupSystem) -> Vec<ProcessSet> {
            let mut out: Vec<ProcessSet> = Vec::new();
            for (g, h) in scan_pairs(gs) {
                let x = gs.intersection(g, h);
                if !out.contains(&x) {
                    out.push(x);
                }
            }
            out
        }

        fn scan_in_some_intersection(gs: &GroupSystem, f: GroupSet, p: ProcessId) -> bool {
            f.iter().filter(|g| gs.members(*g).contains(p)).count() >= 2
        }

        fn scan_components(gs: &GroupSystem) -> Vec<GroupSet> {
            let mut remaining = gs.all();
            let mut out = Vec::new();
            while let Some(start) = remaining.min() {
                let mut comp = GroupSet::singleton(start);
                let mut frontier = vec![start];
                while let Some(g) = frontier.pop() {
                    for h in remaining {
                        if !comp.contains(h) && scan_intersecting(gs, g, h) {
                            comp.insert(h);
                            frontier.push(h);
                        }
                    }
                }
                remaining = remaining - comp;
                out.push(comp);
            }
            out
        }

        /// Some hamiltonian cycle of `f`, found by pairwise tests only.
        fn scan_hamiltonian(gs: &GroupSystem, f: GroupSet, path: &mut Vec<GroupId>) -> bool {
            let last = *path.last().expect("non-empty");
            if path.len() == f.len() {
                return scan_intersecting(gs, last, path[0]);
            }
            for g in f {
                if !path.contains(&g) && scan_intersecting(gs, last, g) {
                    path.push(g);
                    if scan_hamiltonian(gs, f, path) {
                        return true;
                    }
                    path.pop();
                }
            }
            false
        }

        /// The 2-core by the pairwise prune, then every subset of it with
        /// a hamiltonian cycle; `None` when the core is too large to walk.
        fn scan_cyclic_families(gs: &GroupSystem) -> Option<Vec<GroupSet>> {
            let mut core = gs.all();
            loop {
                let degree = |g: GroupId| {
                    let peers = core.iter().filter(|h| scan_intersecting(gs, g, *h));
                    peers.count()
                };
                let pruned: GroupSet = core.iter().filter(|g| degree(*g) >= 2).collect();
                if pruned == core {
                    break;
                }
                core = pruned;
            }
            let ids: Vec<GroupId> = core.iter().collect();
            if ids.len() > 12 {
                return None;
            }
            let mut out = Vec::new();
            for mask in 0u32..(1 << ids.len()) {
                let f: GroupSet = (0..ids.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| ids[i])
                    .collect();
                if f.len() >= 3 && scan_hamiltonian(gs, f, &mut vec![f.min().expect("f ≥ 3")]) {
                    out.push(f);
                }
            }
            out.sort();
            Some(out)
        }

        /// Holds every query of `gs` to its scan; returns `|ℱ|` when the
        /// 2-core was small enough for the oracle to enumerate.
        fn check(name: &str, gs: &GroupSystem, rng: &mut StdRng) -> Option<usize> {
            let n = gs.universe().max().map_or(0, |p| p.index() + 1);
            for p in (0..(n + 2).min(gam_kernel::MAX_PROCESSES)).map(|i| ProcessId(i as u32)) {
                assert_eq!(gs.groups_of(p), scan_groups_of(gs, p), "{name}: 𝒢({p})");
            }
            for (g, _) in gs.iter() {
                let peers = gs.peers(g);
                assert!(!peers.contains(g), "{name}: {g} is its own peer");
                for (h, _) in gs.iter() {
                    let edge = scan_intersecting(gs, g, h);
                    assert_eq!(gs.intersecting(g, h), edge, "{name}: {g}–{h}");
                    assert_eq!(peers.contains(h), edge, "{name}: peers({g}) ∋ {h}");
                    assert_eq!(gs.peers(h).contains(g), edge, "{name}: symmetry {g}–{h}");
                }
            }
            assert_eq!(gs.intersecting_pairs(), scan_pairs(gs), "{name}: edges");
            assert_eq!(gs.intersections(), scan_intersections(gs), "{name}: g ∩ h");
            // Families to probe: everything, each closed neighbourhood, and
            // seeded random subsets.
            let mut families = vec![gs.all()];
            let closed = |g: GroupId| gs.peers(g) | GroupSet::singleton(g);
            families.extend(gs.iter().take(16).map(|(g, _)| closed(g)));
            families.extend((0..4).map(|_| {
                gs.iter()
                    .map(|(g, _)| g)
                    .filter(|_| rng.gen_bool(0.3))
                    .collect::<GroupSet>()
            }));
            for f in families {
                for p in gs.universe() {
                    assert_eq!(
                        gs.in_some_intersection(f, p),
                        scan_in_some_intersection(gs, f, p),
                        "{name}: {p} in some intersection of {f}"
                    );
                }
            }
            assert_eq!(gs.components(), scan_components(gs), "{name}: components");
            let families = scan_cyclic_families(gs)?;
            assert_eq!(gs.cyclic_families(), families, "{name}: ℱ");
            Some(families.len())
        }

        /// A random tree of `k` groups: each group has a private process,
        /// and each group after the first shares one fresh joint process
        /// with a random earlier group.
        fn random_tree(k: usize, rng: &mut StdRng) -> GroupSystem {
            let mut groups: Vec<ProcessSet> = (0..k).map(|i| ProcessSet::from_iter([i])).collect();
            for i in 1..k {
                let joint = ProcessId((k + i - 1) as u32);
                let parent = rng.gen_range(0..i);
                groups[i].insert(joint);
                groups[parent].insert(joint);
            }
            GroupSystem::new(ProcessSet::first_n(2 * k - 1), groups)
        }

        #[test]
        #[expect(
            clippy::disallowed_types,
            reason = "the density of a random system is a probability for \
                      `topology::random`; no digest or count depends on it"
        )]
        fn stored_graph_matches_the_pairwise_scans() {
            let mut rng = StdRng::seed_from_u64(0x6a70);
            for (name, gs) in topology::suite() {
                check(name, &gs, &mut rng);
            }
            check("single", &topology::single_group(7), &mut rng);
            check("disjoint", &topology::disjoint(70, 3), &mut rng);
            for k in [2, 5, 65, 240] {
                let gs = random_tree(k, &mut rng);
                // |E| = |V| − #components: the intersection graph is a tree.
                assert_eq!(gs.intersecting_pairs().len() + 1, gs.len());
                check(&format!("tree({k})"), &gs, &mut rng);
            }
            // A universe with gaps: `max() + 1` exceeds `len()`.
            let odd: ProcessSet = (0..100u32).map(|i| 2 * i + 1).collect();
            let gapped = GroupSystem::new(
                odd,
                vec![
                    ProcessSet::from_iter([1u32, 3, 5]),
                    ProcessSet::from_iter([5u32, 7]),
                    ProcessSet::from_iter([7u32, 1, 199]),
                    ProcessSet::from_iter([99u32, 197]),
                ],
            );
            assert_ne!(gapped.universe().len(), 200);
            check("gapped", &gapped, &mut rng);
            // Random systems across word boundaries of both bitsets.
            let mut cyclic = 0;
            for seed in 0..200u64 {
                let n = rng.gen_range(8usize..513);
                let k = rng.gen_range(1usize..n.min(MAX_GROUPS) + 1);
                // Expected group sizes of 2.5 to 8 keep the graphs sparse.
                let size = rng.gen_range(25u32..80) as f64 / 10.0;
                let density = (size / n as f64).min(0.6);
                let gs = topology::random(n, k, density, seed);
                let name = format!("random({n},{k},{density:.3},{seed})");
                if check(&name, &gs, &mut rng).is_some_and(|f| f > 0) {
                    cyclic += 1;
                }
            }
            assert!(
                cyclic >= 10,
                "only {cyclic} random systems had an ℱ to compare"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not within the universe")]
    fn rejects_group_outside_universe() {
        GroupSystem::new(
            ProcessSet::first_n(2),
            vec![ProcessSet::from_iter([0u32, 5])],
        );
    }

    #[test]
    fn group_set_algebra() {
        let a = GroupSet::from_iter([GroupId(0), GroupId(2)]);
        let b = GroupSet::from_iter([GroupId(2), GroupId(3)]);
        assert_eq!((a | b).len(), 3);
        assert_eq!(a & b, GroupSet::singleton(GroupId(2)));
        assert_eq!(a - b, GroupSet::singleton(GroupId(0)));
        assert!(a.intersects(b));
        assert!(GroupSet::singleton(GroupId(2)).is_subset(a));
        assert_eq!(a.min(), Some(GroupId(0)));
        assert_eq!(GroupSet::EMPTY.min(), None);
        let v: Vec<GroupId> = b.iter().collect();
        assert_eq!(v, vec![GroupId(2), GroupId(3)]);
    }

    #[test]
    fn group_set_display() {
        let a = GroupSet::from_iter([GroupId(0), GroupId(2)]);
        assert_eq!(format!("{a}"), "{g1,g3}");
    }
}
