//! Intersection-graph utilities: connected components and spanning trees.
//!
//! §7 of the paper observes that, when `ℱ ≠ ∅`, strongly genuine atomic
//! multicast is failure-free solvable by delivering along a spanning tree of
//! the intersection graph (one per connected component). These helpers
//! provide that structure, plus the component decomposition used by the
//! partitioned baseline.

use crate::group::{GroupId, GroupSet, GroupSystem};

/// A spanning forest of the intersection graph of `𝒢`: for each connected
/// component, a rooted spanning tree given as `(child, parent)` edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningForest {
    /// Roots, one per connected component.
    pub roots: Vec<GroupId>,
    /// `parent[g] = Some(h)` when `h` is the tree parent of `g`.
    pub parent: Vec<Option<GroupId>>,
}

impl SpanningForest {
    /// The total order `<_T` induced on groups by a pre-order traversal of
    /// the forest (used by the §7 failure-free strongly genuine solution).
    pub fn preorder(&self) -> Vec<GroupId> {
        let n = self.parent.len();
        let mut children: Vec<Vec<GroupId>> = vec![Vec::new(); n];
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(parent) = p {
                children[parent.index()].push(GroupId(i as u32));
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<GroupId> = self.roots.iter().rev().copied().collect();
        while let Some(g) = stack.pop() {
            order.push(g);
            for c in children[g.index()].iter().rev() {
                stack.push(*c);
            }
        }
        order
    }
}

impl GroupSystem {
    /// The connected components of the intersection graph of `𝒢`.
    pub fn components(&self) -> Vec<GroupSet> {
        let mut remaining = self.all();
        let mut out = Vec::new();
        while let Some(start) = remaining.min() {
            let mut comp = GroupSet::singleton(start);
            let mut frontier = vec![start];
            while let Some(g) = frontier.pop() {
                for h in self.peers(g) - comp {
                    comp.insert(h);
                    frontier.push(h);
                }
            }
            remaining = remaining - comp;
            out.push(comp);
        }
        out
    }

    /// A deterministic BFS spanning forest of the intersection graph.
    pub fn spanning_forest(&self) -> SpanningForest {
        let n = self.len();
        let mut parent: Vec<Option<GroupId>> = vec![None; n];
        let mut visited = GroupSet::new();
        let mut roots = Vec::new();
        for i in 0..n {
            let root = GroupId(i as u32);
            if visited.contains(root) {
                continue;
            }
            roots.push(root);
            visited.insert(root);
            let mut queue = std::collections::VecDeque::from([root]);
            while let Some(g) = queue.pop_front() {
                for h in self.peers(g) - visited {
                    visited.insert(h);
                    parent[h.index()] = Some(g);
                    queue.push_back(h);
                }
            }
        }
        SpanningForest { roots, parent }
    }

    /// Renders the intersection graph in Graphviz DOT format: one node per
    /// group (labelled with its members), one edge per intersecting pair
    /// (labelled with the intersection).
    ///
    /// # Examples
    ///
    /// ```
    /// use gam_groups::topology;
    /// let dot = topology::two_overlapping(2, 1).to_dot();
    /// assert!(dot.contains("g1 -- g2"));
    /// ```
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("graph intersection {\n");
        for (g, members) in self.iter() {
            writeln!(out, "  {g} [label=\"{g} = {members}\"];").expect("write to string");
        }
        for (g, h) in self.intersecting_pairs() {
            writeln!(out, "  {g} -- {h} [label=\"{}\"];", self.intersection(g, h))
                .expect("write to string");
        }
        out.push_str("}\n");
        out
    }

    /// Returns `true` if the intersection graph is acyclic (`ℱ = ∅` implies
    /// this only for *hamiltonian* cycles; a graph-theoretic cycle of length
    /// ≥ 3 always yields a cyclic family, so the two coincide).
    pub fn intersection_graph_acyclic(&self) -> bool {
        // |E| = |V| - #components characterises forests.
        let edges = self.intersecting_pairs().len();
        edges + self.components().len() == self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_kernel::ProcessSet;

    fn chain() -> GroupSystem {
        GroupSystem::new(
            ProcessSet::first_n(7),
            vec![
                ProcessSet::from_iter([0u32, 1]),
                ProcessSet::from_iter([1u32, 2, 3]),
                ProcessSet::from_iter([3u32, 4]),
                ProcessSet::from_iter([5u32, 6]), // disconnected
            ],
        )
    }

    #[test]
    fn components_of_chain() {
        let gs = chain();
        let comps = gs.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], GroupSet::first_n(3));
        assert_eq!(comps[1], GroupSet::singleton(GroupId(3)));
    }

    #[test]
    fn spanning_forest_covers_everything() {
        let gs = chain();
        let sf = gs.spanning_forest();
        assert_eq!(sf.roots, vec![GroupId(0), GroupId(3)]);
        // every non-root has a parent it intersects
        for (i, p) in sf.parent.iter().enumerate() {
            if let Some(parent) = p {
                assert!(gs.intersecting(GroupId(i as u32), *parent));
            }
        }
        let order = sf.preorder();
        assert_eq!(order.len(), gs.len());
        // parents precede children in pre-order
        let pos = |g: GroupId| order.iter().position(|x| *x == g).unwrap();
        for (i, p) in sf.parent.iter().enumerate() {
            if let Some(parent) = p {
                assert!(pos(*parent) < pos(GroupId(i as u32)));
            }
        }
    }

    #[test]
    fn dot_export_lists_nodes_and_edges() {
        let gs = chain();
        let dot = gs.to_dot();
        assert!(dot.starts_with("graph intersection {"));
        for (g, _) in gs.iter() {
            assert!(dot.contains(&format!("{g} [label=")), "{g} node present");
        }
        assert!(dot.contains("g1 -- g2"));
        assert!(dot.contains("g2 -- g3"));
        assert!(
            !dot.contains("g1 -- g3"),
            "non-intersecting pairs have no edge"
        );
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn acyclicity_detection() {
        assert!(chain().intersection_graph_acyclic());
        // Figure 1 has cycles.
        let fig1 = GroupSystem::new(
            ProcessSet::first_n(5),
            vec![
                ProcessSet::from_iter([0u32, 1]),
                ProcessSet::from_iter([1u32, 2]),
                ProcessSet::from_iter([0u32, 2, 3]),
                ProcessSet::from_iter([0u32, 3, 4]),
            ],
        );
        assert!(!fig1.intersection_graph_acyclic());
        // graph-cycle ⇔ cyclic family
        assert_eq!(
            fig1.intersection_graph_acyclic(),
            fig1.cyclic_families().is_empty()
        );
        assert_eq!(
            chain().intersection_graph_acyclic(),
            chain().cyclic_families().is_empty()
        );
    }
}
