//! Intersection-graph utilities: connected components.

use crate::group::{GroupSet, GroupSystem};

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupId;
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
}
