//! The independence relation of genuine atomic multicast — the single
//! source of truth the explorer's partial-order reduction and the sharded
//! serving driver both build on.
//!
//! Two enabled actions *commute* when firing them in either order yields
//! behaviorally equivalent states — equal delivery sequences, equal spec
//! verdicts under every deterministic continuation. `gam-explore`'s sleep
//! sets prune one of each commuting sibling pair; the parallel sustained
//! driver ([`crate::run_sustained_par`]) runs whole closed families of
//! mutually conflicting groups on separate workers. Both are sound for the
//! same reason, stated once here.
//!
//! ## Why genuineness makes this a local test
//!
//! Algorithm 1 is *genuine*: an action of process `p` about a unit of
//! group `g` reads and writes only state indexed by the pairs `{g, h}`
//! for `h ∈ 𝒢(p)` (the `per_gp` views of `gam_core`'s arena), the unit's
//! own cells, and `p`'s own per-process rows. Two actions therefore touch
//! disjoint shared state iff their groups differ and neither process is a
//! member of the other action's group — a constant-time membership test,
//! no state inspection needed.
//!
//! Three refinements keep the relation sound:
//!
//! - **Deliveries never commute.** `Deliver` records the wall-clock
//!   delivery time (every fired action ticks the shared clock), so
//!   swapping a delivery across *any* action changes the recorded
//!   timestamps of the report.
//! - **Same process never commutes.** Both actions bump `p`'s action
//!   counter, consume the same per-process cursors, and their relative
//!   order is the process's local program order.
//! - **Crash-free patterns only** (`gam_explore::por_applicable`): with no
//!   crashes the detector guards are time-invariant (the `γ` timelines are
//!   constant, the `1^{g∩h}` indicators never fire, liveness is
//!   universal), so commuting a pair of actions cannot move a guard
//!   across a detector transition. Patterns with crashes disable pruning
//!   entirely rather than approximate.
//!
//! Unit-id allocation order (two `Inject`s) is *not* preserved by a swap:
//! the states differ by a unit-id permutation while their behavior is
//! identical — no guard compares two unit ids, reports carry none, action
//! enumeration sorts by representative message. The dedup key sees through
//! the permutation as well ([`Executor::state_fingerprint`] walks units in
//! `L_g` position order, `gam_core::Runtime::fold_observable`), so of two
//! commuting `Inject` orders POR skips one subtree and dedup, where POR is
//! off, one fair tail. Only the identity walk `Runtime::fold_state` still
//! tells the two states apart, which is what the commit merge of the
//! sharded driver has to re-sequence.
//!
//! [`Executor::state_fingerprint`]: crate::Executor::state_fingerprint
//!
//! ## From commutation to shards
//!
//! [`shard_partition`] closes the pairwise conflict test transitively:
//! two groups conflict when they intersect (mutual membership of the
//! shared processes couples their pair views), so the connected components
//! of the intersection graph are the finest partition of `𝒢` such that
//! *no* pair of non-`Deliver` actions ever conflicts across parts — and
//! because a process's groups all lie in one component, `Deliver`'s
//! same-process and same-group conflicts are intra-component too. The only
//! cross-component coupling left is the shared clock (`Deliver`
//! timestamps) and unit-id allocation order, exactly the two globals the
//! parallel driver's deterministic commit merge re-sequences.

use gam_core::{ActionDesc, ActionKind};
use gam_groups::{GroupId, GroupSystem};

/// True when `a` and `b` commute: distinct processes, neither a
/// delivery, distinct groups, and neither process a member of the other
/// action's group — which makes their touched pair sets
/// `{{gₐ, h} : h ∈ 𝒢(pₐ)}` and `{{g_b, h} : h ∈ 𝒢(p_b)}` disjoint.
pub fn actions_commute(system: &GroupSystem, a: &ActionDesc, b: &ActionDesc) -> bool {
    a.pid != b.pid
        && a.kind != ActionKind::Deliver
        && b.kind != ActionKind::Deliver
        && a.group != b.group
        && !(system.members(b.group).contains(a.pid) && system.members(a.group).contains(b.pid))
}

/// True when some pair of actions on `g` and `h` can fail to commute
/// (beyond the global clock): the groups coincide or intersect. Distinct
/// disjoint groups can still conflict through [`actions_commute`]'s mutual
/// membership test only if a process belongs to both — i.e. only if they
/// intersect — so this is the coarsest group-level over-approximation of
/// the action-level relation.
pub fn groups_conflict(system: &GroupSystem, g: GroupId, h: GroupId) -> bool {
    g == h || system.intersecting(g, h)
}

/// Partitions `𝒢` into shards: the connected components of the
/// [`groups_conflict`] graph, each a maximal closed family of groups whose
/// actions may interfere. Shards are returned in ascending order of their
/// minimum group id, groups ascending within a shard — a canonical order,
/// so every caller (driver, bench, tests) agrees on shard indices.
///
/// Actions on groups of different shards always commute (no shared pair
/// views, no mutual membership), and every process's group set `𝒢(p)`
/// lies inside a single shard (membership in two groups makes them
/// intersect). The shared clock and unit-id allocation order are the only
/// globals crossing shards; see [`crate::run_sustained_par`].
pub fn shard_partition(system: &GroupSystem) -> Vec<Vec<GroupId>> {
    system
        .components()
        .into_iter()
        .map(|comp| comp.iter().collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_core::MessageId;
    use gam_groups::topology;
    use gam_kernel::ProcessId;

    fn desc(pid: u32, kind: ActionKind, group: u32, rep: u64) -> ActionDesc {
        ActionDesc {
            pid: ProcessId(pid),
            kind,
            group: GroupId(group),
            rep: MessageId(rep),
            aux: 0,
        }
    }

    #[test]
    fn disjoint_groups_commute_and_shared_state_does_not() {
        // fig1: g1 = {p1, p2}, g2 = {p2, p3}, g3 = {p3, p4}, g4 = {p4, p1}.
        let gs = topology::fig1();
        let a = desc(0, ActionKind::Pending, 0, 0); // p1 on g1
        let far = desc(2, ActionKind::Pending, 2, 2); // p3 on g3
        assert!(actions_commute(&gs, &a, &far));
        assert!(actions_commute(&gs, &far, &a), "relation is symmetric");
        // Same group never commutes.
        let same_group = desc(1, ActionKind::Commit, 0, 0); // p2 on g1
        assert!(!actions_commute(&gs, &a, &same_group));
        // p2 on g1 touches the pair views {g1,g1} and {g1,g2}; p1 on g2
        // touches {g2,g1} and {g2,g4} — they share {g1,g2}, because each
        // process is a member of the *other* action's group.
        let left = desc(1, ActionKind::Pending, 0, 0); // p2 on g1
        let right = desc(0, ActionKind::Pending, 1, 1); // p1 on g2
        assert!(
            !actions_commute(&gs, &left, &right),
            "mutual membership shares the {{g1,g2}} pair views"
        );
        // One-sided membership is not enough: p1 ∉ g2, so p1-on-g1 and
        // p2-on-g2 touch disjoint pair views even though p2 ∈ g1.
        let one_sided = desc(1, ActionKind::Pending, 1, 1); // p2 on g2
        assert!(actions_commute(&gs, &a, &one_sided));
    }

    #[test]
    fn deliveries_and_same_process_never_commute() {
        let gs = topology::disjoint(2, 2);
        let a = desc(0, ActionKind::Deliver, 0, 0);
        let b = desc(2, ActionKind::Pending, 1, 1);
        assert!(!actions_commute(&gs, &a, &b), "deliver is time-stamped");
        assert!(!actions_commute(&gs, &b, &a));
        let c = desc(0, ActionKind::Pending, 0, 0);
        let d = desc(0, ActionKind::Commit, 0, 0);
        assert!(!actions_commute(&gs, &c, &d), "same process");
        let e = desc(2, ActionKind::Commit, 1, 1);
        assert!(actions_commute(&gs, &c, &e), "disjoint groups commute");
    }

    #[test]
    fn shards_are_the_transitive_closure_of_group_conflicts() {
        // disjoint(3, 2): three singleton shards, ascending.
        let gs = topology::disjoint(3, 2);
        let shards = shard_partition(&gs);
        assert_eq!(
            shards,
            vec![vec![GroupId(0)], vec![GroupId(1)], vec![GroupId(2)]]
        );
        for s in &shards {
            for t in &shards {
                if s != t {
                    assert!(!groups_conflict(&gs, s[0], t[0]));
                }
            }
        }
        // fig1's ring of overlaps is one shard.
        let fig1 = topology::fig1();
        assert_eq!(shard_partition(&fig1).len(), 1);
        // chain(2, 2) ∪-style coupling: adjacent chain groups share a joint
        // process, so a whole chain is one shard.
        let chain = topology::chain(3, 3);
        assert_eq!(shard_partition(&chain).len(), 1);
    }

    #[test]
    fn cross_shard_actions_always_commute() {
        let gs = topology::disjoint(3, 3);
        let shards = shard_partition(&gs);
        // Non-Deliver actions of distinct shards commute for any member
        // pids — the guarantee the parallel driver relies on.
        for (si, s) in shards.iter().enumerate() {
            for (ti, t) in shards.iter().enumerate() {
                if si == ti {
                    continue;
                }
                let p = gs.members(s[0]).min().unwrap();
                let q = gs.members(t[0]).min().unwrap();
                let a = desc(p.0, ActionKind::Commit, s[0].0, 0);
                let b = desc(q.0, ActionKind::Pending, t[0].0, 1);
                assert!(actions_commute(&gs, &a, &b));
            }
        }
    }
}
