//! The independence relation behind partial-order reduction.
//!
//! The commutation predicate itself lives in `gam-engine`
//! ([`gam_engine::independence`]) as the single source of truth shared
//! with the sharded parallel serving driver — the sharder and the POR
//! engine must never disagree about independence, so there is exactly one
//! definition. This module re-exports it and adds the explorer-side
//! applicability gate.
//!
//! Two enabled actions *commute* when firing them in either order yields
//! behaviorally equivalent states — equal delivery sequences, equal spec
//! verdicts under every deterministic continuation. The exhaustive walk's
//! sleep sets ([`crate::ExploreConfig::por`]) prune one of each
//! commuting sibling pair, which is sound exactly because the pruned
//! interleaving's subtree repeats the explored one's verdicts. See the
//! engine module docs for why genuineness makes commutation a
//! constant-time membership test and for the three refinements
//! (deliveries never commute, same process never commutes, crash-free
//! patterns only).

use crate::Scenario;

pub use gam_engine::independence::actions_commute;

/// True when the sleep-set reduction is sound for `scenario`: the failure
/// pattern is crash-free, so every detector guard is time-invariant and
/// commuting actions cannot move a guard across a detector transition.
pub fn por_applicable(scenario: &Scenario) -> bool {
    scenario.crashes.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_core::{ActionDesc, ActionKind, MessageId};
    use gam_groups::{topology, GroupId};
    use gam_kernel::{ProcessId, Time};

    #[test]
    fn reexported_relation_matches_the_engine_definition() {
        // The hoisted predicate answers through the re-export exactly as
        // the engine's own symbol (they are the same function item); the
        // full behavioral suite lives with the definition in gam-engine.
        let gs = topology::fig1();
        let mk = |pid: u32, group: u32| ActionDesc {
            pid: ProcessId(pid),
            kind: ActionKind::Pending,
            group: GroupId(group),
            rep: MessageId(0),
            aux: 0,
        };
        assert!(actions_commute(&gs, &mk(0, 0), &mk(2, 2)));
        assert!(!actions_commute(&gs, &mk(1, 0), &mk(0, 1)));
        assert_eq!(
            actions_commute(&gs, &mk(0, 0), &mk(2, 2)),
            gam_engine::actions_commute(&gs, &mk(0, 0), &mk(2, 2)),
        );
    }

    #[test]
    fn por_applicability_is_exactly_crash_freedom() {
        let gs = topology::two_overlapping(3, 1);
        let mut scenario = Scenario::one_per_group(&gs, 10_000);
        assert!(por_applicable(&scenario));
        scenario.crashes.push((ProcessId(0), Time(3)));
        assert!(!por_applicable(&scenario));
    }
}
