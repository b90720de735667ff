//! The §6/§7 variations of atomic multicast, exercised end-to-end.
//!
//! - **Strict** (§6.1): delivery follows real time; the weakest failure
//!   detector is `μ ∧ (∧_{g,h} 1^{g∩h})`. [`Variant::Strict`](crate::Variant)
//!   implements the modified line-32 guard; the tests here show that the
//!   indicators unblock stabilisation when an intersection crashes, and that
//!   strict ordering holds across schedules.
//! - **Strongly genuine** (§6.2): a destination group running in isolation
//!   must deliver. [`check_group_parallelism`] runs Algorithm 1 scheduling
//!   only `Correct ∩ dst(m)` and verifies delivery; this holds when
//!   `ℱ = ∅` and fails on cyclic topologies — exactly the paper's split.
//! - **Pairwise** (§7): ordering is only enforced pairwise; `γ` is not
//!   needed, and the runtime behaves as if `ℱ = ∅`.

use crate::runtime::{Runtime, RuntimeConfig};
use crate::spec::SpecViolation;
use gam_groups::{GroupId, GroupSystem};
use gam_kernel::FailurePattern;

/// *(Group Parallelism — §6.2)* Multicasts one message to `group` from its
/// minimum correct member, then schedules **only** `Correct ∩ dst(m)`. The
/// property requires every such process to deliver the message.
///
/// # Errors
///
/// Returns a [`SpecViolation`] when the isolated group blocks (which the
/// paper shows is unavoidable for Algorithm 1 when the group belongs to a
/// correct cyclic family and only `μ` is available).
pub fn check_group_parallelism(
    system: &GroupSystem,
    pattern: FailurePattern,
    group: GroupId,
    config: RuntimeConfig,
    max_actions: u64,
) -> Result<(), SpecViolation> {
    let mut rt = Runtime::new(system, pattern, config);
    check_group_parallelism_staged(&mut rt, group, max_actions)
}

/// As [`check_group_parallelism`], but over a pre-staged runtime: the caller
/// may first create cross-group contention (partially processed messages to
/// other groups), which is where the §6.2 delivery chains bite.
///
/// # Errors
///
/// Returns a [`SpecViolation`] when a correct member of `group` fails to
/// deliver while the group runs in isolation.
pub fn check_group_parallelism_staged(
    rt: &mut Runtime,
    group: GroupId,
    max_actions: u64,
) -> Result<(), SpecViolation> {
    let system = rt.system().clone();
    let correct_members = system.members(group) & rt.pattern().correct();
    let Some(src) = correct_members.min() else {
        return Ok(()); // vacuous: no correct member
    };
    let m = rt.multicast(src, group, 0);
    rt.run_sustained(correct_members, max_actions);
    for p in correct_members {
        if !rt.report(true).has_delivered(p, m) {
            return Err(SpecViolation {
                property: "group-parallelism",
                detail: format!("{p} did not deliver {m} while {group} ran in isolation"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::Variant;
    use gam_groups::topology;
    use gam_kernel::{ProcessId, RandomSource, RunOutcome, Time};

    fn config(variant: Variant) -> RuntimeConfig {
        RuntimeConfig {
            variant,
            ..Default::default()
        }
    }

    // ---------- strict variant (§6.1) ----------

    #[test]
    fn strict_variant_delivers_failure_free() {
        let gs = topology::fig1();
        let mut rt = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            config(Variant::Strict),
        );
        for g in 0..4u32 {
            let src = gs.members(GroupId(g)).min().unwrap();
            rt.multicast(src, GroupId(g), g as u64);
        }
        let report = rt.run_to_quiescence(1_000_000);
        spec::check_all(&report, Variant::Strict).unwrap();
    }

    #[test]
    fn strict_variant_sequential_submissions_follow_real_time() {
        // Submit sequentially: each message only after the previous is
        // delivered. Strict ordering must reflect the submission order.
        let gs = topology::two_overlapping(3, 1);
        let mut rt = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            config(Variant::Strict),
        );
        let m1 = rt.multicast(ProcessId(0), GroupId(0), 1);
        rt.run(1_000_000);
        let m2 = rt.multicast(ProcessId(4), GroupId(1), 2);
        rt.run(1_000_000);
        let report = rt.report(true);
        spec::check_strict_ordering(&report).unwrap();
        // the shared member p2 (index 2) delivers m1 then m2
        assert_eq!(report.delivered_by(ProcessId(2)), vec![m1, m2]);
    }

    #[test]
    fn strict_variant_unblocks_via_indicator_when_intersection_dies() {
        // g ∩ h crashes before anyone can stabilise: without 1^{g∩h} the
        // strict guard would wait forever (γ is of no help in an acyclic
        // topology — γ(g) = ∅ but strict mode quantifies over *all*
        // intersecting groups).
        let gs = topology::two_overlapping(3, 1); // g∩h = {p2}
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(2), Time(2))]);
        let mut rt = Runtime::new(&gs, pattern, config(Variant::Strict));
        let m = rt.multicast(ProcessId(0), GroupId(0), 0);
        let report = rt.run_to_quiescence(1_000_000);
        for p in [ProcessId(0), ProcessId(1)] {
            assert!(report.has_delivered(p, m), "{p}");
        }
        spec::check_all(&report, Variant::Strict).unwrap();
    }

    // ---------- pairwise variant (§7) ----------

    #[test]
    fn pairwise_variant_delivers_on_cyclic_topology() {
        let gs = topology::ring(3, 2);
        for seed in 0..10u64 {
            let mut rt = Runtime::new(
                &gs,
                FailurePattern::all_correct(gs.universe()),
                config(Variant::Pairwise),
            );
            for g in 0..3u32 {
                let src = gs.members(GroupId(g)).min().unwrap();
                rt.multicast(src, GroupId(g), g as u64);
            }
            let outcome =
                rt.run_with_source(gs.universe(), &mut RandomSource::new(seed), 1_000_000);
            assert_eq!(outcome, RunOutcome::Quiescent, "seed {seed}");
            let report = rt.report(true);
            spec::check_integrity(&report).unwrap();
            spec::check_termination(&report).unwrap();
            spec::check_pairwise_ordering(&report).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn pairwise_variant_matches_standard_on_acyclic_topology() {
        // With ℱ = ∅ the two variants coincide (§7): pairwise ordering is
        // computationally equivalent to the global one.
        let gs = topology::chain(4, 3);
        for variant in [Variant::Standard, Variant::Pairwise] {
            let mut rt = Runtime::new(
                &gs,
                FailurePattern::all_correct(gs.universe()),
                config(variant),
            );
            for g in 0..4u32 {
                let src = gs.members(GroupId(g)).min().unwrap();
                rt.multicast(src, GroupId(g), g as u64);
            }
            let report = rt.run_to_quiescence(1_000_000);
            spec::check_all(&report, Variant::Standard)
                .unwrap_or_else(|v| panic!("{variant:?}: {v}"));
        }
    }

    // ---------- strong genuineness (§6.2) ----------

    #[test]
    fn group_parallelism_holds_when_f_empty() {
        // Acyclic topologies: the isolated group delivers.
        for gs in [
            topology::chain(4, 3),
            topology::disjoint(3, 3),
            topology::two_overlapping(3, 1),
        ] {
            for (g, _) in gs.iter() {
                check_group_parallelism(
                    &gs,
                    FailurePattern::all_correct(gs.universe()),
                    g,
                    config(Variant::Standard),
                    1_000_000,
                )
                .unwrap_or_else(|v| panic!("{g}: {v}"));
            }
        }
    }

    #[test]
    fn group_parallelism_fails_under_cross_group_contention() {
        // The §6.2 chain: on the ring g1={p0,p1}, g2={p1,p2}, g3={p2,p0},
        // a message m2 to g2 is processed by p1 alone, so it sits *pending*
        // in LOG_{g1∩g2} (its commit needs the (m2,g3,·) announcement from
        // p2). Then g1 runs in isolation: its message lands after m2 in
        // LOG_{g1∩g2}, and p1 cannot deliver it before m2 — which needs p2.
        let gs = topology::ring(3, 2);
        let mut rt = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            config(Variant::Standard),
        );
        rt.multicast(ProcessId(1), GroupId(1), 99); // m2 → g2
                                                    // Warm up with only p1: m2 reaches LOG_{g1∩g2} but stays pending.
        rt.run_sustained(gam_kernel::ProcessSet::singleton(ProcessId(1)), 100_000);
        let err = check_group_parallelism_staged(&mut rt, GroupId(0), 200_000).unwrap_err();
        // Both members block: p1 waits for m2 in LOG_{g1∩g2}, and p0 waits
        // for the (m1,g2) stabilisation announcement only p1 could produce.
        assert_eq!(err.property, "group-parallelism");
    }

    #[test]
    fn fresh_isolated_group_delivers_even_on_a_ring() {
        // Without pre-existing contention, the members of g supply all the
        // position announcements themselves (they are the intersections),
        // so a fresh isolated group delivers — contention is essential to
        // the §6.2 separation.
        let gs = topology::ring(3, 2);
        check_group_parallelism(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            GroupId(0),
            config(Variant::Standard),
            200_000,
        )
        .unwrap();
    }

    #[test]
    fn group_parallelism_with_crashed_family_resumes() {
        // If the cyclic family is faulty (one ring joint crashed), γ stops
        // reporting it and the isolated group can commit again.
        let gs = topology::ring(3, 2);
        // crash p2 — the g2∩g3 joint — making the single family faulty.
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(2), Time(0))]);
        check_group_parallelism(
            &gs,
            pattern,
            GroupId(0),
            config(Variant::Standard),
            1_000_000,
        )
        .unwrap();
    }
}
