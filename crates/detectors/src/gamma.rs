//! The cyclicity failure detector `γ` (§3) — the new detector class the
//! paper introduces.
//!
//! `γ` informs each process of the cyclic families it is currently involved
//! with. At `p` it returns a set of families `𝔣 ∈ ℱ(p)` such that:
//!
//! - *(Accuracy)* if `𝔣 ∈ ℱ(p)` is **not** output at `p` at time `t`, then
//!   `𝔣` is faulty at `t`;
//! - *(Completeness)* if `𝔣 ∈ ℱ(p)` is faulty at `t` and `p` is correct, then
//!   eventually `𝔣` is never output at `p` again.

use gam_groups::{GroupId, GroupSet, GroupSystem};
use gam_kernel::{FailurePattern, History, ProcessId, Time};
use std::ops::ControlFlow;

/// An oracle for `γ` over a group system and failure pattern.
///
/// The oracle excludes a family `delay` ticks after it becomes faulty; any
/// `delay ≥ 0` yields a valid history, because family faultiness is monotone
/// (crashes are permanent).
///
/// # Examples
///
/// The Figure 1 walkthrough of §3: once `p2` crashes, the families 𝔣 and 𝔣''
/// become faulty and the output at `p1` stabilises to `{𝔣'}`.
///
/// ```
/// use gam_detectors::GammaOracle;
/// use gam_groups::{topology, GroupId, GroupSet};
/// use gam_kernel::*;
///
/// let gs = topology::fig1();
/// let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(10))]);
/// let gamma = GammaOracle::new(&gs, pattern, 0);
/// let fprime: GroupSet = [GroupId(0), GroupId(2), GroupId(3)].into_iter().collect();
/// assert_eq!(gamma.families(ProcessId(0), Time(0)).len(), 3);
/// assert_eq!(gamma.families(ProcessId(0), Time(10)), vec![fprime]);
/// ```
#[derive(Debug, Clone)]
pub struct GammaOracle {
    pattern: FailurePattern,
    /// `ℱ`, sorted — enumerated once, here.
    cyclic: Vec<GroupSet>,
    /// Per family of `ℱ` (same index): the instant `faulty_from + delay` from
    /// which the oracle excludes it, if it ever becomes faulty.
    excluded_from: Vec<Option<Time>>,
    /// `ℱ(p)` per process index, as indices into `cyclic`.
    families_of: Vec<Vec<u32>>,
    /// Per group `g`: the groups `h ≠ g` with `g ∩ h ≠ ∅`, for `γ(g)`.
    peers: Vec<GroupSet>,
}

impl GammaOracle {
    /// Creates the oracle; `delay` is the detection latency in ticks.
    pub fn new(system: &GroupSystem, pattern: FailurePattern, delay: u64) -> Self {
        let n = system.universe().max().map_or(0, |p| p.index() + 1);
        let cyclic = system.cyclic_families();
        let families_of = (0..n)
            .map(|i| {
                let p = ProcessId(i as u32);
                (0u32..)
                    .zip(&cyclic)
                    .filter(|(_, f)| system.in_some_intersection(**f, p))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        let excluded_from = cyclic
            .iter()
            .map(|f| {
                family_faulty_from(system, &pattern, *f).map(|t| Time(t.0.saturating_add(delay)))
            })
            .collect();
        let peers = system.iter().map(|(g, _)| system.peers(g)).collect();
        GammaOracle {
            pattern,
            cyclic,
            excluded_from,
            families_of,
            peers,
        }
    }

    /// The failure pattern the oracle is defined over.
    pub fn pattern(&self) -> &FailurePattern {
        &self.pattern
    }

    /// `ℱ(p)`, each family with the instant from which the oracle excludes
    /// it (`None`: never faulty, output forever). `γ(p, t)` is the families
    /// whose instant is `None` or later than `t`.
    pub fn families_of(&self, p: ProcessId) -> impl Iterator<Item = (GroupSet, Option<Time>)> + '_ {
        self.families_of
            .get(p.index())
            .into_iter()
            .flatten()
            .map(|&i| (self.cyclic[i as usize], self.excluded_from[i as usize]))
    }

    /// `γ(p, t)`: the families of `ℱ(p)` currently output at `p`.
    pub fn families(&self, p: ProcessId, t: Time) -> Vec<GroupSet> {
        self.output(p, t).collect()
    }

    fn output(&self, p: ProcessId, t: Time) -> impl Iterator<Item = GroupSet> + '_ {
        self.families_of(p)
            .filter(move |(_, from)| from.is_none_or(|from| t < from))
            .map(|(f, _)| f)
    }

    /// `γ(g)` at `(p, t)`: the groups `h` with `g ∩ h ≠ ∅` such that `g` and
    /// `h` belong to a common family output by `γ` (§3). Used as the guard
    /// of lines 18 and 32 of Algorithm 1.
    pub fn groups(&self, p: ProcessId, g: GroupId, t: Time) -> GroupSet {
        let peers = self.peers.get(g.index()).copied().unwrap_or_default();
        self.output(p, t)
            .filter(|f| f.contains(g))
            .fold(GroupSet::EMPTY, |out, f| out | (f & peers))
    }
}

/// The earliest time at which `f` is faulty under `pattern`, if ever. `f` is
/// faulty at `t` iff every hamiltonian cycle has an edge `(g, h)` with
/// `g ∩ h` crashed at `t`; crashes are permanent, so the threshold is the
/// max over cycles of the min over the cycle's edges of the edge's crash
/// time — `None` as soon as one cycle has no edge that ever crashes.
fn family_faulty_from(system: &GroupSystem, pattern: &FailurePattern, f: GroupSet) -> Option<Time> {
    let edge = |g: GroupId, h: GroupId| pattern.set_crash_time(system.intersection(g, h));
    // A faulty family has a crashing edge on every cycle, so at least one.
    let any_edge_crashes = f.iter().any(|g| {
        (system.peers(g) & f)
            .iter()
            .any(|h| g < h && edge(g, h).is_some())
    });
    if !any_edge_crashes {
        return None;
    }
    let mut threshold = Time::ZERO;
    let some_cycle_survives = system.each_hamiltonian_cycle(f, &mut |seq| {
        // earliest time this cycle gains a crashed edge
        let hit = (0..seq.len())
            .filter_map(|i| edge(seq[i], seq[(i + 1) % seq.len()]))
            .min();
        match hit {
            Some(t) => {
                threshold = threshold.max(t);
                ControlFlow::Continue(())
            }
            None => ControlFlow::Break(()),
        }
    });
    (!some_cycle_survives).then_some(threshold)
}

impl History for GammaOracle {
    type Value = Vec<GroupSet>;

    fn sample(&self, p: ProcessId, t: Time) -> Vec<GroupSet> {
        self.families(p, t)
    }

    /// The output at `p` (and every `γ(g)` derived from it) moves only at
    /// the instants from which a family of `ℱ(p)` is excluded.
    fn stable_until(&self, p: ProcessId, t: Time) -> Time {
        self.families_of(p)
            .filter_map(|(_, from)| from)
            .filter(|from| *from > t)
            .map(|from| Time(from.0 - 1))
            .min()
            .unwrap_or(Time::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_groups::topology;

    fn gset(ids: &[u32]) -> GroupSet {
        ids.iter().map(|i| GroupId(*i)).collect()
    }

    #[test]
    fn fig1_walkthrough_of_section3() {
        // Correct = {p1, p4, p5}: p2 and p3 crash.
        let gs = topology::fig1();
        let pattern = FailurePattern::from_crashes(
            gs.universe(),
            [(ProcessId(1), Time(5)), (ProcessId(2), Time(7))],
        );
        let gamma = GammaOracle::new(&gs, pattern, 0);
        // Initially γ at p1 returns {𝔣, 𝔣', 𝔣''}.
        assert_eq!(gamma.families(ProcessId(0), Time(0)).len(), 3);
        // Once p2 is faulty, 𝔣 and 𝔣'' are faulty; output stabilises to {𝔣'}.
        assert_eq!(
            gamma.families(ProcessId(0), Time(5)),
            vec![gset(&[0, 2, 3])]
        );
        // When this happens, γ(g1) = {g3, g4}.
        assert_eq!(
            gamma.groups(ProcessId(0), GroupId(0), Time(5)),
            gset(&[2, 3])
        );
        // Before: γ(g1) = {g2, g3, g4}.
        assert_eq!(
            gamma.groups(ProcessId(0), GroupId(0), Time(0)),
            gset(&[1, 2, 3])
        );
    }

    #[test]
    fn accuracy_holds_with_any_delay() {
        let gs = topology::fig1();
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(3))]);
        for delay in [0u64, 2, 10] {
            let gamma = GammaOracle::new(&gs, pattern.clone(), delay);
            for t in 0..30u64 {
                let crashed = pattern.faulty_at(Time(t));
                for p in gs.universe() {
                    let out = gamma.families(ProcessId(p.0), Time(t));
                    for f in gs.families_of_process(p) {
                        if !out.contains(&f) {
                            assert!(
                                gs.family_faulty(f, crashed),
                                "delay={delay} t={t}: {f:?} excluded but not faulty"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn completeness_excludes_faulty_families_eventually() {
        let gs = topology::fig1();
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(3))]);
        let gamma = GammaOracle::new(&gs, pattern.clone(), 4);
        let f = gset(&[0, 1, 2]);
        // During the delay window the faulty family may still be output.
        assert!(gamma.families(ProcessId(0), Time(4)).contains(&f));
        // After crash time + delay it is gone forever.
        for t in 7..20u64 {
            assert!(!gamma.families(ProcessId(0), Time(t)).contains(&f));
        }
    }

    #[test]
    fn process_outside_all_intersections_sees_nothing() {
        let gs = topology::fig1();
        let gamma = GammaOracle::new(&gs, FailurePattern::all_correct(gs.universe()), 0);
        assert!(gamma.families(ProcessId(4), Time(0)).is_empty());
    }

    #[test]
    fn acyclic_topology_has_trivial_gamma() {
        let gs = topology::chain(4, 3);
        let gamma = GammaOracle::new(&gs, FailurePattern::all_correct(gs.universe()), 0);
        for p in gs.universe() {
            assert!(gamma.families(p, Time(0)).is_empty());
        }
    }

    #[test]
    fn faulty_from_is_max_over_cycles_min_over_edges() {
        // Ring of 4: single cycle; crashing one joint process kills it.
        let gs = topology::ring(4, 2);
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(0), Time(9))]);
        let f = GroupSet::first_n(4);
        assert_eq!(family_faulty_from(&gs, &pattern, f), Some(Time(9)));
        let no_crash = FailurePattern::all_correct(gs.universe());
        assert_eq!(family_faulty_from(&gs, &no_crash, f), None);
    }

    #[test]
    fn hub_family_needs_hub_crash() {
        // In a hub topology every intersection is {hub}; the family dies
        // exactly when the hub does.
        let gs = topology::hub(3, 2);
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(0), Time(2))]);
        let gamma = GammaOracle::new(&gs, pattern, 0);
        // hub is p0; spokes p1..p3. The spoke processes belong to no
        // intersection, so ℱ(p_i) = ∅ for them; the hub sees the family
        // until its own crash time (it never queries after crashing).
        assert_eq!(gamma.families(ProcessId(0), Time(0)).len(), 1);
        assert!(gamma.families(ProcessId(1), Time(0)).is_empty());
    }
}
