//! The candidate failure detector
//! `μ_𝒢 = (∧_{g,h∈𝒢} Σ_{g∩h}) ∧ (∧_{g∈𝒢} Ω_g) ∧ γ` (§3) — proven by the paper
//! to be the weakest failure detector for genuine atomic multicast.
//!
//! [`MuOracle`] bundles one [`SigmaOracle`] per (unordered) pair of
//! intersecting groups — including `g = h`, which yields `Σ_g` — one
//! [`OmegaOracle`] per group, and a [`GammaOracle`]. Algorithm 1 consumes it
//! through the typed accessors rather than a single flattened sample.

use crate::gamma::GammaOracle;
use crate::omega::{OmegaMode, OmegaOracle};
use crate::sigma::{SigmaMode, SigmaOracle};
use gam_groups::{GroupId, GroupSet, GroupSystem};
use gam_kernel::{FailurePattern, History, ProcessId, ProcessSet, Time};
use std::collections::BTreeMap;

/// Tuning of the constituent oracles of `μ`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MuConfig {
    /// Pre-stabilisation behaviour of every `Σ_{g∩h}`.
    pub sigma: SigmaMode,
    /// Pre-stabilisation behaviour of every `Ω_g`.
    pub omega: OmegaMode,
    /// Detection latency of `γ`, in ticks.
    pub gamma_delay: u64,
}

/// An oracle for the candidate `μ_𝒢`.
///
/// # Examples
///
/// ```
/// use gam_detectors::{MuConfig, MuOracle};
/// use gam_groups::{topology, GroupId};
/// use gam_kernel::*;
///
/// let gs = topology::fig1();
/// let pattern = FailurePattern::all_correct(gs.universe());
/// let mu = MuOracle::new(&gs, pattern, MuConfig::default());
/// // Σ_{g1∩g3} at p1 (∈ g1 ∩ g3 = {p1}) returns a quorum.
/// assert!(mu.sigma(GroupId(0), GroupId(2), ProcessId(0), Time(0)).is_some());
/// // Ω_{g2} elects a member of g2.
/// let l = mu.omega(GroupId(1), ProcessId(1), Time(50)).unwrap();
/// assert!(gs.members(GroupId(1)).contains(l));
/// ```
#[derive(Debug, Clone)]
pub struct MuOracle {
    system: GroupSystem,
    pattern: FailurePattern,
    sigmas: BTreeMap<(GroupId, GroupId), SigmaOracle>,
    omegas: Vec<OmegaOracle>,
    gamma: GammaOracle,
}

impl MuOracle {
    /// Builds the candidate oracle for a group system and failure pattern.
    pub fn new(system: &GroupSystem, pattern: FailurePattern, config: MuConfig) -> Self {
        let mut sigmas = BTreeMap::new();
        for (g, _) in system.iter() {
            // Σ_{g∩g} = Σ_g
            sigmas.insert(
                (g, g),
                SigmaOracle::new(system.members(g), pattern.clone(), config.sigma),
            );
        }
        for (g, h) in system.intersecting_pairs() {
            sigmas.insert(
                (g, h),
                SigmaOracle::new(system.intersection(g, h), pattern.clone(), config.sigma),
            );
        }
        let omegas = system
            .iter()
            .map(|(_, members)| OmegaOracle::new(members, pattern.clone(), config.omega))
            .collect();
        let gamma = GammaOracle::new(system, pattern.clone(), config.gamma_delay);
        MuOracle {
            system: system.clone(),
            pattern,
            sigmas,
            omegas,
            gamma,
        }
    }

    /// The group system `𝒢` the oracle is defined over.
    pub fn system(&self) -> &GroupSystem {
        &self.system
    }

    /// The failure pattern driving the oracle.
    pub fn pattern(&self) -> &FailurePattern {
        &self.pattern
    }

    /// `Σ_{g∩h}(p, t)`, or `None` (⊥) when `p ∉ g∩h` or the groups do not
    /// intersect. `sigma(g, g, …)` is `Σ_g`.
    pub fn sigma(&self, g: GroupId, h: GroupId, p: ProcessId, t: Time) -> Option<ProcessSet> {
        let key = if g <= h { (g, h) } else { (h, g) };
        self.sigmas.get(&key).and_then(|o| o.quorum(p, t))
    }

    /// `Ω_g(p, t)`, or `None` (⊥) when `p ∉ g`.
    pub fn omega(&self, g: GroupId, p: ProcessId, t: Time) -> Option<ProcessId> {
        self.omegas[g.index()].leader(p, t)
    }

    /// `γ(p, t)`: the cyclic families currently output at `p`.
    // gam-lint: allow(U001, reason = "the gamma output the crate doctest, tests/stable_until.rs and examples/detector_tour.rs read")
    pub fn gamma_families(&self, p: ProcessId, t: Time) -> Vec<GroupSet> {
        self.gamma.families(p, t)
    }

    /// `γ(g)` at `(p, t)`: the groups `h` intersecting `g` such that `g, h`
    /// share a family output by `γ`.
    pub fn gamma_groups(&self, p: ProcessId, g: GroupId, t: Time) -> GroupSet {
        self.gamma.groups(p, g, t)
    }

    /// The end of the window of `μ` at `p` that `t` lies in: every
    /// constituent — each `Σ_{g∩h}`, each `Ω_g`, `γ` — outputs at `p`, up to
    /// and including the returned instant, what it outputs at `t`
    /// ([`History::stable_until`], the earliest over the constituents).
    pub fn stable_until(&self, p: ProcessId, t: Time) -> Time {
        let sigmas = self.sigmas.values().map(|o| o.stable_until(p, t));
        let omegas = self.omegas.iter().map(|o| o.stable_until(p, t));
        sigmas
            .chain(omegas)
            .fold(self.gamma.stable_until(p, t), Time::min)
    }

    /// Direct access to the `γ` component.
    pub fn gamma(&self) -> &GammaOracle {
        &self.gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_groups::topology;

    #[test]
    fn sigma_symmetric_in_group_order() {
        let gs = topology::fig1();
        let mu = MuOracle::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            MuConfig::default(),
        );
        let a = mu.sigma(GroupId(0), GroupId(2), ProcessId(0), Time(1));
        let b = mu.sigma(GroupId(2), GroupId(0), ProcessId(0), Time(1));
        assert_eq!(a, b);
        assert_eq!(a, Some(ProcessSet::singleton(ProcessId(0))));
    }

    #[test]
    fn sigma_of_group_is_full_quorum_detector() {
        let gs = topology::fig1();
        let mu = MuOracle::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            MuConfig::default(),
        );
        // Σ_{g3} = Σ_{g3∩g3} over {p1, p3, p4}
        let q = mu.sigma(GroupId(2), GroupId(2), ProcessId(0), Time(0));
        assert_eq!(q, Some(gs.members(GroupId(2))));
    }

    #[test]
    fn non_intersecting_pair_is_bot() {
        let gs = topology::fig1();
        let mu = MuOracle::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            MuConfig::default(),
        );
        // g2 ∩ g4 = ∅
        assert_eq!(
            mu.sigma(GroupId(1), GroupId(3), ProcessId(1), Time(0)),
            None
        );
    }

    #[test]
    fn omega_scoped_to_group_members() {
        let gs = topology::fig1();
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(2))]);
        let mu = MuOracle::new(&gs, pattern, MuConfig::default());
        // In g2 = {p2, p3}, after p2 crashes, p3 leads.
        assert_eq!(
            mu.omega(GroupId(1), ProcessId(2), Time(9)),
            Some(ProcessId(2))
        );
        // p1 ∉ g2 gets ⊥.
        assert_eq!(mu.omega(GroupId(1), ProcessId(0), Time(9)), None);
    }

    #[test]
    fn gamma_component_matches_standalone_oracle() {
        let gs = topology::fig1();
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(4))]);
        let mu = MuOracle::new(&gs, pattern.clone(), MuConfig::default());
        let standalone = GammaOracle::new(&gs, pattern, 0);
        for t in [0u64, 4, 10] {
            assert_eq!(
                mu.gamma_families(ProcessId(0), Time(t)),
                standalone.families(ProcessId(0), Time(t))
            );
        }
    }
}
