//! Algorithm 3 — emulating the cyclicity detector `γ` (§5.2).
//!
//! For every cyclic family `𝔣` and every closed path `π ∈ cpaths(𝔣)` whose
//! first edge intersection `π[0] ∩ π[1]` is failure-prone, the extraction
//! runs a *probe*: an instance `A_π` of the multicast black box in which all
//! of `𝔣` participates **except** `π[0] ∩ π[|π|-2]` — the intersection with
//! the last group before the start. The probe's first message (to `π[0]`)
//! can therefore only be delivered once that excluded intersection has
//! actually crashed; delivery then chains around the cycle
//! (`signal(π, i)` / multicast to `π[i+1]`), and the flag `failed[π]` is
//! raised when the chain completes or meets a probe of the same cycle
//! running in the converse direction. A family is excluded from the output
//! once **every** equivalence class of its closed paths has a failed probe —
//! which happens exactly when every hamiltonian cycle of the family has a
//! crashed edge, i.e. when the family is faulty.
//!
//! Note on line 12–13 of the paper's pseudo-code: the converse-direction
//! rendezvous is implemented as "`rcv(π, j)` with `π[j+1] = π'[0]` and
//! `dir(π') = -dir(π)`" — the chain of `π` stalled entering the group where
//! the reverse probe `π'` starts. (The published text reads `π[j] = π'[0]`,
//! which does not fire in the scenario of Theorem 50's own completeness
//! proof; see DESIGN.md.)

use crate::blackbox::BlackBox;
use gam_core::MessageId;
use gam_groups::{ClosedPath, GroupId, GroupSet, GroupSystem};
use gam_kernel::{Environment, FailurePattern, ProcessId, ProcessSet, Time};
use std::collections::BTreeSet;

#[derive(Debug)]
struct Probe {
    family: GroupSet,
    path: ClosedPath,
    /// Undirected edge set — the equivalence class key.
    class: BTreeSet<(GroupId, GroupId)>,
    bbox: BlackBox,
    /// `launched[i]` = the chain message addressed to `π[i]`.
    launched: Vec<Option<MessageId>>,
    /// Signals `(π, i)` received (delivery of message `i` at a live member
    /// of `π[i+1]`).
    signals: BTreeSet<usize>,
    failed: bool,
}

/// The γ extraction of Algorithm 3.
#[derive(Debug)]
pub struct GammaExtraction {
    system: GroupSystem,
    pattern: FailurePattern,
    probes: Vec<Probe>,
    now: Time,
}

impl GammaExtraction {
    /// Builds the probes for every cyclic family of the system, in
    /// environment `env` (probes only exist for paths whose first edge is
    /// failure-prone).
    pub fn new(system: &GroupSystem, pattern: FailurePattern, env: &Environment) -> Self {
        let mut probes = Vec::new();
        for family in system.cyclic_families() {
            let family_members: ProcessSet = family
                .iter()
                .map(|g| system.members(g))
                .fold(ProcessSet::EMPTY, |a, b| a | b);
            for path in system.cpaths(family) {
                let k = path.len() - 1; // number of groups
                let first_edge = system.intersection(path.get(0), path.get(1));
                if !env.set_failure_prone(first_edge) {
                    continue;
                }
                let excluded = system.intersection(path.get(0), path.get(k - 1));
                let participants = family_members - excluded;
                let bbox = BlackBox::new(system, pattern.clone(), participants);
                probes.push(Probe {
                    family,
                    class: path.edges(),
                    launched: vec![None; k],
                    signals: BTreeSet::new(),
                    failed: false,
                    path,
                    bbox,
                });
            }
        }
        GammaExtraction {
            system: system.clone(),
            pattern,
            probes,
            now: Time::ZERO,
        }
    }

    /// Advances the extraction to time `now`: launches initial messages,
    /// drives the chains, raises `failed` flags.
    pub fn advance(&mut self, now: Time) {
        self.now = self.now.max(now);
        let crashed = self.pattern.faulty_at(now);
        // Phase 1: launch and chain within each probe.
        for probe in &mut self.probes {
            let k = probe.path.len() - 1;
            // lines 4–5: a live member of π[0]∩π[1] multicasts (p, 0).
            if probe.launched[0].is_none() {
                let senders = self
                    .system
                    .intersection(probe.path.get(0), probe.path.get(1))
                    - crashed;
                if let Some(p) = senders.min() {
                    probe.launched[0] = probe.bbox.multicast(p, probe.path.get(0), now);
                }
            }
            probe.bbox.advance(now);
            // lines 6–10: when message i is delivered at a live member of
            // π[i+1], record signal (π, i) and multicast message i+1.
            for i in 0..k {
                let Some(m) = probe.launched[i] else { continue };
                if !probe.bbox.delivered(m, now) {
                    continue;
                }
                let deliverers = self
                    .system
                    .intersection(probe.path.get(i), probe.path.get(i + 1))
                    & probe.bbox.participants();
                let live = deliverers - crashed;
                if live.is_empty() {
                    continue;
                }
                if i < k - 1 {
                    probe.signals.insert(i);
                    if probe.launched[i + 1].is_none() {
                        let p = live.min().expect("non-empty");
                        probe.launched[i + 1] = probe.bbox.multicast(p, probe.path.get(i + 1), now);
                    }
                }
            }
        }
        // Phase 2: update failed flags (needs cross-probe reads).
        for idx in 0..self.probes.len() {
            if self.probes[idx].failed {
                continue;
            }
            let k = self.probes[idx].path.len() - 1;
            // direct completion: signal (π, |π|-3) = (π, k-2)
            if k >= 2 && self.probes[idx].signals.contains(&(k - 2)) {
                self.probes[idx].failed = true;
                continue;
            }
            // converse-direction rendezvous
            let my_dir = self.probes[idx].path.direction();
            let my_class = self.probes[idx].class.clone();
            let my_family = self.probes[idx].family;
            let stall_groups: Vec<GroupId> = self.probes[idx]
                .signals
                .iter()
                .map(|j| self.probes[idx].path.get(j + 1))
                .collect();
            let hit = self.probes.iter().any(|other| {
                other.family == my_family
                    && other.class == my_class
                    && other.path.direction() == -my_dir
                    && other.signals.contains(&0)
                    && stall_groups.contains(&other.path.get(0))
            });
            if hit {
                self.probes[idx].failed = true;
            }
        }
    }

    /// The emulated `γ(p, t)` output — line 16: the families of `ℱ(p)` with
    /// some path class entirely un-failed.
    ///
    /// (Queries are answered at the current extraction time; `advance` must
    /// have been driven at least to `t`.)
    pub fn families(&self, p: ProcessId) -> Vec<GroupSet> {
        self.system
            .families_of_process(p)
            .into_iter()
            .filter(|f| {
                // group probes of f by class; f stays iff some class has no
                // failed probe (including classes with no probes at all).
                let mut classes: Vec<(BTreeSet<(GroupId, GroupId)>, bool)> = Vec::new();
                for probe in self.probes.iter().filter(|pr| pr.family == *f) {
                    match classes.iter_mut().find(|(c, _)| *c == probe.class) {
                        Some((_, failed)) => *failed |= probe.failed,
                        None => classes.push((probe.class.clone(), probe.failed)),
                    }
                }
                classes.is_empty() || classes.iter().any(|(_, failed)| !failed)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_detectors::validate::validate_gamma;
    use gam_groups::topology;

    fn drive(ext: &mut GammaExtraction, horizon: u64) {
        for t in 0..=horizon {
            ext.advance(Time(t));
        }
    }

    fn run_and_validate(system: &GroupSystem, pattern: FailurePattern, settle: u64, horizon: u64) {
        let env = Environment::wait_free(system.universe());
        let mut ext = GammaExtraction::new(system, pattern.clone(), &env);
        // Sample the output at every instant while driving.
        let mut samples: Vec<Vec<Vec<GroupSet>>> = Vec::new(); // [t][p]
        let n = system.universe().len();
        for t in 0..=horizon {
            ext.advance(Time(t));
            samples.push((0..n).map(|i| ext.families(ProcessId(i as u32))).collect());
        }
        validate_gamma(
            |p, t| samples[t.0 as usize][p.index()].clone(),
            system,
            &pattern,
            Time(settle),
            Time(horizon),
        )
        .unwrap();
    }

    #[test]
    fn ring_all_correct_keeps_family() {
        let gs = topology::ring(3, 2);
        run_and_validate(&gs, FailurePattern::all_correct(gs.universe()), 10, 40);
    }

    #[test]
    fn ring_single_joint_crash_excludes_family() {
        let gs = topology::ring(3, 2);
        // p0 = g1∩g3 joint: its crash makes the single family faulty.
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(0), Time(5))]);
        run_and_validate(&gs, pattern.clone(), 30, 60);
        // and the family is indeed excluded at the correct member p1 ∈ g1∩g2
        let env = Environment::wait_free(gs.universe());
        let mut ext = GammaExtraction::new(&gs, pattern, &env);
        drive(&mut ext, 60);
        assert!(ext.families(ProcessId(1)).is_empty());
    }

    #[test]
    fn ring_two_adjacent_joint_crashes_still_detected() {
        // Two faulty edges: the chain stalls and the converse-direction
        // rendezvous (line 13) is required.
        let gs = topology::ring(3, 2);
        let pattern = FailurePattern::from_crashes(
            gs.universe(),
            [(ProcessId(0), Time(3)), (ProcessId(1), Time(6))],
        );
        run_and_validate(&gs, pattern, 40, 80);
    }

    #[test]
    fn fig1_crash_of_p2_excludes_exactly_two_families() {
        let gs = topology::fig1();
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(5))]);
        run_and_validate(&gs, pattern.clone(), 40, 80);
        let env = Environment::wait_free(gs.universe());
        let mut ext = GammaExtraction::new(&gs, pattern, &env);
        drive(&mut ext, 80);
        // At p1 (∈ every family), only 𝔣' = {g1,g3,g4} survives.
        let fams = ext.families(ProcessId(0));
        let fprime: GroupSet = [GroupId(0), GroupId(2), GroupId(3)].into_iter().collect();
        assert_eq!(fams, vec![fprime]);
    }

    #[test]
    fn acyclic_topology_has_no_probes() {
        let gs = topology::chain(4, 3);
        let env = Environment::wait_free(gs.universe());
        let ext = GammaExtraction::new(&gs, FailurePattern::all_correct(gs.universe()), &env);
        assert_eq!(ext.probes.len(), 0);
    }

    #[test]
    fn reliable_environment_spawns_no_probes() {
        // If no intersection is failure-prone, Algorithm 3 runs no instances
        // and γ constantly outputs ℱ(p) — which is then always accurate.
        let gs = topology::ring(3, 2);
        let env = Environment::wait_free(gs.universe()).with_max_failures(0);
        let ext = GammaExtraction::new(&gs, FailurePattern::all_correct(gs.universe()), &env);
        assert_eq!(ext.probes.len(), 0);
        assert_eq!(ext.families(ProcessId(0)).len(), 1);
    }

    #[test]
    fn probe_count_matches_cpaths() {
        let gs = topology::ring(3, 2);
        let env = Environment::wait_free(gs.universe());
        let ext = GammaExtraction::new(&gs, FailurePattern::all_correct(gs.universe()), &env);
        // one family, one cycle class, 3 rotations × 2 directions
        assert_eq!(ext.probes.len(), 6);
    }
}
