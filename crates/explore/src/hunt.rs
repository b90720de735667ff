//! The counterexample hunt: descriptors in, shrunk `.repro`/`.scn` pairs
//! out.
//!
//! A hunt takes `gam-scn v1` descriptors (typically fresh seeds over the
//! [`gam_scenarios::corpus`] families), explores each one — a seeded swarm
//! first, then bounded exhaustive enumeration — under the full spec, and on
//! a violation shrinks the failing run with the delta-debugger into a
//! [`Repro`] paired with the descriptor that produced it. The pair is
//! self-contained: the `.scn` line regenerates the scenario, the `.repro`
//! replays the violating schedule, and `Repro::verify` re-checks the
//! recorded property on every CI run thereafter.
//!
//! With [`HuntConfig::ordering_boundary`] set, runs that pass their
//! variant's own checks are additionally checked against **global**
//! `ordering` — the paper's solvability boundary made executable: on
//! cyclic topologies under the pairwise variation, global ordering is the
//! axiom that genuinely fails (arXiv:2208.07650, §6), and this mode makes
//! the hunt surface those runs as first-class counterexamples.

use crate::explorer::found;
use crate::{
    explore, ExploreConfig, Mode, Outcome, Prototype, Repro, Scenario, DEFAULT_SHRINK_BUDGET,
};
use gam_core::spec::{check_all, check_named, SpecViolation};
use gam_core::Variant;
use gam_engine::run_with_source_counted;
use gam_kernel::schedule::{RandomSource, RecordingSource};
use gam_kernel::RunOutcome;
use gam_scenarios::ScnDescriptor;
use std::ops::Range;

/// How hard to explore each descriptor.
#[derive(Debug, Clone)]
pub struct HuntConfig {
    /// Swarm seeds driven through each scenario (recorded, shrinkable).
    pub swarm_seeds: Range<u64>,
    /// Choice depth of the follow-up bounded exhaustive enumeration.
    pub depth: usize,
    /// Run cap of the exhaustive enumeration.
    pub run_cap: u64,
    /// Candidate-run budget of the shrinker, per finding.
    pub shrink_budget: u64,
    /// Also check global `ordering` on runs that pass their own variant —
    /// the solvability-boundary mode (see module docs).
    pub ordering_boundary: bool,
    /// Sleep-set partial-order reduction for the exhaustive phase
    /// (on by default; automatically inert on descriptors with crashes).
    /// The phase runs on the snapshotting DFS engine either way, so the
    /// same run cap covers more distinct behaviors per descriptor.
    pub por: bool,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            swarm_seeds: 0..16,
            depth: 2,
            run_cap: 300,
            shrink_budget: DEFAULT_SHRINK_BUDGET,
            ordering_boundary: false,
            por: true,
        }
    }
}

/// One shrunk counterexample, paired with the descriptor that produced it.
#[derive(Debug, Clone)]
pub struct HuntFinding {
    /// The canonical `gam-scn v1` line of the descriptor (the `.scn` side
    /// of the checked-in pair).
    pub descriptor: String,
    /// The shrunk, replayable run (the `.repro` side of the pair).
    pub repro: Repro,
    /// The violated spec property.
    pub property: String,
    /// Whether the shrunk repro re-verifies (`Repro::verify`): a `false`
    /// here is an *unshrunk* finding — the reduction lost the violation —
    /// and fails the smoke gate.
    pub verified: bool,
    /// Candidate runs the shrinker spent.
    pub shrink_runs: u64,
    /// The swarm seed that found it (0 for exhaustive findings).
    pub seed: u64,
}

/// What hunting one descriptor covered and found.
#[derive(Debug, Clone)]
pub struct HuntOutcome {
    /// The hunted descriptor.
    pub descriptor: ScnDescriptor,
    /// Swarm runs executed.
    pub swarm_runs: u64,
    /// Exhaustive runs executed (0 when the swarm already found something).
    pub exhaustive_runs: u64,
    /// Whether the exhaustive phase covered its whole bounded space.
    pub exhausted: bool,
    /// Substrate steps executed across both phases.
    pub steps: u64,
    /// Findings (at most one per phase; exploration stops at the first).
    pub findings: Vec<HuntFinding>,
}

/// A whole hunt: one [`HuntOutcome`] per descriptor.
#[derive(Debug, Clone)]
pub struct HuntReport {
    /// Per-descriptor outcomes, in input order.
    pub outcomes: Vec<HuntOutcome>,
}

impl HuntReport {
    /// All findings across the hunt.
    pub fn findings(&self) -> impl Iterator<Item = &HuntFinding> {
        self.outcomes.iter().flat_map(|o| o.findings.iter())
    }

    /// Number of findings whose shrunk repro failed to re-verify. The
    /// smoke job gates on this being zero: every counterexample the hunt
    /// reports must replay.
    pub fn unshrunk(&self) -> usize {
        self.findings().filter(|f| !f.verified).count()
    }

    /// Total runs executed across all descriptors and phases.
    pub fn total_runs(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.swarm_runs + o.exhaustive_runs)
            .sum()
    }

    /// Total substrate steps executed.
    pub fn total_steps(&self) -> u64 {
        self.outcomes.iter().map(|o| o.steps).sum()
    }
}

/// The verdict of one run under hunt rules: the variant's own `check_all`,
/// then (in boundary mode) global `ordering` on top.
fn hunt_verdict(
    report: &gam_core::RunReport,
    variant: Variant,
    cfg: &HuntConfig,
) -> Result<(), SpecViolation> {
    check_all(report, variant)?;
    if cfg.ordering_boundary {
        if let Some(verdict) = check_named(report, "ordering") {
            verdict?;
        }
    }
    Ok(())
}

fn finding_from(
    descriptor: &ScnDescriptor,
    scenario: &Scenario,
    schedule: Vec<gam_kernel::ChoiceStep>,
    violation: SpecViolation,
    seed: u64,
    shrink_budget: u64,
) -> HuntFinding {
    let cx = found(scenario, schedule, violation, seed, shrink_budget);
    HuntFinding {
        descriptor: descriptor.render(),
        verified: cx.repro.verify().is_ok(),
        property: cx.violation.property.to_string(),
        repro: cx.repro,
        shrink_runs: cx.shrink_runs,
        seed,
    }
}

/// Hunts one descriptor: swarm phase, then (if nothing was found) bounded
/// exhaustive enumeration. Stops at the first finding of each phase.
pub fn hunt_one(descriptor: &ScnDescriptor, cfg: &HuntConfig) -> HuntOutcome {
    let scenario = Scenario::from_descriptor(descriptor);
    let proto = Prototype::new(&scenario);
    let mut outcome = HuntOutcome {
        descriptor: *descriptor,
        swarm_runs: 0,
        exhaustive_runs: 0,
        exhausted: false,
        steps: 0,
        findings: Vec::new(),
    };
    // Phase 1: recorded seeded swarm, checked under hunt rules — every
    // seed on the one executor, rewound, and through the one report.
    let mut exec = proto.executor();
    let mut report = exec.report(false);
    for seed in cfg.swarm_seeds.clone() {
        let mut source = RecordingSource::new(RandomSource::new(seed));
        proto.reset(&mut exec);
        let (out, consumed) = run_with_source_counted(&mut exec, &mut source, scenario.max_steps);
        outcome.steps += consumed;
        outcome.swarm_runs += 1;
        exec.report_into(&mut report, out == RunOutcome::Quiescent);
        if let Err(violation) = hunt_verdict(&report, scenario.variant, cfg) {
            outcome.findings.push(finding_from(
                descriptor,
                &scenario,
                source.into_log(),
                violation,
                seed,
                cfg.shrink_budget,
            ));
            return outcome;
        }
    }
    // Phase 2: bounded exhaustive enumeration under the stock spec (the
    // boundary re-check is swarm-only; the enumerated space is checked by
    // `check_all` inside the explorer). One thread walks the tree —
    // deterministic, prefix-shared, and (with `cfg.por`) sleep-set pruned,
    // so the run cap buys more coverage.
    if cfg.run_cap == 0 {
        // Swarm-only hunt (e.g. boundary mode): skip even building the
        // explorer's prototype.
        return outcome;
    }
    let explore_cfg = ExploreConfig {
        threads: 1,
        shrink_budget: cfg.shrink_budget,
        dedup_capacity: 0,
        por: cfg.por,
    };
    let mode = Mode::Exhaustive {
        depth: cfg.depth,
        max_runs: cfg.run_cap,
    };
    let stats = explore(&scenario, mode, &explore_cfg);
    outcome.exhaustive_runs = stats.runs;
    outcome.steps += stats.steps_executed;
    outcome.exhausted = stats.outcome == Outcome::Exhausted;
    for cx in stats.violations {
        outcome.findings.push(HuntFinding {
            descriptor: descriptor.render(),
            verified: cx.repro.verify().is_ok(),
            property: cx.violation.property.to_string(),
            repro: cx.repro,
            shrink_runs: cx.shrink_runs,
            seed: 0,
        });
    }
    outcome
}

/// Hunts every descriptor in order.
pub fn hunt(descriptors: &[ScnDescriptor], cfg: &HuntConfig) -> HuntReport {
    HuntReport {
        outcomes: descriptors.iter().map(|d| hunt_one(d, cfg)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_scenarios::{Family, TrafficPlan};

    #[test]
    fn clean_descriptor_hunts_clean() {
        let d = ScnDescriptor::parse("gam-scn v1 family=single(2) budget=20000").unwrap();
        let cfg = HuntConfig {
            swarm_seeds: 0..4,
            depth: 2,
            run_cap: 100,
            ..Default::default()
        };
        let report = hunt(&[d], &cfg);
        assert_eq!(report.findings().count(), 0);
        assert_eq!(report.unshrunk(), 0);
        assert_eq!(report.outcomes[0].swarm_runs, 4);
        assert!(report.outcomes[0].exhaustive_runs > 0);
        assert!(report.total_runs() >= 5);
        assert!(report.total_steps() > 0);
    }

    #[test]
    fn starved_budget_yields_a_verified_shrunk_finding() {
        // A budget this small fails termination on every schedule: the hunt
        // must find it, shrink it, and hand back a pair that re-verifies —
        // the end-to-end proof of the find → shrink → verify pipeline.
        let mut d = ScnDescriptor::new(Family::Two {
            size: 3,
            overlap: 1,
        });
        d.traffic = TrafficPlan::One;
        d.budget = 12;
        let cfg = HuntConfig {
            swarm_seeds: 0..2,
            ..Default::default()
        };
        let outcome = hunt_one(&d, &cfg);
        assert_eq!(outcome.findings.len(), 1);
        let finding = &outcome.findings[0];
        assert_eq!(finding.property, "termination");
        assert!(finding.verified, "shrunk repro re-verifies");
        assert_eq!(finding.descriptor, d.render());
        // the pair is self-contained text
        assert!(finding.repro.to_text().starts_with("gam-repro v1"));
        assert!(finding.descriptor.starts_with("gam-scn v1"));
    }
}
