//! # gam-bench — experiment harnesses
//!
//! Shared workload drivers for the experiment binaries (`table1`, `fig1`,
//! `ablation`, `perf`) and the JSON module their records — and `counts`'s
//! `BENCH_counts.json` — are written with. Each table and figure of the
//! paper is regenerated by one target; see EXPERIMENTS.md for the index.
//! Nothing here reads a clock: wall-clock measurement is `benchmark/`'s.

#![forbid(unsafe_code)]

pub mod json;

use gam_core::{spec, RunReport, Runtime, RuntimeConfig};
use gam_engine::{run_with_source, RuntimeExecutor};
use gam_groups::GroupSystem;
use gam_kernel::schedule::{RotatingSource, ScheduleSource};
use gam_kernel::{FailurePattern, RunOutcome, Time};

/// Multicasts `rounds` messages per group (sources rotating over members)
/// and runs to quiescence (or budget) with every step chosen by `source`
/// (`RotatingSource` for the deterministic fair rotation, a seeded
/// `RandomSource` for a random schedule). All bench workloads flow through
/// the `gam-engine` driver; nothing in this crate steps a substrate
/// directly. Sources are chosen among correct members when possible.
pub fn one_per_group_workload(
    gs: &GroupSystem,
    pattern: FailurePattern,
    config: RuntimeConfig,
    rounds: usize,
    mut source: impl ScheduleSource,
    budget: u64,
) -> RunReport {
    let mut rt = Runtime::new(gs, pattern.clone(), config);
    for round in 0..rounds {
        for (g, members) in gs.iter() {
            let candidates = members & pattern.correct();
            let pool = if candidates.is_empty() {
                members
            } else {
                candidates
            };
            let srcs: Vec<_> = pool.iter().collect();
            rt.multicast(srcs[round % srcs.len()], g, round as u64);
        }
    }
    let mut exec = RuntimeExecutor::new(rt);
    let outcome = run_with_source(&mut exec, &mut source, budget);
    exec.report(outcome == RunOutcome::Quiescent)
}

/// The outcome of one solvability-matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The run quiesced and every checked property held.
    Solved,
    /// The run quiesced but a property failed (property name).
    Violated(&'static str),
    /// The run did not quiesce within its budget (liveness failure).
    Blocked,
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Solved => write!(f, "solved"),
            Outcome::Violated(p) => write!(f, "violated({p})"),
            Outcome::Blocked => write!(f, "blocked"),
        }
    }
}

/// Runs a workload under the fair rotation and classifies the outcome
/// against the checks of the given variant.
pub fn classify(
    gs: &GroupSystem,
    pattern: FailurePattern,
    config: RuntimeConfig,
    budget: u64,
) -> Outcome {
    let report = one_per_group_workload(gs, pattern, config, 1, RotatingSource::default(), budget);
    if !report.quiescent {
        return Outcome::Blocked;
    }
    match spec::check_all(&report, config.variant) {
        Ok(()) => Outcome::Solved,
        Err(v) => Outcome::Violated(match v.property {
            "integrity" => "integrity",
            "ordering" => "ordering",
            "termination" => "termination",
            "minimality" => "minimality",
            "strict-ordering" => "strict-ordering",
            "pairwise-ordering" => "pairwise-ordering",
            _ => "other",
        }),
    }
}

/// A crash pattern hitting the first intersection of the system, if any.
pub fn crash_first_intersection(gs: &GroupSystem, at: Time) -> FailurePattern {
    let mut pattern = FailurePattern::all_correct(gs.universe());
    if let Some(victim) = gs.intersections().first().and_then(|x| (*x).min()) {
        pattern.crash(victim, at);
    }
    pattern
}

#[cfg(test)]
mod tests {
    use super::json::Json;
    use super::*;
    use gam_groups::topology;

    /// Every object key of `value`, nested ones included.
    fn keys<'a>(value: &'a Json, out: &mut Vec<&'a str>) {
        match value {
            Json::Obj(pairs) => {
                for (key, inner) in pairs {
                    out.push(key);
                    keys(inner, out);
                }
            }
            Json::Arr(items) => items.iter().for_each(|inner| keys(inner, out)),
            _ => {}
        }
    }

    /// The committed record is what the `counts` bin says it writes — three
    /// sections, and nothing a clock, a core count or a mode could have
    /// put there — so `git diff --exit-code` on it can be exact.
    #[test]
    fn the_committed_count_record_holds_counts_only() {
        let record = Json::parse(include_str!("../../../BENCH_counts.json")).expect("parses");
        let Json::Obj(sections) = &record else {
            panic!("the record is an object");
        };
        let sections: Vec<&str> = sections.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(sections, ["explore", "serve", "corpus"]);
        let mut all = Vec::new();
        keys(&record, &mut all);
        assert!(all.len() > 100, "a real record: {} keys", all.len());
        for key in all {
            assert!(
                !["_ns", "_per_sec", "_ms"].iter().any(|s| key.ends_with(s))
                    && !["elapsed", "cores", "threads", "quick", "speedup"].contains(&key),
                "{key:?} is not a count"
            );
        }
    }

    #[test]
    fn workload_solves_fig1() {
        let gs = topology::fig1();
        let out = classify(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig::default(),
            1_000_000,
        );
        assert_eq!(out, Outcome::Solved);
    }

    #[test]
    fn classify_reports_blocked_on_tiny_budget() {
        let gs = topology::fig1();
        let out = classify(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig::default(),
            3,
        );
        assert_eq!(out, Outcome::Blocked);
        assert_eq!(out.to_string(), "blocked");
    }

    #[test]
    fn crash_pattern_targets_an_intersection() {
        let gs = topology::fig1();
        let pattern = crash_first_intersection(&gs, Time(2));
        assert_eq!(pattern.faulty().len(), 1);
        let victim = pattern.faulty().min().unwrap();
        assert!(gs
            .intersecting_pairs()
            .iter()
            .any(|(g, h)| gs.intersection(*g, *h).contains(victim)));
    }
}
