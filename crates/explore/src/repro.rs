//! Self-contained, replayable counterexamples.
//!
//! A [`Repro`] bundles everything a run needs — topology, failure pattern,
//! submissions, variant, budget and the recorded schedule — in a stable
//! line-oriented text format, so a counterexample found by the explorer can
//! be pasted into `tests/fixtures/` and replayed byte-identically by
//! `tests/regressions.rs` forever after.
//!
//! ```text
//! gam-repro v1
//! variant standard
//! processes 6
//! group 0 1 2 3
//! group 2 3 4 5
//! crash 2 40
//! submit 0 0 7
//! seed 17
//! budget 200000
//! property ordering
//! schedule 1:0 2:1 0:0
//! ```
//!
//! `property` names the spec axiom the schedule violates (`-` for a clean
//! run); `schedule` lines (there may be several) hold `pid:choice` pairs
//! and concatenate in order. An optional `batch <width>` line (after
//! `budget`) records a Level-A consensus batching width greater than 1;
//! unbatched repros omit it, so pre-batching fixtures render unchanged.

use crate::trace_hash;
use crate::Scenario;
use gam_core::spec::{check_all, check_named};
use gam_core::{RunReport, Variant};
use gam_engine::replay;
use gam_groups::{GroupId, GroupSystem};
use gam_kernel::schedule::ChoiceStep;
use gam_kernel::{ProcessId, ProcessSet, RunOutcome, Time};
use std::fmt::Write as _;

/// A replayable run: scenario + schedule + provenance.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The scenario of the run.
    pub scenario: Scenario,
    /// The recorded schedule prefix; the run completes with the fair
    /// round-robin tail.
    pub schedule: Vec<ChoiceStep>,
    /// Provenance: the swarm seed (or 0) that produced the schedule.
    pub seed: u64,
    /// The spec property this schedule violates, if any.
    pub property: Option<String>,
}

impl Repro {
    /// Replays the run: the recorded schedule, then the fair tail, within
    /// the scenario's budget.
    pub fn replay(&self) -> RunReport {
        let mut exec = self.scenario.runtime_executor();
        let out = replay(&mut exec, &self.schedule, self.scenario.max_steps);
        exec.report(out == RunOutcome::Quiescent)
    }

    /// Replays and digests the run (see [`trace_hash`]).
    pub fn trace_hash(&self) -> u64 {
        trace_hash(&self.replay())
    }

    /// Replays the run and checks that its verdict matches [`Repro::property`]:
    /// a clean repro must pass `spec::check_all`, a counterexample must
    /// still violate the recorded property. A property outside the
    /// variant's `check_all` set (e.g. global `ordering` recorded against a
    /// pairwise-variant scenario — the solvability-boundary shape) is
    /// re-checked through the targeted `spec::check_named` checker.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch.
    pub fn verify(&self) -> Result<RunReport, String> {
        let report = self.replay();
        let verdict = check_all(&report, self.scenario.variant);
        match (&self.property, verdict) {
            (None, Ok(())) => Ok(report),
            (None, Err(v)) => Err(format!("clean repro now violates the spec: {v}")),
            (Some(p), Err(v)) if v.property == p => Ok(report),
            (Some(p), other) => match check_named(&report, p) {
                Some(Err(v)) if v.property == p => Ok(report),
                Some(_) | None => match other {
                    Err(v) => Err(format!("repro expected to violate {p}, but violated: {v}")),
                    Ok(()) => Err(format!("repro no longer violates {p}")),
                },
            },
        }
    }

    /// Serializes to the `gam-repro v1` text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("gam-repro v1\n");
        let variant = match self.scenario.variant {
            Variant::Standard => "standard",
            Variant::Strict => "strict",
            Variant::Pairwise => "pairwise",
        };
        let _ = writeln!(out, "variant {variant}");
        let _ = writeln!(out, "processes {}", self.scenario.system.universe().len());
        for (_, members) in self.scenario.system.iter() {
            let ids: Vec<String> = members.iter().map(|p| p.0.to_string()).collect();
            let _ = writeln!(out, "group {}", ids.join(" "));
        }
        for (p, t) in &self.scenario.crashes {
            let _ = writeln!(out, "crash {} {}", p.0, t.0);
        }
        for (src, g, payload) in &self.scenario.submissions {
            let _ = writeln!(out, "submit {} {} {}", src.0, g.0, payload);
        }
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "budget {}", self.scenario.max_steps);
        // Written only when batching is on: pre-batching fixtures keep
        // rendering (and replaying) byte-identically.
        if self.scenario.batch_max > 1 {
            let _ = writeln!(out, "batch {}", self.scenario.batch_max);
        }
        let _ = writeln!(out, "property {}", self.property.as_deref().unwrap_or("-"));
        // Schedules can be long: chunk them into readable lines.
        for chunk in self.schedule.chunks(16) {
            let pairs: Vec<String> = chunk
                .iter()
                .map(|s| format!("{}:{}", s.pid.0, s.choice))
                .collect();
            let _ = writeln!(out, "schedule {}", pairs.join(" "));
        }
        out
    }

    /// Parses the `gam-repro v1` text format (inverse of [`Repro::to_text`];
    /// blank lines and `#` comments are ignored).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Repro, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        if lines.next() != Some("gam-repro v1") {
            return Err("missing `gam-repro v1` header".into());
        }
        let mut variant = Variant::Standard;
        let mut processes: Option<usize> = None;
        let mut groups: Vec<ProcessSet> = Vec::new();
        let mut crashes = Vec::new();
        let mut submissions = Vec::new();
        let mut seed = 0u64;
        let mut budget = 100_000u64;
        let mut batch_max = 1u32;
        let mut property = None;
        let mut schedule = Vec::new();
        for line in lines {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "variant" => {
                    variant = match rest {
                        "standard" => Variant::Standard,
                        "strict" => Variant::Strict,
                        "pairwise" => Variant::Pairwise,
                        other => return Err(format!("unknown variant {other:?}")),
                    }
                }
                "processes" => processes = Some(parse_num(rest)? as usize),
                "group" => {
                    let mut members = ProcessSet::new();
                    for tok in rest.split_whitespace() {
                        members.insert(ProcessId(parse_num(tok)? as u32));
                    }
                    groups.push(members);
                }
                "crash" => {
                    let nums = parse_nums(rest, 2)?;
                    crashes.push((ProcessId(nums[0] as u32), Time(nums[1])));
                }
                "submit" => {
                    let nums = parse_nums(rest, 3)?;
                    submissions.push((ProcessId(nums[0] as u32), GroupId(nums[1] as u32), nums[2]));
                }
                "seed" => seed = parse_num(rest)?,
                "budget" => budget = parse_num(rest)?,
                "batch" => batch_max = parse_num(rest)? as u32,
                "property" => property = (rest != "-").then(|| rest.to_string()),
                "schedule" => {
                    for tok in rest.split_whitespace() {
                        let (pid, choice) = tok
                            .split_once(':')
                            .ok_or_else(|| format!("malformed schedule entry {tok:?}"))?;
                        schedule.push(ChoiceStep {
                            pid: ProcessId(parse_num(pid)? as u32),
                            choice: parse_num(choice)? as usize,
                        });
                    }
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        let n = processes.ok_or("missing `processes` line")?;
        if groups.is_empty() {
            return Err("missing `group` lines".into());
        }
        let system = GroupSystem::new(ProcessSet::first_n(n), groups);
        Ok(Repro {
            scenario: Scenario {
                system,
                crashes,
                submissions,
                variant,
                max_steps: budget,
                batch_max,
            },
            schedule,
            seed,
            property,
        })
    }
}

fn parse_num(tok: &str) -> Result<u64, String> {
    tok.parse()
        .map_err(|_| format!("expected a number, got {tok:?}"))
}

fn parse_nums(rest: &str, want: usize) -> Result<Vec<u64>, String> {
    let nums: Vec<u64> = rest
        .split_whitespace()
        .map(parse_num)
        .collect::<Result<_, _>>()?;
    if nums.len() != want {
        return Err(format!("expected {want} numbers in {rest:?}"));
    }
    Ok(nums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam_groups::topology;
    use gam_kernel::schedule::{RandomSource, RecordingSource};

    fn sample() -> Repro {
        let scenario = Scenario {
            system: topology::two_overlapping(3, 1),
            crashes: vec![(ProcessId(4), Time(50))],
            submissions: vec![(ProcessId(0), GroupId(0), 7), (ProcessId(4), GroupId(1), 8)],
            variant: Variant::Standard,
            max_steps: 50_000,
            batch_max: 1,
        };
        let mut source = RecordingSource::new(RandomSource::new(17));
        let _ = scenario.run(&mut source);
        Repro {
            scenario,
            schedule: source.into_log(),
            seed: 17,
            property: None,
        }
    }

    #[test]
    fn text_round_trip_preserves_replay() {
        let repro = sample();
        let text = repro.to_text();
        let parsed = Repro::parse(&text).expect("parses");
        assert_eq!(parsed.schedule, repro.schedule);
        assert_eq!(parsed.seed, repro.seed);
        assert_eq!(parsed.scenario.system, repro.scenario.system);
        assert_eq!(parsed.trace_hash(), repro.trace_hash());
        assert_eq!(parsed.to_text(), text, "serialization is canonical");
    }

    #[test]
    fn replay_is_deterministic() {
        let repro = sample();
        assert_eq!(repro.trace_hash(), repro.trace_hash());
        repro.verify().expect("clean repro verifies");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Repro::parse("not a repro").is_err());
        assert!(Repro::parse("gam-repro v1\nprocesses 2\n").is_err());
        assert!(Repro::parse("gam-repro v1\nvariant bogus\n").is_err());
        assert!(Repro::parse("gam-repro v1\nprocesses 2\ngroup 0 1\nschedule x\n").is_err());
    }
}
