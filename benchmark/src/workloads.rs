//! The seven workloads and what one repetition of each does.
//!
//! A workload is a descriptor template plus the configuration of the driver
//! that serves it. The program under test receives only the descriptor
//! *text* rendered from the run's seed: every repetition starts from
//! `ScnDescriptor::parse`, so parsing, generation and construction are on
//! the clock, as they are for a user who holds a descriptor and wants
//! delivery sequences and a verdict.

use crate::trace::Tracer;
use gam_core::distributed::run_report;
use gam_core::{spec, RunReport, Runtime, RuntimeConfig};
use gam_engine::digest::{fnv1a, trace_hash};
use gam_engine::{run_sustained_par, run_with_source_counted};
use gam_explore::{
    explore_exhaustive_dfs_par, ExploreConfig, ExploreStats, Outcome, Scenario,
    DEFAULT_SHRINK_BUDGET,
};
use gam_kernel::schedule::RandomSource;
use gam_kernel::{FailurePattern, RunOutcome};
use gam_scenarios::ScnDescriptor;
use std::time::{Duration, Instant};

/// The driver a workload's descriptors are served by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Level A: `Runtime::run_sustained` on the preloaded backlog, or
    /// `gam_engine::run_sustained_par` when `threads > 1`.
    Serve { batch_max: u32, threads: usize },
    /// `explore_exhaustive_dfs_par` with one worker, dedup and sleep sets.
    /// `complete` demands that the bounded tree is exhausted.
    Explore {
        depth: usize,
        max_runs: u64,
        complete: bool,
    },
    /// Level B: `Scenario::kernel_executor` under `gam_engine`'s driver
    /// loop and a random schedule seeded like the descriptor.
    LevelB,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the set (one line, also in BENCHMARK.json).
    pub why: &'static str,
    /// Canonical descriptor text with `{seed}` where the seed goes.
    pub template: &'static str,
    /// Descriptors one run renders and cycles through. The cost of a
    /// `rand`/`randacyclic` topology varies with its seed by a quarter and
    /// more between quartiles, so one descriptor per run would measure the
    /// draw, not the code; metrics are medians over the batch.
    pub inputs: usize,
    pub driver: Driver,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "serve_dense",
        why: "Algorithm 1 as stated (one consensus per message) on one dense component: the step loop is most of a repetition, so core run-loop work shows here and almost nowhere else.",
        template: "gam-scn v1 family=rand(64,8,450) seed={seed} crash=none traffic=zipf(1200,256) variant=standard budget=2000000",
        inputs: 64,
        driver: Driver::Serve { batch_max: 1, threads: 1 },
    },
    Workload {
        name: "serve_dense_batched",
        why: "Same descriptors at batch_max=16: the run shrinks to a few ms, leaving construction (groups families, detectors mu, core tables) and the spec check on top; a step-loop gain should barely move it.",
        template: "gam-scn v1 family=rand(64,8,450) seed={seed} crash=none traffic=zipf(1200,256) variant=standard budget=2000000",
        inputs: 32,
        driver: Driver::Serve { batch_max: 16, threads: 1 },
    },
    Workload {
        name: "serve_tree_crashy",
        why: "Fault-injected large-n shape (479 processes, 240 groups, no cyclic family, 4 crashed intersections): the round-robin scan meets mostly idle processes and idle ticks wait on detectors.",
        template: "gam-scn v1 family=randacyclic(240,2) seed={seed} crash=isect(4) traffic=zipf(1100,480) variant=standard budget=2000000",
        inputs: 32,
        driver: Driver::Serve { batch_max: 1, threads: 1 },
    },
    Workload {
        name: "serve_sharded",
        why: "Eight equally loaded components under the 2-thread sharded driver: the only input where shard clone/record/merge work; its 8192-message report makes spec::check_all dominate the verdict time.",
        template: "gam-scn v1 family=multichain(8,4,4) seed={seed} crash=none traffic=uniform(8192) variant=standard budget=20000000",
        inputs: 4,
        driver: Driver::Serve { batch_max: 16, threads: 2 },
    },
    Workload {
        name: "explore_fig1",
        why: "Small state, deep complete tree (depth 6, 65k leaves): snapshot/restore, fingerprint, visited set and sleep sets do the work; option enumeration over 5 processes is cheap.",
        template: "gam-scn v1 family=fig1 seed={seed} crash=none traffic=one variant=standard budget=200000",
        inputs: 1,
        driver: Driver::Explore { depth: 6, max_runs: 2_000_000, complete: true },
    },
    Workload {
        name: "explore_dense",
        why: "Wide state, capped walk (depth 4, 60 leaves): work-item partitioning builds one runtime per first-level option and dominates; snapshots almost none - the inverse of explore_fig1.",
        template: "gam-scn v1 family=rand(32,8,450) seed={seed} crash=none traffic=one variant=standard budget=500000",
        inputs: 4,
        driver: Driver::Explore { depth: 4, max_runs: 60, complete: false },
    },
    Workload {
        name: "levelb_fig1",
        why: "The other substrate behind Executor: kernel simulator + objects (Paxos/ABD/fast log) + core::distributed under a random schedule; guards engine-loop changes against a Level-B regression.",
        template: "gam-scn v1 family=fig1 seed={seed} crash=none traffic=one variant=standard budget=1000000",
        inputs: 32,
        driver: Driver::LevelB,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The run's inputs: descriptor `i` of seed `s` carries seed
    /// `1000·s + i`, so different run seeds share no descriptor.
    pub fn render(&self, seed: u64) -> Vec<String> {
        (0..self.inputs as u64)
            .map(|i| {
                let sub_seed = seed.wrapping_mul(1000).wrapping_add(i);
                self.template.replace("{seed}", &sub_seed.to_string())
            })
            .collect()
    }

    /// One repetition on descriptor text `text`.
    ///
    /// # Errors
    ///
    /// Returns what went wrong when the repetition does not produce a
    /// correct output: malformed descriptor, no quiescence within the
    /// descriptor's budget, a spec violation, an incomplete exploration.
    pub fn rep(&self, text: &str, t: &mut Tracer) -> Result<Rep, String> {
        t.span("rep", |t| match self.driver {
            Driver::Serve { batch_max, threads } => serve_rep(text, batch_max, threads, t),
            Driver::Explore {
                depth,
                max_runs,
                complete,
            } => explore_rep(text, depth, max_runs, complete, t),
            Driver::LevelB => levelb_rep(text, t),
        })
    }
}

/// What a repetition produced, kept after its clocks stopped so that the
/// correctness gate and the traced pass can look at it.
pub enum Output {
    Served {
        rt: Box<Runtime>,
        report: RunReport,
    },
    Explored {
        scenario: Scenario,
        stats: ExploreStats,
    },
    LevelB(LevelBRun),
}

pub struct LevelBRun {
    pub scenario: Scenario,
    pub report: RunReport,
    /// Scheduled steps the driver loop took.
    pub steps: u64,
    /// Network messages the simulator carried.
    pub msgs_sent: u64,
}

pub struct Rep {
    /// Descriptor text → output (delivery sequences, or `ExploreStats`).
    pub e2e: Duration,
    /// Descriptor text → spec verdict. Equal to `e2e` for the explore
    /// workloads, whose check runs inside the call.
    pub verdict: Duration,
    /// Per-process delivery events of the scenario: those in the report,
    /// or — for an exploration, where every checked schedule delivers all of
    /// them — the number the scenario owes.
    pub deliveries: u64,
    /// Digest of the output. Repetitions of one descriptor must agree.
    pub hash: u64,
    pub descriptor: ScnDescriptor,
    pub output: Output,
}

fn parse(text: &str, t: &mut Tracer) -> Result<ScnDescriptor, String> {
    t.span("scenarios.parse", |_| ScnDescriptor::parse(text))
        .map_err(|e| format!("descriptor does not parse: {e}"))
}

/// Per-process delivery events in `report`.
pub fn delivered(report: &RunReport) -> u64 {
    report.delivered.iter().map(Vec::len).sum::<usize>() as u64
}

fn verdict_of(
    report: &RunReport,
    d: &ScnDescriptor,
    quiescent: bool,
    t: &mut Tracer,
) -> Result<(), String> {
    let checked = t.span("core.spec.check_all", |_| {
        spec::check_all(report, d.variant)
    });
    if !quiescent {
        return Err(format!("no quiescence within budget {}", d.budget));
    }
    checked.map_err(|v| format!("spec violation: {v}"))
}

/// Builds the runtime of `d` with every submission preloaded (the backlog
/// the sustained drivers drain) and the descriptor's crash plan installed.
pub fn load_runtime(d: &ScnDescriptor, batch_max: u32, t: &mut Tracer) -> Runtime {
    let g = t.span("scenarios.generate", |_| d.generate());
    let mut rt = t.span("core.runtime_new", |_| {
        let pattern = FailurePattern::from_crashes(g.system.universe(), g.crashes);
        let config = RuntimeConfig {
            variant: d.variant,
            batch_max,
            ..RuntimeConfig::default()
        };
        Runtime::new(&g.system, pattern, config)
    });
    t.span("core.multicast", |_| {
        for (src, group, payload) in g.submissions {
            rt.multicast(src, group, payload);
        }
    });
    rt
}

fn serve_rep(text: &str, batch_max: u32, threads: usize, t: &mut Tracer) -> Result<Rep, String> {
    let start = Instant::now();
    let d = parse(text, t)?;
    let mut rt = load_runtime(&d, batch_max, t);
    let set = rt.system().universe();
    let quiescent = t.span("core.run", |_| {
        if threads > 1 {
            run_sustained_par(&mut rt, set, d.budget, threads)
        } else {
            rt.run_sustained(set, d.budget)
        }
    });
    let report = t.span("core.report", |_| rt.report(quiescent));
    let e2e = start.elapsed();
    let verdict = verdict_of(&report, &d, quiescent, t);
    let verdict_at = start.elapsed();
    verdict?;
    Ok(Rep {
        e2e,
        verdict: verdict_at,
        deliveries: delivered(&report),
        hash: trace_hash(&report),
        descriptor: d,
        output: Output::Served {
            rt: Box::new(rt),
            report,
        },
    })
}

/// The explorer configuration of both explore workloads. `threads` is set
/// so that `GAM_EXPLORE_THREADS` is never consulted.
pub fn explore_config() -> ExploreConfig {
    ExploreConfig {
        threads: 1,
        shrink_budget: DEFAULT_SHRINK_BUDGET,
        dedup_capacity: 1 << 18,
        por: true,
    }
}

fn explore_rep(
    text: &str,
    depth: usize,
    max_runs: u64,
    complete: bool,
    t: &mut Tracer,
) -> Result<Rep, String> {
    let start = Instant::now();
    let d = parse(text, t)?;
    let scenario = t.span("scenarios.generate", |_| Scenario::from_descriptor(&d));
    let stats = t.span("explore.run", |_| {
        explore_exhaustive_dfs_par(&scenario, depth, max_runs, &explore_config())
    });
    let e2e = start.elapsed();
    if let Some(found) = stats.violations.first() {
        return Err(format!(
            "exploration found a violation: {}",
            found.violation
        ));
    }
    if complete && !stats.complete() {
        return Err(format!(
            "exploration incomplete: {:?} after {} runs",
            stats.outcome, stats.runs
        ));
    }
    let owed: usize = scenario
        .submissions
        .iter()
        .map(|(_, g, _)| scenario.system.members(*g).len())
        .sum();
    let hash = fnv1a([
        stats.runs,
        stats.dedup_hits,
        stats.steps_executed,
        stats.steps_avoided,
        stats.snapshots_taken,
        stats.snapshot_bytes,
        stats.snapshot_deep_bytes,
        stats.por_pruned,
        match stats.outcome {
            Outcome::Exhausted => 0,
            Outcome::ViolationFound => 1,
            Outcome::RunCapped => 2,
        },
    ]);
    Ok(Rep {
        e2e,
        verdict: e2e,
        deliveries: owed as u64,
        hash,
        descriptor: d,
        output: Output::Explored { scenario, stats },
    })
}

fn levelb_rep(text: &str, t: &mut Tracer) -> Result<Rep, String> {
    let start = Instant::now();
    let d = parse(text, t)?;
    let scenario = t.span("scenarios.generate", |_| Scenario::from_descriptor(&d));
    let mut exec = t.span("kernel.executor_new", |_| scenario.kernel_executor());
    let (outcome, steps) = t.span("engine.run", |_| {
        run_with_source_counted(
            &mut exec,
            &mut RandomSource::new(d.seed),
            scenario.max_steps,
        )
    });
    let quiescent = outcome == RunOutcome::Quiescent;
    let report = t.span("core.report", |_| {
        run_report(
            exec.sim(),
            &scenario.system,
            &scenario.submissions,
            quiescent,
        )
    });
    let e2e = start.elapsed();
    let verdict = verdict_of(&report, &d, quiescent, t);
    let verdict_at = start.elapsed();
    verdict?;
    Ok(Rep {
        e2e,
        verdict: verdict_at,
        deliveries: delivered(&report),
        hash: trace_hash(&report),
        descriptor: d,
        output: Output::LevelB(LevelBRun {
            msgs_sent: exec.sim().total_messages(),
            scenario,
            report,
            steps,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_descriptors_are_canonical_and_distinct() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            let mut all = Vec::new();
            for seed in [0u64, 7, 8, u64::MAX] {
                let texts = w.render(seed);
                assert_eq!(texts.len(), w.inputs, "{}", w.name);
                for text in texts {
                    let d = ScnDescriptor::parse(&text)
                        .unwrap_or_else(|e| panic!("{}: {text}: {e}", w.name));
                    assert_eq!(d.render(), text, "{} round-trips", w.name);
                    all.push(text);
                }
            }
            let n = all.len();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), n, "{}: seeds share no descriptor", w.name);
        }
        assert!(find("serve_dense").is_some() && find("nope").is_none());
    }

    #[test]
    fn a_malformed_descriptor_is_a_failed_repetition_not_a_panic() {
        let w = find("levelb_fig1").unwrap();
        let err = w
            .rep("gam-scn v1 family=nope", &mut Tracer::new(false))
            .err()
            .unwrap();
        assert!(err.contains("does not parse"), "{err}");
    }
}
