//! The hot-loop benchmark behind `BENCH_step_loop.json`: steps/second of
//! driving each substrate through a schedule source, before and after the
//! `gam-engine` unification.
//!
//! Two drivers per substrate:
//!
//! - **native** — the pre-refactor shape: the substrate's own
//!   source-driven loop plus the post-hoc run hash the old explorer
//!   computed (a full rehash of the recorded trace / report after every
//!   run). Kept here *only* as the measured baseline.
//! - **engine** — the unified [`gam_engine::run_with_source`] loop with
//!   the incremental [`gam_engine::digest::Digest`] folded as steps are
//!   taken.
//!
//! Both drivers execute identical seeded-random workloads, so the steps
//! and digests agree; the comparison isolates driver + hashing overhead.
//!
//! A fifth case, `backlog`, is the serving shape those tiny workloads never
//! reach: [`Runtime::run_sustained`] draining 256 preloaded messages on
//! `rand(64,8,450)` — the first descriptor of the gated benchmark's
//! `serve_dense` at seed 7 — where each process holds tens of units in
//! `stable` waiting for their turn to deliver. Its record carries the
//! runtime's ready-set counters, and the bin fails when guard evaluations
//! per step exceed [`GUARDS_PER_STEP_GATE_PERMILLE`]: a count, so the gate
//! can fail on any host.
//!
//! Run with: `cargo run --release -p gam-bench --bin step_loop [-- quick]`
//! Output:   stdout table + `BENCH_step_loop.json` (repo root)

use std::time::{Duration, Instant};

use gam_bench::json::{write_experiment, Json};
use gam_bench::ready_set_json;
use gam_core::distributed::{DistProcess, MuHistory};
use gam_core::{MessageId, Runtime, RuntimeConfig};
use gam_detectors::{MuConfig, MuOracle};
use gam_engine::digest::{fnv1a, trace_hash};
use gam_engine::{run_with_source, Executor, KernelExecutor, RuntimeExecutor};
use gam_explore::Scenario;
use gam_groups::{topology, GroupSystem};
use gam_kernel::schedule::RandomSource;
use gam_kernel::{FailurePattern, RunOutcome, Simulator};
use gam_scenarios::ScnDescriptor;

/// The backlogged serving descriptor (`serve_dense`, seed 7000, batch 1).
const BACKLOG: &str = "gam-scn v1 family=rand(64,8,450) seed=7000 crash=none \
                       traffic=zipf(1200,256) variant=standard budget=2000000";

/// Ceiling on guard evaluations per step of the backlogged run, in
/// permille. Deriving readiness from the `LOG_g` deliver frontiers and
/// refreshing stale cells one at a time costs ≈ 4 per step; a walk over
/// the stable backlog costs ≈ 41.
const GUARDS_PER_STEP_GATE_PERMILLE: u64 = 10_000;

struct Case {
    substrate: &'static str,
    driver: &'static str,
    runs: u64,
    steps: u64,
    /// Steps of the seed-0 run alone: both drivers of a substrate execute
    /// the identical seeded workload, so these must agree exactly.
    seed0_steps: u64,
    elapsed: Duration,
    digest: u64,
}

impl Case {
    fn steps_per_sec(&self) -> u64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0;
        }
        (self.steps as f64 / secs) as u64
    }
}

/// Measures `run` (which returns `(steps, digest)` of one full run) until
/// `budget` of *measured* time accrues. Setup done inside `run` before it
/// starts its own clock is excluded by construction: `run` returns its own
/// elapsed time.
fn measure(
    substrate: &'static str,
    driver: &'static str,
    budget: Duration,
    mut run: impl FnMut(u64) -> (u64, u64, Duration),
) -> Case {
    // warm-up (and fail fast on panics)
    run(u64::MAX);
    let mut case = Case {
        substrate,
        driver,
        runs: 0,
        steps: 0,
        seed0_steps: 0,
        elapsed: Duration::ZERO,
        digest: 0,
    };
    while case.elapsed < budget || case.runs < 3 {
        let (steps, digest, took) = run(case.runs);
        if case.runs == 0 {
            case.seed0_steps = steps;
        }
        case.runs += 1;
        case.steps += steps;
        case.elapsed += took;
        // fold the run digests so the hashing work can't be optimised away
        case.digest = fnv1a([case.digest, digest]);
    }
    case
}

const BUDGET: u64 = 10_000_000;

fn runtime_workload(gs: &GroupSystem) -> Runtime {
    let mut rt = Runtime::new(
        gs,
        FailurePattern::all_correct(gs.universe()),
        RuntimeConfig::default(),
    );
    for (g, members) in gs.iter() {
        rt.multicast(members.min().expect("non-empty group"), g, g.0 as u64);
    }
    rt
}

fn kernel_workload(gs: &GroupSystem) -> Simulator<DistProcess, MuHistory> {
    let pattern = FailurePattern::all_correct(gs.universe());
    let autos: Vec<DistProcess> = gs
        .universe()
        .iter()
        .map(|p| DistProcess::new(p, gs))
        .collect();
    let mu = MuOracle::new(gs, pattern.clone(), MuConfig::default());
    let mut sim = Simulator::new(autos, pattern, MuHistory::new(mu));
    for (i, (g, members)) in gs.iter().enumerate() {
        sim.automaton_mut(members.min().expect("non-empty group"))
            .multicast(MessageId(i as u64), g);
    }
    sim
}

/// Runs the backlogged descriptor to quiescence under the sustained driver;
/// returns the run's steps, the runtime and the time the run took.
fn backlog_run() -> (u64, Runtime, Duration) {
    let d = ScnDescriptor::parse(BACKLOG).expect("valid descriptor");
    let mut rt = Scenario::from_descriptor(&d)
        .with_batch_max(1)
        .runtime_executor()
        .into_runtime();
    let loaded = rt.now().0;
    let start = Instant::now();
    let quiescent = rt.run_sustained(rt.system().universe(), d.budget);
    let took = start.elapsed();
    assert!(quiescent, "the backlogged run quiesces");
    (rt.now().0 - loaded, rt, took)
}

/// The post-hoc kernel run hash of the pre-refactor explorer: a full walk
/// of the recorded trace after the run (the cost the incremental digest
/// removes). Word order as in the old `gam_explore::kernel` module.
fn posthoc_kernel_hash(sim: &Simulator<DistProcess, MuHistory>, quiescent: bool) -> u64 {
    let mut words = vec![u64::from(quiescent)];
    for s in sim.trace().steps() {
        words.push(s.time.0);
        words.push(u64::from(s.pid.0));
        words.push(s.received.map_or(0, |m| m.0 + 1));
    }
    for p in sim.pattern().correct() {
        words.push(u64::from(p.0));
        for m in sim.automaton(p).delivered() {
            words.push(m.0 + 1);
        }
    }
    fnv1a(words)
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let budget = if quick {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(1_000)
    };

    let gs_a = topology::fig1();
    let gs_b = topology::ring(3, 2);

    let cases = [
        // ---- Level A (shared-object runtime) ----------------------------
        measure("runtime", "native", budget, |seed| {
            let mut rt = runtime_workload(&gs_a);
            let mut src = RandomSource::new(seed);
            let start = Instant::now();
            let out = rt.run_with_source(gs_a.universe(), &mut src, BUDGET);
            assert_eq!(out, RunOutcome::Quiescent);
            // pre-refactor hashing: full rehash of the report after the run
            let digest = trace_hash(&rt.report(true));
            (rt.now().0, digest, start.elapsed())
        }),
        measure("runtime", "engine", budget, |seed| {
            let mut exec = RuntimeExecutor::new(runtime_workload(&gs_a));
            let mut src = RandomSource::new(seed);
            let start = Instant::now();
            let out = run_with_source(&mut exec, &mut src, BUDGET);
            assert_eq!(out, RunOutcome::Quiescent);
            (exec.runtime().now().0, exec.state_digest(), start.elapsed())
        }),
        // ---- Level B (message-passing kernel) ---------------------------
        measure("kernel", "native", budget, |seed| {
            let mut sim = kernel_workload(&gs_b).with_schedule_recording();
            let mut src = RandomSource::new(seed);
            let start = Instant::now();
            let out = sim.run_with_source(sim.pattern().correct(), &mut src, BUDGET);
            assert_eq!(out, RunOutcome::Quiescent);
            let digest = posthoc_kernel_hash(&sim, true);
            (sim.trace().total_steps(), digest, start.elapsed())
        }),
        measure("kernel", "engine", budget, |seed| {
            let mut exec = KernelExecutor::new(kernel_workload(&gs_b));
            let mut src = RandomSource::new(seed);
            let start = Instant::now();
            let out = run_with_source(&mut exec, &mut src, BUDGET);
            assert_eq!(out, RunOutcome::Quiescent);
            let (steps, digest) = (exec.sim().trace().total_steps(), exec.state_digest());
            (steps, digest, start.elapsed())
        }),
    ];

    let mut backlog_counters = None;
    let backlog = measure("backlog", "sustained", budget, |_| {
        let (steps, rt, took) = backlog_run();
        backlog_counters = Some((steps, rt.ready_counters()));
        (steps, trace_hash(&rt.report(true)), took)
    });
    let (backlog_steps, counters) = backlog_counters.expect("measure runs at least once");
    let guards_permille = counters.guards_evaluated * 1000 / backlog_steps;

    println!(
        "{:<10} {:<8} {:>8} {:>12} {:>14}",
        "substrate", "driver", "runs", "steps", "steps/sec"
    );
    for c in cases.iter().chain([&backlog]) {
        println!(
            "{:<10} {:<8} {:>8} {:>12} {:>14}",
            c.substrate,
            c.driver,
            c.runs,
            c.steps,
            c.steps_per_sec()
        );
    }
    let ratio = |substrate: &str| {
        let of = |driver: &str| {
            cases
                .iter()
                .find(|c| c.substrate == substrate && c.driver == driver)
                .expect("case exists")
                .steps_per_sec()
        };
        (100 * of("engine")) / of("native").max(1)
    };
    let (rt_pct, k_pct) = (ratio("runtime"), ratio("kernel"));
    println!("\nengine/native: runtime {rt_pct}%, kernel {k_pct}%");
    println!(
        "backlog: {guards_permille} guard evaluations per 1000 steps \
         (gate {GUARDS_PER_STEP_GATE_PERMILLE})"
    );

    let record = Json::obj([
        ("bench", Json::from("step_loop")),
        ("quick", Json::from(quick)),
        ("budget_ms_per_case", Json::from(budget.as_millis() as u64)),
        (
            "cases",
            cases
                .iter()
                .map(|c| {
                    Json::obj([
                        ("substrate", Json::from(c.substrate)),
                        ("driver", Json::from(c.driver)),
                        ("runs", Json::from(c.runs)),
                        ("steps", Json::from(c.steps)),
                        ("elapsed_ns", Json::from(c.elapsed.as_nanos() as u64)),
                        ("steps_per_sec", Json::from(c.steps_per_sec())),
                    ])
                })
                .collect::<Json>(),
        ),
        (
            "backlog",
            Json::obj([
                ("descriptor", Json::from(BACKLOG)),
                ("runs", Json::from(backlog.runs)),
                ("elapsed_ns", Json::from(backlog.elapsed.as_nanos() as u64)),
                ("steps_per_sec", Json::from(backlog.steps_per_sec())),
                (
                    "ready_set",
                    ready_set_json("steps", backlog_steps, counters),
                ),
                (
                    "guards_per_step_gate_permille",
                    Json::from(GUARDS_PER_STEP_GATE_PERMILLE),
                ),
            ]),
        ),
        (
            "engine_vs_native_pct",
            Json::obj([
                ("runtime", Json::from(rt_pct)),
                ("kernel", Json::from(k_pct)),
            ]),
        ),
    ]);

    // identical seeded workloads must take identical step counts under
    // both drivers of a substrate — the engine loop really is the same run
    for pair in cases.chunks(2) {
        assert_eq!(
            pair[0].seed0_steps, pair[1].seed0_steps,
            "{}: native and engine drivers diverged on the seed-0 run",
            pair[0].substrate
        );
        std::hint::black_box(pair[0].digest);
    }

    let text = record.pretty();
    std::fs::write("BENCH_step_loop.json", &text).expect("write BENCH_step_loop.json");
    write_experiment("step_loop.json", &record);
    // round-trip through the vendored parser: the persisted record is
    // well-formed by construction of the smoke check
    let parsed = Json::parse(&text).expect("persisted record parses");
    assert_eq!(
        parsed.get("cases").and_then(Json::as_arr).map(<[_]>::len),
        Some(4)
    );
    assert!(
        guards_permille <= GUARDS_PER_STEP_GATE_PERMILLE,
        "backlogged run: {guards_permille} guard evaluations per 1000 steps, \
         gate {GUARDS_PER_STEP_GATE_PERMILLE} — is a stable backlog being walked again?"
    );
    println!("wrote BENCH_step_loop.json ({} cases + backlog)", 4);
}
