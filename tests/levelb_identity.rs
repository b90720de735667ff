//! Level B identity: a change to how the message-passing substrate *finds*
//! its work (detector samples, log order, open consensus instances, derived
//! views) must not change a single step, message or delivery instant.
//!
//! `tests/fixtures/levelb_hashes.txt` pins, for a grid of descriptors, what
//! two drivers reach on `gam-kernel` + `gam-objects` + `core::distributed`:
//! the engine's public loop under a seeded [`RandomSource`]
//! (`driver=source`, the path the benchmark times) and its fair
//! round-robin loop, [`run_fair`] (`driver=rr`). One line per cell:
//! outcome, steps, final clock, messages sent, the step digest, the
//! delivery trace hash and every process's delivery sequence; then the
//! deterministic work counters of the run. The cells were generated on the
//! commit *before* Level B's derived state was introduced and are replayed
//! here on every commit since. Two of them end `BudgetExhausted`, carried
//! word for word: fig1 `seed=6 crash=none traffic=uniform(16)` under
//! `source` (the non-quiescing seed of ROADMAP item 1), and `ring(3,2)
//! seed=7000 crash=isect(1) traffic=uniform(16)` under `rr`, 199 348 of
//! whose 200 000 steps are null, while `source` quiesces the same
//! descriptor in 2 289 (ROADMAP item 2). Regenerate only for a change that
//! is meant to alter Level B schedules (or, for the last column alone, how
//! much work a step does):
//!
//! ```text
//! cargo test --release --test levelb_identity -- --ignored
//! ```

use gam_kernel::schedule::{ChoiceStep, ScheduleSource};
use gam_kernel::SimCounters;
use genuine_multicast::core::distributed::{run_report, DistCounters, DistProcess, MuHistory};
use genuine_multicast::engine::digest::trace_hash;
use genuine_multicast::engine::run_with_source_counted;
use genuine_multicast::kernel::schedule::RandomSource;
use genuine_multicast::kernel::RunOutcome;
use genuine_multicast::prelude::*;

const TABLE: &str = include_str!("fixtures/levelb_hashes.txt");

const FAMILIES: [&str; 4] = ["fig1", "ring(3,2)", "two(3,1)", "hub(4,3)"];
const TRAFFIC: [&str; 3] = ["one", "uniform(4)", "uniform(16)"];
const CRASHES: [&str; 3] = ["none", "isect(1)", "rand(1)"];
const SEEDS: std::ops::Range<u64> = 7000..7005;
const DRIVERS: [&str; 2] = ["source", "rr"];

/// The ring cell that `rr` runs out of budget on (ROADMAP item 2).
const RING_STUCK: &str = "gam-scn v1 family=ring(3,2) seed=7000 crash=isect(1) traffic=uniform(16) variant=standard budget=200000";
const BUDGET: u64 = 200_000;

fn descriptor(family: &str, seed: u64, crash: &str, traffic: &str) -> String {
    format!(
        "gam-scn v1 family={family} seed={seed} crash={crash} traffic={traffic} variant=standard budget={BUDGET}"
    )
}

/// Every descriptor of the grid, then the non-quiescing one.
fn descriptors(exhausting: &str) -> Vec<String> {
    let mut out = Vec::new();
    for family in FAMILIES {
        for traffic in TRAFFIC {
            for crash in CRASHES {
                for seed in SEEDS {
                    out.push(descriptor(family, seed, crash, traffic));
                }
            }
        }
    }
    out.push(exhausting.to_string());
    out
}

/// What `driver` reaches on `text`, and the simulator it reached it on.
fn run(text: &str, driver: &str) -> (String, Simulator<DistProcess, MuHistory>) {
    let d = ScnDescriptor::parse(text).expect("grid descriptors parse");
    let scenario = Scenario::from_descriptor(&d);
    let mut exec = scenario.kernel_executor();
    let outcome = match driver {
        "source" => run_with_source(&mut exec, &mut RandomSource::new(d.seed), d.budget),
        "rr" => run_fair(&mut exec, d.budget),
        other => panic!("unknown driver {other:?}"),
    };
    let digest = exec.state_digest();
    let sim = exec.into_sim();
    let report = run_report(
        &sim,
        &scenario.system,
        &scenario.submissions,
        outcome == RunOutcome::Quiescent,
    );
    let delivered: Vec<String> = scenario
        .system
        .universe()
        .iter()
        .map(|p| {
            let seq: Vec<String> = sim
                .automaton(p)
                .delivered()
                .iter()
                .map(|m| m.0.to_string())
                .collect();
            seq.join(".")
        })
        .collect();
    let (kernel, hosted) = work(&sim);
    let line = format!(
        "{text} | driver={driver} | outcome={outcome:?} steps={} now={} msgs={} digest={digest:016x} trace={:016x} delivered={} | null_steps={} receives={} fd_sampled={} fd_reused={} instances_visited={} log_order_walks={}",
        sim.trace().total_steps(),
        sim.now().0,
        sim.total_messages(),
        trace_hash(&report),
        delivered.join("/"),
        kernel.null_steps,
        kernel.receives,
        kernel.fd_sampled,
        kernel.fd_reused,
        hosted.instances_visited,
        hosted.log_order_walks,
    );
    (line, sim)
}

/// The simulator's work counters, and those of its processes summed.
fn work(sim: &Simulator<DistProcess, MuHistory>) -> (SimCounters, DistCounters) {
    let mut hosted = DistCounters::default();
    for p in sim.universe() {
        let of_p = sim.automaton(p).counters();
        hosted.instances_visited += of_p.instances_visited;
        hosted.log_order_walks += of_p.log_order_walks;
    }
    (sim.counters(), hosted)
}

/// One line of the table.
fn cell(text: &str, driver: &str) -> String {
    run(text, driver).0
}

fn pinned_cells() -> impl Iterator<Item = &'static str> {
    TABLE.lines().filter(|l| !l.starts_with('#'))
}

#[test]
fn every_cell_replays_to_the_pinned_run() {
    // Debug builds hold the derived state of `DistProcess` and every
    // open-instance set against its from-scratch derivation after every
    // step: they leave the cells that run out the 200 000-step budget to
    // release builds.
    let replayed = |line: &str| !cfg!(debug_assertions) || !line.contains("BudgetExhausted");
    let (mut cells, mut exhausted) = (0, 0);
    for pinned in pinned_cells() {
        cells += 1;
        exhausted += usize::from(pinned.contains("outcome=BudgetExhausted"));
        if !replayed(pinned) {
            continue;
        }
        let mut parts = pinned.split(" | ");
        let (text, driver) = (
            parts.next().expect("descriptor"),
            parts
                .next()
                .and_then(|d| d.strip_prefix("driver="))
                .expect("driver=D"),
        );
        assert_eq!(
            cell(text, driver),
            pinned,
            "this commit (left) left the pinned run (right)"
        );
    }
    let grid = FAMILIES.len() * TRAFFIC.len() * CRASHES.len() * SEEDS.count() + 1;
    assert_eq!(cells, grid * DRIVERS.len(), "the table covers the grid");
    assert_eq!(exhausted, 2, "both stuck cells are still pinned");
}

/// A Level B step pays for what it touches. Counts, so this fails on any
/// host: on the pinned sixteen-message fig1 run no process queries `μ` more
/// than once (the crash-free default history never moves), and a step
/// visits the few consensus instances that are open at the stepping
/// process, not the thousands the run decides.
#[test]
fn a_step_samples_mu_once_and_visits_open_instances_only() {
    let (line, sim) = run(&descriptor("fig1", 7000, "none", "uniform(16)"), "source");
    assert!(line.contains("outcome=Quiescent"), "{line}");
    assert!(pinned_cells().any(|pinned| pinned == line), "a pinned cell");
    let (kernel, hosted) = work(&sim);
    let n = sim.universe().len() as u64;
    assert!(kernel.fd_sampled <= n, "{kernel:?}");
    assert_eq!(kernel.fd_sampled + kernel.fd_reused, kernel.steps);
    assert!(
        hosted.instances_visited <= 4 * kernel.steps,
        "{hosted:?} over {} steps",
        kernel.steps
    );
}

#[test]
#[ignore = "rewrites tests/fixtures/levelb_hashes.txt from this commit's behaviour"]
fn regenerate_levelb_hashes() {
    // ROADMAP item 1: 1–6% of fig1 `uniform(16)` seeds never quiesce. Scan
    // for the first that exhausts the budget under the benchmark's driver.
    let exhausting = (0u64..)
        .map(|seed| descriptor("fig1", seed, "none", "uniform(16)"))
        .find(|text| cell(text, "source").contains("outcome=BudgetExhausted"))
        .expect("some seed exhausts the budget");
    assert!(cell(RING_STUCK, "rr").contains("outcome=BudgetExhausted"));
    let mut table = format!(
        "# Level B identity table; see tests/levelb_identity.rs.\n\
         # Cells that exhaust the budget: {exhausting} under driver=source (ROADMAP item 1),\n\
         # and {RING_STUCK} under driver=rr (ROADMAP item 2).\n\
         # Columns 1-3 were generated at 43a24b2, the parent of the commit that made Level B's\n\
         # derived state, except the rr digests of five two(3,1) crash=rand(1) cells: rr became\n\
         # the engine's fair loop, whose digest also folds a step whose process had just crashed.\n\
         # The work counters of column 4 did not exist there and are this tree's.\n"
    );
    for text in descriptors(&exhausting) {
        for driver in DRIVERS {
            table += &cell(&text, driver);
            table.push('\n');
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/levelb_hashes.txt"
    );
    std::fs::write(path, table).expect("write the table");
}

/// What a Level B step costs, and whether it costs the same late in a run
/// as early: nanoseconds per step of the engine's loop on fig1 under a
/// seeded random source, overall and by quarter of the run (EXPERIMENTS.md,
/// "Level B step cost"). Prints; asserts nothing a host could fail.
///
/// ```text
/// cargo test --release --test levelb_identity -- --ignored step_cost --nocapture
/// ```
#[test]
#[ignore = "a measurement: prints ns per step by quarter of the run"]
#[expect(
    clippy::disallowed_types,
    reason = "a wall-clock measurement, printed and never compared: \
              no digest, count or verdict reads it"
)]
fn step_cost_by_quarter() {
    use std::time::{Duration, Instant};
    const RUNS: u32 = 300;
    for traffic in TRAFFIC {
        let text = descriptor("fig1", 7000, "none", traffic);
        let d = ScnDescriptor::parse(&text).expect("grid descriptors parse");
        let scenario = Scenario::from_descriptor(&d);
        let steps = {
            let mut exec = scenario.kernel_executor();
            let (outcome, steps) =
                run_with_source_counted(&mut exec, &mut RandomSource::new(d.seed), d.budget);
            assert_eq!(outcome, RunOutcome::Quiescent);
            steps
        };
        let mut quarters = [Duration::ZERO; 4];
        let mut options = Vec::new();
        for _ in 0..RUNS {
            let mut exec = scenario.kernel_executor();
            let mut source = RandomSource::new(d.seed);
            for (q, spent) in quarters.iter_mut().enumerate() {
                let (from, to) = (steps * q as u64 / 4, steps * (q as u64 + 1) / 4);
                let started = Instant::now();
                for _ in from..to {
                    exec.enabled_actions(&mut options);
                    let (idx, choice) = source.next_choice(&options).expect("random never stops");
                    exec.step(ChoiceStep {
                        pid: options[idx].0,
                        choice,
                    });
                }
                *spent += started.elapsed();
            }
            exec.enabled_actions(&mut options);
            assert!(options.is_empty(), "the replayed run quiesces where it did");
        }
        let per_step = |t: Duration, n: u64| t.as_nanos() as f64 / (n * u64::from(RUNS)) as f64;
        let by_quarter: Vec<f64> = (0..4u64)
            .map(|q| per_step(quarters[q as usize], steps * (q + 1) / 4 - steps * q / 4))
            .collect();
        println!(
            "fig1 traffic={traffic}: {steps} steps, {:.0} ns/step; by quarter {:.0} / {:.0} / {:.0} / {:.0}; last/first {:.2}",
            per_step(quarters.iter().sum(), steps),
            by_quarter[0],
            by_quarter[1],
            by_quarter[2],
            by_quarter[3],
            by_quarter[3] / by_quarter[0],
        );
    }
}
