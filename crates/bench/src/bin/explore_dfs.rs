//! The prefix-sharing benchmark behind `BENCH_explore_dfs.json`: the same
//! bounded fig1 tree enumerated by the restart-from-scratch odometer engine
//! and the snapshotting DFS engine, with and without dedup pruning and
//! sleep-set partial-order reduction.
//!
//! Up to five configurations per depth, all covering the identical leaf
//! set (asserted) except the POR pass, which covers a sound quotient of
//! it:
//!
//! - `odometer-seq` — the sequential reference loop;
//! - `odometer-dedup` — the parallel pool at one worker with the visited
//!   set on (deterministic hit count);
//! - `dfs-seq` — the snapshotting DFS, no dedup;
//! - `dfs-dedup` — the DFS pool at one worker with the visited set on;
//! - `dfs-por` — `dfs-dedup` plus sleep-set partial-order reduction, the
//!   configuration the hunt ships with.
//!
//! The restart engines are only run up to `ODOMETER_MAX_DEPTH`; past that
//! (fig1 depth 6–7) the DFS engines must *complete* on their own and the
//! restart baseline is `dfs-dedup`'s exact odometer-equivalent cost
//! (`steps_executed + steps_avoided`, verified equal to the real odometer
//! at the shallow depths). A `rand(64,8,450)` corpus-family row measures
//! the copy-on-write snapshot gate on a 64-process state: bytes actually
//! copied per checkpoint must be ≥10× below the deep-`Clone` baseline.
//! That state has ~221 enabled actions at every level, so its depth-4
//! space is ~10⁹ schedules; the row runs under its own run cap and
//! "completes" by draining the cap, not by exhausting the space — the
//! gate is bytes per checkpoint, not coverage.
//!
//! Each scenario also records the ready-set counters of one fair run
//! (`ready_set`: rows re-derived, patched cell by cell and reused over the
//! run's steps, guards evaluated and passed in total and per step,
//! breakpoint flushes) — what option enumeration costs per step on that
//! state, as deterministic as the step counts.
//!
//! The headline metrics are substrate **steps executed** — deterministic,
//! machine-independent — and **snapshot bytes copied**, with wall-clock
//! reported alongside. Gates: at every fig1 depth both `dfs-dedup` and
//! `dfs-por` must reduce steps ≥40% vs the row's restart baseline, the
//! deepest fig1 row must complete under the run cap, and the rand row's
//! shallow/deep snapshot-byte ratio must be ≥10×.
//!
//! Every pass also records `chunk_copies` — state chunks copied element by
//! element, on a write after a checkpoint or on a restore's copy-back — in
//! total and per run (`chunk_copies_per_run_milli`): what backtracking
//! costs in memory traffic, as a count that repeats exactly on any host.
//! Both modes run fig1 depth 5 `dfs-por` for the top-level
//! `chunk_copies_gate`; CI's `explore-dfs-smoke` fails when its per-run
//! figure exceeds the committed record's.
//!
//! Run with: `cargo run --release -p gam-bench --bin explore_dfs
//!            [-- quick] [--depth N]`
//! Output:   stdout table + `BENCH_explore_dfs.json` (repo root)

use std::time::Instant;

use gam_bench::json::{write_experiment, Json};
use gam_engine::run_with_source_counted;
use gam_explore::{
    explore_exhaustive, explore_exhaustive_dfs, explore_exhaustive_dfs_par, explore_exhaustive_par,
    ExploreConfig, ExploreStats, Scenario, DEFAULT_SHRINK_BUDGET,
};
use gam_kernel::schedule::RotatingSource;
use gam_scenarios::{fixture, Family, ScnDescriptor, TrafficPlan};

/// Deepest fig1 row that still runs the O(runs × depth) restart engines;
/// past this only the DFS engines are measured.
const ODOMETER_MAX_DEPTH: usize = 5;

fn flag_value(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn config(dedup_capacity: usize, por: bool) -> ExploreConfig {
    ExploreConfig {
        threads: 1,
        dedup_capacity,
        por,
        ..ExploreConfig::default()
    }
}

struct Measured {
    name: &'static str,
    stats: ExploreStats,
    elapsed_ns: u128,
}

fn measure(name: &'static str, f: impl FnOnce() -> ExploreStats) -> Measured {
    let start = Instant::now();
    let stats = f();
    let elapsed_ns = start.elapsed().as_nanos();
    // No violations on any row; the fig1 rows additionally assert full
    // coverage below (the rand row is run-capped by design).
    assert!(
        stats.violations.is_empty(),
        "{name}: {:?}",
        stats.violations
    );
    Measured {
        name,
        stats,
        elapsed_ns,
    }
}

fn print_pass(m: &Measured, baseline: u64) {
    let reduction = reduction_permille(baseline, m.stats.steps_executed);
    println!(
        "  {:<16} {:>8} runs  {:>10} steps  (-{:>2}.{:01}% vs baseline)  {:>7} snapshots  {:>12} snap bytes  {:>8} pruned  {:>7} dedup hits  {} ms",
        m.name,
        m.stats.runs,
        m.stats.steps_executed,
        reduction / 10,
        reduction % 10,
        m.stats.snapshots_taken,
        m.stats.snapshot_bytes,
        m.stats.por_pruned,
        m.stats.dedup_hits,
        m.elapsed_ns / 1_000_000,
    );
}

fn reduction_permille(baseline: u64, steps: u64) -> u64 {
    (baseline - baseline.min(steps)) * 1000 / baseline.max(1)
}

fn pass_json(m: &Measured, baseline: u64) -> Json {
    Json::obj([
        ("name", Json::from(m.name)),
        ("runs", Json::from(m.stats.runs)),
        ("steps_executed", Json::from(m.stats.steps_executed)),
        ("steps_avoided", Json::from(m.stats.steps_avoided)),
        (
            "steps_avoided_permille",
            Json::from(m.stats.steps_avoided_permille()),
        ),
        ("snapshots_taken", Json::from(m.stats.snapshots_taken)),
        ("snapshot_bytes", Json::from(m.stats.snapshot_bytes)),
        (
            "snapshot_deep_bytes",
            Json::from(m.stats.snapshot_deep_bytes),
        ),
        (
            "snapshot_bytes_peak",
            Json::from(m.stats.snapshot_bytes_peak),
        ),
        ("por_pruned", Json::from(m.stats.por_pruned)),
        ("dedup_hits", Json::from(m.stats.dedup_hits)),
        ("dedup_evictions", Json::from(m.stats.dedup_evictions)),
        ("chunk_copies", Json::from(m.stats.chunk_copies)),
        (
            "chunk_copies_per_run_milli",
            Json::from(chunk_copies_per_run_milli(&m.stats)),
        ),
        ("elapsed_ns", Json::from(m.elapsed_ns as u64)),
        (
            "steps_reduction_permille",
            Json::from(reduction_permille(baseline, m.stats.steps_executed)),
        ),
    ])
}

/// Chunks copied per run, in thousandths.
fn chunk_copies_per_run_milli(stats: &ExploreStats) -> u64 {
    (stats.chunk_copies * 1000)
        .checked_div(stats.runs)
        .unwrap_or(0)
}

/// Depth of the fig1 `dfs-por` pass behind `chunk_copies_gate`.
const GATE_DEPTH: usize = 5;

/// The ready-set counters of one fair run of `scenario`.
fn ready_set_json(scenario: &Scenario) -> Json {
    let mut exec = scenario.runtime_executor();
    let (_, steps) = run_with_source_counted(
        &mut exec,
        &mut RotatingSource::default(),
        scenario.max_steps,
    );
    gam_bench::ready_set_json("fair_run_steps", steps, exec.runtime().ready_counters())
}

/// The snapshot-byte ratio of a pass: deep-`Clone` baseline bytes over
/// bytes actually copied (integer division; 0 when nothing was copied).
fn shallow_ratio(stats: &ExploreStats) -> u64 {
    stats
        .snapshot_deep_bytes
        .checked_div(stats.snapshot_bytes)
        .unwrap_or(0)
}

/// The `rand(64,8,450)` corpus-family descriptor: 64 processes, 8
/// seeded-random groups at density 0.45 — the "large flattened state"
/// regime the copy-on-write snapshots exist for. A single multicast: the
/// gate measures bytes per checkpoint on a wide state (where every group
/// holds ~29 members), not traffic volume, and one unit already makes
/// every enumeration step scan the full 64-process state.
fn rand_scenario() -> Scenario {
    let mut d = ScnDescriptor::new(Family::Rand {
        n: 64,
        k: 8,
        density_permille: 450,
    });
    d.traffic = TrafficPlan::One;
    d.budget = 500_000;
    Scenario::from_descriptor(&d)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "quick");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_depth = flag_value(&args, "--depth").unwrap_or(if quick { 3 } else { 6 }) as usize;
    let depths: Vec<usize> = (3..=max_depth.max(3)).collect();
    // Sized so the deepest default row (fig1 depth 6, ~0.8M leaves) and a
    // `--depth 7` row (~7.5M) complete rather than cap.
    let run_cap = if max_depth >= 7 {
        20_000_000
    } else {
        2_000_000
    };
    let scenario = Scenario::one_per_group(&fixture("fig1").system(), 200_000);

    let mut rows = Vec::new();
    let mut gate_permille = 0u64;
    let mut por_gate_permille = 0u64;
    let mut copies_gate = None;
    for &depth in &depths {
        println!("fig1, depth {depth} (run cap {run_cap}):");
        let shallow = depth <= ODOMETER_MAX_DEPTH;
        let mut passes = Vec::new();
        if shallow {
            passes.push(measure("odometer-seq", || {
                explore_exhaustive(&scenario, depth, run_cap, DEFAULT_SHRINK_BUDGET)
            }));
            passes.push(measure("odometer-dedup", || {
                explore_exhaustive_par(&scenario, depth, run_cap, &config(1 << 18, false))
            }));
            passes.push(measure("dfs-seq", || {
                explore_exhaustive_dfs(&scenario, depth, run_cap, DEFAULT_SHRINK_BUDGET)
            }));
        }
        passes.push(measure("dfs-dedup", || {
            explore_exhaustive_dfs_par(&scenario, depth, run_cap, &config(1 << 18, false))
        }));
        passes.push(measure("dfs-por", || {
            explore_exhaustive_dfs_par(&scenario, depth, run_cap, &config(1 << 18, true))
        }));
        let dfs_dedup = &passes[passes.len() - 2];
        let dfs_por = &passes[passes.len() - 1];
        if depth == GATE_DEPTH {
            copies_gate = Some(dfs_por.stats.clone());
        }

        // Every non-POR configuration enumerates the identical leaf set
        // and completes; POR covers a quotient of it (never more leaves).
        for m in &passes {
            assert!(m.stats.complete(), "{}: hit the run cap", m.name);
            if m.name != "dfs-por" {
                assert_eq!(
                    m.stats.runs, dfs_dedup.stats.runs,
                    "{}: coverage diverged",
                    m.name
                );
            }
        }
        assert!(
            dfs_por.stats.runs <= dfs_dedup.stats.runs,
            "POR explored more leaves than plain DFS"
        );
        assert!(dfs_por.stats.por_pruned > 0, "POR slept nothing on fig1");

        // The restart baseline: the measured odometer-seq cost at shallow
        // depths; past ODOMETER_MAX_DEPTH, dfs-dedup's exact
        // odometer-equivalent cost (verified equal to the real restart
        // engine at every shallow depth below).
        let (baseline, baseline_name) = if shallow {
            let odo_seq = &passes[0];
            let odo_dedup = &passes[1];
            let dfs_seq = &passes[2];
            assert_eq!(
                dfs_seq.stats.steps_executed + dfs_seq.stats.steps_avoided,
                odo_seq.stats.steps_executed,
                "dfs-seq accounting must close"
            );
            assert_eq!(dfs_dedup.stats.dedup_hits, odo_dedup.stats.dedup_hits);
            assert_eq!(
                dfs_dedup.stats.steps_executed + dfs_dedup.stats.steps_avoided,
                odo_dedup.stats.steps_executed,
                "dfs-dedup accounting must close"
            );
            (odo_seq.stats.steps_executed, "odometer-seq")
        } else {
            (
                dfs_dedup.stats.steps_executed + dfs_dedup.stats.steps_avoided,
                "odometer-dedup-equivalent",
            )
        };

        for m in &passes {
            print_pass(m, baseline);
        }
        gate_permille = reduction_permille(baseline, dfs_dedup.stats.steps_executed);
        por_gate_permille = reduction_permille(baseline, dfs_por.stats.steps_executed);
        // The shipping configuration — dedup plus POR — meets the 40%
        // steps-executed gate at *every* depth; dedup alone only has to
        // meet it at the deepest row (the pre-POR headline), where prefix
        // sharing has had room to compound.
        assert!(
            por_gate_permille >= 400,
            "dfs-por reduced steps by only {}.{:01}% at depth {depth} (gate: 40%)",
            por_gate_permille / 10,
            por_gate_permille % 10,
        );
        rows.push(Json::obj([
            ("depth", Json::from(depth as u64)),
            ("runs", Json::from(dfs_dedup.stats.runs)),
            ("baseline", Json::from(baseline_name)),
            ("baseline_steps", Json::from(baseline)),
            (
                "configs",
                Json::Arr(passes.iter().map(|m| pass_json(m, baseline)).collect()),
            ),
            ("dfs_dedup_reduction_permille", Json::from(gate_permille)),
            ("dfs_por_reduction_permille", Json::from(por_gate_permille)),
        ]));
    }

    // The copy-count gate's pass, unless the depth ladder already ran it
    // (quick mode stops at depth 3).
    let copies_gate = copies_gate.unwrap_or_else(|| {
        let cfg = config(1 << 18, true);
        measure("dfs-por", || {
            explore_exhaustive_dfs_par(&scenario, GATE_DEPTH, run_cap, &cfg)
        })
        .stats
    });
    assert!(copies_gate.complete(), "gate pass hit the run cap");
    println!(
        "fig1, depth {GATE_DEPTH}, dfs-por: {} chunk copies over {} runs ({} per 1000 runs)",
        copies_gate.chunk_copies,
        copies_gate.runs,
        chunk_copies_per_run_milli(&copies_gate)
    );

    // The copy-on-write snapshot row: a 64-process seeded-random state
    // where a deep `Clone` per branch point is O(state). Bytes actually
    // copied must be ≥10× below that baseline.
    let rand = rand_scenario();
    let rand_depth = 4;
    // ~47 ms per leaf on this state (each run quiesces in ~950 substrate
    // steps); the cap sizes the row to seconds, not coverage. Depth 4
    // leaves two free levels past the pinned 2-digit item prefixes, so a
    // capped walk crosses *several* branch points: the first checkpoint
    // seals the (still unshared) initialization writes and pays for them,
    // the rest copy only the handful of chunks one action dirtied — the
    // amortized regime the byte gate is about.
    let rand_cap: u64 = if quick { 300 } else { 1_000 };
    println!("rand(64,8,450), depth {rand_depth} (run cap {rand_cap}):");
    let rand_passes = [
        measure("dfs-dedup", || {
            explore_exhaustive_dfs_par(&rand, rand_depth, rand_cap, &config(1 << 18, false))
        }),
        measure("dfs-por", || {
            explore_exhaustive_dfs_par(&rand, rand_depth, rand_cap, &config(1 << 18, true))
        }),
    ];
    let rand_baseline = rand_passes[0].stats.steps_executed + rand_passes[0].stats.steps_avoided;
    for m in &rand_passes {
        print_pass(m, rand_baseline);
        assert!(m.stats.runs > 0, "rand(64,8): {} ran nothing", m.name);
    }
    assert!(
        rand_passes[0].stats.snapshots_taken > 0,
        "rand(64,8): no checkpoints taken — the ratio gate would be vacuous"
    );
    let snapshot_ratio = shallow_ratio(&rand_passes[0].stats);
    println!(
        "  snapshot bytes: {} copied vs {} deep-clone baseline ({}x smaller)",
        rand_passes[0].stats.snapshot_bytes,
        rand_passes[0].stats.snapshot_deep_bytes,
        snapshot_ratio
    );
    let rand_row = Json::obj([
        ("family", Json::from("rand(64,8,450)")),
        ("depth", Json::from(rand_depth as u64)),
        ("run_cap", Json::from(rand_cap)),
        ("baseline_steps", Json::from(rand_baseline)),
        (
            "configs",
            Json::Arr(
                rand_passes
                    .iter()
                    .map(|m| pass_json(m, rand_baseline))
                    .collect(),
            ),
        ),
        ("snapshot_shallow_ratio", Json::from(snapshot_ratio)),
        ("ready_set", ready_set_json(&rand)),
    ]);

    let record = Json::obj([
        ("bench", Json::from("explore_dfs")),
        ("quick", Json::from(quick)),
        ("cores", Json::from(cores as u64)),
        ("topology", Json::from("fig1")),
        ("run_cap", Json::from(run_cap)),
        ("ready_set", ready_set_json(&scenario)),
        ("depths", Json::Arr(rows)),
        ("rand", rand_row),
        ("dfs_dedup_reduction_permille", Json::from(gate_permille)),
        ("dfs_por_reduction_permille", Json::from(por_gate_permille)),
        ("snapshot_shallow_ratio", Json::from(snapshot_ratio)),
        (
            "chunk_copies_gate",
            Json::obj([
                ("topology", Json::from("fig1")),
                ("depth", Json::from(GATE_DEPTH as u64)),
                ("config", Json::from("dfs-por")),
                ("runs", Json::from(copies_gate.runs)),
                ("chunk_copies", Json::from(copies_gate.chunk_copies)),
                (
                    "chunk_copies_per_run_milli",
                    Json::from(chunk_copies_per_run_milli(&copies_gate)),
                ),
            ]),
        ),
    ]);

    let text = record.pretty();
    std::fs::write("BENCH_explore_dfs.json", &text).expect("write BENCH_explore_dfs.json");
    write_experiment("explore_dfs.json", &record);

    // Round-trip through the vendored parser; then the headline gates. The
    // metrics are steps and bytes (deterministic on any host, 1-core CI
    // included); wall-clock is recorded alongside without judgement.
    let parsed = Json::parse(&text).expect("persisted record parses");
    let reduction = parsed
        .get("dfs_dedup_reduction_permille")
        .and_then(Json::as_u64)
        .expect("headline reduction present");
    let por_reduction = parsed
        .get("dfs_por_reduction_permille")
        .and_then(Json::as_u64)
        .expect("headline POR reduction present");
    let ratio = parsed
        .get("snapshot_shallow_ratio")
        .and_then(Json::as_u64)
        .expect("headline snapshot ratio present");
    // Dedup-only needs depth to compound (at depth 3 most prefixes are
    // unique): its 40% gate applies to the full run's deepest row.
    if !quick {
        assert!(reduction >= 400, "dfs-dedup gate regressed in the record");
    }
    assert!(por_reduction >= 400, "dfs-por gate regressed in the record");
    assert!(
        ratio >= 10,
        "snapshots copied only {ratio}x less than a deep clone (gate: 10x)"
    );
    println!(
        "wrote BENCH_explore_dfs.json (depth {}: dfs-dedup -{}.{:01}%, dfs-por -{}.{:01}% steps; snapshots {}x smaller than Clone)",
        depths.last().unwrap(),
        reduction / 10,
        reduction % 10,
        por_reduction / 10,
        por_reduction % 10,
        ratio
    );
}
