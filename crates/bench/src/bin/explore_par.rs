//! The parallel-exploration benchmark behind `BENCH_explore_par.json`:
//! swarm throughput scaling across worker counts, and the fair-tail work
//! saved by dedup pruning on the exhaustive workload.
//!
//! Two measurements:
//!
//! - **swarm scaling** — the same seed range explored by
//!   [`gam_explore::explore_swarm_par`] at 1, 2, 4, … workers; reports
//!   seeds/second per rung and the speedup over the single-thread rung.
//!   The speedup assertion (≥ 2.5× at the 4-worker rung) only fires when
//!   the host actually has ≥ 4 cores — on smaller machines the rungs are
//!   oversubscribed and the numbers are recorded as-is.
//! - **exhaustive dedup** — the same bounded tree enumerated with pruning
//!   off and on (single worker, so the hit count is deterministic);
//!   reports covered prefixes, pruned tails, and the elapsed-time ratio.
//!   Pruning must never change the number of covered prefixes.
//!
//! `--engine dfs` (or `GAM_EXPLORE_ENGINE=dfs`) swaps the exhaustive
//! passes for the snapshotting prefix-sharing engine; the dedicated
//! odometer-vs-DFS comparison lives in the `explore_dfs` bin.
//!
//! Run with: `cargo run --release -p gam-bench --bin explore_par
//!            [-- quick] [--threads N] [--seeds N] [--engine odometer|dfs]`
//! Output:   stdout table + `BENCH_explore_par.json` (repo root)

use std::time::Instant;

use gam_bench::json::{write_experiment, Json};
use gam_explore::{
    explore_exhaustive_dfs_par, explore_exhaustive_par, explore_swarm_par, ExploreConfig,
    ExploreStats, Scenario,
};
use gam_scenarios::fixture;

fn flag_value(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// The exhaustive engine to run: `--engine` beats the `GAM_EXPLORE_ENGINE`
/// environment variable beats the odometer default.
fn engine_choice(args: &[String]) -> String {
    let engine = args
        .iter()
        .position(|a| a == "--engine")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var("GAM_EXPLORE_ENGINE").ok())
        .unwrap_or_else(|| "odometer".to_string());
    assert!(
        engine == "odometer" || engine == "dfs",
        "unknown engine {engine:?} (expected \"odometer\" or \"dfs\")"
    );
    engine
}

fn config(threads: usize, dedup_capacity: usize) -> ExploreConfig {
    ExploreConfig {
        threads,
        dedup_capacity,
        ..ExploreConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "quick");
    let engine = engine_choice(&args);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_threads = flag_value(&args, "--threads").unwrap_or(4).max(1) as usize;
    let seeds = flag_value(&args, "--seeds").unwrap_or(if quick { 64 } else { 256 });

    // Thread ladder: powers of two up to the requested maximum.
    let mut ladder = vec![1usize];
    while *ladder.last().unwrap() < max_threads {
        ladder.push((ladder.last().unwrap() * 2).min(max_threads));
    }

    // ---- Swarm throughput scaling ----------------------------------------
    let (swarm_name, swarm_gs) = ("fig1", fixture("fig1").system());
    let swarm_scenario = Scenario::one_per_group(&swarm_gs, 500_000);
    println!("swarm scaling: {swarm_name}, {seeds} seeds, {cores} cores");
    let mut rungs = Vec::new();
    let mut baseline_ns = 0u128;
    for &threads in &ladder {
        let start = Instant::now();
        let stats = explore_swarm_par(&swarm_scenario, 0..seeds, &config(threads, 0));
        let elapsed = start.elapsed();
        assert!(stats.clean(), "swarm violations: {:?}", stats.violations);
        assert_eq!(stats.runs, seeds, "swarm must cover the whole range");
        if threads == 1 {
            baseline_ns = elapsed.as_nanos();
        }
        let speedup_x100 = (100 * baseline_ns / elapsed.as_nanos().max(1)) as u64;
        let seeds_per_sec = (stats.runs as f64 / elapsed.as_secs_f64()) as u64;
        println!(
            "  {threads:>2} threads: {seeds_per_sec:>6} seeds/s, speedup {:>4}.{:02}x",
            speedup_x100 / 100,
            speedup_x100 % 100
        );
        rungs.push(Json::obj([
            ("threads", Json::from(threads as u64)),
            ("runs", Json::from(stats.runs)),
            ("elapsed_ns", Json::from(elapsed.as_nanos() as u64)),
            ("seeds_per_sec", Json::from(seeds_per_sec)),
            ("speedup_x100", Json::from(speedup_x100)),
            (
                "worker_runs",
                stats.worker_runs.iter().map(|r| Json::from(*r)).collect(),
            ),
        ]));
    }

    // ---- Exhaustive dedup pruning ----------------------------------------
    let (ex_name, ex_gs, depth) = if quick {
        (
            "two_overlapping(3,1)",
            fixture("two_overlapping_3_1").system(),
            4,
        )
    } else {
        ("fig1", fixture("fig1").system(), 4)
    };
    let ex_scenario = Scenario::one_per_group(&ex_gs, 200_000);
    let run_cap = 50_000;
    println!("exhaustive dedup[{engine}]: {ex_name}, depth {depth}");
    let exhaustive: fn(&Scenario, usize, u64, &ExploreConfig) -> ExploreStats = if engine == "dfs" {
        explore_exhaustive_dfs_par
    } else {
        explore_exhaustive_par
    };
    let start = Instant::now();
    let plain = exhaustive(&ex_scenario, depth, run_cap, &config(1, 0));
    let plain_ns = start.elapsed().as_nanos();
    let start = Instant::now();
    let pruned = exhaustive(&ex_scenario, depth, run_cap, &config(1, 1 << 18));
    let pruned_ns = start.elapsed().as_nanos();
    assert!(plain.clean() && pruned.clean(), "exhaustive pass violated");
    assert_eq!(
        plain.runs, pruned.runs,
        "pruning changed the covered prefix count"
    );
    assert!(
        pruned.dedup_hits > 0,
        "no converging prefixes on {ex_name} at depth {depth}"
    );
    let permille = (pruned.dedup_hit_rate() * 1000.0).round() as u64;
    let time_saved_pct = (100 * plain_ns.saturating_sub(pruned_ns) / plain_ns.max(1)) as u64;
    println!(
        "  {} prefixes, {} tails pruned ({}.{:01}%), time saved {}%",
        pruned.runs,
        pruned.dedup_hits,
        permille / 10,
        permille % 10,
        time_saved_pct
    );

    let record = Json::obj([
        ("bench", Json::from("explore_par")),
        ("quick", Json::from(quick)),
        ("cores", Json::from(cores as u64)),
        ("threads", Json::from(max_threads as u64)),
        (
            "swarm",
            Json::obj([
                ("topology", Json::from(swarm_name)),
                ("seeds", Json::from(seeds)),
                ("rungs", Json::Arr(rungs)),
            ]),
        ),
        (
            "exhaustive",
            Json::obj([
                ("topology", Json::from(ex_name)),
                ("engine", Json::from(engine.as_str())),
                ("depth", Json::from(depth as u64)),
                ("runs", Json::from(pruned.runs)),
                ("dedup_hits", Json::from(pruned.dedup_hits)),
                ("dedup_hit_permille", Json::from(permille)),
                ("steps_executed", Json::from(pruned.steps_executed)),
                ("snapshots_taken", Json::from(pruned.snapshots_taken)),
                ("snapshot_bytes", Json::from(pruned.snapshot_bytes)),
                (
                    "snapshot_bytes_peak",
                    Json::from(pruned.snapshot_bytes_peak),
                ),
                ("por_pruned", Json::from(pruned.por_pruned)),
                ("chunk_copies", Json::from(pruned.chunk_copies)),
                ("dedup_evictions", Json::from(pruned.dedup_evictions)),
                (
                    "steps_avoided_permille",
                    Json::from(pruned.steps_avoided_permille()),
                ),
                ("plain_elapsed_ns", Json::from(plain_ns as u64)),
                ("pruned_elapsed_ns", Json::from(pruned_ns as u64)),
                ("time_saved_pct", Json::from(time_saved_pct)),
            ]),
        ),
        ("dedup_hits", Json::from(pruned.dedup_hits)),
    ]);

    let text = record.pretty();
    std::fs::write("BENCH_explore_par.json", &text).expect("write BENCH_explore_par.json");
    write_experiment("explore_par.json", &record);

    // Round-trip through the vendored parser: the persisted record is
    // well-formed and carries the fields CI keys on.
    let parsed = Json::parse(&text).expect("persisted record parses");
    assert!(parsed.get("threads").and_then(Json::as_u64).is_some());
    assert!(parsed.get("dedup_hits").and_then(Json::as_u64).is_some());

    // The scaling claim is only meaningful when the host really has the
    // cores; on smaller machines the rungs are oversubscribed and recorded
    // without judgement.
    if cores >= 4 {
        let rung4 = parsed
            .get("swarm")
            .and_then(|s| s.get("rungs"))
            .and_then(Json::as_arr)
            .and_then(|r| {
                r.iter()
                    .find(|r| r.get("threads").and_then(Json::as_u64) == Some(4))
            })
            .expect("4-thread rung measured");
        let speedup = rung4
            .get("speedup_x100")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(
            speedup >= 250,
            "4-thread swarm speedup {speedup}/100 below 2.5x on a {cores}-core host"
        );
    }
    println!("wrote BENCH_explore_par.json");
}
