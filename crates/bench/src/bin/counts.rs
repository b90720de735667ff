//! The count record behind `BENCH_counts.json`: what exploring, serving and
//! sweeping cost in units that follow from (topology, failure pattern,
//! schedule) alone — steps, guards, leaves, snapshot bytes, chunk copies,
//! latency in ticks. No clock is read and no thread is spawned, so the file
//! is the same on every host and CI fails on `git diff --exit-code
//! BENCH_counts.json`: a change that copies one more chunk or evaluates one
//! more guard is a reviewed line of that diff. Wall-clock claims live in
//! `benchmark/`, which models its own noise (DESIGN.md decision 16).
//!
//! Three sections:
//!
//! - `explore` — the fig1 tree at depths 3–6 under the snapshotting DFS,
//!   one worker, two ways: with the visited set, which caches whole
//!   subtrees (`dfs-cache`), and without it, where every leaf is a run
//!   (`dfs-plain`; depths 3–5 only, since depth 6 has 776 906 leaves). The
//!   same two passes walk fig1 under an `isect(1)` crash plan, and a
//!   run-capped tree of a 64-process `rand(64,8,450)` state, where a
//!   checkpoint must copy far less than a deep clone. `baseline_steps` is
//!   what restarting each of `dfs-plain`'s leaves from the initial state
//!   executes: its steps executed plus avoided. `key_audit` walks the plain
//!   fig1 tree and counts visited-set keys that stand for two different
//!   observable states; it must stay 0. `fair_run` and `fair_tail` count
//!   the ready-set work of one fair run of fig1 and of `rand`, once listing
//!   the choice space at every step and once through the tail the explorer
//!   runs, which lists nothing.
//! - `serve` — descriptor-addressed backlogs drained by
//!   [`Runtime::run_sustained`](gam_core::Runtime::run_sustained),
//!   unbatched and at `batch_max = 16`: delivery latency in ticks, the
//!   consensus batch-occupancy histogram, the shard shape of the traffic
//!   and the ready-set counters. The last row is the gated benchmark's
//!   first `serve_dense` descriptor, where each process holds tens of
//!   units in `stable`.
//! - `corpus` — every family of [`gam_scenarios::corpus`] at 20 seeds, each
//!   instance through a seeded swarm plus a bounded exhaustive enumeration
//!   under the full spec.
//!
//! Level B has no section: its work counters are column 4 of
//! `tests/fixtures/levelb_hashes.txt`, replayed on every commit.
//!
//! The bin fails when a run is not clean (or, where required, not complete
//! and quiescent) and on the thresholds named by the constants below.
//!
//! Run with: `cargo run --release -p gam-bench --bin counts` (≈ 10 s)
//! Output:   `BENCH_counts.json` (repo root)

use gam_bench::json::Json;
use gam_core::{spec, ReadyCounters};
use gam_engine::{
    run_with_source_counted, shard_partition, Executor, RuntimeExecutor, SnapshotExec,
};
use gam_explore::{explore, subtree_key, ExploreConfig, ExploreStats, Mode, Outcome, Scenario};
use gam_kernel::schedule::{ChoiceStep, RotatingSource};
use gam_scenarios::{corpus, fixture, Family, ScnDescriptor, TrafficPlan};
use std::collections::BTreeMap;

/// Least reduction in steps executed against `baseline_steps`, in permille,
/// of `dfs-cache` at fig1 depths 3–5.
const CACHE_REDUCTION_FLOOR_PERMILLE: u64 = 850;
/// A checkpoint of the `rand(64,8,450)` state copies at least this many
/// times fewer bytes than a deep clone of it.
const SNAPSHOT_SHALLOW_RATIO_FLOOR: u64 = 10;
/// Ceiling on the p99 delivery latency of every `serve` row, in ticks (the
/// worst, unbatched `rand_64_dense`, sits near 62k).
const P99_CEILING_TICKS: u64 = 80_000;
/// Ceiling on guard evaluations per step of every `serve` row. Deriving
/// readiness from the `LOG_g` deliver frontiers costs ≈ 4 per step; a walk
/// over the stable backlog of the last row costs ≈ 41.
const GUARDS_PER_STEP_CEILING: u64 = 10;
/// Floors of the corpus sweep.
const CORPUS_FAMILIES_FLOOR: usize = 5;
const CORPUS_INSTANCES: u64 = 20;

fn permille(part: u64, whole: u64) -> u64 {
    (part * 1000).checked_div(whole).unwrap_or(0)
}

/// The runtime's ready-set counters over a run of `steps` steps, and the
/// two guard counts again per step.
fn ready_set_json(steps: u64, c: ReadyCounters) -> Json {
    Json::obj([
        ("steps", steps),
        ("rows_refreshed", c.rows_refreshed),
        ("rows_patched", c.rows_patched),
        ("rows_reused", c.rows_reused),
        ("breakpoint_flushes", c.breakpoint_flushes),
        ("guards_evaluated", c.guards_evaluated),
        ("guards_passed", c.guards_passed),
        (
            "guards_evaluated_per_step_permille",
            permille(c.guards_evaluated, steps),
        ),
        (
            "guards_passed_per_step_permille",
            permille(c.guards_passed, steps),
        ),
    ])
}

/// The ready-set counters of one fair run of `scenario`, taken twice:
/// `fair_run` lists the choice space at every step for a
/// [`RotatingSource`] — what option enumeration costs per step on that
/// state — and `fair_tail` is the same run through
/// [`Executor::run_fair_tail`], whose picker derives only the rows its scan
/// reaches.
fn fair_runs_json(scenario: &Scenario) -> [(&'static str, Json); 2] {
    let mut exec = scenario.runtime_executor();
    let (_, steps) = run_with_source_counted(
        &mut exec,
        &mut RotatingSource::default(),
        scenario.max_steps,
    );
    let listed = exec.runtime().ready_counters();
    let mut exec = scenario.runtime_executor();
    let (_, tail_steps) = exec.run_fair_tail(scenario.max_steps, &mut Vec::new());
    let picked = exec.runtime().ready_counters();
    assert_eq!(tail_steps, steps, "the fair tail ran another run");
    assert!(
        picked.guards_evaluated <= listed.guards_evaluated,
        "the fair tail evaluates {} guards where listing the choice space evaluates {}",
        picked.guards_evaluated,
        listed.guards_evaluated
    );
    [
        ("fair_run", ready_set_json(steps, listed)),
        ("fair_tail", ready_set_json(tail_steps, picked)),
    ]
}

/// The two DFS configurations, `(name, visited-set capacity)`: with the
/// cache, and with no reduction at all.
const DFS_CACHE: (&str, usize) = ("dfs-cache", 1 << 18);
const DFS_PLAIN: (&str, usize) = ("dfs-plain", 0);

/// One DFS pass over the first `depth` choices of `scenario`, at most
/// `run_cap` leaves. It must find no violation.
fn dfs_pass(
    scenario: &Scenario,
    depth: usize,
    run_cap: u64,
    (name, dedup_capacity): (&'static str, usize),
) -> (&'static str, ExploreStats) {
    let config = ExploreConfig {
        threads: 1,
        dedup_capacity,
        ..ExploreConfig::default()
    };
    let mode = Mode::Exhaustive {
        depth,
        max_runs: run_cap,
    };
    let stats = explore(scenario, mode, &config);
    let violations = &stats.violations;
    assert!(
        violations.is_empty(),
        "{name}, depth {depth}: {violations:?}"
    );
    (name, stats)
}

/// Both passes, `[dfs-cache, dfs-plain]`.
fn dfs_passes(
    scenario: &Scenario,
    depth: usize,
    run_cap: u64,
) -> [(&'static str, ExploreStats); 2] {
    [DFS_CACHE, DFS_PLAIN].map(|pass| dfs_pass(scenario, depth, run_cap, pass))
}

fn reduction_permille(baseline: u64, steps: u64) -> u64 {
    permille(baseline - baseline.min(steps), baseline)
}

/// What restarting each of `dfs-plain`'s leaves from the initial state
/// executes: every step the DFS ran plus every prefix step it did not
/// re-run. No visited set, so every leaf pays for its fair tail.
fn baseline_steps(plain: &ExploreStats) -> u64 {
    plain.steps_executed + plain.steps_avoided
}

/// One exploration row: the passes' counters and, when a `dfs-plain` pass
/// is among them, the tree's restart cost and each pass's reduction
/// against it.
fn explore_row(depth: usize, run_cap: u64, passes: &[(&'static str, ExploreStats)]) -> Json {
    let baseline = passes
        .iter()
        .find(|(name, _)| *name == DFS_PLAIN.0)
        .map(|(_, plain)| baseline_steps(plain));
    let configs = passes.iter().map(|(name, s)| {
        let reduction = baseline.map(|b| {
            (
                "steps_reduction_permille",
                reduction_permille(b, s.steps_executed),
            )
        });
        let counters = [
            ("runs", s.runs),
            ("steps_executed", s.steps_executed),
            ("steps_avoided", s.steps_avoided),
        ]
        .into_iter()
        .chain(reduction)
        .chain([
            ("snapshots_taken", s.snapshots_taken),
            ("snapshot_bytes", s.snapshot_bytes),
            ("snapshot_deep_bytes", s.snapshot_deep_bytes),
            ("snapshot_bytes_peak", s.snapshot_bytes_peak),
            ("dedup_hits", s.dedup_hits),
            ("dedup_evictions", s.dedup_evictions),
            ("chunk_copies", s.chunk_copies),
        ]);
        let counters = counters.map(|(key, n)| (key, Json::from(n)));
        Json::obj([("name", Json::from(*name))].into_iter().chain(counters))
    });
    let head = [
        ("depth", Json::from(depth as u64)),
        ("run_cap", Json::from(run_cap)),
    ];
    let baseline = baseline.map(|b| ("baseline_steps", Json::from(b)));
    Json::obj(
        head.into_iter()
            .chain(baseline)
            .chain([("configs", configs.collect())]),
    )
}

/// Visited-set keys over every choice point of a plain walk — no visited
/// set — each beside the remaining depth and the full
/// `fold_observable` word vector it stands for.
#[derive(Default)]
struct KeyAudit {
    nodes: u64,
    seen: BTreeMap<u64, (usize, Vec<u64>)>,
    /// Choice points whose key was first stored for another remaining
    /// depth or another word vector.
    collisions: u64,
    words: Vec<u64>,
}

impl KeyAudit {
    /// Every choice point from where `exec` stands, `taken` steps into the
    /// budget, down to `remaining` more digits: the explorer's enumeration,
    /// idle ticks passing on their own and no fair tail at the bottom.
    fn walk(&mut self, exec: &mut RuntimeExecutor, remaining: usize, mut taken: u64, budget: u64) {
        let mut options = Vec::new();
        loop {
            if taken >= budget {
                return;
            }
            exec.enabled_actions(&mut options);
            if !options.is_empty() {
                break;
            }
            if exec.is_quiescent() || !exec.idle_tick() {
                return;
            }
            taken += 1;
        }
        self.nodes += 1;
        let key = subtree_key(exec.state_fingerprint(), remaining);
        self.words.clear();
        exec.runtime().fold_observable(&mut |w| self.words.push(w));
        match self.seen.get(&key) {
            None => {
                self.seen.insert(key, (remaining, self.words.clone()));
            }
            Some((depth, words)) => {
                if *depth != remaining || *words != self.words {
                    self.collisions += 1;
                }
            }
        }
        if remaining == 0 {
            return;
        }
        let snap = exec.snapshot();
        let steps = options
            .iter()
            .flat_map(|&(pid, arity)| (0..arity).map(move |choice| ChoiceStep { pid, choice }));
        for step in steps {
            exec.step(step);
            self.walk(exec, remaining - 1, taken + 1, budget);
            exec.restore(&snap);
        }
    }
}

fn key_audit(scenario: &Scenario, depth: usize) -> Json {
    let mut audit = KeyAudit::default();
    audit.walk(
        &mut scenario.runtime_executor(),
        depth,
        0,
        scenario.max_steps,
    );
    assert_eq!(
        audit.collisions, 0,
        "a visited-set key stands for two observable states: widen the key to 128 bits"
    );
    Json::obj([
        ("depth", depth as u64),
        ("nodes", audit.nodes),
        ("distinct_keys", audit.seen.len() as u64),
        ("collisions", audit.collisions),
    ])
}

fn explore_section() -> Json {
    let fig1 = Scenario::one_per_group(&fixture("fig1").system(), 200_000);
    // No row comes near it: the deepest plain walk, depth 5, has 86 260
    // leaves.
    let run_cap = 2_000_000;
    let mut depths: Vec<Json> = (3..=5)
        .map(|depth| {
            let passes = dfs_passes(&fig1, depth, run_cap);
            let [(_, cache), (_, plain)] = &passes;
            assert!(
                cache.complete() && plain.complete(),
                "depth {depth}: capped"
            );
            assert!(
                cache.runs <= plain.runs,
                "depth {depth}: the cache reaches more leaves than the plain walk"
            );
            let reduction = reduction_permille(baseline_steps(plain), cache.steps_executed);
            assert!(
                reduction >= CACHE_REDUCTION_FLOOR_PERMILLE,
                "dfs-cache executes only {reduction} permille fewer steps than the \
                 baseline at depth {depth}, under the floor of {CACHE_REDUCTION_FLOOR_PERMILLE}"
            );
            explore_row(depth, run_cap, &passes)
        })
        .collect();
    // The walk `explore_fig1` times: the cache alone, no baseline.
    let deepest = [dfs_pass(&fig1, 6, run_cap, DFS_CACHE)];
    assert!(deepest[0].1.complete(), "depth 6: capped");
    depths.push(explore_row(6, run_cap, &deepest));

    // fig1 with a member of an intersection crashing.
    let crashy = ScnDescriptor::parse(
        "gam-scn v1 family=fig1 seed=3 crash=isect(1) traffic=one variant=standard budget=200000",
    )
    .expect("valid descriptor");
    let crashy_depth = 5;
    let crashy_passes = dfs_passes(&Scenario::from_descriptor(&crashy), crashy_depth, run_cap);
    let [(_, cache), (_, plain)] = &crashy_passes;
    assert!(cache.complete() && plain.complete(), "fig1_crashy: capped");
    assert!(cache.dedup_hits > 0, "fig1_crashy: the cache hit nothing");
    assert!(
        cache.runs <= plain.runs,
        "fig1_crashy: the cache added leaves"
    );

    // A single multicast on 64 processes, 8 groups of ~29 members: ~221
    // enabled actions at every level, so depth 4 is ~10⁹ schedules and the
    // walk ends at its cap. One worker walks the tree as one item, so all
    // four levels are free and the walk crosses several branch points: the
    // first checkpoint pays for the initialization writes, the rest copy
    // the few chunks one action dirtied.
    let mut d = ScnDescriptor::new(Family::Rand {
        n: 64,
        k: 8,
        density_permille: 450,
    });
    d.traffic = TrafficPlan::One;
    d.budget = 500_000;
    let rand = Scenario::from_descriptor(&d);
    let (rand_depth, rand_cap) = (4, 1_000);
    let passes = dfs_passes(&rand, rand_depth, rand_cap);
    let cache = &passes[0].1;
    assert!(cache.snapshots_taken > 0, "rand: no checkpoint taken");
    let ratio = cache
        .snapshot_deep_bytes
        .checked_div(cache.snapshot_bytes)
        .unwrap_or(0);
    assert!(
        ratio >= SNAPSHOT_SHALLOW_RATIO_FLOOR,
        "rand: checkpoints copy only {ratio}x less than a deep clone"
    );

    Json::obj([
        (
            "fig1",
            Json::obj(fair_runs_json(&fig1).into_iter().chain([
                ("depths", Json::Arr(depths)),
                ("key_audit", key_audit(&fig1, 6)),
            ])),
        ),
        (
            "fig1_crashy",
            Json::obj([
                ("descriptor", Json::from(crashy.render())),
                ("walk", explore_row(crashy_depth, run_cap, &crashy_passes)),
            ]),
        ),
        (
            "rand",
            Json::obj(
                [("descriptor", Json::from(d.render()))]
                    .into_iter()
                    .chain(fair_runs_json(&rand))
                    .chain([("walk", explore_row(rand_depth, rand_cap, &passes))]),
            ),
        ),
    ])
}

/// Shard shape of a scenario's topology and traffic: the connected
/// components of the group intersection graph, and the permille of
/// submissions addressed outside the most loaded one — the share of the
/// backlog other workers could serve while the busiest shard runs.
fn shard_shape(scenario: &Scenario) -> (u64, u64) {
    let shards = shard_partition(&scenario.system);
    let load = |shard: &Vec<_>| {
        let addressed = scenario.submissions.iter();
        addressed.filter(|(_, g, _)| shard.contains(g)).count() as u64
    };
    let peak = shards.iter().map(load).max().unwrap_or(0);
    // every group lies in exactly one shard
    let total = scenario.submissions.len() as u64;
    (shards.len() as u64, permille(total - peak, total))
}

/// Drains `d`'s preloaded traffic once at `batch_max` and records the run.
fn serve_row(workload: &str, d: &ScnDescriptor, batch_max: u32) -> Json {
    let scenario = Scenario::from_descriptor(d).with_batch_max(batch_max);
    let (shards, cross_shard_permille) = shard_shape(&scenario);
    let mut rt = scenario.runtime_executor().into_runtime();
    let loaded = rt.now().0;
    let quiescent = rt.run_sustained(rt.system().universe(), d.budget);
    assert!(quiescent, "{workload} batch={batch_max}: must quiesce");
    let report = rt.report(true);
    if let Err(v) = spec::check_all(&report, d.variant) {
        panic!("{workload} batch={batch_max}: {v:?}");
    }
    let (steps, counters) = (rt.now().0 - loaded, rt.ready_counters());
    assert!(
        counters.guards_evaluated <= GUARDS_PER_STEP_CEILING * steps,
        "{workload} batch={batch_max}: {} guards evaluated over {steps} steps — \
         is a stable backlog being walked again?",
        counters.guards_evaluated
    );

    let mut latency: Vec<u64> = report
        .delivered
        .iter()
        .flatten()
        .map(|dl| dl.at.0 - report.multicast_at[dl.msg.0 as usize].0)
        .collect();
    latency.sort_unstable();
    let at = |q: usize| latency[(latency.len() - 1) * q / 100];
    assert!(
        at(99) <= P99_CEILING_TICKS,
        "{workload} batch={batch_max}: p99 {} ticks",
        at(99)
    );
    let occupancy = rt.unit_width_histogram();
    let occupancy = occupancy.iter().enumerate().filter(|(_, n)| **n > 0);

    Json::obj([
        ("workload", Json::from(workload)),
        ("descriptor", Json::from(d.render())),
        ("batch_max", Json::from(u64::from(batch_max))),
        ("shards", Json::from(shards)),
        ("cross_shard_permille", Json::from(cross_shard_permille)),
        ("messages", Json::from(report.messages.len())),
        ("deliveries", Json::from(latency.len())),
        (
            "latency_ticks",
            Json::obj([
                ("p50", at(50)),
                ("p95", at(95)),
                ("p99", at(99)),
                ("max", at(100)),
            ]),
        ),
        (
            "batch_occupancy",
            occupancy
                .map(|(w, n)| Json::obj([("width", w as u64), ("units", *n)]))
                .collect(),
        ),
        ("ready_set", ready_set_json(steps, counters)),
    ])
}

fn serve() -> Json {
    // The committed large-instance fixture (240-group random tree, 479
    // processes, crashy), a dense 64-process random topology (one shard)
    // and an 8-component chain forest (8 shards); then the backlog.
    let zipf = |family: &str, seed: u64, messages: u64| {
        ScnDescriptor::parse(&format!(
            "gam-scn v1 family={family} seed={seed} crash=none \
             traffic=zipf(1200,{messages}) variant=standard budget=2000000"
        ))
        .expect("valid descriptor")
    };
    let mut rows = Vec::new();
    for (workload, d) in [
        ("large_tree_240", fixture("large_tree_240")),
        ("rand_64_dense", zipf("rand(64,8,450)", 7, 512)),
        ("multichain_8x4", zipf("multichain(8,4,4)", 11, 512)),
    ] {
        rows.extend([1, 16].map(|batch_max| serve_row(workload, &d, batch_max)));
    }
    let backlog = zipf("rand(64,8,450)", 7000, 256);
    rows.push(serve_row("serve_dense_backlog", &backlog, 1));
    Json::Arr(rows)
}

fn corpus_section() -> Json {
    let (swarm_seeds, depth, run_cap) = (4u64, 2, 200);
    let families = corpus();
    assert!(
        families.len() >= CORPUS_FAMILIES_FLOOR,
        "corpus covers only {} families",
        families.len()
    );
    // One worker, no visited set: every leaf of the bounded tree is a run,
    // as the swarm's seeds are.
    let config = ExploreConfig {
        threads: 1,
        dedup_capacity: 0,
        ..ExploreConfig::default()
    };
    let rows = families.iter().map(|(name, template)| {
        let (mut runs, mut steps, mut violations, mut exhausted) = (0u64, 0u64, 0usize, 0u64);
        for seed in 0..CORPUS_INSTANCES {
            let scenario = Scenario::from_descriptor(&template.with_seed(seed));
            let seeds = 0..swarm_seeds;
            let swarm = explore(&scenario, Mode::Swarm { seeds }, &config);
            let max_runs = run_cap;
            let exhaustive = explore(&scenario, Mode::Exhaustive { depth, max_runs }, &config);
            runs += swarm.runs + exhaustive.runs;
            steps += swarm.steps_executed + exhaustive.steps_executed;
            violations += swarm.violations.len() + exhaustive.violations.len();
            exhausted += u64::from(exhaustive.outcome == Outcome::Exhausted);
        }
        // The corpus is the clean baseline the nightly hunt mutates away
        // from: a violation here is a protocol bug.
        assert_eq!(violations, 0, "{name}: the corpus must sweep clean");
        Json::obj([
            ("family", Json::from(*name)),
            ("descriptor", Json::from(template.render())),
            ("instances", Json::from(CORPUS_INSTANCES)),
            ("explored_states", Json::from(runs)),
            ("steps_executed", Json::from(steps)),
            ("violations", Json::from(violations)),
            ("exhausted_instances", Json::from(exhausted)),
        ])
    });
    Json::obj([
        ("swarm_seeds", Json::from(swarm_seeds)),
        ("exhaustive_depth", Json::from(depth as u64)),
        ("exhaustive_run_cap", Json::from(run_cap)),
        ("rows", rows.collect()),
    ])
}

fn main() {
    let record = Json::obj([
        ("explore", explore_section()),
        ("serve", serve()),
        ("corpus", corpus_section()),
    ]);
    std::fs::write("BENCH_counts.json", record.pretty()).expect("write BENCH_counts.json");
    println!("wrote BENCH_counts.json");
}
