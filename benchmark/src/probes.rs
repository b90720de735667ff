//! Per-layer values of one traced repetition.
//!
//! Layers are the crates. Everything here is measured from outside them:
//! the phase spans of the repetition itself (`workloads.rs` wraps each
//! public call), counts read from the repetition's output, and standalone
//! probes — public functions of one layer called on the repetition's input,
//! under a `probes` span that is not part of the repetition's clocks.

use crate::stats::{percentile, sorted};
use crate::trace::Tracer;
use crate::workloads::{
    delivered, explore_config, load_runtime, Driver, LevelBRun, Output, Rep, Workload,
};
use gam_core::{spec, RunReport, Runtime, RuntimeConfig, ShardRun, ShardSpec};
use gam_detectors::{MuConfig, MuOracle, OmegaMode, OmegaOracle, SigmaMode, SigmaOracle};
use gam_engine::{
    actions_commute, run_fair, run_with_source_counted, shard_specs, KernelExecutor, SnapshotExec,
    VisitedSet,
};
use gam_explore::{explore_exhaustive_dfs_par, ExploreStats, Scenario};
use gam_kernel::schedule::{ChoiceStep, RandomSource, RotatingSource, ScheduleSource};
use gam_kernel::{FailurePattern, ProcessId, ProcessSet, RunOutcome, Simulator, Time};
use gam_objects::{AbdProcess, Consensus, Log, OmegaSigmaHistory, PaxosProcess, Pos, RegisterId};
use gam_scenarios::ScnDescriptor;
use std::hint::black_box;
use std::time::Instant;

/// `(metric name, value)` pairs of one traced repetition. Names are those
/// of [`crate::metrics::PER_LAYER`]; a name that is absent reads 0.
pub type Layers = Vec<(&'static str, f64)>;

const NS_PER_US: f64 = 1e3;
const NS_PER_MS: f64 = 1e6;

/// Metrics that are the duration of the spans of one name in a repetition:
/// `(metric, span, nanoseconds per unit)`.
const SPAN_METRICS: [(&str, &str, f64); 21] = [
    ("scenarios.parse_us", "scenarios.parse", NS_PER_US),
    ("scenarios.generate_ms", "scenarios.generate", NS_PER_MS),
    (
        "groups.cyclic_families_ms",
        "groups.cyclic_families",
        NS_PER_MS,
    ),
    ("detectors.mu_new_ms", "detectors.mu_new", NS_PER_MS),
    ("core.runtime_new_ms", "core.runtime_new", NS_PER_MS),
    ("core.run_ms", "core.run", NS_PER_MS),
    ("core.report_us", "core.report", NS_PER_US),
    ("core.fold_state_us", "core.fold_state", NS_PER_US),
    ("core.spec.check_all_ms", "core.spec.check_all", NS_PER_MS),
    ("core.spec.integrity_ms", "core.spec.integrity", NS_PER_MS),
    ("core.spec.ordering_ms", "core.spec.ordering", NS_PER_MS),
    (
        "core.spec.termination_ms",
        "core.spec.termination",
        NS_PER_MS,
    ),
    ("core.spec.minimality_ms", "core.spec.minimality", NS_PER_MS),
    ("engine.shard.specs_us", "engine.shard.specs", NS_PER_US),
    ("core.shard.clone_us", "core.shard.clone", NS_PER_US),
    // one span per shard
    ("core.shard.record_sum_ms", "core.shard.record", NS_PER_MS),
    ("core.shard.merge_ms", "core.shard.merge", NS_PER_MS),
    ("explore.partition_ms", "explore.partition", NS_PER_MS),
    (
        "explore.describe_enabled_us",
        "explore.describe_enabled",
        NS_PER_US,
    ),
    ("objects.paxos_decide_us", "objects.paxos_decide", NS_PER_US),
    (
        "objects.abd_write_read_us",
        "objects.abd_write_read",
        NS_PER_US,
    ),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer values of traced repetition `rep_id`, whose output is
/// `rep`. Runs the workload's probes, then reads the spans.
///
/// # Errors
///
/// Returns a message when a probe contradicts the repetition: a replayed
/// shard merge or a sequential twin that does not reach the same state.
pub fn layers(w: &Workload, rep: &Rep, rep_id: u32, t: &mut Tracer) -> Result<Layers, String> {
    let mut out = Layers::new();
    t.span("probes", |t| {
        construction(
            &rep.descriptor,
            matches!(rep.output, Output::Served { .. }),
            t,
            &mut out,
        );
        match (&rep.output, w.driver) {
            (Output::Served { rt, report }, Driver::Serve { batch_max, threads }) => {
                served(rt, report, rep_id, t, &mut out);
                if threads > 1 {
                    sharded(&rep.descriptor, batch_max, threads, rt, rep_id, t, &mut out)?;
                }
            }
            (Output::Explored { scenario, stats }, Driver::Explore { depth, .. }) => {
                explored(scenario, stats, depth, rep, rep_id, t, &mut out)?;
            }
            (Output::LevelB(run), Driver::LevelB) => {
                levelb(run, &rep.descriptor, rep_id, t, &mut out);
                objects(t, &mut out);
            }
            _ => unreachable!("a workload's repetitions produce its own kind of output"),
        }
        Ok::<(), String>(())
    })?;

    let span = |name: &str| t.span_ns(rep_id, name);
    for (metric, name, per) in SPAN_METRICS {
        let ns = span(name);
        if ns > 0.0 {
            out.push((metric, ns / per));
        }
    }
    // What `Runtime::new` spends outside the two constructions it is known
    // to contain, which were timed standalone on the same system.
    let own = span("core.runtime_new") - span("groups.cyclic_families") - span("detectors.mu_new");
    out.push(("core.runtime_new_self_ms", own.max(0.0) / NS_PER_MS));
    for (metric, name) in [
        ("engine.enabled_actions_ns", "engine.enabled_actions"),
        ("engine.step_ns", "engine.step"),
        ("engine.is_quiescent_ns", "engine.is_quiescent"),
        ("engine.visited_insert_ns", "engine.visited_insert"),
    ] {
        out.push((metric, t.probe_of(name).mean_ns()));
    }
    for (metric, name) in [
        ("engine.fingerprint_us", "engine.fingerprint"),
        ("engine.snapshot_us", "engine.snapshot"),
        ("engine.restore_us", "engine.restore"),
    ] {
        out.push((metric, t.probe_of(name).mean_ns() / NS_PER_US));
    }
    let in_loop = |name| t.probe_of(name).total_ns as f64;
    let loop_ns =
        in_loop("engine.enabled_actions") + in_loop("engine.step") + in_loop("engine.is_quiescent");
    out.push((
        "engine.enabled_actions_share",
        ratio(in_loop("engine.enabled_actions"), loop_ns),
    ));
    out.push(("engine.step_share", ratio(in_loop("engine.step"), loop_ns)));
    Ok(out)
}

/// groups, detectors, and (where the repetition does not build one itself)
/// the runtime: the constructions behind every descriptor.
fn construction(d: &ScnDescriptor, rep_builds_runtime: bool, t: &mut Tracer, out: &mut Layers) {
    let g = d.generate();
    let pattern = FailurePattern::from_crashes(g.system.universe(), g.crashes);
    let families = t.span("groups.cyclic_families", |_| g.system.cyclic_families());
    out.push(("groups.cyclic_families", families.len() as f64));
    let mu = t.span("detectors.mu_new", |_| {
        MuOracle::new(&g.system, pattern.clone(), MuConfig::default())
    });
    let started = Instant::now();
    let mut calls = 0u64;
    for (group, members) in g.system.iter() {
        for p in members {
            black_box(mu.gamma_groups(p, group, Time::ZERO));
            calls += 1;
        }
    }
    out.push((
        "detectors.gamma_groups_ns",
        ratio(started.elapsed().as_nanos() as f64, calls as f64),
    ));
    if !rep_builds_runtime {
        let config = RuntimeConfig {
            variant: d.variant,
            ..RuntimeConfig::default()
        };
        black_box(t.span("core.runtime_new", |_| {
            Runtime::new(&g.system, pattern, config)
        }));
    }
}

pub fn fold(rt: &Runtime) -> Vec<u64> {
    let mut words = Vec::new();
    rt.fold_state(&mut |w| words.push(w));
    words
}

/// Counts and ratios of a Level-A run, read off its final state and report.
fn run_counts(rt: &Runtime, report: &RunReport, run_ns: f64, out: &mut Layers) {
    let steps = rt.now().0 as f64;
    let actions = report.actions_of.iter().sum::<u64>() as f64;
    let deliveries = delivered(report) as f64;
    let histogram = rt.unit_width_histogram();
    let units = histogram.iter().sum::<u64>() as f64;
    let batched: u64 = histogram
        .iter()
        .enumerate()
        .map(|(w, n)| w as u64 * n)
        .sum();
    out.extend([
        ("core.steps", steps),
        ("core.actions", actions),
        // every tick is a submission, a fired action or an idle tick
        (
            "core.idle_ticks",
            steps - report.messages.len() as f64 - actions,
        ),
        ("core.deliveries", deliveries),
        ("core.ns_per_step", ratio(run_ns, steps)),
        ("core.steps_per_s", ratio(steps * 1e9, run_ns)),
        ("core.actions_per_delivery", ratio(actions, deliveries)),
        ("core.units", units),
        ("core.batch_width_mean", ratio(batched as f64, units)),
    ]);
}

/// Delivery latency in logical ticks: `delivery.at − multicast_at[msg]`.
/// The backlog is preloaded, so this is queueing plus protocol depth; it is
/// exact, a property of the schedule and not of the clock.
fn latency_ticks(report: &RunReport, out: &mut Layers) {
    let samples: Vec<f64> = report
        .delivered
        .iter()
        .flatten()
        .map(|d| (d.at.0 - report.multicast_at[d.msg.0 as usize].0) as f64)
        .collect();
    if samples.is_empty() {
        return;
    }
    let samples = sorted(samples);
    out.push(("core.latency_ticks_p50", percentile(&samples, 0.5)));
    out.push(("core.latency_ticks_p99", percentile(&samples, 0.99)));
}

fn spec_parts(report: &RunReport, t: &mut Tracer) {
    t.span("core.spec.integrity", |_| {
        black_box(spec::check_integrity(report).is_ok())
    });
    t.span("core.spec.ordering", |_| {
        black_box(spec::check_ordering(report).is_ok())
    });
    t.span("core.spec.termination", |_| {
        black_box(spec::check_termination(report).is_ok())
    });
    t.span("core.spec.minimality", |_| {
        black_box(spec::check_minimality(report).is_ok())
    });
}

fn served(rt: &Runtime, report: &RunReport, rep_id: u32, t: &mut Tracer, out: &mut Layers) {
    t.span("core.fold_state", |_| {
        let mut acc = 0u64;
        rt.fold_state(&mut |w| acc = acc.wrapping_add(w));
        black_box(acc)
    });
    spec_parts(report, t);
    latency_ticks(report, out);
    // `core.run` and `core.multicast` are phases of the repetition itself.
    run_counts(rt, report, t.span_ns(rep_id, "core.run"), out);
    out.push((
        "core.multicast_ns",
        ratio(
            t.span_ns(rep_id, "core.multicast"),
            report.messages.len() as f64,
        ),
    ));
}

/// Replays the phases of `run_sustained_par` on one thread, so that each
/// can be timed: shard specs, one clone per worker, each worker's shards
/// recorded in turn, the commit merge. Then runs the sequential driver on a
/// twin for the speed-up. Both must land on the state the repetition's
/// parallel run produced.
fn sharded(
    d: &ScnDescriptor,
    batch_max: u32,
    threads: usize,
    parallel: &Runtime,
    rep_id: u32,
    t: &mut Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let off = &mut Tracer::new(false);
    let mut base = load_runtime(d, batch_max, off);
    let set = base.system().universe();
    let specs = t.span("engine.shard.specs", |_| shard_specs(&base, set));
    let live: Vec<&ShardSpec> = specs.iter().filter(|s| !s.pids.is_empty()).collect();
    let workers = threads.min(live.len()).max(1);
    let mut clones: Vec<Runtime> = t.span("core.shard.clone", |_| {
        (0..workers).map(|_| base.clone()).collect()
    });
    let mut runs: Vec<Vec<ShardRun>> = vec![Vec::new(); workers];
    let mut busiest_ns = 0.0f64;
    for (w, clone) in clones.iter_mut().enumerate() {
        let started = Instant::now();
        for spec in live.iter().skip(w).step_by(workers) {
            runs[w].push(t.span("core.shard.record", |_| {
                clone.run_shard_record(&spec.pids, || true)
            }));
        }
        busiest_ns = busiest_ns.max(started.elapsed().as_nanos() as f64);
    }
    let parts: Vec<(&Runtime, &ShardSpec, &ShardRun)> = (0..workers)
        .flat_map(|w| {
            let (clones, runs, live) = (&clones, &runs, &live);
            runs[w]
                .iter()
                .enumerate()
                .map(move |(j, run)| (&clones[w], live[w + j * workers], run))
        })
        .collect();
    t.span("core.shard.merge", |_| base.commit_merge(&parts));

    let mut twin = load_runtime(d, batch_max, off);
    let quiescent = t.span("core.run_sequential", |_| twin.run_sustained(set, d.budget));
    let reached = fold(parallel);
    if !quiescent || fold(&twin) != reached {
        return Err("sequential twin does not reach the parallel run's state".into());
    }
    if fold(&base) != reached {
        return Err("replayed shard merge does not reach the parallel run's state".into());
    }

    // Share of the traffic outside the busiest shard: what other workers
    // can serve meanwhile.
    let report = parallel.report(true);
    let mut load = vec![0u64; specs.len().max(1)];
    for m in &report.messages {
        if let Some(i) = specs.iter().position(|s| s.groups.contains(&m.group)) {
            load[i] += 1;
        }
    }
    let total: u64 = load.iter().sum();
    let peak = load.iter().copied().max().unwrap_or(0);
    let span = |name: &str| t.span_ns(rep_id, name);
    let parallel_ns = span("core.run");
    let overhead = parallel_ns - busiest_ns - span("core.shard.merge") - span("core.shard.clone");
    out.extend([
        ("engine.shard.count", live.len() as f64),
        (
            "engine.shard.cross_permille",
            ((total - peak) * 1000).checked_div(total).unwrap_or(0) as f64,
        ),
        ("core.shard.record_max_ms", busiest_ns / NS_PER_MS),
        ("engine.shard.overhead_ms", overhead / NS_PER_MS),
        (
            "engine.shard.speedup",
            ratio(span("core.run_sequential"), parallel_ns),
        ),
    ]);
    Ok(())
}

/// A copy of `gam_engine::run_with_source_counted` over the public
/// `Executor`/`SnapshotExec` traits, with each call probed and — every 16th
/// step — the explorer's bookkeeping on top: fingerprint, visited-set
/// insert, snapshot, restore (to the state just captured, so the run goes on
/// unchanged).
fn probed_loop<E: SnapshotExec>(
    exec: &mut E,
    source: &mut impl ScheduleSource,
    max_steps: u64,
    t: &mut Tracer,
    out: &mut Layers,
) -> (RunOutcome, u64) {
    let mut visited = VisitedSet::with_capacity(1 << 12);
    let mut options: Vec<(ProcessId, usize)> = Vec::new();
    let (mut copied, mut deep, mut snapshots) = (0u64, 0u64, 0u64);
    let mut taken = 0u64;
    let outcome = loop {
        if taken >= max_steps {
            break RunOutcome::BudgetExhausted;
        }
        t.probe("engine.enabled_actions", || {
            exec.enabled_actions(&mut options)
        });
        if options.is_empty() {
            if t.probe("engine.is_quiescent", || exec.is_quiescent()) || !exec.idle_tick() {
                break RunOutcome::Quiescent;
            }
            taken += 1;
            continue;
        }
        let Some((idx, choice)) = source.next_choice(&options) else {
            break RunOutcome::Stopped;
        };
        let action = ChoiceStep {
            pid: options[idx].0,
            choice,
        };
        t.probe("engine.step", || exec.step(action));
        taken += 1;
        if taken.is_multiple_of(16) {
            let fingerprint = t.probe("engine.fingerprint", || exec.state_fingerprint());
            t.probe("engine.visited_insert", || visited.insert(fingerprint));
            let (c, d) = exec.snapshot_cost();
            copied += c;
            deep += d;
            snapshots += 1;
            let snapshot = t.probe("engine.snapshot", || exec.snapshot());
            t.probe("engine.restore", || exec.restore(&snapshot));
        }
    };
    out.push((
        "engine.snapshot_bytes",
        ratio(copied as f64, snapshots as f64),
    ));
    out.push((
        "engine.snapshot_deep_bytes",
        ratio(deep as f64, snapshots as f64),
    ));
    (outcome, taken)
}

fn explored(
    scenario: &Scenario,
    stats: &ExploreStats,
    depth: usize,
    rep: &Rep,
    rep_id: u32,
    t: &mut Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    // The same call with no run allowed: work items are sized (one runtime
    // built per first-level option), then every item returns capped.
    t.span("explore.partition", |_| {
        black_box(explore_exhaustive_dfs_par(
            scenario,
            depth,
            0,
            &explore_config(),
        ))
    });
    let leaves = stats.runs as f64;
    let verdict_ns = rep.verdict.as_nanos() as f64;
    out.extend([
        ("explore.leaves", leaves),
        ("explore.steps_executed", stats.steps_executed as f64),
        ("explore.steps_avoided", stats.steps_avoided as f64),
        ("explore.snapshots", stats.snapshots_taken as f64),
        ("explore.snapshot_bytes", stats.snapshot_bytes as f64),
        ("explore.dedup_hits", stats.dedup_hits as f64),
        ("explore.por_pruned", stats.por_pruned as f64),
        ("explore.us_per_leaf", ratio(verdict_ns / NS_PER_US, leaves)),
        ("explore.leaves_per_s", ratio(leaves * 1e9, verdict_ns)),
    ]);

    // The explorer's view of the initial state, and its independence test.
    let exec = scenario.runtime_executor();
    let mut enabled = Vec::new();
    t.span("explore.describe_enabled", |_| {
        exec.describe_enabled(&mut enabled)
    });
    let started = Instant::now();
    for a in &enabled {
        for b in &enabled {
            black_box(actions_commute(&scenario.system, a, b));
        }
    }
    out.push((
        "explore.commute_ns",
        ratio(
            started.elapsed().as_nanos() as f64,
            (enabled.len() * enabled.len()) as f64,
        ),
    ));

    // One fair run three ways: the engine's public loop (cost per step),
    // the probed copy (where a step's time goes), the sustained loop on a
    // twin runtime (what the same schedule costs without the Executor).
    let mut exec = scenario.runtime_executor();
    let (outcome, steps) = t.span("engine.run", |_| {
        run_with_source_counted(
            &mut exec,
            &mut RotatingSource::default(),
            scenario.max_steps,
        )
    });
    let mut probed = scenario.runtime_executor();
    let again = probed_loop(
        &mut probed,
        &mut RotatingSource::default(),
        scenario.max_steps,
        t,
        out,
    );
    if outcome != RunOutcome::Quiescent || again != (outcome, steps) {
        return Err(format!(
            "fair run: engine loop {outcome:?}/{steps}, probed copy {again:?}"
        ));
    }
    let mut twin = scenario.runtime_executor().into_runtime();
    let set = twin.system().universe();
    let quiescent = t.span("core.run", |_| twin.run_sustained(set, scenario.max_steps));
    if !quiescent {
        return Err("sustained twin of the fair run does not quiesce".into());
    }
    let report = twin.report(true);
    run_counts(&twin, &report, t.span_ns(rep_id, "core.run"), out);
    let engine_ns_per_step = ratio(t.span_ns(rep_id, "engine.run"), steps as f64);
    let sustained_ns_per_step = ratio(t.span_ns(rep_id, "core.run"), twin.now().0 as f64);
    out.push(("engine.loop_ns_per_step", engine_ns_per_step));
    out.push((
        "engine.vs_sustained_x",
        ratio(engine_ns_per_step, sustained_ns_per_step),
    ));
    Ok(())
}

fn levelb(run: &LevelBRun, d: &ScnDescriptor, rep_id: u32, t: &mut Tracer, out: &mut Layers) {
    let LevelBRun {
        scenario,
        report,
        steps,
        msgs_sent,
    } = run;
    let (steps, msgs_sent) = (*steps as f64, *msgs_sent as f64);
    spec_parts(report, t);
    latency_ticks(report, out);
    let deliveries = delivered(report) as f64;
    out.extend([
        ("core.deliveries", deliveries),
        ("kernel.steps", steps),
        ("kernel.msgs_sent", msgs_sent),
        ("kernel.msgs_per_delivery", ratio(msgs_sent, deliveries)),
        ("kernel.steps_per_delivery", ratio(steps, deliveries)),
        // the repetition's run *is* the engine's public loop
        (
            "engine.loop_ns_per_step",
            ratio(t.span_ns(rep_id, "engine.run"), steps),
        ),
    ]);
    let mut probed = scenario.kernel_executor();
    probed_loop(
        &mut probed,
        &mut RandomSource::new(d.seed),
        scenario.max_steps,
        t,
        out,
    );
}

/// The shared objects standalone, built as `crates/bench/benches/substrate.rs`
/// builds them: one Paxos decision and one ABD write+read round among three
/// processes under the fair driver, and the sequential log and consensus
/// specifications per operation.
fn objects(t: &mut Tracer, out: &mut Layers) {
    let scope = ProcessSet::first_n(3);
    let pattern = FailurePattern::all_correct(scope);
    t.span("objects.paxos_decide", |_| {
        let history = OmegaSigmaHistory::new(
            OmegaOracle::new(scope, pattern.clone(), OmegaMode::MinAlive),
            SigmaOracle::new(scope, pattern.clone(), SigmaMode::Alive),
        );
        let autos: Vec<PaxosProcess<u64>> =
            scope.iter().map(|p| PaxosProcess::new(p, scope)).collect();
        let mut sim = Simulator::new(autos, pattern.clone(), history);
        sim.automaton_mut(ProcessId(0)).propose(0, 42);
        black_box(run_fair(&mut KernelExecutor::new(sim), 1_000_000))
    });
    t.span("objects.abd_write_read", |_| {
        let sigma = SigmaOracle::new(scope, pattern.clone(), SigmaMode::Alive);
        let autos: Vec<AbdProcess<u64>> = scope.iter().map(|p| AbdProcess::new(p, scope)).collect();
        let mut sim = Simulator::new(autos, pattern.clone(), sigma);
        sim.automaton_mut(ProcessId(0)).write(RegisterId(0), 7);
        sim.automaton_mut(ProcessId(1)).read(RegisterId(0));
        black_box(run_fair(&mut KernelExecutor::new(sim), 1_000_000))
    });
    // Tens of nanoseconds per operation: timed as a loop, not call by call.
    const OPS: u64 = 1000;
    let mut per_op = |metric: &'static str, ops: u64, f: &mut dyn FnMut(u64)| {
        let started = Instant::now();
        for i in 0..ops {
            f(i);
        }
        out.push((metric, started.elapsed().as_nanos() as f64 / ops as f64));
    };
    let mut log = Log::new();
    per_op("objects.log_append_ns", OPS, &mut |i| {
        black_box(log.append(i));
    });
    per_op("objects.log_bump_lock_ns", OPS, &mut |i| {
        black_box(log.bump_and_lock(&i, Pos(OPS + i)));
    });
    let mut consensus = Consensus::new();
    per_op("objects.consensus_propose_ns", 100, &mut |i| {
        black_box(consensus.propose(i));
    });
}
