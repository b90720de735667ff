//! One run of one workload: set-up, warm-up, the timed window or the traced
//! pass, and the correctness gate every repetition goes through.
//!
//! Closed loop, one client: a repetition starts when the previous one ends.
//! Repetitions cycle through the run's descriptors, so every descriptor is
//! sampled about equally often.

use crate::host;
use crate::json::Json;
use crate::metrics::{end_to_end, PER_LAYER};
use crate::probes::{self, fold};
use crate::stats::{self, Batch};
use crate::trace::Tracer;
use crate::workloads::{load_runtime, Driver, Rep, Workload};
use gam_engine::run_sustained_par;
use gam_scenarios::ScnDescriptor;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What `--trace` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the end-to-end metrics.
    Timed,
    /// The traced pass: the per-layer metrics.
    Traced,
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the timed window (or the traced pass) in seconds.
    pub seconds: f64,
    pub mode: Mode,
    /// Smoke use: one repetition is enough everywhere.
    pub quick: bool,
}

/// Warm-up lasts until this much time has passed (at least one repetition).
const WARM_UP: Duration = Duration::from_secs(1);
/// Cold starts are repeated until this much time has passed (at least
/// [`MIN_COLD_STARTS`], at most [`MAX_COLD_STARTS`]).
const COLD_STARTS: Duration = Duration::from_secs(1);
const MIN_COLD_STARTS: usize = 3;
const MAX_COLD_STARTS: usize = 15;
/// The traced pass cycles through this many of the run's descriptors: a
/// fixed set, so that the exact counts it reports are a function of the seed
/// and not of how far the pass got.
const TRACED_INPUTS: usize = 4;

#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles of the repetition-to-repetition scatter around `value`
    /// (both equal to it where the metric is not sampled repeatedly).
    pub q1: f64,
    pub q3: f64,
}

impl Value {
    fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Value {
            name,
            unit,
            value,
            q1: value,
            q3: value,
        }
    }
}

#[derive(Debug)]
pub struct Report {
    pub inputs: Vec<String>,
    /// Repetitions attempted: cold starts, warm-up, timed and traced.
    pub attempted: u64,
    /// One line per failed repetition or check.
    pub failures: Vec<String>,
    /// Repetitions inside the timed window (untraced ones, in a traced pass).
    pub reps: u64,
    pub values: Vec<Value>,
    /// Spans and probes of a traced pass.
    pub trace: Option<Json>,
}

/// The correctness gate: every repetition quiesces within the descriptor's
/// budget, passes the spec check (or explores without a violation), and
/// produces the same output digest as the first repetition of its
/// descriptor. A miss is printed at once and counted.
struct Gate<'a> {
    workload: &'a Workload,
    inputs: &'a [String],
    first_hash: Vec<Option<u64>>,
    attempted: u64,
    failures: Vec<String>,
}

impl<'a> Gate<'a> {
    fn new(workload: &'a Workload, inputs: &'a [String]) -> Self {
        Gate {
            workload,
            inputs,
            first_hash: vec![None; inputs.len()],
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, phase: &str, n: u64, what: &str) {
        let line = format!("{} {phase} rep {n}: {what}", self.workload.name);
        println!("FAILED {line}");
        self.failures.push(line);
    }

    /// Runs repetition `n` of `phase` on descriptor `input`; `None` if it
    /// failed.
    fn rep(&mut self, phase: &str, n: u64, input: usize, t: &mut Tracer) -> Option<Rep> {
        self.attempted += 1;
        match self.workload.rep(&self.inputs[input], t) {
            Err(what) => {
                self.fail(phase, n, &format!("input {input}: {what}"));
                None
            }
            Ok(rep) => {
                match *self.first_hash[input].get_or_insert(rep.hash) {
                    first if first == rep.hash => Some(rep),
                    first => {
                        let what = format!("input {input}: output digest {:016x}, first repetition had {first:016x}", rep.hash);
                        self.fail(phase, n, &what);
                        None
                    }
                }
            }
        }
    }

    /// Repetitions on descriptors `0..inputs` in turn until [`WARM_UP`] has
    /// passed. For the sharded workload the first of them is also compared,
    /// off every clock, with a sequential twin.
    fn warm_up(&mut self, inputs: usize) {
        if let Driver::Serve { batch_max, threads } = self.workload.driver {
            if threads > 1 {
                if let Err(what) = twin_check(&self.inputs[0], batch_max, threads) {
                    self.fail("twin check", 0, &what);
                }
            }
        }
        let started = Instant::now();
        let mut n = 0u64;
        while n == 0 || started.elapsed() < WARM_UP {
            self.rep("warm-up", n, n as usize % inputs, &mut Tracer::new(false));
            n += 1;
        }
    }
}

/// The parallel driver must leave the state the sequential driver leaves:
/// the whole `fold_state` walk, word for word.
fn twin_check(text: &str, batch_max: u32, threads: usize) -> Result<(), String> {
    let d = ScnDescriptor::parse(text).map_err(|e| e.to_string())?;
    let off = &mut Tracer::new(false);
    let (mut parallel, mut sequential) = (
        load_runtime(&d, batch_max, off),
        load_runtime(&d, batch_max, off),
    );
    let set = parallel.system().universe();
    let p = run_sustained_par(&mut parallel, set, d.budget, threads);
    let s = sequential.run_sustained(set, d.budget);
    if p != s || fold(&parallel) != fold(&sequential) {
        return Err(format!(
            "parallel run (quiescent: {p}) and sequential twin (quiescent: {s}) differ"
        ));
    }
    Ok(())
}

/// Set-up as a user meets it: a fresh process that renders the workload's
/// inputs and takes the first descriptor to its verdict, timed from spawn to
/// exit. Whatever a change moves out of the repetitions and into one-time
/// work (a table built on first use, a cache filled at start) lands here.
fn cold_starts(o: &Options, gate: &mut Gate) -> Vec<f64> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            gate.fail("cold start", 0, &format!("own executable not found: {e}"));
            return Vec::new();
        }
    };
    let (min, max) = if o.quick {
        (1, 1)
    } else {
        (MIN_COLD_STARTS, MAX_COLD_STARTS)
    };
    let started = Instant::now();
    let (mut samples, mut failed) = (Vec::new(), 0);
    // children that keep failing are not retried for ever
    while failed < min
        && (samples.len() < min || (samples.len() < max && started.elapsed() < COLD_STARTS))
    {
        gate.attempted += 1;
        let spawned = Instant::now();
        let status = Command::new(&exe)
            .args([
                "cold",
                "--workload",
                o.workload.name,
                "--seed",
                &o.seed.to_string(),
            ])
            .stdout(Stdio::null())
            .status();
        let took = spawned.elapsed().as_secs_f64();
        let what = match status {
            Ok(s) if s.success() => {
                samples.push(took);
                continue;
            }
            Ok(s) => format!("child {s}"),
            Err(e) => format!("spawn failed: {e}"),
        };
        gate.fail("cold start", samples.len() as u64, &what);
        failed += 1;
    }
    samples
}

/// The body of a cold-start child: one repetition on the first descriptor.
///
/// # Errors
///
/// Returns the repetition's failure.
pub fn cold(workload: &Workload, seed: u64) -> Result<(), String> {
    let inputs = workload.render(seed);
    workload
        .rep(&inputs[0], &mut Tracer::new(false))
        .map(|_| ())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(o: &Options) -> Report {
    let inputs = o.workload.render(o.seed);
    let mut gate = Gate::new(o.workload, &inputs);
    let (reps, values, trace) = match o.mode {
        Mode::Timed => {
            let (reps, values) = timed(o, &mut gate);
            (reps, values, None)
        }
        Mode::Traced => {
            let (reps, values, trace) = traced(o, &mut gate);
            (reps, values, Some(trace))
        }
    };
    let Gate {
        attempted,
        failures,
        ..
    } = gate;
    Report {
        inputs,
        attempted,
        failures,
        reps,
        values,
        trace,
    }
}

fn batch_value(name: &'static str, unit: &'static str, batch: &Batch) -> Value {
    let (q1, q3) = batch.quartiles();
    Value {
        name,
        unit,
        value: batch.value(),
        q1,
        q3,
    }
}

/// Tracing off: set-up, warm-up, then repetitions for `seconds` — and at
/// least one per descriptor, so that the medians are over the whole batch.
fn timed(o: &Options, gate: &mut Gate) -> (u64, Vec<Value>) {
    let k = gate.inputs.len();
    let setup = stats::sorted(cold_starts(o, gate));
    gate.warm_up(k);

    let (mut e2e, mut verdict) = (Batch::new(k), Batch::new(k));
    let mut deliveries = vec![0u64; k];
    let min_reps = if o.quick { 1 } else { k.max(3) } as u64;
    let window = Instant::now();
    let mut n = 0u64;
    while n < min_reps || window.elapsed().as_secs_f64() < o.seconds {
        let input = n as usize % k;
        if let Some(rep) = gate.rep("timed", n, input, &mut Tracer::new(false)) {
            e2e.push(input, ms(rep.e2e));
            verdict.push(input, ms(rep.verdict));
            deliveries[input] = rep.deliveries;
        }
        n += 1;
    }
    // Each descriptor's deliveries over its own median time: the rate is
    // the reciprocal view of `e2e_ms_p50`, so the quartiles swap.
    let mut rate = Batch::new(k);
    for (input, delivered) in deliveries.iter().enumerate() {
        let samples = e2e.of_input(input);
        if !samples.is_empty() {
            let per_ms = *delivered as f64 / stats::median(samples.to_vec());
            rate.push(input, per_ms * 1e3);
        }
    }
    let (rate, (fast_ms, slow_ms)) = (rate.value(), e2e.quartiles());
    let share = |ms: f64| if ms > 0.0 { e2e.value() / ms } else { 1.0 };

    let unit = |name| end_to_end(name).expect("listed metric").unit;
    let setup_s = if setup.is_empty() {
        Value::single("setup_s", unit("setup_s"), 0.0)
    } else {
        Value {
            name: "setup_s",
            unit: unit("setup_s"),
            value: stats::percentile(&setup, 0.5),
            q1: stats::percentile(&setup, 0.25),
            q3: stats::percentile(&setup, 0.75),
        }
    };
    let values = vec![
        setup_s,
        batch_value("e2e_ms_p50", unit("e2e_ms_p50"), &e2e),
        batch_value("verdict_ms_p50", unit("verdict_ms_p50"), &verdict),
        Value {
            name: "deliveries_per_s",
            unit: unit("deliveries_per_s"),
            value: rate,
            q1: rate * share(slow_ms),
            q3: rate * share(fast_ms),
        },
        Value::single("peak_rss_mb", unit("peak_rss_mb"), host::peak_rss_mb()),
    ];
    (n, values)
}

/// Cost of one `Instant::now` pair, the floor under every span and probe.
fn timer_ns() -> f64 {
    const PAIRS: u32 = 10_000;
    let started = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now().elapsed());
    }
    started.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// The traced pass: pairs of an untraced and a traced repetition of the same
/// descriptor (the median of their ratios is the tracing overhead), each pair
/// followed by the workload's probes on the traced one's output.
fn traced(o: &Options, gate: &mut Gate) -> (u64, Vec<Value>, Json) {
    let k = gate.inputs.len().min(TRACED_INPUTS);
    gate.warm_up(k);

    let mut tracer = Tracer::new(true);
    let mut e2e = Batch::new(k);
    // traced ÷ untraced verdict time, pair by pair
    let mut overhead = Vec::new();
    let mut layers: BTreeMap<&'static str, Batch> = BTreeMap::new();
    let min_pairs = if o.quick { 1 } else { k.max(3) } as u64;
    let window = Instant::now();
    let mut n = 0u64;
    while n < min_pairs || window.elapsed().as_secs_f64() < o.seconds {
        let input = n as usize % k;
        // Whichever repetition of a pair runs second finds the caches and
        // the allocator warm, so the pairs take turns.
        let (mut plain, mut spanned, mut rep_id) = (None, None, 0);
        let traced_first = n % 2 == 1;
        for with_spans in [traced_first, !traced_first] {
            if with_spans {
                rep_id = tracer.begin_rep();
                spanned = gate.rep("traced", n, input, &mut tracer);
            } else {
                plain = gate.rep("untraced", n, input, &mut Tracer::new(false));
            }
        }
        if let Some(rep) = &plain {
            e2e.push(input, ms(rep.e2e));
        }
        if let (Some(plain), Some(spanned)) = (&plain, &spanned) {
            overhead.push(spanned.verdict.as_secs_f64() / plain.verdict.as_secs_f64());
        }
        if let Some(rep) = spanned {
            match probes::layers(o.workload, &rep, rep_id, &mut tracer) {
                Ok(values) => {
                    for (name, value) in values {
                        layers
                            .entry(name)
                            .or_insert_with(|| Batch::new(k))
                            .push(input, value);
                    }
                }
                Err(what) => gate.fail("probes", n, &format!("input {input}: {what}")),
            }
        }
        n += 1;
    }

    // Counts are exact or they are a finding: every repetition of one
    // descriptor must have produced the same value.
    for m in PER_LAYER.iter().filter(|m| m.exact) {
        let Some(batch) = layers.get(m.name) else {
            continue;
        };
        for input in 0..k {
            let samples = batch.of_input(input);
            if samples.iter().any(|v| *v != samples[0]) {
                gate.fail(
                    "traced",
                    n,
                    &format!(
                        "input {input}: behaviour change, {} is not exact: {samples:?}",
                        m.name
                    ),
                );
            }
        }
    }

    let pooled = e2e.pooled();
    let (tail_rank, tail) = stats::tail(&pooled).unwrap_or((0.0, 0.0));
    let (q1, q3) = e2e.quartiles();
    let overhead_pct = if overhead.is_empty() {
        0.0
    } else {
        100.0 * (stats::median(overhead) - 1.0)
    };
    for (name, value) in [
        ("bench.reps", n as f64),
        ("bench.tail_rank", tail_rank),
        ("bench.e2e_ms_tail", tail),
        ("bench.e2e_ms_iqr", q3 - q1),
        ("bench.trace_overhead_pct", overhead_pct),
        ("bench.timer_ns", timer_ns()),
        (
            "bench.failed_share",
            gate.failures.len() as f64 / gate.attempted.max(1) as f64,
        ),
    ] {
        let mut once = Batch::new(1);
        once.push(0, value);
        layers.insert(name, once);
    }
    let values = PER_LAYER
        .iter()
        .map(|m| match layers.get(m.name) {
            Some(batch) => batch_value(m.name, m.unit, batch),
            None => Value::single(m.name, m.unit, 0.0),
        })
        .collect();
    (n, values, tracer.to_json())
}
