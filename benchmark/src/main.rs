//! Command line of the benchmark.
//!
//! ```text
//! gam-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! gam-benchmark run [--seed N] [--seconds S] [--quick] [--out FILE]
//! gam-benchmark compare A.json B.json
//! ```
//!
//! The first form is the one the driver calls (see `BENCHMARK.json`): one
//! workload, one mode, and as the last line of standard output one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`. The
//! second runs all seven workloads, each mode in a process of its own (so
//! that peak memory is the workload's), and merges their records into one
//! file for `compare`.

use gam_benchmark::compare::compare;
use gam_benchmark::host::{self, Host};
use gam_benchmark::json::Json;
use gam_benchmark::run::{self, Mode, Options, Report};
use gam_benchmark::workloads::{self, Driver, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Window of the driver's runs (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 8.0;
const DEFAULT_SEED: u64 = 7;

const USAGE: &str = "usage:
  gam-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
  gam-benchmark run [--seed N] [--seconds S] [--quick] [--out FILE]
  gam-benchmark compare A.json B.json";

/// Where records and traces go: `out/` beside this package's manifest
/// (cargo exports the directory to what it runs), else `benchmark/out`
/// under the current directory.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

fn write_file(path: &Path, value: &Json) -> Result<(), String> {
    let dir = path.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, value.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<Mode>,
    quick: bool,
    out: Option<PathBuf>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => Mode::Timed,
                    "1" => Mode::Traced,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => parsed.files.push(file.to_string()),
        }
    }
    Ok(parsed)
}

fn section(mode: Mode) -> &'static str {
    match mode {
        Mode::Timed => "end_to_end",
        Mode::Traced => "per_layer",
    }
}

/// `{name: {value, unit[, q1, q3]}}` of a run's values.
fn metrics_json(report: &Report, with_quartiles: bool) -> Json {
    Json::Obj(
        report
            .values
            .iter()
            .map(|v| {
                let mut fields = vec![("value", Json::from(v.value)), ("unit", Json::from(v.unit))];
                if with_quartiles {
                    fields.extend([("q1", Json::from(v.q1)), ("q3", Json::from(v.q3))]);
                }
                (v.name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

/// The record of one run, in the shape `compare` reads and the all-workloads
/// command merges.
fn record(o: &Options, host: &Host, marked: Option<&str>, report: &Report) -> Json {
    let prefix = section(o.mode);
    let mut fields = vec![
        (
            "inputs".to_string(),
            report.inputs.iter().map(String::as_str).collect::<Json>(),
        ),
        (format!("{prefix}.reps"), Json::from(report.reps)),
        (format!("{prefix}.attempted"), Json::from(report.attempted)),
        (
            format!("{prefix}.failures"),
            report.failures.iter().map(String::as_str).collect::<Json>(),
        ),
        (prefix.to_string(), metrics_json(report, true)),
    ];
    if let Some(why) = marked {
        fields.push(("marked".to_string(), Json::from(why)));
    }
    Json::obj([
        ("host", host.to_json()),
        ("seed", Json::from(o.seed)),
        ("seconds", Json::from(o.seconds)),
        ("quick", Json::from(o.quick)),
        (
            "workloads",
            Json::obj([(o.workload.name, Json::Obj(fields))]),
        ),
    ])
}

/// The line the driver reads.
fn result_line(report: &Report) -> Json {
    Json::obj([
        ("correct", Json::from(report.failures.is_empty())),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failures.len())),
        ("metrics", metrics_json(report, false)),
    ])
}

/// 0 when nothing failed (or got worse), else 1.
fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(workload: &'static Workload, args: &Args) -> Result<ExitCode, String> {
    let o = Options {
        workload,
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 1.0 } else { DEFAULT_SECONDS }),
        mode: args.trace.unwrap_or(Mode::Timed),
        quick: args.quick,
    };
    let host = host::fingerprint();
    println!(
        "# gam-benchmark workload={} seed={} seconds={} trace={} quick={} nproc={} cpu=\"{}\" rustc=\"{}\" profile={} commit={}",
        workload.name,
        o.seed,
        o.seconds,
        u8::from(o.mode == Mode::Traced),
        o.quick,
        host.nproc,
        host.cpu,
        host.rustc,
        host.profile,
        host.commit,
    );
    let marked = match workload.driver {
        Driver::Serve { threads, .. } if threads > host.nproc => {
            println!("# WARNING {}: {threads} worker threads on {} core(s); the row is marked and says nothing about parallel speed", workload.name, host.nproc);
            Some("nproc<threads")
        }
        _ => None,
    };

    let report = run::run(&o);

    println!(
        "# inputs={} first=\"{}\"",
        report.inputs.len(),
        report.inputs[0]
    );
    println!(
        "# reps={} attempted={} failed={}",
        report.reps,
        report.attempted,
        report.failures.len()
    );
    for v in &report.values {
        println!("{} {} {} {}", workload.name, v.name, v.value, v.unit);
    }
    let dir = out_dir();
    let written = write_file(
        &dir.join(format!("{}.{}.json", workload.name, section(o.mode))),
        &record(&o, &host, marked, &report),
    )
    .and_then(|()| match &report.trace {
        Some(trace) => {
            let file = Json::obj([
                ("workload", Json::from(workload.name)),
                ("seed", Json::from(o.seed)),
                ("host", host.to_json()),
                ("trace", trace.clone()),
            ]);
            write_file(&dir.join(format!("{}.trace.json", workload.name)), &file)
        }
        None => Ok(()),
    });
    if let Err(e) = written {
        // the result line below is still good
        eprintln!("warning: {e}");
    }
    println!("{}", result_line(&report).compact());
    Ok(exit_code(report.failures.is_empty()))
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable not found: {e}"))?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let dir = out_dir();
    // The merged record: the first child's header (host, seed, window), and
    // per workload the fields of its two children side by side.
    let mut header: Option<Vec<(String, Json)>> = None;
    let mut workloads = Vec::new();
    let mut failed = Vec::new();
    for w in &WORKLOADS {
        let mut fields: Vec<(String, Json)> = Vec::new();
        // The traced pass needs its repetitions, not a long window.
        for (mode, trace, seconds) in [
            (Mode::Timed, "0", seconds),
            (Mode::Traced, "1", (seconds / 4.0).max(1.0)),
        ] {
            let mut child = Command::new(&exe);
            child.args(["run", "--workload", w.name, "--trace", trace]);
            child.args(["--seed", &seed.to_string()]);
            if args.quick {
                child.arg("--quick");
            } else {
                child.args(["--seconds", &seconds.to_string()]);
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {}: {e}", w.name))?;
            if !status.success() {
                failed.push(format!("{} --trace {trace}: {status}", w.name));
            }
            let path = dir.join(format!("{}.{}.json", w.name, section(mode)));
            let record = read_file(&path)?;
            let of_workload = record.get("workloads").and_then(|all| all.get(w.name));
            for (key, value) in of_workload.and_then(Json::as_obj).unwrap_or_default() {
                // `inputs` (and a mark) come with both children
                if !fields.iter().any(|(have, _)| have == key) {
                    fields.push((key.clone(), value.clone()));
                }
            }
            header.get_or_insert_with(|| {
                let all = record.as_obj().unwrap_or_default();
                all.iter()
                    .filter(|(key, _)| key != "workloads")
                    .cloned()
                    .collect()
            });
        }
        workloads.push((w.name.to_string(), Json::Obj(fields)));
    }
    let mut merged = header.unwrap_or_default();
    merged.push(("workloads".to_string(), Json::Obj(workloads)));
    let merged = Json::Obj(merged);
    let out = args.out.clone().unwrap_or_else(|| dir.join("results.json"));
    write_file(&out, &merged)?;
    println!("# wrote {}", out.display());
    for f in &failed {
        println!("FAILED {f}");
    }
    Ok(exit_code(failed.is_empty()))
}

fn main_inner() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = argv.split_first().ok_or(USAGE)?;
    let args = parse_args(rest)?;
    let workload = || -> Result<Option<&'static Workload>, String> {
        args.workload
            .as_deref()
            .map(|name| {
                workloads::find(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })
            })
            .transpose()
    };
    match command.as_str() {
        "run" => {
            if host::is_debug_build() && !args.quick {
                return Err("this is a debug build: measure with `cargo run --release` (a debug build runs `--quick` smoke passes only)".into());
            }
            match workload()? {
                Some(w) => run_one(w, &args),
                None => run_all(&args),
            }
        }
        // One repetition in a fresh process, for `setup_s` (see `run::cold_starts`).
        "cold" => {
            let w = workload()?.ok_or("cold needs --workload")?;
            run::cold(w, args.seed.unwrap_or(DEFAULT_SEED))?;
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let [a, b] = args.files.as_slice() else {
                return Err(USAGE.into());
            };
            let result = compare(&read_file(Path::new(a))?, &read_file(Path::new(b))?)?;
            for line in &result.lines {
                println!("{line}");
            }
            println!(
                "# worse: {}, differing exact counts: {}",
                result.worse, result.differing_counts
            );
            Ok(exit_code(result.worse == 0))
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
