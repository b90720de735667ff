//! Drives the built binary the way the driver and a user do.

use gam_benchmark::json::Json;
use gam_benchmark::metrics::{END_TO_END, PER_LAYER};
use gam_benchmark::workloads::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gam-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn read(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).expect("file was written")).expect("file is JSON")
}

fn names(object: &Json) -> Vec<&str> {
    object
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_lists_the_tables_of_this_package() {
    let file = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    assert_eq!(
        names(&file),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let rows = |key: &str| {
        file.get(key)
            .and_then(Json::as_arr)
            .expect("a list")
            .to_vec()
    };
    let text = |row: &Json, key: &str| {
        row.get(key)
            .and_then(Json::as_str)
            .expect("a string")
            .to_string()
    };

    let workloads = rows("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (row, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(names(row), ["name", "why"]);
        assert_eq!(
            (text(row, "name"), text(row, "why")),
            (w.name.to_string(), w.why.to_string())
        );
    }
    let end_to_end = rows("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (row, m) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(names(row), ["name", "unit", "better", "bound"]);
        assert_eq!(text(row, "name"), m.name);
        assert_eq!(text(row, "unit"), m.unit);
        assert_eq!(text(row, "better"), m.better.as_str());
        assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let per_layer = rows("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (row, m) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(names(row), ["name", "unit", "better"]);
        assert_eq!(text(row, "name"), m.name);
        assert_eq!(text(row, "unit"), m.unit);
        assert_eq!(text(row, "better"), m.better.as_str());
    }
    // every name is used once
    let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    all.extend(END_TO_END.iter().map(|m| m.name));
    all.extend(PER_LAYER.iter().map(|m| m.name));
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n);
}

#[test]
fn bad_command_lines_are_usage_errors_without_a_result() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["run", "--workload", "nope", "--quick"],
        &[
            "run",
            "--workload",
            "levelb_fig1",
            "--trace",
            "2",
            "--quick",
        ],
        &["run", "--seconds", "0", "--quick"],
        &["run", "--seed"],
        &["run", "--frobnicate"],
        &["compare", "only-one.json"],
        &["compare", "/nonexistent/a.json", "/nonexistent/b.json"],
        &["cold"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!stdout(&out).contains("\"correct\""), "{args:?}");
    }
}

#[test]
fn a_debug_build_refuses_to_measure() {
    if !cfg!(debug_assertions) {
        return; // `cargo test --release`: nothing to refuse
    }
    let out = bench(&[
        "run",
        "--workload",
        "levelb_fig1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
    assert!(stdout(&out).is_empty());
}

/// The line the driver reads: exactly four keys, every metric of the mode
/// with its unit, nothing failed.
fn check_result_line(line: &str, traced: bool) {
    let result = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(
        names(&result),
        ["correct", "attempted", "failed", "metrics"]
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").unwrap();
    let expected: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    assert_eq!(
        names(metrics),
        expected.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );
    for (name, unit) in expected {
        let m = metrics.get(name).unwrap();
        assert_eq!(names(m), ["value", "unit"]);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} is a number"));
        assert!(value.is_finite());
        if !traced {
            assert!(value > 0.0, "end-to-end metric {name} is never 0");
        }
    }
}

#[test]
fn quick_passes_at_two_seeds_fail_nothing_and_compare_agrees_with_itself() {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    // one after the other: both passes write the per-workload records
    for seed in ["7", "8"] {
        let results = out_dir.join(format!("quick-{seed}.json"));
        let _ = std::fs::remove_file(&results);
        let out = bench(&[
            "run",
            "--quick",
            "--seed",
            seed,
            "--out",
            results.to_str().unwrap(),
        ]);
        let text = stdout(&out);
        assert!(
            out.status.success(),
            "{text}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!text.contains("FAILED"), "{text}");

        // each child printed its result line
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(lines.len(), 2 * WORKLOADS.len());
        for (i, line) in lines.iter().enumerate() {
            check_result_line(line, i % 2 == 1);
        }

        let merged = read(&results);
        assert_eq!(
            merged.get("seed").and_then(Json::as_f64),
            Some(seed.parse().unwrap())
        );
        for key in ["nproc", "cpu", "rustc", "profile", "commit"] {
            assert!(
                merged.get("host").unwrap().get(key).is_some(),
                "fingerprint has {key}"
            );
        }
        let workloads = merged.get("workloads").unwrap();
        assert_eq!(
            names(workloads),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for w in &WORKLOADS {
            let record = workloads.get(w.name).unwrap();
            assert_eq!(
                record.get("inputs").and_then(Json::as_arr).unwrap().len(),
                w.inputs
            );
            for section in ["end_to_end", "per_layer"] {
                assert!(record.get(section).is_some(), "{} {section}", w.name);
                let failures = record
                    .get(&format!("{section}.failures"))
                    .and_then(Json::as_arr)
                    .unwrap();
                assert!(failures.is_empty(), "{} {section}: {failures:?}", w.name);
                assert!(
                    record
                        .get(&format!("{section}.reps"))
                        .and_then(Json::as_f64)
                        .unwrap()
                        >= 1.0
                );
            }
            let failed_share = record
                .get("per_layer")
                .unwrap()
                .get("bench.failed_share")
                .unwrap();
            assert_eq!(
                failed_share.get("value").and_then(Json::as_f64),
                Some(0.0),
                "{}",
                w.name
            );
            let trace = read(&out_dir.join(format!("{}.trace.json", w.name)));
            let spans = trace
                .get("trace")
                .unwrap()
                .get("spans")
                .and_then(Json::as_arr)
                .unwrap();
            assert!(spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some("probes")));
        }

        let path = results.to_str().unwrap();
        let same = bench(&["compare", path, path]);
        assert!(same.status.success(), "{}", stdout(&same));
        assert!(stdout(&same).contains("# worse: 0, differing exact counts: 0"));
    }

    // Exact counts are a function of the seed: another seed, other counts.
    let (a, b) = (out_dir.join("quick-7.json"), out_dir.join("quick-8.json"));
    let differ = bench(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(
        stdout(&differ).contains("COUNT DIFFERS"),
        "{}",
        stdout(&differ)
    );
}
