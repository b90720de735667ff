//! Golden-file tests: every lint family has a fixture that fires, a
//! fixture whose findings are suppressed with a reason, and a clean
//! fixture. Fixtures live in `tests/fixtures/` (excluded from the repo
//! self-scan by `gam-lint.toml`) and are fed through [`scan_sources`] under
//! a pseudo-path that puts them in the lint's scope.

use gam_lint::config::Config;
use gam_lint::report::{Report, Severity};
use gam_lint::scan_sources;

/// Reads a fixture and scans it as if it lived at `as_path`.
fn scan_fixture(name: &str, as_path: &str, config: &Config) -> Report {
    let file = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file}: {e}"));
    scan_sources(vec![(as_path.to_string(), src)], config)
}

/// The scoping used by the golden tests: one deterministic crate, one
/// protocol dir, one digest file. U001 is switched off: a fixture scanned
/// alone has no callers, so every `pub` item in it would be listed. The
/// census has its own test below.
fn config() -> Config {
    Config {
        deterministic: vec!["crates/core".into()],
        protocol: vec!["crates/core/src".into()],
        digest: vec!["crates/core/src/digest.rs".into()],
        ..no_census()
    }
}

/// The default config with U001 switched off.
fn no_census() -> Config {
    Config {
        severity: [("U001".to_string(), Severity::Allow)].into(),
        ..Config::default()
    }
}

/// The `(id, line)` pairs of a report, for exact golden comparison.
fn findings(r: &Report) -> Vec<(&'static str, u32)> {
    r.diagnostics.iter().map(|d| (d.id, d.line)).collect()
}

const DET: &str = "crates/core/src/golden.rs";
const DIGEST: &str = "crates/core/src/digest.rs";
// Outside every scope: only the S-lints and P001 can fire here.
const ELSEWHERE: &str = "crates/bench/src/golden.rs";

#[test]
fn d001_fires_suppresses_and_passes() {
    let cfg = config();
    let fired = scan_fixture("d001_fires.rs", DET, &cfg);
    assert_eq!(
        findings(&fired),
        vec![("D001", 2), ("D001", 5), ("D001", 6)],
        "{}",
        fired.to_text()
    );
    let suppressed = scan_fixture("d001_suppressed.rs", DET, &cfg);
    assert_eq!(findings(&suppressed), vec![], "{}", suppressed.to_text());
    assert_eq!(
        suppressed.suppressions.len(),
        2,
        "both allows must be honoured"
    );
    let clean = scan_fixture("d001_clean.rs", DET, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
    // Out of scope, the same hashing code is fine (bench may hash freely).
    let out_of_scope = scan_fixture("d001_fires.rs", ELSEWHERE, &cfg);
    assert_eq!(
        findings(&out_of_scope),
        vec![],
        "{}",
        out_of_scope.to_text()
    );
}

#[test]
fn d002_fires_suppresses_and_passes() {
    let cfg = config();
    let fired = scan_fixture("d002_fires.rs", DET, &cfg);
    assert_eq!(
        findings(&fired),
        vec![
            ("D002", 3),
            ("D002", 3),
            ("D002", 4),
            ("D002", 5),
            ("D002", 8)
        ],
        "{}",
        fired.to_text()
    );
    let suppressed = scan_fixture("d002_suppressed.rs", DET, &cfg);
    assert_eq!(findings(&suppressed), vec![], "{}", suppressed.to_text());
    let clean = scan_fixture("d002_clean.rs", DET, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
}

#[test]
fn d002_scenario_generator_idiom_is_clean_in_scope() {
    // `crates/scenarios` sits in the [deterministic] scope: its generator
    // idiom — descriptor-seeded `StdRng` streams over derived sub-seeds —
    // must scan clean even under --deny-warnings, while the same generator
    // shape seeded from the OS fires D002 on every entropy/clock read.
    let cfg = Config {
        deterministic: vec!["crates/scenarios".into()],
        ..no_census()
    };
    const GEN: &str = "crates/scenarios/src/generate.rs";
    let clean = scan_fixture("d002_generator_clean.rs", GEN, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
    assert!(
        !clean.failed(true),
        "clean generator survives --deny-warnings"
    );
    let fired = scan_fixture("d002_generator_fires.rs", GEN, &cfg);
    assert_eq!(
        findings(&fired),
        vec![("D002", 5), ("D002", 5), ("D002", 8), ("D002", 12)],
        "{}",
        fired.to_text()
    );
    assert!(fired.failed(false), "D002 is an error in scope");
}

#[test]
fn d003_fires_suppresses_and_passes() {
    let cfg = config();
    let fired = scan_fixture("d003_fires.rs", DET, &cfg);
    assert_eq!(
        findings(&fired),
        vec![("D003", 4), ("D003", 7), ("D003", 10)],
        "{}",
        fired.to_text()
    );
    // D003 is an error: it fails the run without --deny-warnings.
    assert!(fired.failed(false));
    let suppressed = scan_fixture("d003_suppressed.rs", DET, &cfg);
    assert_eq!(findings(&suppressed), vec![], "{}", suppressed.to_text());
    let clean = scan_fixture("d003_clean.rs", DET, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
}

#[test]
fn p001_fires_suppresses_and_passes() {
    let cfg = config();
    // P001 is cross-file and scope-free: an uncovered Executor impl is a
    // finding wherever it lives.
    let fired = scan_fixture("p001_fires.rs", ELSEWHERE, &cfg);
    assert_eq!(findings(&fired), vec![("P001", 4)], "{}", fired.to_text());
    let suppressed = scan_fixture("p001_suppressed.rs", ELSEWHERE, &cfg);
    assert_eq!(findings(&suppressed), vec![], "{}", suppressed.to_text());
    let clean = scan_fixture("p001_clean.rs", ELSEWHERE, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
}

#[test]
fn p001_snapshot_type_must_be_asserted_send() {
    let cfg = config();
    // A SnapshotExec impl owes a Send assert for its checkpoint type: the
    // parallel DFS holds per-worker stacks of snapshots. The diagnostic
    // anchors on the `type Snapshot` line.
    let fired = scan_fixture("p001_snapshot_fires.rs", ELSEWHERE, &cfg);
    assert_eq!(findings(&fired), vec![("P001", 11)], "{}", fired.to_text());
    let suppressed = scan_fixture("p001_snapshot_suppressed.rs", ELSEWHERE, &cfg);
    assert_eq!(findings(&suppressed), vec![], "{}", suppressed.to_text());
    let clean = scan_fixture("p001_snapshot_clean.rs", ELSEWHERE, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
}

#[test]
fn p001_assert_in_another_file_covers_the_impl() {
    let cfg = config();
    let fixture = format!(
        "{}/tests/fixtures/p001_fires.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(fixture).expect("fixture exists");
    let assert_file = "const _: () = { const fn assert_send<T: Send>() {} \
                       assert_send::<LoneExecutor>(); };\n";
    let r = scan_sources(
        vec![
            ("crates/a/src/lib.rs".into(), src),
            ("crates/b/src/lib.rs".into(), assert_file.into()),
        ],
        &cfg,
    );
    assert_eq!(findings(&r), vec![], "{}", r.to_text());
}

#[test]
fn p002_fires_and_passes_only_in_digest_scope() {
    let cfg = config();
    let fired = scan_fixture("p002_fires.rs", DIGEST, &cfg);
    assert_eq!(
        findings(&fired),
        vec![("P002", 3), ("P002", 4)],
        "{}",
        fired.to_text()
    );
    let clean = scan_fixture("p002_clean.rs", DIGEST, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
    // The same float code outside digest scope is not P002's business.
    let out_of_scope = scan_fixture("p002_fires.rs", ELSEWHERE, &cfg);
    assert_eq!(
        findings(&out_of_scope),
        vec![],
        "{}",
        out_of_scope.to_text()
    );
}

#[test]
fn p002_covers_the_interned_arena_module() {
    // The flat protocol core folds its struct-of-arrays state into
    // digests/fingerprints, so `crates/core/src/arena.rs` sits in the
    // [digest] scope: a float laundered through an arena fold fires, the
    // integer-only fold scans clean, and the same code out of scope is
    // none of P002's business.
    let cfg = Config {
        deterministic: vec!["crates/core".into()],
        digest: vec!["crates/core/src/arena.rs".into()],
        ..no_census()
    };
    const ARENA: &str = "crates/core/src/arena.rs";
    let fired = scan_fixture("p002_arena_fires.rs", ARENA, &cfg);
    assert_eq!(
        findings(&fired),
        vec![("P002", 8), ("P002", 9)],
        "{}",
        fired.to_text()
    );
    assert!(fired.failed(false), "P002 is an error in scope");
    let clean = scan_fixture("p002_arena_clean.rs", ARENA, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
    let out_of_scope = scan_fixture("p002_arena_fires.rs", ELSEWHERE, &cfg);
    assert_eq!(
        findings(&out_of_scope),
        vec![],
        "{}",
        out_of_scope.to_text()
    );
}

#[test]
fn p002_covers_the_independence_module() {
    // The independence relation fixes the sharded driver's partition, and
    // with it the byte-identity of the sharded merge, so it must be as
    // platform-exact as a digest: `crates/engine/src/independence.rs` sits
    // in the [digest] scope. A float-scored commutation oracle fires, the
    // exact set-arithmetic one scans clean, a reasoned allow on a
    // diagnostic-only rate is honoured, and the same code out of scope is
    // none of P002's business.
    let cfg = Config {
        deterministic: vec!["crates/engine".into()],
        digest: vec!["crates/engine/src/independence.rs".into()],
        ..no_census()
    };
    const INDEP: &str = "crates/engine/src/independence.rs";
    let fired = scan_fixture("p002_independence_fires.rs", INDEP, &cfg);
    assert_eq!(
        findings(&fired),
        vec![("P002", 6), ("P002", 6), ("P002", 7)],
        "{}",
        fired.to_text()
    );
    assert!(fired.failed(false), "P002 is an error in scope");
    let clean = scan_fixture("p002_independence_clean.rs", INDEP, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
    let suppressed = scan_fixture("p002_independence_suppressed.rs", INDEP, &cfg);
    assert_eq!(findings(&suppressed), vec![], "{}", suppressed.to_text());
    assert_eq!(
        suppressed.suppressions.len(),
        1,
        "the allow must be honoured"
    );
    let out_of_scope = scan_fixture("p002_independence_fires.rs", ELSEWHERE, &cfg);
    assert_eq!(
        findings(&out_of_scope),
        vec![],
        "{}",
        out_of_scope.to_text()
    );
}

#[test]
fn d001_alias_rename_is_no_longer_invisible() {
    // v1 caught `HashMap` only where the name appears literally (line 4,
    // the declaration); the `Map<…>` and `Map::new()` use sites on lines
    // 6 and 7 spell no banned name and were provably invisible to the
    // token layer. The symbol table resolves the rename.
    let cfg = config();
    let fired = scan_fixture("d001_alias_fires.rs", DET, &cfg);
    assert_eq!(
        findings(&fired),
        vec![("D001", 4), ("D001", 6), ("D001", 7)],
        "{}",
        fired.to_text()
    );
    assert!(
        fired.diagnostics[1].message.contains("as `Map`"),
        "alias findings name the rename: {}",
        fired.to_text()
    );
}

#[test]
fn d002_brace_group_alias_evasion_fires() {
    // The evasion v1 provably missed: `use std::{time as wall};` breaks
    // the contiguous `std :: time` token pattern (the `{` intervenes),
    // `wall` is a module alias the per-line scan cannot resolve, and
    // `Duration` is not on the banned-ident list — no v1 pattern matches
    // any line of this fixture. The alias-resolved layer flags the
    // declaration and every `wall::…` site.
    let cfg = config();
    let fired = scan_fixture("d002_alias_fires.rs", DET, &cfg);
    assert_eq!(
        findings(&fired),
        vec![("D002", 6), ("D002", 8), ("D002", 9), ("D002", 12)],
        "{}",
        fired.to_text()
    );
    // Near-misses stay silent: a module alias that does not reach the
    // clock, and a *local* module named `time`.
    let clean = scan_fixture("d002_alias_clean.rs", DET, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
}

#[test]
fn f001_deterministic_roots_must_forbid_unsafe() {
    let cfg = config();
    // The fixture scanned *as the crate root* without the attribute fires;
    // with the attribute it is clean.
    let fired = scan_fixture("f001_fires.rs", "crates/core/src/lib.rs", &cfg);
    assert_eq!(findings(&fired), vec![("F001", 1)], "{}", fired.to_text());
    let clean = scan_fixture("f001_clean.rs", "crates/core/src/lib.rs", &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
    // A scan that does not include the crate's root file cannot judge it:
    // single-file fixture trees stay quiet.
    let no_root = scan_fixture("f001_fires.rs", DET, &cfg);
    assert_eq!(findings(&no_root), vec![], "{}", no_root.to_text());
}

#[test]
fn reasonless_suppression_is_a_diagnostic_and_suppresses_nothing() {
    let cfg = config();
    let r = scan_fixture("s001_reasonless.rs", DET, &cfg);
    // The D001 it tried to silence still fires, plus the S001 itself.
    assert_eq!(
        findings(&r),
        vec![("S001", 4), ("D001", 5)],
        "{}",
        r.to_text()
    );
    assert!(r.failed(false), "S001 is an error");
    assert_eq!(
        r.suppressions.len(),
        0,
        "a reasonless allow is never honoured"
    );
}

#[test]
fn unused_reasoned_suppression_warns() {
    let cfg = config();
    let src = "// gam-lint: allow(D001, reason = \"left over from a refactor\")\npub fn f() {}\n";
    let r = scan_sources(vec![(DET.into(), src.into())], &cfg);
    assert_eq!(findings(&r), vec![("S002", 1)], "{}", r.to_text());
    assert!(!r.failed(false));
    assert!(r.failed(true), "stale allows fail under --deny-warnings");
}

#[test]
fn severity_overrides_apply() {
    let mut cfg = config();
    cfg.severity
        .insert("D001".into(), gam_lint::report::Severity::Warn);
    let fired = scan_fixture("d001_fires.rs", DET, &cfg);
    assert_eq!(fired.errors(), 0);
    assert_eq!(fired.warnings(), 3);
    cfg.severity
        .insert("D001".into(), gam_lint::report::Severity::Allow);
    let off = scan_fixture("d001_fires.rs", DET, &cfg);
    assert_eq!(findings(&off), vec![]);
}

/// Reads a fixture's source.
fn fixture(name: &str) -> String {
    let file = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file}: {e}"))
}

#[test]
fn u001_lists_public_items_no_other_non_test_file_names() {
    // A library, a binary of another crate, an integration test and the
    // benchmark. Only the binary and the benchmark count as callers.
    let tree = |extra: &[(&str, &str)]| {
        let mut files = vec![
            ("crates/store/src/lib.rs", "u001_lib.rs"),
            ("crates/app/src/main.rs", "u001_caller.rs"),
            ("crates/store/tests/oracle.rs", "u001_test.rs"),
            ("benchmark/src/main.rs", "u001_bench.rs"),
        ];
        files.extend_from_slice(extra);
        files
            .into_iter()
            .map(|(path, name)| (path.to_string(), fixture(name)))
            .collect::<Vec<_>>()
    };
    let r = scan_sources(tree(&[]), &Config::default());
    // Listed: `helper_only_here` (used only in its own file, line 10) and
    // `OnlyInTests` (named only by the test, line 15). Not listed: the
    // item called from the binary, the one the benchmark calls, `Counter`
    // with its trait-impl method, and the oracle behind its reasoned allow.
    assert_eq!(
        findings(&r),
        vec![("U001", 10), ("U001", 15)],
        "{}",
        r.to_text()
    );
    assert!(r
        .diagnostics
        .iter()
        .all(|d| d.file == "crates/store/src/lib.rs"));
    assert!(r.failed(false), "U001 is an error");
    assert_eq!(r.suppressions.len(), 1);
    assert_eq!(
        r.suppressions[0].reason,
        "test oracle the integration tests compare against"
    );
    // Once another source file calls the oracle, its allow is stale.
    let called = scan_sources(
        tree(&[("crates/app/src/check.rs", "u001_oracle_caller.rs")]),
        &Config::default(),
    );
    assert_eq!(
        findings(&called),
        vec![("U001", 10), ("U001", 15), ("S002", 33)],
        "{}",
        called.to_text()
    );
}

#[test]
fn benchmark_files_only_count_as_callers() {
    // A reasonless allow (S001) and an un-asserted `impl Executor` (P001)
    // fire anywhere else; under `benchmark/` no lint gates the file.
    let cfg = config();
    for name in ["s001_reasonless.rs", "p001_fires.rs"] {
        let r = scan_fixture(name, "benchmark/src/main.rs", &cfg);
        assert_eq!(findings(&r), vec![], "{name}: {}", r.to_text());
    }
}
