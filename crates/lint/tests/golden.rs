//! Golden-file tests of the census and its allows. Fixtures live in
//! `tests/fixtures/` (skipped by the repository scan) and are fed through
//! [`scan_sources`] under pseudo-paths that place them in a workspace.

use gam_lint::report::Report;
use gam_lint::scan_sources;

/// Reads a fixture's source.
fn fixture(name: &str) -> String {
    let file = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The `(id, line)` pairs of a report, for exact golden comparison.
fn findings(r: &Report) -> Vec<(&'static str, u32)> {
    r.diagnostics.iter().map(|d| (d.id, d.line)).collect()
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
    let r = scan_sources(tree(&[]));
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
    // Once another source file calls the oracle, its allow is stale.
    let called = scan_sources(tree(&[(
        "crates/app/src/check.rs",
        "u001_oracle_caller.rs",
    )]));
    assert_eq!(
        findings(&called),
        vec![("U001", 10), ("U001", 15), ("S002", 33)],
        "{}",
        called.to_text()
    );
}

#[test]
fn reasonless_suppression_is_a_diagnostic_and_suppresses_nothing() {
    let r = scan_sources(vec![(
        "crates/core/src/golden.rs".into(),
        fixture("s001_reasonless.rs"),
    )]);
    // The U001 it tried to silence still fires, plus the S001 itself.
    assert_eq!(
        findings(&r),
        vec![("S001", 3), ("U001", 4)],
        "{}",
        r.to_text()
    );
}

#[test]
fn unused_reasoned_suppression_is_an_error() {
    // An allow above an item that has a caller, and one naming a lint that
    // no longer exists: both silence nothing.
    let lib = "// gam-lint: allow(U001, reason = \"left over from a refactor\")\npub fn f() {}\n\
               // gam-lint: allow(A001, reason = \"a retired lint\")\nfn g() {}\n";
    let r = scan_sources(vec![
        ("crates/a/src/lib.rs".into(), lib.into()),
        ("crates/b/src/lib.rs".into(), "fn h() { a::f() }\n".into()),
    ]);
    assert_eq!(
        findings(&r),
        vec![("S002", 1), ("S002", 3)],
        "{}",
        r.to_text()
    );
}

#[test]
fn benchmark_files_only_count_as_callers() {
    // A reasonless allow and an uncalled `pub fn` fire anywhere else; under
    // `benchmark/` no lint reports on the file.
    let r = scan_sources(vec![(
        "benchmark/src/main.rs".into(),
        fixture("s001_reasonless.rs"),
    )]);
    assert_eq!(findings(&r), vec![], "{}", r.to_text());
}
