//! The repository gate: every public item of the workspace has a caller
//! or a reasoned allow, and no allow is stale. `cargo test --workspace`
//! runs it, so CI needs no separate job.

use std::path::Path;

fn repo_root() -> &'static Path {
    // crates/lint/ -> crates/ -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels below the repo root")
}

#[test]
fn repository_passes_the_census() {
    let report = gam_lint::scan_repo(repo_root()).expect("scan succeeds");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — wrong root?",
        report.files_scanned
    );
    assert!(
        report.diagnostics.is_empty(),
        "the census must be clean:\n{}",
        report.to_text()
    );
}

#[test]
fn scan_is_deterministic() {
    // Sorted walk, sorted diagnostics: two scans of one tree report alike.
    let a = gam_lint::scan_repo(repo_root()).expect("scan succeeds");
    let b = gam_lint::scan_repo(repo_root()).expect("scan succeeds");
    assert_eq!(a.to_text(), b.to_text());
}
