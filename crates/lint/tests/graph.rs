//! The capability-graph artifact: deterministic, machine-readable, and an
//! honest picture of the checked-in grants. CI writes it with `--graph`
//! and greps the grant count; these tests pin the stronger properties —
//! byte-identical across scans, round-trips through `gam_bench::json`, and
//! the per-crate nodes say what `gam-lint.toml` says.

use gam_bench::json::Json;
use std::path::Path;
use std::time::Instant;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels below the repo root")
}

#[test]
fn v2_capability_lints_are_armed_by_the_checked_in_config() {
    let config = gam_lint::load_config(repo_root()).expect("gam-lint.toml parses");
    assert!(
        config.capabilities_configured,
        "the checked-in config must carry a [capabilities] section"
    );
    assert!(
        !config.concurrency.is_empty(),
        "the checked-in config must scope the A001 concurrency audit"
    );
}

#[test]
fn graph_artifact_is_byte_identical_across_scans() {
    let root = repo_root();
    let config = gam_lint::load_config(root).expect("gam-lint.toml parses");
    let (_, a) = gam_lint::scan_repo_graph(root, &config).expect("scan succeeds");
    let (_, b) = gam_lint::scan_repo_graph(root, &config).expect("scan succeeds");
    assert_eq!(a.to_json(), b.to_json(), "graph artifact must be stable");
}

#[test]
fn graph_round_trips_through_the_bench_json_parser() {
    let root = repo_root();
    let config = gam_lint::load_config(root).expect("gam-lint.toml parses");
    let (_, graph) = gam_lint::scan_repo_graph(root, &config).expect("scan succeeds");
    let json = Json::parse(&graph.to_json()).expect("graph JSON parses");
    assert_eq!(
        json.get("tool").and_then(|t| match t {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }),
        Some("gam-lint-graph")
    );
    assert_eq!(
        json.get("grant_count").and_then(Json::as_u64),
        Some(graph.grant_count as u64)
    );
    assert_eq!(
        json.get("granted_crates").and_then(Json::as_u64),
        Some(graph.granted_crates as u64)
    );
    let crates = json
        .get("crates")
        .and_then(Json::as_arr)
        .expect("crates is an array");
    assert_eq!(crates.len(), graph.crates.len());
}

#[test]
fn graph_nodes_reflect_the_checked_in_grants() {
    let root = repo_root();
    let config = gam_lint::load_config(root).expect("gam-lint.toml parses");
    let (report, graph) = gam_lint::scan_repo_graph(root, &config).expect("scan succeeds");
    assert!(
        !report.failed(true),
        "self-scan clean:\n{}",
        report.to_text()
    );

    // The value CI greps out of the artifact: one grant per
    // (crate, capability) pair in gam-lint.toml.
    assert_eq!(
        graph.grant_count, 8,
        "grants changed — update ci.yml's grep"
    );
    assert_eq!(graph.granted_crates, 5);

    let node = |key: &str| {
        graph
            .crates
            .iter()
            .find(|c| c.key == key)
            .unwrap_or_else(|| panic!("graph has no node for {key}"))
    };
    let explore = node("crates/explore");
    assert!(explore.deterministic);
    assert_eq!(explore.grants, ["io", "sync_atomics", "threads"]);
    for cap in &explore.grants {
        assert!(
            explore.used.contains_key(cap.as_str()),
            "explore grant `{cap}` must be spent (C003 would fire)"
        );
    }
    let engine = node("crates/engine");
    assert!(engine.deterministic);
    assert_eq!(engine.grants, ["sync_atomics", "threads"]);
    for cap in &engine.grants {
        assert!(
            engine.used.contains_key(cap.as_str()),
            "engine grant `{cap}` must be spent (C003 would fire)"
        );
    }
    let lint = node("crates/lint");
    assert!(!lint.deterministic);
    assert_eq!(lint.grants, ["io"]);
    // The umbrella crate holds no grants and depends on the workspace.
    let src = node("src");
    assert!(src.grants.is_empty());
    assert!(!src.deps.is_empty(), "umbrella crate has dependency edges");
}

#[test]
fn self_scan_stays_fast() {
    // The two-phase analyzer runs on every CI push and in four tests of
    // this suite: parsing every file into a symbol table must stay cheap.
    let root = repo_root();
    let config = gam_lint::load_config(root).expect("gam-lint.toml parses");
    let t0 = Instant::now();
    let (report, _) = gam_lint::scan_repo_graph(root, &config).expect("scan succeeds");
    let elapsed = t0.elapsed();
    assert!(report.files_scanned > 50);
    assert!(
        elapsed.as_secs() < 5,
        "self-scan took {elapsed:?}; the symbol-table phase has regressed"
    );
}
