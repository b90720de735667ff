//! Golden-file tests: every lint family has a fixture that fires, a
//! fixture whose findings are suppressed with a reason, and a clean
//! fixture. Fixtures live in `tests/fixtures/` (excluded from the repo
//! self-scan by `gam-lint.toml`) and are fed through [`scan_sources`] under
//! a pseudo-path that puts them in the lint's scope.

use gam_lint::config::Config;
use gam_lint::report::Report;
use gam_lint::scan_sources;

/// Reads a fixture and scans it as if it lived at `as_path`.
fn scan_fixture(name: &str, as_path: &str, config: &Config) -> Report {
    let file = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file}: {e}"));
    scan_sources(vec![(as_path.to_string(), src)], config)
}

/// The scoping used by the golden tests: one deterministic crate, one
/// protocol dir, one digest file.
fn config() -> Config {
    Config {
        deterministic: vec!["crates/core".into()],
        protocol: vec!["crates/core/src".into()],
        digest: vec!["crates/core/src/digest.rs".into()],
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
        ..Config::default()
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
    // D003 defaults to warn: it fails only under --deny-warnings.
    assert!(!fired.failed(false));
    assert!(fired.failed(true));
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
        ..Config::default()
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
        ..Config::default()
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

/// Parses a fixture config — the capability tests arm the C-lints with a
/// `[capabilities]` section exactly as the checked-in config does.
fn parse_config(toml: &str) -> Config {
    Config::parse(toml).expect("fixture config parses")
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
fn a001_fires_suppresses_and_passes() {
    let cfg = parse_config(
        "[concurrency]\n\
         paths = [\"crates/explore\"]\n",
    );
    const CONC: &str = "crates/explore/src/golden.rs";
    // Line 8 is the literal `Ordering::Relaxed` pattern; line 12 is the
    // aliased `O::Relaxed`, visible only through the symbol table.
    let fired = scan_fixture("a001_fires.rs", CONC, &cfg);
    assert_eq!(
        findings(&fired),
        vec![("A001", 8), ("A001", 12)],
        "{}",
        fired.to_text()
    );
    let suppressed = scan_fixture("a001_suppressed.rs", CONC, &cfg);
    assert_eq!(findings(&suppressed), vec![], "{}", suppressed.to_text());
    assert_eq!(
        suppressed.suppressions.len(),
        2,
        "both merge-invariant arguments are honoured"
    );
    let clean = scan_fixture("a001_clean.rs", CONC, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
    // Outside the audit scope the same code is not A001's business.
    let out_of_scope = scan_fixture("a001_fires.rs", ELSEWHERE, &cfg);
    assert_eq!(
        findings(&out_of_scope),
        vec![],
        "{}",
        out_of_scope.to_text()
    );
}

#[test]
fn a002_fires_in_deterministic_scope_with_observer_exemption() {
    let cfg = parse_config(
        "[deterministic]\n\
         paths = [\"crates/core\"]\n\
         [concurrency]\n\
         observer = [\"crates/core/src/event.rs\"]\n",
    );
    let fired = scan_fixture("a002_fires.rs", "crates/core/src/golden.rs", &cfg);
    assert_eq!(
        findings(&fired),
        vec![("A002", 3), ("A002", 6)],
        "{}",
        fired.to_text()
    );
    // The same lock on the observer path is sanctioned plumbing.
    let observer = scan_fixture("a002_fires.rs", "crates/core/src/event.rs", &cfg);
    assert_eq!(findings(&observer), vec![], "{}", observer.to_text());
    let clean = scan_fixture("a002_clean.rs", "crates/core/src/golden.rs", &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
    // Out of deterministic scope, locks are fine.
    let out_of_scope = scan_fixture("a002_fires.rs", ELSEWHERE, &cfg);
    assert_eq!(
        findings(&out_of_scope),
        vec![],
        "{}",
        out_of_scope.to_text()
    );
}

#[test]
fn c001_fires_suppresses_and_passes() {
    // An empty [capabilities] section arms the C-lints with zero grants:
    // every capability site is a finding. Line 4 is the import, line 7
    // the alias-resolved `thread::spawn`, line 13 the entropy read that
    // classifies by path rather than by the v1 ident list.
    let armed = parse_config("[capabilities]\n");
    const UNGRANTED: &str = "crates/core/src/golden.rs";
    let fired = scan_fixture("c001_fires.rs", UNGRANTED, &armed);
    assert_eq!(
        findings(&fired),
        vec![("C001", 4), ("C001", 7), ("C001", 13)],
        "{}",
        fired.to_text()
    );
    assert!(fired.failed(false), "C001 is an error");
    let suppressed = scan_fixture("c001_suppressed.rs", UNGRANTED, &armed);
    assert_eq!(findings(&suppressed), vec![], "{}", suppressed.to_text());
    assert_eq!(suppressed.suppressions.len(), 2);
    let clean = scan_fixture("c001_clean.rs", UNGRANTED, &armed);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
    // The same sites under a grant are the sanctioned state — and both
    // grants are spent, so C003 stays silent too.
    let granted = parse_config(
        "[capabilities]\n\
         \"crates/core\" = [\"entropy\", \"threads\"]\n",
    );
    let ok = scan_fixture("c001_fires.rs", UNGRANTED, &granted);
    assert_eq!(findings(&ok), vec![], "{}", ok.to_text());
    // Without a [capabilities] section the C-lints are unarmed: v1
    // configs keep v1 semantics.
    let unarmed = scan_fixture("c001_fires.rs", UNGRANTED, &Config::default());
    assert_eq!(findings(&unarmed), vec![], "{}", unarmed.to_text());
}

#[test]
fn c002_laundering_one_hop_through_a_granted_crate() {
    let cfg = parse_config(
        "[capabilities]\n\
         \"crates/bench\" = [\"time\"]\n",
    );
    let gateway = std::fs::read_to_string(format!(
        "{}/tests/fixtures/c002_gateway.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("gateway fixture exists");
    let consumer = std::fs::read_to_string(format!(
        "{}/tests/fixtures/c002_consumer_fires.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("consumer fixture exists");
    let r = gam_lint::scan_sources(
        vec![
            ("crates/bench/src/lib.rs".into(), gateway.clone()),
            ("crates/core/src/golden.rs".into(), consumer),
        ],
        &cfg,
    );
    // Import of the re-export (3), naming the re-exported type (5),
    // calling the thin wrapper (6), calling through the type (7) — all in
    // the consumer; the granted gateway itself is clean.
    assert_eq!(
        findings(&r),
        vec![("C002", 3), ("C002", 5), ("C002", 6), ("C002", 7)],
        "{}",
        r.to_text()
    );
    assert!(
        r.diagnostics.iter().all(|d| d.file.contains("crates/core")),
        "C002 anchors in the importing crate: {}",
        r.to_text()
    );
    // A consumer of the gateway's *substantial* API is not laundering:
    // `measured_run` exceeds the thin-wrapper bound and encapsulates the
    // clock behind its own semantics.
    let clean_consumer = std::fs::read_to_string(format!(
        "{}/tests/fixtures/c002_consumer_clean.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("clean consumer fixture exists");
    let clean = gam_lint::scan_sources(
        vec![
            ("crates/bench/src/lib.rs".into(), gateway),
            ("crates/core/src/golden.rs".into(), clean_consumer),
        ],
        &cfg,
    );
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
}

#[test]
fn c003_unused_and_stale_grants_warn() {
    let cfg = parse_config(
        "[capabilities]\n\
         \"crates/bench\" = [\"threads\", \"time\"]\n\
         \"crates/ghost\" = [\"io\"]\n",
    );
    let r = scan_fixture("c003_fires.rs", "crates/bench/src/lib.rs", &cfg);
    // The unspent `threads` grant anchors on the crate's first file; the
    // grant to a crate with no scanned files anchors on the config's own
    // terms (line 0).
    assert_eq!(
        findings(&r),
        vec![("C003", 1), ("C003", 0)],
        "{}",
        r.to_text()
    );
    assert_eq!(r.diagnostics[1].file, "crates/ghost");
    assert!(!r.failed(false), "C003 is a warning");
    assert!(r.failed(true), "…but fails under --deny-warnings");
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
fn f001_unsafe_grant_requires_safety_comments() {
    let cfg = parse_config(
        "[capabilities]\n\
         \"crates/ffi\" = [\"unsafe\"]\n",
    );
    const FFI: &str = "crates/ffi/src/lib.rs";
    let fired = scan_fixture("f001_unsafe_fires.rs", FFI, &cfg);
    assert_eq!(findings(&fired), vec![("F001", 4)], "{}", fired.to_text());
    let clean = scan_fixture("f001_unsafe_clean.rs", FFI, &cfg);
    assert_eq!(findings(&clean), vec![], "{}", clean.to_text());
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
