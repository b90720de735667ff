//! gam-lint — the caller census.
//!
//! Every public item of a workspace crate should have a caller that needs
//! it public. rustc's `dead_code` stops at the crate boundary, so this
//! crate asks the question across the whole repository instead: U001 lists
//! every bare-`pub` item that no other non-test file names. Everything
//! else this repository holds its code to — no hash-order iteration, no
//! clock, no float, no panic path in protocol code, `Send` executors, no
//! `unsafe` — is stated to rustc and clippy in the workspace manifest and
//! `clippy.toml` (see `LINTS.md` at the repository root).
//!
//! The pipeline: `tokenizer` lexes each file, `pass::FileCtx` derives its
//! test-only line ranges and `gam-lint: allow(U001, reason = "…")`
//! comments, `symbols` lists its bare-`pub` items, and `lints` runs the
//! census and then the hygiene of the allows (S001: an allow needs a
//! reason; S002: an allow that silences nothing is stale). Every finding
//! is an error.

#![warn(missing_docs)]

mod lints;
mod pass;
pub mod report;
mod symbols;
mod tokenizer;

use pass::FileCtx;
use report::Report;
use std::fs;
use std::io;
use std::path::Path;

/// The directories the scan walks, relative to the repository root.
const ROOTS: [&str; 4] = ["crates", "src", "tests", "benchmark"];

/// Path prefixes the walk skips: the census fixtures, which are scanned by
/// their own tests, the vendored shims, which are not ours, and build output.
const EXCLUDE: [&str; 4] = ["crates/lint/tests", "vendor", "target", "benchmark/target"];

/// Scans a set of in-memory `(path, source)` pairs. This is the whole
/// analysis minus the filesystem walk — tests feed fixtures through it
/// directly, and [`scan_repo`] feeds it the walked files.
// gam-lint: allow(U001, reason = "the golden tests (crates/lint/tests/golden.rs) scan fixtures through it")
pub fn scan_sources(sources: Vec<(String, String)>) -> Report {
    let mut ctxs: Vec<FileCtx> = sources
        .into_iter()
        .map(|(path, src)| FileCtx::new(path, &src))
        .collect();
    let mut diagnostics = Vec::new();
    let items: Vec<Vec<symbols::PubItem>> = ctxs.iter().map(symbols::pub_items).collect();
    lints::u001_uncalled_pub(&mut ctxs, &items, &mut diagnostics);
    // Files of the frozen benchmark feed the census and nothing else: no
    // lint reports on them.
    for ctx in ctxs.iter().filter(|c| !c.path.starts_with("benchmark/")) {
        lints::suppression_hygiene(ctx, &mut diagnostics);
    }
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.id).cmp(&(&b.file, b.line, b.id)));
    Report {
        files_scanned: ctxs.len(),
        diagnostics,
    }
}

/// Walks `crates/`, `src/`, `tests/` and `benchmark/` under `root`, reads
/// every `.rs` file outside the excluded prefixes, and runs the census.
///
/// # Errors
///
/// Propagates I/O errors from the walk; missing roots are skipped silently
/// (a checkout without `benchmark/` is fine).
// gam-lint: allow(U001, reason = "the repository gate (crates/lint/tests/self_scan.rs) scans through it")
pub fn scan_repo(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for r in ROOTS {
        let dir = root.join(r);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    Ok(scan_sources(sources))
}

/// Recursive walk in sorted entry order, so two scans of one tree report
/// identically.
fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<Vec<_>>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if EXCLUDE.iter().any(|e| rel.starts_with(e)) {
            continue;
        }
        if entry.file_type()?.is_dir() {
            walk(&path, root, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}
