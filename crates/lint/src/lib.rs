//! gam-lint — determinism & protocol-invariant static analysis.
//!
//! Every result this repository produces — state digests, `VisitedSet`
//! fingerprints, byte-identical `Repro` replays, 1-vs-N-thread parallel
//! merge identity — quantifies over executors that are *deterministic
//! functions of the schedule*. The Rust type system cannot state that
//! property, and the standard library actively undermines it (`HashMap`
//! iteration order is seeded per process). This crate is the tool that
//! states it: an offline, dependency-free static analysis pass over the
//! repository's own sources, with structured diagnostics, inline
//! suppressions that require a reason, a machine-readable JSON report and a
//! `--deny-warnings` mode that CI gates on.
//!
//! The pipeline is two-phase. Phase 1: `tokenizer` lexes each file,
//! `pass::FileCtx` derives test-only line ranges and suppression comments,
//! and `symbols` parses every file into its symbol table — `use`
//! declarations with alias resolution, clock and entropy sites, bare-`pub`
//! items, the `#![forbid(unsafe_code)]` pin. Phase 2: `lints` runs the
//! per-file passes (alias-aware through the symbol table), then
//! the whole-scan ones: F001 per crate, P001 across files and the U001
//! caller census over every file's identifiers. [`config::Config`] (parsed
//! from the checked-in `gam-lint.toml`) scopes each lint family to the
//! paths where its invariant is load-bearing. See `LINTS.md` at the
//! repository root for the catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod lints;
mod pass;
pub mod report;
mod symbols;
mod tokenizer;

use config::Config;
use pass::FileCtx;
use report::{Report, Suppression};
use std::fs;
use std::io;
use std::path::Path;

/// Scans a set of in-memory `(path, source)` pairs. This is the whole
/// analysis minus the filesystem walk — tests feed fixtures through it
/// directly, and [`scan_repo`] feeds it the walked files.
// gam-lint: allow(U001, reason = "the golden tests (crates/lint/tests/golden.rs) scan fixtures through it")
pub fn scan_sources(sources: Vec<(String, String)>, config: &Config) -> Report {
    let mut ctxs: Vec<FileCtx> = sources
        .into_iter()
        .map(|(path, src)| FileCtx::new(path, &src))
        .collect();
    let mut diagnostics = Vec::new();

    // Phase 1: the per-file symbol tables.
    let syms: Vec<symbols::FileSymbols> = ctxs.iter().map(symbols::build).collect();

    // Phase 2: cross-file collection first (P001), then per-file lints,
    // then the whole-scan lints (F001, U001), then P001 finalization, then
    // suppression hygiene — so every lint has had the chance to consume an
    // allow before S002 declares it unused. Files of the frozen benchmark
    // feed the U001 identifier count and nothing else: no lint gates them.
    let linted: Vec<bool> = ctxs.iter().map(|c| !is_benchmark(&c.path)).collect();
    let mut p001 = lints::SendAssertPass::default();
    for (i, ctx) in ctxs.iter().enumerate() {
        if linted[i] {
            p001.collect(i, ctx);
        }
    }
    for (i, ctx) in ctxs.iter_mut().enumerate() {
        if linted[i] {
            lints::run_file_lints(ctx, &syms[i], config, &mut diagnostics);
        }
    }
    lints::f001_forbid_unsafe(&mut ctxs, &syms, config, &mut diagnostics);
    lints::u001_uncalled_pub(&mut ctxs, &syms, config, &mut diagnostics);
    p001.finalize(&mut ctxs, config, &mut diagnostics);
    for (i, ctx) in ctxs.iter_mut().enumerate() {
        if linted[i] {
            lints::run_suppression_lints(ctx, config, &mut diagnostics);
        }
    }

    let mut suppressions = Vec::new();
    for ctx in &ctxs {
        for allow in &ctx.allows {
            if allow.used {
                suppressions.push(Suppression {
                    file: ctx.path.clone(),
                    line: allow.line,
                    ids: allow.ids.clone(),
                    reason: allow.reason.clone().unwrap_or_default(),
                });
            }
        }
    }

    diagnostics.sort_by(|a, b| (&a.file, a.line, a.id).cmp(&(&b.file, b.line, b.id)));
    Report {
        files_scanned: ctxs.len(),
        diagnostics,
        suppressions,
    }
}

/// Whether `path` belongs to the frozen benchmark (`benchmark/`), which the
/// scan reads only so that its calls count for U001.
fn is_benchmark(path: &str) -> bool {
    path.starts_with("benchmark/")
}

/// Walks `config.roots` under `root`, reads every `.rs` file not excluded
/// by the config, and runs the full analysis.
///
/// # Errors
///
/// Propagates I/O errors from the walk; missing roots are skipped silently
/// (a checkout without `src/` is fine).
pub fn scan_repo(root: &Path, config: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    for r in &config.roots {
        let dir = root.join(r);
        if dir.is_dir() {
            walk(&dir, root, config, &mut files)?;
        }
    }
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    Ok(scan_sources(sources, config))
}

/// Loads `gam-lint.toml` from `root`, or the default config when absent.
///
/// # Errors
///
/// Returns the parse error message for a malformed config file.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("gam-lint.toml");
    match fs::read_to_string(&path) {
        Ok(text) => Config::parse(&text),
        Err(_) => Ok(Config::default()),
    }
}

/// Recursive walk in sorted entry order, so reports (and the JSON CI
/// artifact) are themselves deterministic — the tool practices what it
/// lints.
fn walk(dir: &Path, root: &Path, config: &Config, out: &mut Vec<String>) -> io::Result<()> {
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
        if config.is_excluded(&rel) {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            walk(&path, root, config, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_config() -> Config {
        Config {
            deterministic: vec!["crates/core".into()],
            ..Config::default()
        }
    }

    #[test]
    fn scan_sources_orders_diagnostics() {
        let cfg = det_config();
        let r = scan_sources(
            vec![
                (
                    "crates/core/src/b.rs".into(),
                    "use std::collections::HashMap;\n".into(),
                ),
                (
                    "crates/core/src/a.rs".into(),
                    "use std::collections::HashSet;\n".into(),
                ),
            ],
            &cfg,
        );
        assert_eq!(r.files_scanned, 2);
        assert_eq!(r.diagnostics.len(), 2);
        assert!(r.diagnostics[0].file.ends_with("a.rs"));
        assert!(r.diagnostics[1].file.ends_with("b.rs"));
    }

    #[test]
    fn used_suppressions_are_tallied() {
        let cfg = det_config();
        let src = "// gam-lint: allow(D001, reason = \"sorted before iteration\")\n\
                   use std::collections::HashMap;\n";
        let r = scan_sources(vec![("crates/core/src/x.rs".into(), src.into())], &cfg);
        assert_eq!(r.diagnostics.len(), 0, "{}", r.to_text());
        assert_eq!(r.suppressions.len(), 1);
        assert_eq!(r.suppressions[0].reason, "sorted before iteration");
    }
}
