//! Findings and the report of one scan.
//!
//! Every finding is a [`Diagnostic`] — file, line, lint id and message —
//! and every finding is an error: a scan passes only when it has none.

use std::fmt::Write as _;

/// One finding of one lint at one source location.
#[derive(Debug)]
pub struct Diagnostic {
    /// Repo-relative, `/`-separated path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Lint id (`U001`, `S001` or `S002`).
    pub id: &'static str,
    /// What was found and what to do about it.
    pub message: String,
}

/// The result of one scan.
#[derive(Debug)]
pub struct Report {
    /// Every unsuppressed finding, in (file, line, id) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// One line per finding plus a summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "error: {} {}:{}: {}", d.id, d.file, d.line, d.message);
        }
        let _ = writeln!(
            out,
            "gam-lint: {} file(s) scanned, {} error(s)",
            self.files_scanned,
            self.diagnostics.len()
        );
        out
    }
}
