//! Structured diagnostics and the machine-readable report.
//!
//! Every finding is a [`Diagnostic`] — file, line, lint id, severity,
//! message and (when the fix is mechanical) a suggestion. A [`Report`]
//! aggregates the diagnostics of one run together with every inline
//! suppression that was honoured, so suppressed findings stay visible to CI
//! dashboards instead of silently vanishing. [`Report::to_json`] emits the
//! record with a hand-rolled serializer (the offline build has no serde);
//! the output parses with `gam_bench::json`, which the self-check tests
//! round-trip through.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported in the tally but never affects the exit code.
    Allow,
    /// Fails the run only under `--deny-warnings`.
    Warn,
    /// Always fails the run.
    Error,
}

impl Severity {
    /// The lowercase name used in config files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One finding of one lint at one source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Repo-relative, `/`-separated path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Lint id (`D001`, `P002`, `S001`, …).
    pub id: &'static str,
    /// Effective severity after config overrides.
    pub severity: Severity,
    /// What was found and why it matters.
    pub message: String,
    /// A mechanical fix, when one exists.
    pub suggestion: Option<String>,
}

/// An honoured inline suppression (`// gam-lint: allow(...)`).
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Repo-relative, `/`-separated path.
    pub file: String,
    /// 1-based line of the suppressing comment.
    pub line: u32,
    /// The lint ids the comment allows.
    pub ids: Vec<String>,
    /// The mandatory justification.
    pub reason: String,
}

/// The aggregated result of one full scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Every unsuppressed finding, in (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Every suppression comment that matched at least one finding, plus
    /// every malformed one (those also produce an `S001` diagnostic).
    pub suppressions: Vec<Suppression>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings at [`Severity::Error`].
    // gam-lint: allow(U001, reason = "the golden and self-scan tests read the error tally through it")
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Findings at [`Severity::Warn`].
    // gam-lint: allow(U001, reason = "the golden tests read the warning tally through it")
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Per-lint finding counts (suppressed findings excluded).
    fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for d in &self.diagnostics {
            *counts.entry(d.id).or_insert(0) += 1;
        }
        counts
    }

    /// Whether the run fails: any error, or any warning under
    /// `deny_warnings`.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }

    /// The human-readable rendering, one line per diagnostic plus a
    /// summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "{}: {} [{}] {}:{}: {}",
                d.severity.name(),
                d.id,
                d.severity.name(),
                d.file,
                d.line,
                d.message
            );
            if let Some(s) = &d.suggestion {
                let _ = writeln!(out, "    suggestion: {s}");
            }
        }
        let _ = writeln!(
            out,
            "gam-lint: {} file(s) scanned, {} error(s), {} warning(s), {} suppression(s)",
            self.files_scanned,
            self.errors(),
            self.warnings(),
            self.suppressions.len()
        );
        out
    }

    /// The machine-readable JSON record.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"tool\": \"gam-lint\",");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"errors\": {},", self.errors());
        let _ = writeln!(out, "  \"warnings\": {},", self.warnings());
        out.push_str("  \"counts\": {");
        let counts = self.counts();
        for (i, (id, n)) in counts.iter().enumerate() {
            let sep = if i + 1 < counts.len() { ", " } else { "" };
            let _ = write!(out, "\"{id}\": {n}{sep}");
        }
        out.push_str("},\n");
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"file\": {}, \"line\": {}, \"id\": \"{}\", \"severity\": \"{}\", \"message\": {}",
                json_str(&d.file),
                d.line,
                d.id,
                d.severity.name(),
                json_str(&d.message)
            );
            if let Some(s) = &d.suggestion {
                let _ = write!(out, ", \"suggestion\": {}", json_str(s));
            }
            let sep = if i + 1 < self.diagnostics.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "}}{sep}");
        }
        out.push_str("  ],\n");
        out.push_str("  \"suppressions\": [\n");
        for (i, s) in self.suppressions.iter().enumerate() {
            let ids: Vec<String> = s.ids.iter().map(|id| json_str(id)).collect();
            let sep = if i + 1 < self.suppressions.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"file\": {}, \"line\": {}, \"ids\": [{}], \"reason\": {}}}{sep}",
                json_str(&s.file),
                s.line,
                ids.join(", "),
                json_str(&s.reason)
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            diagnostics: vec![Diagnostic {
                file: "crates/core/src/runtime.rs".into(),
                line: 7,
                id: "D001",
                severity: Severity::Error,
                message: "unordered collection `HashMap`".into(),
                suggestion: Some("use BTreeMap".into()),
            }],
            suppressions: vec![Suppression {
                file: "crates/objects/src/log.rs".into(),
                line: 3,
                ids: vec!["D003".into()],
                reason: "documented \"invariant\"".into(),
            }],
            files_scanned: 2,
        }
    }

    #[test]
    fn counts_and_exit_semantics() {
        let r = sample();
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 0);
        assert_eq!(r.counts().get("D001"), Some(&1));
        assert!(r.failed(false));
        let clean = Report::default();
        assert!(!clean.failed(true));
    }

    #[test]
    fn json_escapes_and_structure() {
        let j = sample().to_json();
        assert!(j.contains("\"tool\": \"gam-lint\""));
        assert!(j.contains("\\\"invariant\\\""));
        assert!(j.contains("\"counts\": {\"D001\": 1}"));
    }

    #[test]
    fn text_summary_lists_findings() {
        let t = sample().to_text();
        assert!(t.contains("runtime.rs:7"));
        assert!(t.contains("suggestion: use BTreeMap"));
        assert!(t.contains("1 error(s)"));
    }
}
