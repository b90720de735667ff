//! `gam-lint.toml` — scope and severity configuration.
//!
//! The checked-in config file declares which directories are scanned, which
//! crates must be schedule-deterministic (D001/D002), which files hold
//! protocol state-transition code (D003) or digest/fingerprint code (P002),
//! and per-lint severity overrides. The parser understands the small TOML
//! subset the config needs — `[section]` headers, `key = "string"`,
//! `key = ["array", "of", "strings"]` and `#` comments — so the tool stays
//! dependency-free in the offline build environment.

use crate::report::Severity;
use std::collections::BTreeMap;

/// Scope and severity settings for one run of the tool.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (repo-relative) to walk for `.rs` files.
    pub roots: Vec<String>,
    /// Path prefixes excluded from the walk (fixtures, vendored shims, …).
    pub exclude: Vec<String>,
    /// Path prefixes of crates whose code must be a deterministic function
    /// of the schedule (D001/D002 fire only here; F001 checks their roots).
    pub deterministic: Vec<String>,
    /// Path prefixes of protocol state-transition code (D003 fires here).
    pub protocol: Vec<String>,
    /// Path prefixes of digest/fingerprint code (P002 fires here).
    pub digest: Vec<String>,
    /// Per-lint severity overrides (lint id → severity).
    pub severity: BTreeMap<String, Severity>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            roots: vec!["crates".into(), "src".into(), "tests".into()],
            exclude: Vec::new(),
            deterministic: Vec::new(),
            protocol: Vec::new(),
            digest: Vec::new(),
            severity: BTreeMap::new(),
        }
    }
}

impl Config {
    /// Parses the `gam-lint.toml` text format.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((n, raw)) = lines.next() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // A multi-line array: keep consuming until the closing bracket.
            let mut line = line.to_string();
            while line.contains('[')
                && !line.contains(']')
                && line
                    .split_once('=')
                    .is_some_and(|(_, v)| v.trim().starts_with('['))
            {
                let Some((_, cont)) = lines.next() else {
                    return Err(format!("line {}: unterminated array", n + 1));
                };
                let cont = cont.trim();
                if !cont.starts_with('#') {
                    line.push_str(cont);
                }
            }
            let line = line.as_str();
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", n + 1));
            };
            let (key, value) = (key.trim(), value.trim());
            match (section.as_str(), key) {
                ("scan", "roots") => config.roots = parse_array(value, n)?,
                ("scan", "exclude") => config.exclude = parse_array(value, n)?,
                ("deterministic", "paths") => config.deterministic = parse_array(value, n)?,
                ("protocol", "paths") => config.protocol = parse_array(value, n)?,
                ("digest", "paths") => config.digest = parse_array(value, n)?,
                ("severity", id) => {
                    let sev = match parse_string(value, n)?.as_str() {
                        "error" => Severity::Error,
                        "warn" => Severity::Warn,
                        "allow" => Severity::Allow,
                        other => {
                            return Err(format!(
                                "line {}: unknown severity {other:?} (error/warn/allow)",
                                n + 1
                            ))
                        }
                    };
                    config.severity.insert(id.to_string(), sev);
                }
                _ => {
                    return Err(format!(
                        "line {}: unknown key {key:?} in section [{section}]",
                        n + 1
                    ))
                }
            }
        }
        Ok(config)
    }

    /// Whether `path` (repo-relative, `/`-separated) is excluded.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|e| path.starts_with(e.as_str()))
    }

    /// Whether `path` lies in a deterministic crate.
    pub fn is_deterministic(&self, path: &str) -> bool {
        self.deterministic
            .iter()
            .any(|d| path.starts_with(d.as_str()))
    }

    /// Whether `path` holds protocol state-transition code.
    pub fn is_protocol(&self, path: &str) -> bool {
        self.protocol.iter().any(|d| path.starts_with(d.as_str()))
    }

    /// Whether `path` holds digest/fingerprint code.
    pub fn is_digest(&self, path: &str) -> bool {
        self.digest.iter().any(|d| path.starts_with(d.as_str()))
    }

    /// The effective severity of `id`, honouring overrides.
    pub fn severity_of(&self, id: &str, default: Severity) -> Severity {
        self.severity.get(id).copied().unwrap_or(default)
    }
}

fn parse_string(value: &str, n: usize) -> Result<String, String> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("line {}: expected a quoted string, got {v:?}", n + 1))
}

fn parse_array(value: &str, n: usize) -> Result<Vec<String>, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("line {}: expected an array, got {v:?}", n + 1))?;
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_string(s, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_severities() {
        let cfg = Config::parse(
            r#"
# comment
[scan]
roots = ["crates", "src"]
exclude = ["vendor"]

[deterministic]
paths = ["crates/core"]

[severity]
D003 = "warn"
P002 = "error"
"#,
        )
        .unwrap();
        assert_eq!(cfg.roots, vec!["crates", "src"]);
        assert!(cfg.is_excluded("vendor/rand/src/lib.rs"));
        assert!(cfg.is_deterministic("crates/core/src/runtime.rs"));
        assert!(!cfg.is_deterministic("crates/bench/src/lib.rs"));
        assert_eq!(cfg.severity_of("D003", Severity::Error), Severity::Warn);
        assert_eq!(cfg.severity_of("P002", Severity::Warn), Severity::Error);
        assert_eq!(cfg.severity_of("D001", Severity::Error), Severity::Error);
    }

    #[test]
    fn multi_line_arrays_parse() {
        let cfg = Config::parse(
            "[deterministic]\npaths = [\n    \"crates/core\",\n    # a comment inside\n    \"crates/engine\",\n]\n",
        )
        .unwrap();
        assert_eq!(cfg.deterministic, vec!["crates/core", "crates/engine"]);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_severities() {
        assert!(Config::parse("[scan]\nbogus = \"x\"").is_err());
        assert!(Config::parse("[severity]\nD001 = \"loud\"").is_err());
        assert!(Config::parse("no equals sign").is_err());
    }
}
