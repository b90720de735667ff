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
    /// of the schedule (D001/D002 fire only here).
    pub deterministic: Vec<String>,
    /// Path prefixes of protocol state-transition code (D003 fires here).
    pub protocol: Vec<String>,
    /// Path prefixes of digest/fingerprint code (P002 fires here).
    pub digest: Vec<String>,
    /// Per-lint severity overrides (lint id → severity).
    pub severity: BTreeMap<String, Severity>,
    /// Capability grants: crate key (`crates/bench`, `src`, `tests`) →
    /// sorted capability names. The C-lints enforce these.
    pub capabilities: BTreeMap<String, Vec<String>>,
    /// Whether a `[capabilities]` section was present. The capability lints
    /// (C001–C003, and F001's SAFETY pairing) run only when it is: a config
    /// without the section keeps v1 behaviour instead of flagging every
    /// clock in every bench.
    pub capabilities_configured: bool,
    /// Path prefixes where every `Ordering::Relaxed` needs a reasoned
    /// inline allow (A001).
    pub concurrency: Vec<String>,
    /// Path prefixes of the observer plumbing, exempt from A002 — the
    /// `Arc<Mutex<O>>` subscription path is outside the deterministic
    /// digest surface by construction.
    pub observer: Vec<String>,
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
            capabilities: BTreeMap::new(),
            capabilities_configured: false,
            concurrency: Vec::new(),
            observer: Vec::new(),
        }
    }
}

/// The capability names a `[capabilities]` grant may use.
pub const CAPABILITY_NAMES: &[&str] =
    &["entropy", "io", "sync_atomics", "threads", "time", "unsafe"];

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
                if section == "capabilities" {
                    config.capabilities_configured = true;
                }
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
                ("concurrency", "paths") => config.concurrency = parse_array(value, n)?,
                ("concurrency", "observer") => config.observer = parse_array(value, n)?,
                ("capabilities", key) => {
                    let key = key.trim_matches('"').to_string();
                    let mut caps = parse_array(value, n)?;
                    for c in &caps {
                        if !CAPABILITY_NAMES.contains(&c.as_str()) {
                            return Err(format!(
                                "line {}: unknown capability {c:?} (one of {})",
                                n + 1,
                                CAPABILITY_NAMES.join("/")
                            ));
                        }
                    }
                    caps.sort();
                    caps.dedup();
                    config.capabilities.insert(key, caps);
                }
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

    /// Whether `path` lies in the A001 concurrency-audit scope.
    pub fn is_concurrency(&self, path: &str) -> bool {
        self.concurrency
            .iter()
            .any(|d| path.starts_with(d.as_str()))
    }

    /// Whether `path` lies on the observer plumbing exempt from A002.
    pub fn is_observer(&self, path: &str) -> bool {
        self.observer.iter().any(|d| path.starts_with(d.as_str()))
    }

    /// The capabilities granted to `crate_key` (empty when ungranted).
    pub fn grants_of(&self, crate_key: &str) -> &[String] {
        self.capabilities
            .get(crate_key)
            .map_or(&[], |v| v.as_slice())
    }

    /// Whether `crate_key` is granted the capability named `cap`.
    pub fn has_grant(&self, crate_key: &str, cap: &str) -> bool {
        self.grants_of(crate_key).iter().any(|c| c == cap)
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

    #[test]
    fn capabilities_parse_sorted_and_validated() {
        let cfg = Config::parse(
            "[capabilities]\n\"crates/bench\" = [\"time\", \"io\"]\n\"crates/lint\" = [\"io\", \"io\"]\n",
        )
        .unwrap();
        assert!(cfg.capabilities_configured);
        assert_eq!(cfg.grants_of("crates/bench"), ["io", "time"]);
        assert_eq!(cfg.grants_of("crates/lint"), ["io"]);
        assert!(cfg.has_grant("crates/bench", "time"));
        assert!(!cfg.has_grant("crates/bench", "threads"));
        assert!(cfg.grants_of("crates/core").is_empty());
        assert!(Config::parse("[capabilities]\n\"crates/x\" = [\"clocks\"]\n").is_err());
    }

    #[test]
    fn empty_capabilities_section_still_arms_the_c_lints() {
        let cfg = Config::parse("[capabilities]\n").unwrap();
        assert!(cfg.capabilities_configured);
        assert!(
            !Config::parse("[scan]\nroots = [\"src\"]\n")
                .unwrap()
                .capabilities_configured
        );
    }

    #[test]
    fn concurrency_scope_and_observer_exemption_parse() {
        let cfg = Config::parse(
            "[concurrency]\npaths = [\"crates/explore\"]\nobserver = [\"crates/engine/src/event.rs\"]\n",
        )
        .unwrap();
        assert!(cfg.is_concurrency("crates/explore/src/explorer.rs"));
        assert!(!cfg.is_concurrency("crates/core/src/runtime.rs"));
        assert!(cfg.is_observer("crates/engine/src/event.rs"));
        assert!(!cfg.is_observer("crates/engine/src/digest.rs"));
    }
}
