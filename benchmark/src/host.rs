//! Host and build fingerprint, and the process's peak memory.

use crate::json::Json;
use std::process::Command;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub profile: &'static str,
    pub commit: String,
}

/// First line of a command's standard output, or "unknown" — the driver's
/// checkout is not a git repository, and a host may lack either tool.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn is_debug_build() -> bool {
    cfg!(debug_assertions)
}

pub fn fingerprint() -> Host {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu,
        rustc: first_line("rustc", &["--version"]),
        profile: if is_debug_build() { "debug" } else { "release" },
        commit: first_line("git", &["rev-parse", "--short", "HEAD"]),
    }
}

impl Host {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::from(self.nproc)),
            ("cpu", Json::from(self.cpu.as_str())),
            ("rustc", Json::from(self.rustc.as_str())),
            ("profile", Json::from(self.profile)),
            ("commit", Json::from(self.commit.as_str())),
        ])
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` does not have it). One
/// process runs one workload, so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
