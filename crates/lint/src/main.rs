//! The `gam-lint` command-line tool.
//!
//! ```text
//! cargo run -p gam-lint -- [--root DIR] [--config FILE] [--json FILE] \
//!                          [--deny-warnings]
//! ```
//!
//! Scans the repository's Rust sources with the determinism and
//! protocol-invariant lints and the caller census, prints the
//! human-readable report to stdout, optionally writes the machine-readable
//! JSON record, and exits non-zero when the run fails (any error; any
//! warning under `--deny-warnings`).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    json: Option<PathBuf>,
    deny_warnings: bool,
}

fn usage() -> &'static str {
    "usage: gam-lint [--root DIR] [--config FILE] [--json FILE] [--deny-warnings]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        json: None,
        deny_warnings: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny-warnings" => args.deny_warnings = true,
            "--root" => {
                args.root = it.next().map(PathBuf::from).ok_or("--root needs a value")?;
            }
            "--config" => {
                args.config = Some(
                    it.next()
                        .map(PathBuf::from)
                        .ok_or("--config needs a value")?,
                );
            }
            "--json" => {
                args.json = Some(it.next().map(PathBuf::from).ok_or("--json needs a value")?);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let config = match &args.config {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| gam_lint::config::Config::parse(&text)),
        None => gam_lint::load_config(&args.root),
    };
    let config = match config {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("gam-lint: config error: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = match gam_lint::scan_repo(&args.root, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gam-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.to_text());
    if let Some(path) = &args.json {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("gam-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if report.failed(args.deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
