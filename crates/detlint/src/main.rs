//! The `detlint` binary: scans the workspace and reports hazards.
//!
//! ```text
//! detlint [--root <dir>]
//! ```
//!
//! Prints the human report ([`detlint::report::human`]): one line per
//! finding (stale allows in shipping code included, as DL009), one
//! `error:` line per malformed suppression, one `warning:` line per unused
//! allow in test code, then a summary line.
//!
//! Exit codes: `0` clean, `1` findings or malformed suppressions,
//! `2` usage / IO / config error.
//!
//! Every run re-analyzes every file through [`detlint::scan_workspace`],
//! the same call the tier-1 test makes.

use std::path::PathBuf;
use std::process::ExitCode;

use detlint::{config::Config, find_workspace_root, report};

const USAGE: &str = "detlint — determinism static analysis

USAGE: detlint [--root <dir>]

  --root <dir>            workspace root (default: nearest detlint.toml)

Scans every .rs file under the workspace root for determinism hazards
(DL001–DL004, DL006–DL009), configured by <root>/detlint.toml, and exits nonzero if
any unsuppressed finding, malformed allow or stale allow remains.";

/// Parses the command line into the optional `--root`.
fn parse_args() -> Result<Option<PathBuf>, String> {
    let mut root = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = Some(it.next().ok_or("--root requires a directory")?.into()),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(root)
}

fn run() -> Result<bool, String> {
    let root = match parse_args()? {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no detlint.toml or workspace Cargo.toml found; use --root")?
        }
    };
    let config = Config::load(&root.join("detlint.toml"))?;
    let report_data =
        detlint::scan_workspace(&root, &config).map_err(|e| format!("scan failed: {e}"))?;
    print!("{}", report::human(&report_data));
    Ok(report_data.clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("detlint: error: {e}");
            ExitCode::from(2)
        }
    }
}
