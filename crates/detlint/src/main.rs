//! The `detlint` binary: scans the workspace and reports hazards.
//!
//! ```text
//! detlint [--json | --sarif] [--root <dir>] [--config <file>] [--audit]
//!         [--explain DLxxx] [--list-rules]
//! ```
//!
//! Exit codes: `0` clean, `1` findings or malformed suppressions,
//! `2` usage / IO / config error.
//!
//! Every run re-analyzes every file through [`detlint::scan_workspace`],
//! the same call the tier-1 test makes.

use std::path::PathBuf;
use std::process::ExitCode;

use detlint::{config::Config, explain, find_workspace_root, report, sarif, RuleId};

const USAGE: &str = "detlint — determinism static analysis

USAGE: detlint [OPTIONS]

  --json                  machine-readable JSON report on stdout
  --sarif                 SARIF 2.1.0 report on stdout (for CI upload)
  --root <dir>            workspace root (default: nearest detlint.toml)
  --config <file>         config file (default: <root>/detlint.toml)
  --audit                 stale allows become DL009 findings
  --explain <rule>        print rationale and examples for DL001..DL009
  --list-rules            print the rule table

Scans every .rs file under the workspace root for determinism hazards
(DL001..DL009) and exits nonzero if any unsuppressed finding remains.";

#[derive(Default)]
struct Args {
    json: bool,
    sarif: bool,
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    audit: bool,
    explain: Option<String>,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--sarif" => args.sarif = true,
            "--audit" => args.audit = true,
            "--list-rules" => args.list_rules = true,
            "--root" => {
                args.root = Some(it.next().ok_or("--root requires a directory")?.into());
            }
            "--config" => {
                args.config = Some(it.next().ok_or("--config requires a file")?.into());
            }
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain requires a rule id")?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.json && args.sarif {
        return Err("--json and --sarif are mutually exclusive".into());
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.list_rules {
        for rule in RuleId::ALL {
            println!(
                "{} [{}] {}",
                rule.as_str(),
                rule.taxonomy().as_str(),
                rule.summary()
            );
        }
        return Ok(true);
    }
    if let Some(name) = &args.explain {
        let rule = RuleId::parse(name)
            .ok_or_else(|| format!("unknown rule `{name}` (expected DL001..DL009)"))?;
        print!("{}", explain::render(rule));
        return Ok(true);
    }
    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no detlint.toml or workspace Cargo.toml found; use --root")?
        }
    };
    let config_path = args.config.unwrap_or_else(|| root.join("detlint.toml"));
    let mut config = Config::load(&config_path)?;
    config.audit = args.audit;

    let report_data =
        detlint::scan_workspace(&root, &config).map_err(|e| format!("scan failed: {e}"))?;

    if args.sarif {
        let doc = serde_json::to_string_pretty(&sarif::sarif(&report_data))
            .map_err(|e| format!("SARIF encoding failed: {e}"))?;
        println!("{doc}");
    } else if args.json {
        let doc = serde_json::to_string_pretty(&report::json(&report_data))
            .map_err(|e| format!("JSON encoding failed: {e}"))?;
        println!("{doc}");
    } else {
        print!("{}", report::human(&report_data));
    }
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
