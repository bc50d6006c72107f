//! detlint — workspace-wide determinism static analysis.
//!
//! NoiseScope's whole premise is that a training run, replayed with the same
//! seeds on the same simulated hardware, produces bit-identical numbers.
//! That property is easy to break with one careless line: iterate a
//! `HashMap` into a report, seed an RNG from the wall clock, or sum floats
//! in whatever order an iterator happens to yield. detlint scans every
//! Rust source file in the workspace for those hazard patterns and gates CI
//! on the result.
//!
//! # Rules
//!
//! | Rule  | Taxonomy  | Hazard |
//! |-------|-----------|--------|
//! | DL001 | REPORTING | `HashMap`/`HashSet` iteration feeding accumulation, serialization, or output |
//! | DL002 | ALGO      | RNG state from OS entropy or wall time (`thread_rng`, `from_entropy`, time-derived seeds) |
//! | DL003 | REPORTING | Wall-clock reads (`Instant::now`, `SystemTime::now`) in result-producing paths |
//! | DL004 | IMPL      | Float `sum`/`product`/additive `fold`/`reduce`, sequential or parallel, where evaluation order changes the bit pattern |
//! | DL006 | IMPL      | Unordered-tainted value reaching a float accumulation sink (cross-statement dataflow) |
//! | DL007 | ALGO      | Sequential RNG value crossing a thread/process boundary without index re-derivation |
//! | DL008 | REPORTING | `std::env::var`/`var_os` read outside the settings module |
//!
//! DL001–DL004 and DL008 are single-statement token-pattern rules;
//! DL006 and DL007 run on an intra-procedural taint engine (see
//! [`dataflow`]) over the structural parse (see [`parser`]). There is no
//! DL005 (its parallel reductions are DL004's) and no DL009 (it audited
//! inline allows, which are gone); IDs are never reused. Each rule is kept
//! because a hazard planted in a real shipping file fires it and no other
//! rule (`crates/detlint/tests/injection.rs`).
//!
//! The taxonomy follows the source paper's decomposition of run-to-run
//! noise: ALGO (algorithmic randomness — which random numbers are drawn),
//! IMPL (implementation-level numeric nondeterminism — how the same numbers
//! are combined), and REPORTING (noise introduced when results are
//! aggregated and emitted).
//!
//! # Exemptions
//!
//! A hazard that is a module's job (the entropy bridge, the fixed-order
//! reduction module, the settings module, the fleet's watchdog clock, the
//! timing harness) is sanctioned in one way only: a `[rules.DLxxx] exempt`
//! path prefix in `detlint.toml` (see [`config`]). There are no inline
//! allows; a comment never silences a finding. The tier-1 test
//! `every_exemption_is_load_bearing` (`tests/tests/detlint_clean.rs`)
//! removes one entry at a time and requires that rule to fire under that
//! path, so an exemption that absorbs nothing fails the gate.
//!
//! # One scan path
//!
//! [`scan_workspace`] is the only whole-workspace entry point: the
//! `detlint` binary and the tier-1 test `tests/tests/detlint_clean.rs`
//! both call it, and both print [`report::human`]. It re-analyzes every
//! file on every run; a full workspace scan takes tens of milliseconds.

pub mod config;
pub mod dataflow;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

pub use config::Config;

/// The seven determinism rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Hash-container iteration feeding an order-sensitive sink.
    Dl001,
    /// RNG state from ambient entropy (OS randomness, wall time).
    Dl002,
    /// Wall-clock reads in result-producing paths.
    Dl003,
    /// Order-sensitive float reductions, sequential or parallel.
    Dl004,
    /// Unordered-tainted value reaching a float accumulation sink.
    Dl006,
    /// Sequential RNG value crossing a thread/process boundary.
    Dl007,
    /// Env var read outside the settings module.
    Dl008,
}

/// Where a hazard injects noise, following the paper's decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Taxonomy {
    /// Algorithmic randomness: which random numbers are drawn.
    Algo,
    /// Implementation-level nondeterminism: how numbers are combined.
    Impl,
    /// Noise introduced while aggregating and emitting results.
    Reporting,
}

impl Taxonomy {
    /// Uppercase display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Taxonomy::Algo => "ALGO",
            Taxonomy::Impl => "IMPL",
            Taxonomy::Reporting => "REPORTING",
        }
    }
}

impl RuleId {
    /// Every rule, in ID order.
    pub const ALL: [RuleId; 7] = [
        RuleId::Dl001,
        RuleId::Dl002,
        RuleId::Dl003,
        RuleId::Dl004,
        RuleId::Dl006,
        RuleId::Dl007,
        RuleId::Dl008,
    ];

    /// Canonical `DLxxx` name.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::Dl001 => "DL001",
            RuleId::Dl002 => "DL002",
            RuleId::Dl003 => "DL003",
            RuleId::Dl004 => "DL004",
            RuleId::Dl006 => "DL006",
            RuleId::Dl007 => "DL007",
            RuleId::Dl008 => "DL008",
        }
    }

    /// Parses a `DLxxx` name.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// Which noise source the rule polices.
    pub fn taxonomy(self) -> Taxonomy {
        match self {
            RuleId::Dl001 | RuleId::Dl003 | RuleId::Dl008 => Taxonomy::Reporting,
            RuleId::Dl002 | RuleId::Dl007 => Taxonomy::Algo,
            RuleId::Dl004 | RuleId::Dl006 => Taxonomy::Impl,
        }
    }
}

/// One hazard found in the scanned source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// What is wrong and why it matters.
    pub message: String,
}

/// The result of scanning a workspace (or a single file).
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl ScanReport {
    /// `true` when the gate passes: no findings.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn merge_file(&mut self, other: ScanReport) {
        self.findings.extend(other.findings);
        self.files_scanned += other.files_scanned;
    }

    fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }
}

/// Scans one file's source text. `rel_path` decides rule exemptions and
/// test-path handling, so fixture tests can exercise rules directly.
pub fn scan_file(rel_path: &str, source: &str, config: &Config) -> ScanReport {
    let tokens = lexer::lex(source);
    let parsed = parser::parse(&tokens);
    ScanReport {
        findings: rules::run_rules(rel_path, &tokens, &parsed, config),
        files_scanned: 1,
    }
}

/// Scans every `.rs` file under `root`, honoring config excludes.
/// Files are visited in sorted order so output is deterministic — detlint
/// holds itself to the standard it enforces.
pub fn scan_workspace(root: &Path, config: &Config) -> std::io::Result<ScanReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, config, &mut files)?;
    files.sort();
    let mut report = ScanReport::default();
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))?;
        report.merge_file(scan_file(rel, &source, config));
    }
    report.sort();
    Ok(report)
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &Config,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if config.excluded(&rel) {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs_files(root, &path, config, out)?;
        } else if ty.is_file() && rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Walks up from `start` to the directory containing `detlint.toml`
/// (falling back to a workspace `Cargo.toml`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    let mut cargo_root = None;
    while let Some(d) = dir {
        if d.join("detlint.toml").is_file() {
            return Some(d);
        }
        if cargo_root.is_none() {
            let manifest = d.join("Cargo.toml");
            if manifest.is_file()
                && std::fs::read_to_string(&manifest).is_ok_and(|t| t.contains("[workspace]"))
            {
                cargo_root = Some(d.clone());
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    cargo_root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::parse(rule.as_str()), Some(rule));
        }
        assert_eq!(RuleId::parse("DL999"), None);
    }

    /// Path exemptions are the only way to sanction a hazard: an inline
    /// allow comment, with a reason or without, silences nothing.
    #[test]
    fn bad_allows_fail_the_gate() {
        let src = "fn f(xs: &[f32]) -> f32 {\n    // detlint::allow(DL004, reason = \"fixed-size input\")\n    xs.iter().sum()\n}\nfn g(xs: &[f64]) -> f64 {\n    xs.iter().sum() // detlint::allow(DL004)\n}\n";
        let report = scan_file("src/x.rs", src, &Config::default());
        let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [3, 6], "{:?}", report.findings);
        assert!(!report.clean());
    }
}
