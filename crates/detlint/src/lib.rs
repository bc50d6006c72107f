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
//! | DL009 | REPORTING | Stale `detlint::allow` whose rule no longer fires on the covered line |
//!
//! DL001–DL004 and DL008 are single-statement token-pattern rules;
//! DL006 and DL007 run on an intra-procedural taint engine (see
//! [`dataflow`]) over the structural parse (see [`parser`]); DL009 is a
//! suppression audit. There is no DL005: its parallel reductions are
//! DL004's, and IDs are never reused. Each rule is kept because a hazard
//! planted in a real shipping file fires it and no other rule
//! (`crates/detlint/tests/injection.rs`).
//!
//! The taxonomy follows the source paper's decomposition of run-to-run
//! noise: ALGO (algorithmic randomness — which random numbers are drawn),
//! IMPL (implementation-level numeric nondeterminism — how the same numbers
//! are combined), and REPORTING (noise introduced when results are
//! aggregated and emitted).
//!
//! # Suppressions
//!
//! A finding that is understood and acceptable is silenced in place:
//!
//! ```text
//! let t = total(); // detlint::allow(DL004, reason = "fixed 4-element array")
//! ```
//!
//! Reasons are mandatory and audited: an allow without a reason, or naming
//! an unknown rule, is itself a gate-failing problem. An unused allow in
//! shipping code is a DL009 finding, so stale annotations get cleaned up;
//! in test code, where the rules do not run, it is only a warning.
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
pub mod suppress;

use std::path::{Path, PathBuf};

pub use config::Config;

/// The eight determinism rules.
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
    /// Stale suppression: an allow whose rule no longer fires.
    Dl009,
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
    pub const ALL: [RuleId; 8] = [
        RuleId::Dl001,
        RuleId::Dl002,
        RuleId::Dl003,
        RuleId::Dl004,
        RuleId::Dl006,
        RuleId::Dl007,
        RuleId::Dl008,
        RuleId::Dl009,
    ];

    /// The rules a `detlint::allow` may name. DL009 polices suppressions
    /// themselves, so it cannot be suppressed.
    pub const SUPPRESSIBLE: [RuleId; 7] = [
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
            RuleId::Dl009 => "DL009",
        }
    }

    /// Parses a `DLxxx` name.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// Which noise source the rule polices.
    pub fn taxonomy(self) -> Taxonomy {
        match self {
            RuleId::Dl001 | RuleId::Dl003 | RuleId::Dl008 | RuleId::Dl009 => Taxonomy::Reporting,
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

/// A malformed suppression — gate-failing, like a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the bad annotation.
    pub line: u32,
    /// What is malformed.
    pub message: String,
}

/// The result of scanning a workspace (or a single file).
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a valid `detlint::allow`, with the reason.
    pub suppressed: Vec<(Finding, String)>,
    /// Malformed suppressions (missing reason, unknown rule).
    pub problems: Vec<Problem>,
    /// Valid suppressions that matched nothing: `(file, line, rule)`.
    pub unused_allows: Vec<(String, u32, RuleId)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl ScanReport {
    /// `true` when the gate passes: no findings and no problems
    /// (unused allows only warn).
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.problems.is_empty()
    }

    fn merge_file(&mut self, other: ScanReport) {
        self.findings.extend(other.findings);
        self.suppressed.extend(other.suppressed);
        self.problems.extend(other.problems);
        self.unused_allows.extend(other.unused_allows);
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
    let lexed = lexer::lex(source);
    let parsed = parser::parse(&lexed.tokens);
    let findings = rules::run_rules(rel_path, &lexed, &parsed, config);
    let suppressions = suppress::parse_suppressions(&lexed.comments, &lexed.tokens);

    let mut report = ScanReport {
        files_scanned: 1,
        ..ScanReport::default()
    };
    let mut used = vec![false; suppressions.len()];
    for s in &suppressions {
        match (&s.rule, &s.reason) {
            (Err(raw), _) => report.problems.push(Problem {
                file: rel_path.to_string(),
                line: s.line,
                message: format!(
                    "detlint::allow names unknown rule `{raw}` \
                     (expected DL001..DL004 or DL006..DL008; DL009 \
                     polices allows and cannot be suppressed)"
                ),
            }),
            (Ok(RuleId::Dl009), _) => report.problems.push(Problem {
                file: rel_path.to_string(),
                line: s.line,
                message: "detlint::allow(DL009) is not allowed: DL009 audits \
                          suppressions and cannot itself be suppressed"
                    .to_string(),
            }),
            (Ok(rule), None) => report.problems.push(Problem {
                file: rel_path.to_string(),
                line: s.line,
                message: format!(
                    "detlint::allow({}) is missing a reason; write \
                     `detlint::allow({}, reason = \"...\")`",
                    rule.as_str(),
                    rule.as_str()
                ),
            }),
            (Ok(_), Some(_)) => {}
        }
    }
    for f in findings {
        // A finding on a continuation line of a multi-line statement is
        // covered by a suppression on the statement's *first* line — the
        // only line a human can reasonably annotate.
        let stmt_first = parsed.stmt_first_line(f.line).unwrap_or(f.line);
        let hit = suppressions.iter().enumerate().find(|(_, s)| {
            (s.covers == f.line || s.covers == stmt_first)
                && s.rule == Ok(f.rule)
                && s.reason.is_some()
        });
        match hit {
            Some((idx, s)) => {
                used[idx] = true;
                report
                    .suppressed
                    .push((f, s.reason.clone().unwrap_or_default()));
            }
            None => report.findings.push(f),
        }
    }
    // A stale allow in shipping code is a finding (DL009). Test code
    // keeps it a warning — its rules don't run, so every allow there
    // would look stale.
    let audit_here =
        !config.rule_exempt(RuleId::Dl009, rel_path) && !Config::is_test_path(rel_path);
    let test_regions = if audit_here {
        lexer::test_regions(&lexed.tokens)
    } else {
        Vec::new()
    };
    for (s, used) in suppressions.iter().zip(used) {
        if let (Ok(rule), Some(_), false) = (&s.rule, &s.reason, used) {
            if *rule == RuleId::Dl009 {
                continue; // already a problem above
            }
            let in_test = test_regions.iter().any(|&(a, b)| (a..=b).contains(&s.line));
            if audit_here && !in_test {
                report.findings.push(Finding {
                    rule: RuleId::Dl009,
                    file: rel_path.to_string(),
                    line: s.line,
                    message: format!(
                        "stale allow: detlint::allow({}) matches no {} finding \
                         on the line it covers; delete it or re-justify it",
                        rule.as_str(),
                        rule.as_str()
                    ),
                });
            } else {
                report
                    .unused_allows
                    .push((rel_path.to_string(), s.line, *rule));
            }
        }
    }
    report
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

    #[test]
    fn suppression_silences_finding_and_is_marked_used() {
        let src = "fn f() -> f64 {\n    // detlint::allow(DL004, reason = \"fixed-size input\")\n    self.xs.iter().sum()\n}\n";
        let report = scan_file("src/x.rs", src, &Config::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
        assert!(report.unused_allows.is_empty());
        assert!(report.clean());
    }

    /// An allow inside a `#[cfg(test)]` region covers code the rules skip,
    /// so it would always look stale: it stays a warning, not DL009.
    #[test]
    fn unused_allow_is_warned_not_failed() {
        let src = "#[cfg(test)]\nmod tests {\n    // detlint::allow(DL001, reason = \"nothing here\")\n    fn f() {}\n}\n";
        let report = scan_file("src/x.rs", src, &Config::default());
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(
            report.unused_allows,
            [("src/x.rs".to_string(), 3, RuleId::Dl001)]
        );
    }

    #[test]
    fn bad_allows_fail_the_gate() {
        let src = "// detlint::allow(DL004)\nfn f() {}\n// detlint::allow(DL077, reason = \"?\")\nfn g() {}\n";
        let report = scan_file("src/x.rs", src, &Config::default());
        assert_eq!(report.problems.len(), 2);
        assert!(!report.clean());
    }
}
