//! The human-readable scan report: the one output of `detlint`.

use crate::{Finding, ScanReport};

fn render_finding(f: &Finding) -> String {
    format!(
        "{}:{}: {} [{}] {}",
        f.file,
        f.line,
        f.rule.as_str(),
        f.rule.taxonomy().as_str(),
        f.message
    )
}

/// Formats the report for terminal output: one line per finding, then a
/// summary line.
pub fn human(report: &ScanReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&render_finding(f));
        out.push('\n');
    }
    let status = if report.clean() { "clean" } else { "FAILED" };
    out.push_str(&format!(
        "detlint: {status} — {} finding(s), {} file(s) scanned\n",
        report.findings.len(),
        report.files_scanned,
    ));
    out
}
