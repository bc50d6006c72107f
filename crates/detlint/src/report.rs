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

/// Formats the report for terminal output.
pub fn human(report: &ScanReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&render_finding(f));
        out.push('\n');
    }
    for p in &report.problems {
        out.push_str(&format!("error: {}:{}: {}\n", p.file, p.line, p.message));
    }
    for (file, line, rule) in &report.unused_allows {
        out.push_str(&format!(
            "warning: {file}:{line}: unused detlint::allow({})\n",
            rule.as_str()
        ));
    }
    let status = if report.clean() { "clean" } else { "FAILED" };
    out.push_str(&format!(
        "detlint: {status} — {} finding(s), {} problem(s), \
         {} suppressed, {} file(s) scanned\n",
        report.findings.len(),
        report.problems.len(),
        report.suppressed.len(),
        report.files_scanned,
    ));
    out
}
