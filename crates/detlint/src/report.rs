//! Human-readable and JSON rendering of a scan report.

use serde_json::Value;

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

fn finding_value(f: &Finding) -> Value {
    serde_json::json!({
        "rule": f.rule.as_str(),
        "taxonomy": f.rule.taxonomy().as_str(),
        "file": f.file,
        "line": f.line,
        "message": f.message,
    })
}

/// Formats the report as a JSON document (stable key order).
pub fn json(report: &ScanReport) -> Value {
    serde_json::json!({
        "clean": report.clean(),
        "files_scanned": report.files_scanned,
        "findings": report.findings.iter().map(finding_value).collect::<Vec<_>>(),
        "suppressed": report
            .suppressed
            .iter()
            .map(|(f, reason)| {
                let mut v = finding_value(f);
                if let Value::Obj(m) = &mut v {
                    m.insert(
                        "reason".to_string(),
                        Value::Str(reason.clone()),
                    );
                }
                v
            })
            .collect::<Vec<_>>(),
        "problems": report
            .problems
            .iter()
            .map(|p| {
                serde_json::json!({
                    "file": p.file,
                    "line": p.line,
                    "message": p.message,
                })
            })
            .collect::<Vec<_>>(),
        "unused_allows": report
            .unused_allows
            .iter()
            .map(|(file, line, rule)| {
                serde_json::json!({
                    "file": file,
                    "line": line,
                    "rule": rule.as_str(),
                })
            })
            .collect::<Vec<_>>(),
    })
}
