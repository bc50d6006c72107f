//! SARIF 2.1.0 output for code-scanning integrations.
//!
//! The shape follows what GitHub code scanning ingests: a single run
//! with a `tool.driver` describing every rule, and one `result` per
//! finding with a `physicalLocation`. Every finding fails the gate, so
//! every result is `level: "error"`; malformed suppressions surface as
//! errors under a synthetic `suppression-problem` rule so they are
//! never silently dropped from the upload.

use serde_json::Value;

use crate::{Finding, RuleId, ScanReport};

/// The schema URI GitHub's ingestion validates against.
pub const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Rule id used for malformed-suppression problems.
const PROBLEM_RULE: &str = "suppression-problem";

fn rule_descriptor(rule: RuleId) -> Value {
    serde_json::json!({
        "id": rule.as_str(),
        "name": rule.as_str(),
        "shortDescription": { "text": rule.summary() },
        "helpUri": "https://example.invalid/detlint#--explain",
        "properties": {
            "taxonomy": rule.taxonomy().as_str(),
        },
    })
}

fn location(file: &str, line: u32) -> Value {
    serde_json::json!({
        "physicalLocation": {
            "artifactLocation": {
                "uri": file,
                "uriBaseId": "%SRCROOT%",
            },
            "region": { "startLine": line },
        },
    })
}

fn result(f: &Finding) -> Value {
    // ruleIndex points into the rules array, which lists RuleId::ALL in
    // order followed by the synthetic problem rule.
    let idx = RuleId::ALL.iter().position(|r| *r == f.rule).unwrap_or(0);
    serde_json::json!({
        "ruleId": f.rule.as_str(),
        "ruleIndex": idx,
        "level": "error",
        "message": { "text": f.message },
        "locations": [location(&f.file, f.line)],
    })
}

/// Renders the report as a SARIF 2.1.0 document.
pub fn sarif(report: &ScanReport) -> Value {
    let mut rules: Vec<Value> = RuleId::ALL.iter().map(|r| rule_descriptor(*r)).collect();
    rules.push(serde_json::json!({
        "id": PROBLEM_RULE,
        "name": PROBLEM_RULE,
        "shortDescription": { "text": "malformed detlint::allow annotation" },
        "properties": { "taxonomy": "REPORTING" },
    }));
    let problem_index = rules.len() - 1;

    let mut results: Vec<Value> = report.findings.iter().map(result).collect();
    for p in &report.problems {
        results.push(serde_json::json!({
            "ruleId": PROBLEM_RULE,
            "ruleIndex": problem_index,
            "level": "error",
            "message": { "text": p.message },
            "locations": [location(&p.file, p.line)],
        }));
    }

    serde_json::json!({
        "$schema": SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "detlint",
                    "version": env!("CARGO_PKG_VERSION"),
                    "informationUri": "https://example.invalid/detlint",
                    "rules": Value::Arr(rules),
                },
            },
            "results": Value::Arr(results),
            "columnKind": "utf16CodeUnits",
        }],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;

    fn shape_check(doc: &Value) {
        assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
        assert_eq!(doc.get("$schema").and_then(Value::as_str), Some(SCHEMA));
        let runs = doc.get("runs").and_then(Value::as_array).expect("runs");
        assert_eq!(runs.len(), 1);
        let driver = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .expect("tool.driver");
        assert_eq!(driver.get("name").and_then(Value::as_str), Some("detlint"));
        let rules = driver
            .get("rules")
            .and_then(Value::as_array)
            .expect("rules");
        assert_eq!(rules.len(), RuleId::ALL.len() + 1);
        for r in runs[0].get("results").and_then(Value::as_array).unwrap() {
            let rule_id = r.get("ruleId").and_then(Value::as_str).expect("ruleId");
            let idx = r
                .get("ruleIndex")
                .and_then(Value::as_u64)
                .expect("ruleIndex") as usize;
            assert_eq!(
                rules[idx].get("id").and_then(Value::as_str),
                Some(rule_id),
                "ruleIndex must point at the matching rule"
            );
            assert!(r.get("message").and_then(|m| m.get("text")).is_some());
            let loc = &r.get("locations").and_then(Value::as_array).unwrap()[0];
            let phys = loc.get("physicalLocation").expect("physicalLocation");
            assert!(phys
                .get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .is_some());
            assert!(phys
                .get("region")
                .and_then(|g| g.get("startLine"))
                .and_then(Value::as_u64)
                .is_some());
            assert_eq!(r.get("level").and_then(Value::as_str), Some("error"));
        }
    }

    #[test]
    fn sarif_document_has_the_github_code_scanning_shape() {
        let src = "pub fn f(xs: &[f32]) -> f32 {\n    xs.iter().sum()\n}\n\
                   // detlint::allow(DL001)\npub fn g() {}\n";
        let report = crate::scan_file("crates/x/src/lib.rs", src, &Config::default());
        let doc = sarif(&report);
        shape_check(&doc);
        let results = doc.get("runs").unwrap().as_array().unwrap()[0]
            .get("results")
            .unwrap()
            .as_array()
            .unwrap()
            .clone();
        // One result per finding and per malformed suppression.
        let rule_ids: Vec<_> = results
            .iter()
            .map(|r| r.get("ruleId").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(rule_ids, ["DL004", PROBLEM_RULE]);
        // Deterministic rendering.
        let a = serde_json::to_string(&doc).unwrap();
        let b = serde_json::to_string(&sarif(&report)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_report_is_still_valid_sarif() {
        let report = crate::ScanReport::default();
        shape_check(&sarif(&report));
    }
}
