//! Fixture-driven proof that every rule fires and suppressions behave.
//!
//! Each fixture under `tests/fixtures/` is scanned as if it were workspace
//! source (the real workspace scan excludes the directory). Hazard lines
//! are marked with a `// fires:` comment, so the expectations below stay
//! readable next to the fixtures themselves.

use detlint::{Config, RuleId, ScanReport};

fn scan_fixture(name: &str, source: &str) -> ScanReport {
    detlint::scan_file(name, source, &Config::default())
}

fn lines_for(report: &ScanReport, rule: RuleId) -> Vec<u32> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

/// Lines in a fixture marked with a `// fires:` comment.
fn marked_lines(source: &str) -> Vec<u32> {
    source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// fires:"))
        .map(|(i, _)| i as u32 + 1)
        .collect()
}

#[test]
fn dl001_fires_on_every_marked_line() {
    let src = include_str!("fixtures/dl001_hashmap_iter.rs");
    let report = scan_fixture("fixtures/dl001_hashmap_iter.rs", src);
    assert_eq!(lines_for(&report, RuleId::Dl001), marked_lines(src));
    assert!(report.problems.is_empty());
}

#[test]
fn dl002_fires_on_every_marked_line() {
    let src = include_str!("fixtures/dl002_entropy.rs");
    let report = scan_fixture("fixtures/dl002_entropy.rs", src);
    assert_eq!(lines_for(&report, RuleId::Dl002), marked_lines(src));
}

#[test]
fn dl003_fires_on_every_marked_line() {
    let src = include_str!("fixtures/dl003_wallclock.rs");
    let report = scan_fixture("fixtures/dl003_wallclock.rs", src);
    assert_eq!(lines_for(&report, RuleId::Dl003), marked_lines(src));
}

#[test]
fn dl004_fires_on_every_marked_line() {
    let src = include_str!("fixtures/dl004_float_sum.rs");
    let report = scan_fixture("fixtures/dl004_float_sum.rs", src);
    assert_eq!(lines_for(&report, RuleId::Dl004), marked_lines(src));
}

#[test]
fn dl006_fires_on_every_marked_line() {
    let src = include_str!("fixtures/dl006_taint_flow.rs");
    let report = scan_fixture("fixtures/dl006_taint_flow.rs", src);
    assert_eq!(lines_for(&report, RuleId::Dl006), marked_lines(src));
    assert!(report.problems.is_empty());
}

#[test]
fn dl007_fires_on_every_marked_line() {
    let src = include_str!("fixtures/dl007_entropy_boundary.rs");
    let report = scan_fixture("fixtures/dl007_entropy_boundary.rs", src);
    assert_eq!(lines_for(&report, RuleId::Dl007), marked_lines(src));
}

#[test]
fn dl008_fires_on_every_marked_line() {
    let src = include_str!("fixtures/dl008_env_knob.rs");
    let report = scan_fixture("fixtures/dl008_env_knob.rs", src);
    assert_eq!(lines_for(&report, RuleId::Dl008), marked_lines(src));
}

#[test]
fn dl009_fires_on_stale_allows_under_audit() {
    let src = include_str!("fixtures/dl009_stale_allow.rs");
    let report = scan_fixture("fixtures/dl009_stale_allow.rs", src);
    assert_eq!(lines_for(&report, RuleId::Dl009), marked_lines(src));
    // The load-bearing allow stays a suppression, not a finding.
    assert_eq!(report.suppressed.len(), 1);
    assert!(!report.clean());
}

/// Regression: a suppression on a statement's first line covers findings
/// reported on continuation lines of the same multi-line expression.
#[test]
fn suppressions_cover_multiline_statements() {
    let src = include_str!("fixtures/multiline_suppress.rs");
    let report = scan_fixture("fixtures/multiline_suppress.rs", src);
    assert!(
        report.findings.is_empty(),
        "continuation-line findings escaped their allows: {:?}",
        report.findings
    );
    assert_eq!(report.suppressed.len(), 2);
    assert!(
        report.unused_allows.is_empty(),
        "{:?}",
        report.unused_allows
    );
    assert!(report.problems.is_empty());
}

#[test]
fn every_rule_has_fixture_coverage() {
    // Guards against a rule existing with no fixture proving it fires.
    let all = [
        include_str!("fixtures/dl001_hashmap_iter.rs"),
        include_str!("fixtures/dl002_entropy.rs"),
        include_str!("fixtures/dl003_wallclock.rs"),
        include_str!("fixtures/dl004_float_sum.rs"),
        include_str!("fixtures/dl006_taint_flow.rs"),
        include_str!("fixtures/dl007_entropy_boundary.rs"),
        include_str!("fixtures/dl008_env_knob.rs"),
        include_str!("fixtures/dl009_stale_allow.rs"),
    ];
    let mut fired: Vec<RuleId> = Vec::new();
    for (i, src) in all.iter().enumerate() {
        let report = scan_fixture(&format!("fixtures/f{i}.rs"), src);
        fired.extend(report.findings.iter().map(|f| f.rule));
    }
    for rule in RuleId::ALL {
        assert!(
            fired.contains(&rule),
            "{} has no firing fixture",
            rule.as_str()
        );
    }
}

#[test]
fn valid_suppressions_silence_every_hazard() {
    let src = include_str!("fixtures/suppressed.rs");
    let report = scan_fixture("fixtures/suppressed.rs", src);
    assert!(
        report.findings.is_empty(),
        "unsuppressed: {:?}",
        report.findings
    );
    assert!(
        report.problems.is_empty(),
        "problems: {:?}",
        report.problems
    );
    assert!(
        report.unused_allows.is_empty(),
        "unused: {:?}",
        report.unused_allows
    );
    // Every allow silences a finding, and every suppressible rule is
    // among them (DL009 polices allows and cannot itself be suppressed),
    // each with its reason preserved.
    assert_eq!(
        report.suppressed.len(),
        src.matches("detlint::allow(").count()
    );
    let mut rules: Vec<RuleId> = report.suppressed.iter().map(|(f, _)| f.rule).collect();
    rules.sort();
    rules.dedup();
    assert_eq!(rules, RuleId::SUPPRESSIBLE);
    assert!(report
        .suppressed
        .iter()
        .all(|(_, reason)| !reason.is_empty()));
    assert!(report.clean());
}

#[test]
fn clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/clean.rs");
    let report = scan_fixture("fixtures/clean.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.problems.is_empty());
    assert!(report.clean());
}

#[test]
fn malformed_allows_fail_the_gate() {
    let src = include_str!("fixtures/bad_allow.rs");
    let report = scan_fixture("fixtures/bad_allow.rs", src);
    // Three malformed annotations, and none of them silences its finding.
    assert_eq!(report.problems.len(), 3);
    assert_eq!(lines_for(&report, RuleId::Dl004).len(), 3);
    assert!(!report.clean());
    let messages: String = report
        .problems
        .iter()
        .map(|p| p.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(messages.contains("missing a reason"));
    assert!(messages.contains("unknown rule"));
}

#[test]
fn per_rule_exemptions_disable_only_that_rule() {
    let mut config = Config::default();
    config
        .exempt
        .insert(RuleId::Dl004, vec!["crates/special".to_string()]);
    let src =
        "fn f(xs: &[f32]) -> f32 {\n let t = std::time::Instant::now();\n xs.iter().sum()\n}\n";
    let exempted = detlint::scan_file("crates/special/src/lib.rs", src, &config);
    assert!(lines_for(&exempted, RuleId::Dl004).is_empty());
    assert_eq!(lines_for(&exempted, RuleId::Dl003).len(), 1);
    let normal = detlint::scan_file("crates/other/src/lib.rs", src, &config);
    assert_eq!(lines_for(&normal, RuleId::Dl004).len(), 1);
}

/// The fleet supervisor's `clock` shim is the one sanctioned wall-clock
/// read in `noisescope::fleet` — scanned here as real workspace source,
/// not a synthetic fixture.
#[test]
fn fleet_clock_shim_is_the_only_sanctioned_wallclock_read() {
    let src = include_str!("../../core/src/fleet.rs");
    let report = detlint::scan_file("crates/core/src/fleet.rs", src, &Config::default());
    assert!(
        lines_for(&report, RuleId::Dl003).is_empty(),
        "fleet.rs must have no unsuppressed wall-clock reads: {:?}",
        report.findings
    );
    assert!(report.problems.is_empty(), "{:?}", report.problems);
    let dl003: Vec<&(detlint::Finding, String)> = report
        .suppressed
        .iter()
        .filter(|(f, _)| f.rule == RuleId::Dl003)
        .collect();
    assert_eq!(
        dl003.len(),
        1,
        "exactly one sanctioned clock read (the shim), got {dl003:?}"
    );
    assert!(
        dl003[0].1.contains("watchdog"),
        "the shim's reason must name its purpose: {:?}",
        dl003[0].1
    );

    // Neutralize the allow (preserving line numbers): the shim's
    // `Instant::now()` must then fire DL003 on its own line — proof the
    // suppression is load-bearing and covers nothing else.
    let shim_line = dl003[0].0.line;
    let stripped = src.replace("// detlint::allow(DL003", "// allow-was-here(DL003");
    assert_ne!(src, stripped, "the shim's allow comment must exist");
    let report = detlint::scan_file("crates/core/src/fleet.rs", &stripped, &Config::default());
    assert_eq!(
        lines_for(&report, RuleId::Dl003),
        vec![shim_line],
        "without the allow, the shim itself must trip DL003"
    );

    // And a raw Instant::now() added anywhere else in the supervisor
    // still fires: the shim does not whitelist the file.
    let patched = format!(
        "{src}\nfn rogue_deadline() -> std::time::Instant {{ std::time::Instant::now() }}\n"
    );
    let report = detlint::scan_file("crates/core/src/fleet.rs", &patched, &Config::default());
    assert_eq!(
        lines_for(&report, RuleId::Dl003).len(),
        1,
        "a raw wall-clock read outside the shim must fire DL003"
    );
}

#[test]
fn test_code_is_skipped_unless_configured() {
    let src = "#[cfg(test)]\nmod tests {\n #[test]\n fn t() { let x: f64 = v.iter().sum(); }\n}\n";
    let report = scan_fixture("crates/x/src/lib.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}
