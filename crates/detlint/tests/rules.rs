//! Fixture-driven proof that every rule fires and exemptions behave.
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
fn clean_fixture_has_no_findings() {
    let src = include_str!("fixtures/clean.rs");
    let report = scan_fixture("fixtures/clean.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.clean());
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

/// `crates/core/src/clock.rs` is the one sanctioned wall-clock read in
/// `noisescope`, sanctioned by its DL003 path exemption alone: without
/// the exemption its own `Instant::now()` fires, and a raw read in the
/// fleet supervisor that calls it fires under the workspace config.
/// Scanned here as real workspace source, not a synthetic fixture.
#[test]
fn fleet_clock_shim_is_the_only_sanctioned_wallclock_read() {
    let config = Config::parse(include_str!("../../../detlint.toml")).expect("detlint.toml parses");
    let clock = include_str!("../../core/src/clock.rs");
    let report = detlint::scan_file("crates/core/src/clock.rs", clock, &config);
    assert!(report.clean(), "{:?}", report.findings);

    let mut unexempt = config.clone();
    unexempt
        .exempt
        .get_mut(&RuleId::Dl003)
        .expect("detlint.toml exempts paths from DL003")
        .retain(|p| p != "crates/core/src/clock.rs");
    let report = detlint::scan_file("crates/core/src/clock.rs", clock, &unexempt);
    let read_line = clock
        .lines()
        .position(|l| l.contains("Instant::now()") && !l.trim_start().starts_with("//"))
        .expect("clock.rs reads Instant::now()") as u32
        + 1;
    assert_eq!(
        lines_for(&report, RuleId::Dl003),
        [read_line],
        "without its exemption, the clock's own read must fire DL003"
    );

    let fleet = include_str!("../../core/src/fleet.rs");
    let report = detlint::scan_file("crates/core/src/fleet.rs", fleet, &config);
    assert!(report.clean(), "{:?}", report.findings);
    let patched = format!(
        "{fleet}\nfn rogue_deadline() -> std::time::Instant {{ std::time::Instant::now() }}\n"
    );
    let report = detlint::scan_file("crates/core/src/fleet.rs", &patched, &config);
    assert_eq!(
        lines_for(&report, RuleId::Dl003),
        [fleet.lines().count() as u32 + 2],
        "a raw wall-clock read in the supervisor must fire DL003"
    );
}

#[test]
fn test_code_is_skipped_unless_configured() {
    let src = "#[cfg(test)]\nmod tests {\n #[test]\n fn t() { let x: f64 = v.iter().sum(); }\n}\n";
    let report = scan_fixture("crates/x/src/lib.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}
