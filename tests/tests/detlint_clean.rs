//! Tier-1 gate: the workspace must be free of determinism hazards.
//!
//! Runs the same scan as `cargo run -p detlint` — every `.rs`
//! file in the repository, under the committed `detlint.toml` — and fails
//! with the full finding list if any hazard outside a path exemption
//! exists, if an exemption has no reason comment, or if an exemption
//! absorbs no finding.
//! This is what makes the lint a property of the codebase rather than an
//! optional tool: a PR that introduces a `HashMap` iteration into a report,
//! an ambient RNG seed, or an ad-hoc float reduction fails `cargo test`.

use std::path::Path;

use detlint::{report, Config};

fn workspace_root() -> &'static Path {
    // tests/ is a direct child of the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate has a parent directory")
}

#[test]
fn workspace_is_hazard_free() {
    let root = workspace_root();
    let config_path = root.join("detlint.toml");
    assert!(
        config_path.is_file(),
        "detlint.toml missing at workspace root {}",
        root.display()
    );
    let config = Config::load(&config_path).expect("detlint.toml parses");
    let scan = detlint::scan_workspace(root, &config).expect("workspace scan");
    assert!(
        scan.files_scanned > 50,
        "suspiciously few files scanned ({}); wrong root?",
        scan.files_scanned
    );
    assert!(
        scan.clean(),
        "determinism hazards in the workspace:\n{}",
        report::human(&scan)
    );
}

/// A path exemption is the one way to sanction a hazard, and its reason is
/// the `#` comment directly above the entry in `detlint.toml`: an entry
/// with no comment above it sanctions a hazard without saying why.
#[test]
fn every_suppression_carries_its_reason() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("detlint.toml")).expect("detlint.toml reads");
    let config = Config::parse(&text).expect("detlint.toml parses");
    let mut entries = 0;
    let mut unexplained = Vec::new();
    let mut section = "";
    let mut in_exempt = false;
    let mut previous = "";
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') && line.ends_with(']') {
            section = line;
        } else if line.starts_with("exempt") && line.contains('[') {
            in_exempt = section.starts_with("[rules.");
        } else if in_exempt && line.starts_with(']') {
            in_exempt = false;
        } else if in_exempt && line.starts_with('"') {
            entries += 1;
            if !previous.starts_with('#') {
                unexplained.push(format!("{section} {line}"));
            }
        }
        if !line.is_empty() {
            previous = line;
        }
    }
    // The line scan must see every entry the parser does, or it could miss one.
    let parsed: usize = config.exempt.values().map(Vec::len).sum();
    assert_eq!(
        entries, parsed,
        "exempt entries found by line vs. by the parser"
    );
    assert!(
        unexplained.is_empty(),
        "exemptions without a reason comment above them: {unexplained:?}"
    );
}

/// A path exemption is the one way to sanction a hazard, so each
/// `[rules.DLxxx] exempt` entry must absorb a finding: with that one entry
/// removed, its rule fires under its path. An entry that absorbs nothing
/// sanctions a hazard that is not there.
#[test]
fn every_exemption_is_load_bearing() {
    let root = workspace_root();
    let config = Config::load(&root.join("detlint.toml")).expect("detlint.toml parses");
    let mut idle = Vec::new();
    for (&rule, paths) in &config.exempt {
        for path in paths {
            let mut without = config.clone();
            without
                .exempt
                .get_mut(&rule)
                .expect("the rule has this entry")
                .retain(|p| p != path);
            let scan = detlint::scan_workspace(root, &without).expect("workspace scan");
            // Every other entry still applies, so a finding the full config
            // exempts lies under the removed path.
            let absorbed = scan
                .findings
                .iter()
                .any(|f| f.rule == rule && config.rule_exempt(rule, &f.file));
            if !absorbed {
                idle.push(format!("[rules.{}] {path}", rule.as_str()));
            }
        }
    }
    assert!(
        idle.is_empty(),
        "exemptions that absorb no finding: {idle:?}"
    );
}
