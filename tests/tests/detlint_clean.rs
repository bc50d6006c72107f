//! Tier-1 gate: the workspace must be free of determinism hazards.
//!
//! Runs the same scan as `cargo run -p detlint` — every `.rs`
//! file in the repository, under the committed `detlint.toml` — and fails
//! with the full finding list if any unsuppressed hazard, malformed
//! suppression or stale allow exists.
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

#[test]
fn every_suppression_carries_its_reason() {
    let root = workspace_root();
    let config = Config::load(&root.join("detlint.toml")).expect("config");
    let scan = detlint::scan_workspace(root, &config).expect("workspace scan");
    for (finding, reason) in &scan.suppressed {
        assert!(
            !reason.trim().is_empty(),
            "suppression without reason at {}:{}",
            finding.file,
            finding.line
        );
    }
    // Stale allows would rot into false documentation; keep zero tolerance.
    assert!(
        scan.unused_allows.is_empty(),
        "unused suppressions: {:?}",
        scan.unused_allows
    );
}
