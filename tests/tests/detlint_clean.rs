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

/// The DL008 registry in `detlint.toml` and the env reads in shipping
/// code must agree both ways: every `env::var("...")` literal in
/// `crates/` (outside detlint's own fixture corpus) is registered, and
/// every registered name is actually read somewhere — a registry entry
/// nobody reads is as stale as an unregistered knob is invisible.
#[test]
fn dl008_registry_matches_workspace_env_reads() {
    let root = workspace_root();
    let config = Config::load(&root.join("detlint.toml")).expect("config");
    let mut read: Vec<String> = Vec::new();
    collect_env_reads(&root.join("crates"), &mut read);
    read.sort();
    read.dedup();
    assert!(
        !read.is_empty(),
        "no env reads found — collector looking at the wrong root?"
    );
    for name in &read {
        assert!(
            config.registered_env.iter().any(|r| r == name),
            "env var `{name}` is read in crates/ but missing from the \
             [rules.DL008] registry in detlint.toml"
        );
    }
    for name in &config.registered_env {
        assert!(
            read.contains(name),
            "registry entry `{name}` in detlint.toml is read nowhere in \
             crates/ — delete it or wire it up"
        );
    }
}

fn collect_env_reads(dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // detlint's fixtures/tests deliberately read fake knobs.
            if name == "detlint" || name == "target" {
                continue;
            }
            collect_env_reads(&path, out);
        } else if name.ends_with(".rs") {
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            let mut rest = src.as_str();
            while let Some(at) = rest.find("env::var(\"") {
                let tail = &rest[at + "env::var(\"".len()..];
                if let Some(end) = tail.find('"') {
                    out.push(tail[..end].to_string());
                    rest = &tail[end..];
                } else {
                    break;
                }
            }
        }
    }
}
