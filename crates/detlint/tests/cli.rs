//! End-to-end tests of the `detlint` binary: exit codes, the human
//! report and argument rejection, on scratch crates written under the
//! test's temporary directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Two DL004 findings: line 4, and line 8, whose inline allow comment
/// sanctions nothing (path exemptions in `detlint.toml` are the only way).
const HAZARDS: &str = "//! Scratch crate for the detlint binary tests.

pub fn unordered_total(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

pub fn justified_total(xs: &[f64; 4]) -> f64 {
    xs.iter().sum() // detlint::allow(DL004, reason = \"fixed four-element input\")
}
";

const CLEAN: &str = "//! Scratch crate with nothing to report.

pub fn answer() -> u64 {
    42
}
";

/// Writes `source` as `src/lib.rs` of a fresh scratch crate named `name`.
fn scratch_crate(name: &str, source: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("src")).expect("create scratch crate");
    std::fs::write(root.join("src/lib.rs"), source).expect("write scratch source");
    root
}

fn detlint(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_detlint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run detlint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn an_inline_allow_does_not_silence_its_line() {
    let root = scratch_crate("cli_hazards_human", HAZARDS);
    let out = detlint(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    for line in [4, 8] {
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with(&format!("src/lib.rs:{line}: DL004 [IMPL] "))),
            "{text}"
        );
    }
    assert_eq!(
        lines.last().copied(),
        Some("detlint: FAILED — 2 finding(s), 1 file(s) scanned")
    );
}

#[test]
fn a_clean_crate_passes() {
    let root = scratch_crate("cli_clean", CLEAN);
    let out = detlint(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert_eq!(
        stdout(&out),
        "detlint: clean — 0 finding(s), 1 file(s) scanned\n"
    );
}

#[test]
fn removed_flags_are_unknown_arguments() {
    let root = scratch_crate("cli_removed_flags", CLEAN);
    for flag in [
        "--cache",
        "--no-cache",
        "--baseline",
        "--write-baseline",
        "--json",
        "--sarif",
        "--explain",
        "--list-rules",
        "--config",
        "--audit",
    ] {
        let out = detlint(&root, &[flag, "detlint.baseline.json"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument `{flag}`")),
            "{flag}: {stderr}"
        );
    }
}
