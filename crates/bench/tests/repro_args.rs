//! Command-line errors in the `repro` binary exit 2 before any experiment
//! runs or anything is written under `--out`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty directory under the test's temporary directory.
fn empty_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Runs `repro` from inside `cwd`, so a default `--out` would land there.
fn repro(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("run repro")
}

fn is_empty(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .expect("read scratch directory")
        .next()
        .is_none()
}

#[test]
fn unknown_experiment_id_exits_2_before_writing_anything() {
    let out = empty_dir("repro_unknown_exp");
    let run = repro(
        &out,
        &["--exp", "fig3", "--out", out.to_str().expect("utf-8 path")],
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("fig3"), "{stderr}");
    assert!(stderr.contains("table5"), "valid ids are listed: {stderr}");
    assert!(is_empty(&out), "repro wrote under --out");
}

#[test]
fn a_flag_without_its_value_exits_2_without_panicking() {
    for flag in ["--exp", "--out", "--fleet"] {
        let cwd = empty_dir(&format!("repro_missing_value{flag}"));
        let run = repro(&cwd, &[flag]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(is_empty(&cwd), "{flag}: repro wrote a default --out");
    }
}
