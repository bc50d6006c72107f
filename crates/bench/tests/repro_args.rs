//! Command-line and environment errors in the `repro` binary exit 2
//! before any experiment runs or anything is written under `--out`; a
//! result file that cannot be written, or a training experiment that
//! fails, exits 1 after the run, naming it.

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

/// Runs `repro --exp table3 --out <scratch>/out` with every `NS_*`
/// variable cleared except `env`; returns the run and the `--out` path.
fn table3_with_env(scratch: &Path, env: &[(&str, &str)]) -> (Output, PathBuf) {
    let out = scratch.join("out");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("NS_") {
            cmd.env_remove(name);
        }
    }
    let run = cmd
        .envs(env.iter().copied())
        .args([
            "--exp",
            "table3",
            "--out",
            out.to_str().expect("utf-8 path"),
        ])
        .current_dir(scratch)
        .output()
        .expect("run repro");
    (run, out)
}

#[test]
fn a_malformed_numeric_env_knob_exits_2_before_creating_out() {
    let malformed = [
        ("NS_REPLICAS", "1O"),
        ("NS_SEED", "4two"),
        ("NS_AMP_ULPS", "0,5"),
        ("NS_EPOCHS_SCALE", "0,5"),
        ("NS_RETRIES", "-1"),
        ("NS_WORKER_TIMEOUT", "5s"),
        // A boolean spelling of the quick switch must not run the full
        // budget: only 0 and 1 are accepted.
        ("NS_QUICK", "true"),
        ("NS_CHAOS", "20:1,x"),
        // Three and five counts: schedules written for an older set of
        // fault kinds, which must not be reread as the current four.
        ("NS_CHAOS", "20:1,0,1"),
        ("NS_CHAOS", "20:0,1,0,1,0"),
    ];
    for (name, value) in malformed {
        let scratch = empty_dir(&format!("repro_malformed_{name}"));
        let (run, out) = table3_with_env(&scratch, &[(name, value)]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{name}={value}: {stderr}");
        assert!(stderr.contains(name), "{name}={value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}={value}: {stderr}");
        assert!(!out.exists(), "{name}={value}: repro created --out");
    }
}

#[test]
fn well_formed_numeric_env_knobs_run() {
    let scratch = empty_dir("repro_well_formed_env");
    let (run, out) = table3_with_env(
        &scratch,
        &[
            ("NS_REPLICAS", "2"),
            ("NS_SEED", "7"),
            ("NS_AMP_ULPS", "0.5"),
            ("NS_EPOCHS_SCALE", "0.5"),
            ("NS_RETRIES", "1"),
            ("NS_WORKER_TIMEOUT", "30"),
            ("NS_CHAOS", "20:1,0,0,0"),
            ("NS_QUICK", "0"),
        ],
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert!(out.join("table3.json").is_file(), "{stderr}");
}

#[test]
fn an_out_dir_that_cannot_be_created_exits_2_naming_it() {
    let scratch = empty_dir("repro_uncreatable_out");
    let file = scratch.join("file");
    std::fs::write(&file, b"a regular file").expect("plant a file");
    let out = file.join("out");
    let run = repro(
        &scratch,
        &[
            "--exp",
            "table3",
            "--out",
            out.to_str().expect("utf-8 path"),
        ],
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&*out.to_string_lossy()), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn an_unwritable_result_file_exits_1_naming_it() {
    let scratch = empty_dir("repro_unwritable_result");
    let out = scratch.join("out");
    // A directory where the result file should go: the rename onto it fails.
    std::fs::create_dir_all(out.join("table3.json")).expect("plant a directory");
    let run = repro(
        &scratch,
        &[
            "--exp",
            "table3",
            "--out",
            out.to_str().expect("utf-8 path"),
        ],
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("table3.json not written"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_training_experiment_that_cannot_reach_its_store_exits_1_naming_it() {
    let scratch = empty_dir("repro_unreachable_store");
    let out = scratch.join("out");
    std::fs::create_dir_all(&out).expect("create --out");
    // A regular file where the checkpoint store's directory should go.
    std::fs::write(out.join(".ckpt"), b"a regular file").expect("plant a file");
    let run = repro(
        &scratch,
        &["--exp", "fig2", "--out", out.to_str().expect("utf-8 path")],
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("fig2 skipped"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
