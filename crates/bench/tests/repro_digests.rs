//! Pins the whole paper's bits: the length and FNV-1a 64 of `repro`'s
//! stdout and of each JSON report it writes, at the two budgets recorded
//! in `tests/golden/repro_digests.txt`.
//!
//! Each section of that file opens with `[<budget>]` and the `NS_*`
//! settings that make the budget, then lists one `<file> <length>
//! <digest>` line per output. The tiny budget runs in process with every
//! `cargo test`. The quick budget takes most of a minute at `--release`,
//! and the tiny budget under `--fleet 2` (every replica in a worker
//! process) checks the fleet against the same section; both are ignored
//! by default. CI and `scripts/check.sh` run all three with
//! `--include-ignored`, on the native build and on `-C
//! target-cpu=x86-64-v3`.
//!
//! A mismatch names each output that changed and prints the section as
//! this build computes it. A change that moves numbers on purpose pastes
//! that section into the file in a commit of its own, naming the files
//! that changed and why.

use std::path::Path;
use std::process::Command;

const MANIFEST: &str = include_str!("../../../tests/golden/repro_digests.txt");

/// The `[budget]` section of the manifest: its `NS_*` settings and its
/// `<file> <length> <digest>` lines.
fn pinned(budget: &str) -> (Vec<(&'static str, &'static str)>, Vec<&'static str>) {
    let header = format!("[{budget}]");
    let mut lines = MANIFEST
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty());
    let head = lines
        .by_ref()
        .find(|l| l.starts_with(&header))
        .unwrap_or_else(|| panic!("the manifest has no {header} section"));
    let env = head[header.len()..]
        .split_whitespace()
        .map(|kv| kv.split_once('=').expect("budget settings are NAME=value"))
        .collect();
    let entries = lines.take_while(|l| !l.starts_with('[')).collect();
    (env, entries)
}

/// Runs `repro` (every experiment) with `flags` under `env` alone, with a
/// fresh `--out`, and returns one `<file> <length> <digest>` line for
/// stdout and for each JSON report, in file-name order.
fn computed(budget: &str, env: &[(&str, &str)], flags: &[&str]) -> Vec<String> {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("repro_digests_{budget}{}", flags.concat()));
    let _ = std::fs::remove_dir_all(&out);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("NS_") {
            cmd.env_remove(name);
        }
    }
    let run = cmd
        .envs(env.iter().copied())
        .args(flags)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run repro");
    assert!(
        run.status.success(),
        "repro{} at the {budget} budget exited with {}:\n{}",
        with_flags(flags),
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let mut reports: Vec<(String, Vec<u8>)> = std::fs::read_dir(&out)
        .expect("read --out")
        .map(|entry| entry.expect("read --out entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy();
            let bytes = std::fs::read(&path).expect("read report");
            (name.into_owned(), bytes)
        })
        .collect();
    reports.sort();
    let _ = std::fs::remove_dir_all(&out);
    std::iter::once(("stdout".to_string(), run.stdout))
        .chain(reports)
        .map(|(name, bytes)| {
            let digest = detrand::fnv1a64(&bytes);
            format!("{name} {} {digest:016x}", bytes.len())
        })
        .collect()
}

/// `flags` as they follow `repro` in a message.
fn with_flags(flags: &[&str]) -> String {
    flags.iter().map(|f| format!(" {f}")).collect()
}

/// Compares one budget's outputs, from `repro` with `flags`, with its
/// manifest section.
fn check(budget: &str, flags: &[&str]) {
    let (env, pinned) = pinned(budget);
    let computed = computed(budget, &env, flags);
    let file = |line: &str| line.split_whitespace().next().unwrap_or("").to_string();
    let mut changed: Vec<String> = pinned
        .iter()
        .filter(|&&l| !computed.iter().any(|c| c == l))
        .map(|l| file(l))
        .chain(
            computed
                .iter()
                .filter(|c| !pinned.contains(&c.as_str()))
                .map(|c| file(c)),
        )
        .collect();
    changed.sort();
    changed.dedup();
    let settings: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    assert!(
        changed.is_empty(),
        "at the {budget} budget, these outputs of repro{} differ from \
         tests/golden/repro_digests.txt: {}\n\
         this build computes the section:\n[{budget}] {}\n{}",
        with_flags(flags),
        changed.join(", "),
        settings.join(" "),
        computed.join("\n")
    );
}

#[test]
fn tiny_budget_matches_the_manifest() {
    check("tiny", &[]);
}

#[test]
#[ignore = "most of a minute at --release; CI and scripts/check.sh run it"]
fn quick_budget_matches_the_manifest() {
    check("quick", &[]);
}

/// The fleet's whole-paper check: every replica of the tiny budget in its
/// own worker process must reproduce the in-process manifest, stdout and
/// all 12 reports.
#[test]
#[ignore = "spawns a worker process per replica; CI and scripts/check.sh run it"]
fn tiny_budget_under_fleet_matches_the_manifest() {
    check("tiny", &["--fleet", "2"]);
}
