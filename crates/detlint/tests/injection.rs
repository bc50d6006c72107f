//! The hazard matrix: hazards planted into copies of real shipping files,
//! each row recording the exact set of rules that fire inside the planted
//! block.
//!
//! The workspace scans clean, so these rows are the proof that each rule
//! has teeth on real code shapes: take a shipping file verbatim (it must
//! scan quiet), append a hazard, and compare the rules that fire in the
//! appended block with the row's set — under the workspace config CI
//! uses, loaded from `detlint.toml` itself. Every rule must have at least
//! two rows and at least one row that it alone catches; a rule with no
//! such row catches nothing another rule misses. Each row is its own test,
//! named by its label.

use detlint::{Config, RuleId};

/// One planted hazard.
struct Row {
    label: &'static str,
    /// Workspace-relative path of the host file.
    host: &'static str,
    /// The host file's shipping source.
    source: &'static str,
    /// The hazard appended to the host.
    block: &'static str,
    /// Every rule that fires inside the block, in ID order.
    fires: &'static [RuleId],
}

macro_rules! matrix {
    ($($label:ident: $host:literal fires [$($rule:ident),*] $block:literal)*) => {
        const MATRIX: &[Row] = &[$(Row {
            label: stringify!($label),
            host: $host,
            source: include_str!(concat!("../../../", $host)),
            block: $block,
            fires: &[$(RuleId::$rule),*],
        }),*];
        $(#[test]
        fn $label() {
            check(stringify!($label));
        })*
    };
}

matrix! {
    hash_keys_pushed_into_a_report: "crates/core/src/report.rs" fires [Dl001]
    "fn injected_labels(m: &std::collections::HashMap<String, u32>) -> Vec<String> {
        let mut out = Vec::new();
        for k in m.keys() {
            out.push(k.clone());
        }
        out
    }"

    hash_collect_then_compound_sum: "crates/metrics/src/stats.rs" fires [Dl001, Dl006]
    "fn injected_total(m: &std::collections::HashMap<u64, f64>) -> f64 {
        let leaked: Vec<f64> = m.values().copied().collect();
        let mut total = 0.0;
        for v in &leaked {
            total += v;
        }
        total
    }"

    dl006_catches_unordered_sum_injected_into_runner: "crates/core/src/runner.rs"
    fires [Dl001, Dl004, Dl006]
    "fn injected_unordered_total(m: &std::collections::HashMap<u64, f64>) -> f64 {
        let leaked: Vec<f64> = m.values().copied().collect();
        let injected_total: f64 = leaked.iter().sum();
        injected_total
    }"

    ambient_random_seed: "crates/nn/src/init.rs" fires [Dl002]
    "fn injected_seed() -> u64 {
        rand::random()
    }"

    clock_seeded_stream: "crates/core/src/variant.rs" fires [Dl002, Dl003]
    "fn injected_stream() -> detrand::StreamRng {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        detrand::Philox::from_seed(seed).rng_at(0)
    }"

    clock_read_in_the_trainer: "crates/nn/src/trainer.rs" fires [Dl003]
    "fn injected_step_seconds() -> f64 {
        let t0 = std::time::Instant::now();
        t0.elapsed().as_secs_f64()
    }"

    par_sum: "crates/tensor/src/conv.rs" fires [Dl004]
    "fn injected_par_sum(xs: &[f32]) -> f32 {
        xs.par_iter().sum()
    }"

    par_reduce: "crates/hwsim/src/exec.rs" fires [Dl004]
    "fn injected_par_reduce(xs: Vec<f64>) -> f64 {
        xs.into_par_iter().reduce(|| 0.0, |a, b| a + b)
    }"

    par_chunked_sum: "crates/nn/src/optim.rs" fires [Dl004]
    "fn injected_par_chunks(xs: &[f32]) -> f32 {
        xs.par_chunks(64).map(|c| c.iter().sum::<f32>()).sum()
    }"

    sequential_float_reduce: "crates/metrics/src/classification.rs" fires [Dl004]
    "fn injected_reduce(xs: &[f32]) -> f32 {
        xs.iter().copied().reduce(|a, b| a + b).unwrap_or(0.0)
    }"

    channel_try_iter_then_compound_sum: "crates/core/src/fleet.rs" fires [Dl006]
    "fn injected_drain(rx: &std::sync::mpsc::Receiver<f64>) -> f64 {
        let got: Vec<f64> = rx.try_iter().collect();
        let mut total = 0.0;
        for g in &got {
            total += g;
        }
        total
    }"

    par_collect_then_compound_sum: "crates/data/src/augment.rs" fires [Dl006]
    "fn injected_partials(xs: &[f64]) -> f64 {
        let parts: Vec<f64> = xs.par_iter().map(|x| x * 2.0).collect();
        let mut total = 0.0;
        for p in &parts {
            total += p;
        }
        total
    }"

    dl007_catches_draw_crossing_spawn_injected_into_fleet: "crates/core/src/fleet.rs"
    fires [Dl007]
    "fn injected_jitter(rng: &mut detrand::StreamRng, scope: &std::thread::Scope<'_, '_>) {
        let jitter = rng.next_u64();
        scope.spawn(move || std::hint::black_box(jitter));
    }"

    draw_written_into_a_worker_spec: "crates/core/src/runner.rs" fires [Dl007]
    "fn injected_spec(rng: &mut detrand::StreamRng, out: &mut Vec<u8>) {
        let salt = rng.next_u32();
        write_spec(out, salt);
    }"

    env_knob_in_the_trainer: "crates/nn/src/trainer.rs" fires [Dl008]
    "fn injected_lr_scale() -> f32 {
        let raw = std::env::var(\"NS_LR_SCALE\").unwrap_or_default();
        raw.parse::<f32>().unwrap_or(1.0)
    }"

    env_label_in_a_report: "crates/core/src/report.rs" fires [Dl008]
    "fn injected_label() -> Option<std::ffi::OsString> {
        std::env::var_os(\"NS_RUN_LABEL\")
    }"

    settings_env_read_is_exempt_from_dl008: "crates/core/src/settings.rs" fires []
    "fn injected_rogue_knob() -> f64 {
        let raw = std::env::var(\"NS_ROGUE_SCALE\").unwrap_or_default();
        raw.parse::<f64>().unwrap_or(1.0)
    }"

    stale_allow_on_an_integer_sum: "crates/metrics/src/stats.rs" fires [Dl009]
    "fn injected_count(xs: &[u64]) -> u64 {
        // detlint::allow(DL004, reason = \"fixed-size input\")
        xs.iter().sum()
    }"

    allow_naming_the_wrong_rule: "crates/hwsim/src/profiler.rs" fires [Dl003, Dl009]
    "fn injected_deadline() -> std::time::Instant {
        std::time::Instant::now() // detlint::allow(DL004, reason = \"names the wrong rule\")
    }"
}

/// The workspace config, so exemptions match CI exactly.
fn workspace_config() -> Config {
    Config::parse(include_str!("../../../detlint.toml")).expect("detlint.toml parses")
}

/// Scans the row's host (which must be quiet), then the host with the
/// block appended, and compares the rules firing in the block.
fn check(label: &str) {
    let row = MATRIX
        .iter()
        .find(|r| r.label == label)
        .expect("every test is a row");
    let config = workspace_config();
    let before = detlint::scan_file(row.host, row.source, &config);
    assert!(
        before.clean(),
        "{} is not quiet before injection: {:?} {:?}",
        row.host,
        before.findings,
        before.problems
    );
    let host_lines = row.source.lines().count() as u32;
    let patched = format!("{}\n{}\n", row.source, row.block);
    let after = detlint::scan_file(row.host, &patched, &config);
    assert!(after.problems.is_empty(), "{label}: {:?}", after.problems);
    assert!(
        after.findings.iter().all(|f| f.line > host_lines),
        "{label}: the block made the host itself fire: {:?}",
        after.findings
    );
    let mut fired: Vec<RuleId> = after.findings.iter().map(|f| f.rule).collect();
    fired.sort();
    fired.dedup();
    assert_eq!(fired, row.fires, "{label}: {:?}", after.findings);
}

#[test]
fn every_rule_has_two_rows_and_one_it_alone_catches() {
    for rule in RuleId::ALL {
        let rows: Vec<&Row> = MATRIX.iter().filter(|r| r.fires.contains(&rule)).collect();
        assert!(
            rows.len() >= 2,
            "{} fires in {} matrix rows; it needs two",
            rule.as_str(),
            rows.len()
        );
        assert!(
            rows.iter().any(|r| r.fires == [rule]),
            "{} catches nothing another rule misses",
            rule.as_str()
        );
    }
}

/// The settings module is DL008's one exemption, and a load-bearing one:
/// without it, the module's env reads fire.
#[test]
fn dl008_exemption_is_load_bearing_for_settings() {
    let src = include_str!("../../core/src/settings.rs");
    let mut config = workspace_config();
    config.exempt.remove(&RuleId::Dl008);
    let report = detlint::scan_file("crates/core/src/settings.rs", src, &config);
    assert!(
        report.findings.iter().any(|f| f.rule == RuleId::Dl008),
        "settings.rs reads no env var outside its exemption"
    );
}
