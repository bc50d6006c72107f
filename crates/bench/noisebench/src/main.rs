//! `noisebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 1 when a correctness check fails and 2 on a usage
//! or set-up error.
//!
//! `noisebench --worker --times <dir>` is the fleet-worker entry point:
//! the benchmark's supervisor re-executes this binary for every replica.

use noisebench::run::{run, Options};
use noisebench::workloads::{Kind, Scale};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: noisebench --workload <impl_noise|det_control|fleet_resume> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]";

/// Runs one fleet replica through `noisescope::fleet::worker_main`, timed,
/// and leaves `<wall seconds> <peak RSS KiB> <start Unix ns>` in
/// `<dir>/worker-<pid>.s`. Standard output is the IPC pipe, so nothing is
/// printed.
fn worker(args: &[String]) -> ExitCode {
    let times = match args {
        [flag, dir] if flag == "--times" => PathBuf::from(dir),
        _ => {
            eprintln!("noisebench worker: expected --times <dir>");
            return ExitCode::from(2);
        }
    };
    let start = noisebench::run::unix_ns();
    let t0 = Instant::now();
    let code = noisescope::fleet::worker_main();
    let elapsed = t0.elapsed().as_secs_f64();
    let path = times.join(format!("worker-{}.s", std::process::id()));
    let rss = noisebench::sys::peak_rss_kib();
    if let Err(e) = std::fs::write(&path, format!("{elapsed} {rss} {start}\n")) {
        eprintln!("noisebench worker: {}: {e}", path.display());
    }
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from(".noisebench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let worker_exe =
        std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        out_dir,
        worker_exe,
    })
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (non-finite values have no JSON form and become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        return worker(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("noisebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("noisebench: {e}");
            return ExitCode::from(2);
        }
    };

    let record_path = opts.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    let pretty = serde_json::to_string_pretty(&outcome.record).expect("record serializes");
    if let Err(e) = std::fs::write(&record_path, pretty) {
        eprintln!("noisebench: write {}: {e}", record_path.display());
    }

    println!(
        "workload {} seed {} ({} mode)",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" }
    );
    for m in &outcome.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<40} {:>16.6} ratio",
        "failed_replica_ratio",
        outcome.failed as f64 / outcome.attempted as f64
    );
    for p in &outcome.problems {
        println!("  CHECK FAILED: {p}");
    }
    println!("  record: {}", record_path.display());

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
