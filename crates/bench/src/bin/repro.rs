//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--exp <id>]... [--out <dir>] [--fleet <procs>]
//!
//!   ids: table2 table3 table5 fig1 fig2 fig4 fig5 fig6 fig7 fig8a fig8b
//!        fig9 fig10 ext cost stability all (default: all)
//! ```
//!
//! Figure 3 is produced by `table5`. An unknown id, a flag with no
//! value, or a malformed or invalid environment knob exits 2 before
//! anything is written under `--out`; so does an `--out` that cannot be
//! created. A training experiment that fails (`<id> skipped: <error>`)
//! or a result file that cannot be written is reported and the remaining
//! experiments still run; the exit status is then 1.
//!
//! Environment knobs (see `noisescope::settings`): `NS_REPLICAS`,
//! `NS_SEED`, `NS_AMP_ULPS`, `NS_EPOCHS_SCALE`, `NS_EXEC_THREADS`,
//! `NS_QUICK=1`, `NS_RETRIES`, `NS_CHAOS`, `NS_WORKER_TIMEOUT`,
//! `NS_HEARTBEAT_EVERY`.
//!
//! Rendered tables go to stdout; machine-readable JSON goes to `--out`
//! (default `results/`), published atomically (write-temp-then-rename) so
//! an interrupt can never leave a truncated report. Every training
//! experiment is **resumable**: every completed replica and every
//! in-flight epoch checkpoint is persisted under `<out>/.ckpt/` (scoped
//! by a settings fingerprint, one cell per task recipe, device and
//! variant), so an interrupted run picks up mid-fleet and mid-training —
//! bit-identically — on the next invocation. Delete `<out>/.ckpt/` to
//! force recomputation.
//!
//! `--fleet <procs>` runs the replicas of every training experiment
//! **process-isolated** (`procs` concurrent workers; 0 = host
//! parallelism): this binary re-executes itself in a hidden `--worker`
//! mode, one process per replica attempt, under a heartbeat watchdog that
//! kills and re-dispatches hung or crashed workers. Either way every cell
//! goes through the same replica supervisor and checkpoint store; only
//! the attempt body differs, so results are bit-identical to in-process
//! runs.

use noisescope::experiments::{cost, extensions, fairness, ordering, stability};
use noisescope::paper;
use noisescope::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

/// Every id `--exp` accepts; `cost`, `stability` and `all` name groups.
const EXP_IDS: &str =
    "table2 table3 table5 fig1 fig2 fig4 fig5 fig6 fig7 fig8a fig8b fig9 fig10 ext cost stability all";

/// Reports a command-line error and exits with the usage status.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}; try --help");
    std::process::exit(2);
}

fn main() {
    // Worker dispatch must precede everything else: a worker's stdout is
    // the IPC pipe, so not a single banner byte may be printed first.
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        std::process::exit(worker_main());
    }

    let mut exps: BTreeSet<String> = BTreeSet::new();
    let mut out_dir = PathBuf::from("results");
    let mut fleet: Option<FleetOptions> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--exp" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_error("--exp needs an experiment id"));
                if !EXP_IDS.split(' ').any(|id| id == v) {
                    usage_error(&format!(
                        "unknown experiment id {v:?}; valid ids: {EXP_IDS}"
                    ));
                }
                exps.insert(v);
            }
            "--out" => {
                out_dir = PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage_error("--out needs a directory")),
                );
            }
            "--fleet" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_error("--fleet needs a worker-process count"));
                let procs: usize = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!(
                        "--fleet needs an integer worker-process count, got {v:?}"
                    ))
                });
                fleet = Some(FleetOptions {
                    procs,
                    ..FleetOptions::default()
                });
            }
            "--help" | "-h" => {
                println!(
                    "repro [--exp <id>]... [--out <dir>] [--fleet <procs>]\n  ids: {EXP_IDS}\n  \
                     --fleet <procs>: process-isolated replicas for every training experiment \
                     (0 = host parallelism)"
                );
                return;
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    if exps.is_empty() || exps.contains("all") {
        for id in [
            "table2", "table3", "table5", "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8a",
            "fig8b", "fig9", "fig10", "ext",
        ] {
            exps.insert(id.to_string());
        }
    }
    if exps.remove("cost") {
        for id in ["fig7", "fig8a", "fig8b"] {
            exps.insert(id.to_string());
        }
    }
    if exps.remove("stability") {
        for id in ["table2", "fig1", "fig4", "fig9", "fig10"] {
            exps.insert(id.to_string());
        }
    }

    let settings = ExperimentSettings::from_env()
        .and_then(|s| s.validate().map(|()| s))
        .unwrap_or_else(|e| {
            eprintln!("invalid configuration: {e}");
            std::process::exit(2);
        });
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create output directory {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    // Durable fleet progress: interrupted experiments resume from here.
    let store = CheckpointStore::for_settings(out_dir.join(".ckpt"), &settings);
    println!(
        "# NoiseScope reproduction — replicas={} amp_ulps={} epochs_scale={} seed={}\n",
        settings.replicas, settings.amp_ulps, settings.epochs_scale, settings.base_seed
    );
    eprintln!("checkpoint store: {}", store.root().display());
    if fleet.is_some() {
        eprintln!("fleet mode: replicas run in worker processes");
    }
    // A result that cannot be written costs that file, and a failed
    // experiment costs that experiment, not the experiments still to run;
    // the exit status reports either at the end.
    let mut unsaved = false;
    let mut skipped = false;
    let mut skip = |id: &str, e: &dyn std::fmt::Display| {
        eprintln!("{id} skipped: {e}");
        skipped = true;
    };
    let mut save = |name: &str, json: &serde_json::Value| {
        let path = out_dir.join(format!("{name}.json"));
        match noisescope::report::save_json(&path, json) {
            Ok(()) => eprintln!("  wrote {}", path.display()),
            Err(e) => {
                eprintln!("{name}.json not written: {e}");
                unsaved = true;
            }
        }
    };
    let t0 = Instant::now();

    // ---- fast cost-model experiments first ----
    if exps.contains("fig7") {
        let started = Instant::now();
        let fig = cost::fig7(100);
        println!("{}", cost::render_fig7(&fig));
        save("fig7", &serde_json::to_value(&fig).unwrap());
        eprintln!("fig7 done in {:.1}s", started.elapsed().as_secs_f32());
    }
    if exps.contains("fig8a") {
        let started = Instant::now();
        let pts = cost::fig8a(64);
        println!(
            "{}",
            cost::render_overheads(
                "Figure 8 (left): deterministic overhead across ten networks (batch 64)",
                &pts
            )
        );
        save("fig8a", &serde_json::to_value(&pts).unwrap());
        eprintln!("fig8a done in {:.1}s", started.elapsed().as_secs_f32());
    }
    if exps.contains("fig8b") {
        let started = Instant::now();
        let pts = cost::fig8b(64);
        println!(
            "{}",
            cost::render_overheads(
                "Figure 8 (right): deterministic overhead vs convolution filter size",
                &pts
            )
        );
        println!(
            "{}",
            paper::compare::render(
                "Figure 8 (right) paper-vs-measured: filter-sweep extremes",
                &paper::compare::fig8b(&pts)
            )
        );
        save("fig8b", &serde_json::to_value(&pts).unwrap());
        eprintln!("fig8b done in {:.1}s", started.elapsed().as_secs_f32());
    }
    if exps.contains("table3") {
        let counts = fairness::table3();
        println!("{}", fairness::render_table3(&counts));
        save("table3", &serde_json::to_value(counts).unwrap());
    }

    // ---- training experiments ----
    if exps.contains("fig6") {
        let started = Instant::now();
        // A failed training run degrades this experiment, not the whole
        // reproduction run.
        match ordering::fig6(&settings, Some(&store), fleet.as_ref()) {
            Ok(pts) => {
                println!("{}", ordering::render_fig6(&pts));
                save("fig6", &serde_json::to_value(&pts).unwrap());
                eprintln!("fig6 done in {:.1}s", started.elapsed().as_secs_f32());
            }
            Err(e) => skip("fig6", &e),
        }
    }
    if exps.contains("fig2") {
        let started = Instant::now();
        match stability::fig2(&settings, &store, fleet.as_ref()) {
            Ok(grid) => {
                println!(
                    "{}",
                    stability::render_fig_panel(&grid, "V100", "Figure 2 (batch-norm ablation)")
                );
                save("fig2", &serde_json::to_value(&grid).unwrap());
                eprintln!("fig2 done in {:.1}s", started.elapsed().as_secs_f32());
            }
            Err(e) => skip("fig2", &e),
        }
    }
    if exps.contains("table5") {
        let started = Instant::now();
        // A failed cell or a bad subgroup configuration degrades this
        // experiment, not the whole reproduction run.
        match fairness::fig3_table5(&settings, Some(&store), fleet.as_ref()) {
            Ok(tables) => {
                println!("{}", fairness::render_table5(&tables));
                save("table5", &serde_json::to_value(&tables).unwrap());
                eprintln!(
                    "table5/fig3 done in {:.1}s",
                    started.elapsed().as_secs_f32()
                );
            }
            Err(e) => skip("table5/fig3", &e),
        }
    }
    if exps.contains("fig5") {
        let started = Instant::now();
        match stability::fig5(&settings, &store, fleet.as_ref()) {
            Ok(grid) => {
                let mut rows = Vec::new();
                for r in &grid.reports {
                    rows.push(vec![
                        r.device.clone(),
                        r.variant.label().to_string(),
                        format!("{:.3}", 100.0 * r.std_accuracy),
                        format!("{:.4}", r.churn),
                        format!("{:.4}", r.l2),
                    ]);
                }
                println!(
                    "{}",
                    noisescope::report::render_table(
                        "Figure 5: ResNet18/CIFAR-100-sim across accelerators",
                        &["Accelerator", "Variant", "stddev(acc) %", "churn", "l2"],
                        &rows
                    )
                );
                save("fig5", &serde_json::to_value(&grid).unwrap());
                eprintln!("fig5 done in {:.1}s", started.elapsed().as_secs_f32());
            }
            Err(e) => skip("fig5", &e),
        }
    }

    if exps.contains("ext") {
        let started = Instant::now();
        let (store, fleet) = (Some(&store), fleet.as_ref());
        match extensions::data_parallel_sweep(&settings, store, fleet) {
            Ok(dp) => {
                println!("{}", extensions::render_data_parallel(&dp));
                save("ext_data_parallel", &serde_json::to_value(&dp).unwrap());
            }
            Err(e) => skip("ext_data_parallel", &e),
        }
        match extensions::lanes_sweep(&settings, store, fleet) {
            Ok(lanes) => {
                println!("{}", extensions::render_lanes(&lanes));
                save("ext_lanes", &serde_json::to_value(&lanes).unwrap());
            }
            Err(e) => skip("ext_lanes", &e),
        }
        match extensions::architecture_instability(&settings, store, fleet) {
            Ok(arch) => {
                println!("{}", extensions::render_architecture_instability(&arch));
                save("ext_architectures", &serde_json::to_value(&arch).unwrap());
            }
            Err(e) => skip("ext_architectures", &e),
        }
        match extensions::algo_source_decomposition(&settings, store, fleet) {
            Ok(sources) => {
                println!("{}", extensions::render_algo_sources(&sources));
                save("ext_algo_sources", &serde_json::to_value(&sources).unwrap());
            }
            Err(e) => skip("ext_algo_sources", &e),
        }
        eprintln!("extensions done in {:.1}s", started.elapsed().as_secs_f32());
    }

    // The Table-2 grid also powers Figures 1, 4, 9 and 10.
    let grid_ids: Vec<&str> = ["table2", "fig1", "fig4", "fig9", "fig10"]
        .into_iter()
        .filter(|e| exps.contains(*e))
        .collect();
    let grid = if grid_ids.is_empty() {
        None
    } else {
        let started = Instant::now();
        match stability::run_table2_grid(&settings, &store, fleet.as_ref()) {
            Ok(grid) => {
                eprintln!(
                    "stability grid done in {:.1}s",
                    started.elapsed().as_secs_f32()
                );
                Some(grid)
            }
            Err(e) => {
                skip(&grid_ids.join("/"), &e);
                None
            }
        }
    };
    if let Some(grid) = grid {
        if exps.contains("table2") {
            println!("{}", stability::render_table2(&grid));
            println!(
                "{}",
                paper::compare::render(
                    "Table 2 paper-vs-measured (mean accuracy %, task difficulty anchor)",
                    &paper::compare::table2(&grid)
                )
            );
            save("table2", &serde_json::to_value(&grid).unwrap());
        }
        if exps.contains("fig1") {
            println!("{}", stability::render_fig_panel(&grid, "V100", "Figure 1"));
        }
        if exps.contains("fig9") {
            println!("{}", stability::render_fig_panel(&grid, "P100", "Figure 9"));
        }
        if exps.contains("fig10") {
            println!(
                "{}",
                stability::render_fig_panel(&grid, "RTX5000", "Figure 10")
            );
        }
        if exps.contains("fig4") {
            let series = stability::fig4_from_reports(&grid);
            let rows: Vec<Vec<String>> = series
                .iter()
                .map(|s| {
                    vec![
                        s.task.clone(),
                        s.variant.label().to_string(),
                        format!("{:.4}", s.overall_std),
                        format!("{:.4}", s.max_class_std),
                        format!("{:.1}X", s.ratio),
                    ]
                })
                .collect();
            println!(
                "{}",
                noisescope::report::render_table(
                    "Figure 4: per-class vs overall accuracy variance (V100)",
                    &[
                        "Task",
                        "Variant",
                        "stddev(acc)",
                        "max class stddev",
                        "ratio"
                    ],
                    &rows
                )
            );
            save("fig4", &serde_json::to_value(&series).unwrap());
        }
    }

    eprintln!("total {:.1}s", t0.elapsed().as_secs_f32());
    if unsaved || skipped {
        std::process::exit(1);
    }
}
