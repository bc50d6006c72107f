//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--exp <id>]... [--out <dir>] [--fleet <procs>]
//!
//!   ids: fig7 cost fig8a fig8b table3 fig6 fig2 table5 fig5 ext table2
//!        stability fig1 fig9 fig10 fig4 all (default: all)
//! ```
//!
//! `cost` and `stability` name groups of experiments, and Figure 3 is
//! produced by `table5`. An unknown id, a flag with no value, or a
//! malformed or invalid environment knob exits 2 before anything is
//! written under `--out`; so does an `--out` that cannot be created.
//!
//! One run, one queue: `repro` collects the cells every selected
//! experiment trains (its [`Plan`]), trains each distinct cell once in a
//! single `run_grid` call, then reads, prints and saves the experiments
//! in the order of [`EXPERIMENTS`]. A cell with failed replicas skips the
//! experiments that refuse a partial cell (`<name> skipped: <error>`),
//! and an IO error from the run skips every selected training experiment;
//! the rest still print. A skipped experiment or a result file that
//! cannot be written makes the exit status 1.
//!
//! Environment knobs (see `noisescope::settings`): `NS_REPLICAS`,
//! `NS_SEED`, `NS_AMP_ULPS`, `NS_EPOCHS_SCALE`, `NS_QUICK=1`,
//! `NS_RETRIES`, `NS_CHAOS`, `NS_WORKER_TIMEOUT`. `NS_CHAOS` takes
//! `<seed>[:<launch>,<panic>,<hang>,<abort>][@<hang_ms>][!]`: the fault
//! schedule's seed, then exactly four fault counts (`<seed>` alone is one
//! launch failure and one kernel panic), the hang length in milliseconds,
//! and `!` to give every attempt the first fault. Without `!`, attempt
//! `a` takes fault `a` in step order and later attempts run clean.
//!
//! Rendered tables go to stdout; machine-readable JSON goes to `--out`
//! (default `results/`), published atomically (write-temp-then-rename) so
//! an interrupt can never leave a truncated report. The run is
//! **resumable**: every completed replica and every in-flight epoch
//! checkpoint is persisted under `<out>/.ckpt/` (scoped by a settings
//! fingerprint, one cell per task recipe, device and variant), so an
//! interrupted run picks up mid-queue and mid-training — bit-identically —
//! on the next invocation. Delete `<out>/.ckpt/` to force recomputation.
//!
//! `--fleet <procs>` runs every replica **process-isolated** (`procs`
//! concurrent workers; 0 = host parallelism): this binary re-executes
//! itself in a hidden `--worker` mode, one process per replica attempt,
//! under a heartbeat watchdog that kills and re-dispatches hung or crashed
//! workers. Either way every cell goes through the same replica supervisor
//! and checkpoint store; only the attempt body differs, so results are
//! bit-identical to in-process runs.

use noisescope::experiments::stability::{self, fig4_from_reports, StabilityGrid};
use noisescope::experiments::{cost, extensions, fairness, ordering, Plan};
use noisescope::paper;
use noisescope::prelude::*;
use serde::Serialize;
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

/// What an experiment prints and, if it has a result file, saves.
struct Rendered {
    text: String,
    json: Option<serde_json::Value>,
}

/// `text` to print and `result` to save.
fn saved(text: String, result: &impl Serialize) -> Rendered {
    let json = serde_json::to_value(result).expect("results serialize");
    Rendered {
        text,
        json: Some(json),
    }
}

/// Prints a result as `render` renders it, and saves it.
fn saving<T: Serialize + Borrow<R>, R: ?Sized>(
    render: fn(&R) -> String,
) -> impl FnOnce(T) -> Rendered {
    move |result| saved(render(result.borrow()), &result)
}

/// Prints one device's panel of the Table-2 grid, with no result file.
fn panel(device: &'static str, figure: &'static str) -> impl FnOnce(StabilityGrid) -> Rendered {
    move |grid| {
        let text = stability::render_fig_panel(&grid, device, figure);
        Rendered { text, json: None }
    }
}

/// An experiment that trains nothing.
fn untrained(render: fn() -> Rendered) -> Plan<Rendered> {
    Plan::new(Vec::new(), move |_, _| Ok(render()))
}

/// One experiment `repro` runs: its name, which names its skip line and,
/// if it saves a result, `<name>.json`; the `--exp` ids that select it;
/// and its plan, the cells it trains and how it renders their runs.
type Experiment = (
    &'static str,
    &'static [&'static str],
    fn(&ExperimentSettings) -> Plan<Rendered>,
);

/// Every experiment, in the order `repro` queues their cells and prints
/// them: Figure 6 first, so its full-batch replicas start early. The four
/// Table-2 readers plan the same cells, which train once.
const EXPERIMENTS: [Experiment; 15] = [
    ("fig7", &["fig7", "cost"], |_| {
        untrained(|| {
            let fig = cost::fig7(100);
            saved(cost::render_fig7(&fig), &fig)
        })
    }),
    ("fig8a", &["fig8a", "cost"], |_| {
        untrained(|| {
            let pts = cost::fig8a(64);
            let title = "Figure 8 (left): deterministic overhead across ten networks (batch 64)";
            saved(cost::render_overheads(title, &pts), &pts)
        })
    }),
    ("fig8b", &["fig8b", "cost"], |_| {
        untrained(|| {
            let pts = cost::fig8b(64);
            let title = "Figure 8 (right): deterministic overhead vs convolution filter size";
            let compare = paper::compare::render(
                "Figure 8 (right) paper-vs-measured: filter-sweep extremes",
                &paper::compare::fig8b(&pts),
            );
            saved(
                format!("{}\n{compare}", cost::render_overheads(title, &pts)),
                &pts,
            )
        })
    }),
    ("table3", &["table3"], |_| {
        untrained(|| {
            let counts = fairness::table3();
            saved(fairness::render_table3(&counts), &counts)
        })
    }),
    ("fig6", &["fig6"], |s| {
        ordering::fig6(s).map(saving(ordering::render_fig6))
    }),
    ("fig2", &["fig2"], |s| {
        stability::fig2(s).map(|grid| {
            let title = "Figure 2 (batch-norm ablation)";
            saved(stability::render_fig_panel(&grid, "V100", title), &grid)
        })
    }),
    ("table5", &["table5"], |s| {
        fairness::fig3_table5(s).map(saving(fairness::render_table5))
    }),
    ("fig5", &["fig5"], |s| {
        stability::fig5(s).map(saving(stability::render_fig5))
    }),
    ("ext_lanes", &["ext"], |s| {
        extensions::lanes_sweep(s).map(saving(extensions::render_lanes))
    }),
    ("ext_algo_sources", &["ext"], |s| {
        extensions::algo_source_decomposition(s).map(saving(extensions::render_algo_sources))
    }),
    ("table2", &["table2", "stability"], |s| {
        stability::table2(s).map(|grid| {
            let compare = paper::compare::render(
                "Table 2 paper-vs-measured (mean accuracy %, task difficulty anchor)",
                &paper::compare::table2(&grid),
            );
            saved(
                format!("{}\n{compare}", stability::render_table2(&grid)),
                &grid,
            )
        })
    }),
    ("fig1", &["fig1", "stability"], |s| {
        stability::table2(s).map(panel("V100", "Figure 1"))
    }),
    ("fig9", &["fig9", "stability"], |s| {
        stability::table2(s).map(panel("P100", "Figure 9"))
    }),
    ("fig10", &["fig10", "stability"], |s| {
        stability::table2(s).map(panel("RTX5000", "Figure 10"))
    }),
    ("fig4", &["fig4", "stability"], |s| {
        stability::table2(s).map(|grid| {
            let series = fig4_from_reports(&grid);
            saved(stability::render_fig4(&series), &series)
        })
    }),
];

/// Every id `--exp` accepts, in [`EXPERIMENTS`] order, then `all`.
fn exp_ids() -> Vec<&'static str> {
    let mut ids = Vec::new();
    for &id in EXPERIMENTS.iter().flat_map(|e| e.1).chain(&["all"]) {
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

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
                if !exp_ids().contains(&v.as_str()) {
                    usage_error(&format!(
                        "unknown experiment id {v:?}; valid ids: {}",
                        exp_ids().join(" ")
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
                    "repro [--exp <id>]... [--out <dir>] [--fleet <procs>]\n  ids: {}\n  \
                     --fleet <procs>: process-isolated replicas for every training experiment \
                     (0 = host parallelism)",
                    exp_ids().join(" ")
                );
                return;
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    let all = exps.is_empty() || exps.contains("all");
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(_, ids, _)| all || ids.iter().any(|&id| exps.contains(id)))
        .collect();

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
    // Durable progress: an interrupted run resumes from here.
    let store = CheckpointStore::for_settings(out_dir.join(".ckpt"), &settings);
    println!(
        "# NoiseScope reproduction — replicas={} amp_ulps={} epochs_scale={} seed={}\n",
        settings.replicas, settings.amp_ulps, settings.epochs_scale, settings.base_seed
    );
    eprintln!("checkpoint store: {}", store.root().display());
    if fleet.is_some() {
        eprintln!("fleet mode: replicas run in worker processes");
    }
    let t0 = Instant::now();
    let plans: Vec<Plan<Rendered>> = selected.iter().map(|e| (e.2)(&settings)).collect();
    let cells: Vec<Cell> = plans.iter().flat_map(|p| p.cells.iter().cloned()).collect();
    let runs = run_grid(&cells, &settings, Some(&store), fleet.as_ref());
    eprintln!("training done in {:.1}s", t0.elapsed().as_secs_f32());

    // A result that cannot be written costs that file, and a failed
    // experiment costs that experiment, not the others; the exit status
    // reports either at the end.
    let (mut failed, mut at) = (false, 0);
    for (&&(name, _, _), plan) in selected.iter().zip(plans) {
        let n = plan.cells.len();
        let rendered = match &runs {
            Err(err) if n > 0 => Err(err.to_string().into()),
            Ok(runs) => plan.read(&runs[at..at + n]),
            Err(_) => plan.read(&[]),
        };
        at += n;
        let Rendered { text, json } = match rendered {
            Ok(rendered) => rendered,
            Err(err) => {
                eprintln!("{name} skipped: {err}");
                failed = true;
                continue;
            }
        };
        println!("{text}");
        if let Some(json) = json {
            let path = out_dir.join(format!("{name}.json"));
            match save_json(&path, &json) {
                Ok(()) => eprintln!("  wrote {}", path.display()),
                Err(err) => {
                    eprintln!("{name}.json not written: {err}");
                    failed = true;
                }
            }
        }
    }
    eprintln!("total {:.1}s", t0.elapsed().as_secs_f32());
    if failed {
        std::process::exit(1);
    }
}
