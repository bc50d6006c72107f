//! One benchmark run: set-up, the timed passes, the correctness checks,
//! and (with tracing) the replay, kernel pass and fleet probe that give
//! the per-layer metrics.

use crate::digest::{cells_digest, Digest};
use crate::kernels::{kernel_pass, KernelCase};
use crate::replay::{layer_group, replay_replica, Replayed, SharedTracer};
use crate::stats::{median, quartiles, tail_percentile};
use crate::sys;
use crate::tracer::{Span, Trace, Tracer};
use crate::workloads::{Cell, Kind, Scale, Workload, FLEET_PROCS};
use hwsim::OpClass;
use noisescope::fleet::{run_variant_fleet, FleetOptions};
use noisescope::report::{stability_report, StabilityReport};
use noisescope::resume::CheckpointStore;
use noisescope::runner::{run_variant, PreparedTask, ReplicaStatus, VariantRuns};
use noisescope::variant::NoiseVariant;
use nstensor::reduce::sum_ordered_f64;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The seed whose result digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// Result digests of each workload at [`DEFAULT_SEED`], full scale. A
/// change to any of them means the program computes different bits.
pub const GOLDEN: [(Kind, &str); 3] = [
    (Kind::ImplNoise, "281a5c02d57a086f"),
    (Kind::DetControl, "acaf229c3b2d7399"),
    (Kind::FleetResume, "8b770cb8548a1c7c"),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Timed passes per run, at least.
const MIN_PASSES: usize = 3;

/// Command-line options of a run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Kind,
    /// Input seed.
    pub seed: u64,
    /// Timed-phase budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// Where records, traces and scratch stores go.
    pub out_dir: PathBuf,
    /// This executable, which doubles as the fleet worker.
    pub worker_exe: PathBuf,
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Reported value (the median where there are several samples).
    pub value: f64,
    /// Raw per-pass samples behind the value.
    pub raw: Vec<f64>,
}

impl Metric {
    fn one(name: &str, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            raw: vec![value],
        }
    }

    fn median_of(name: &str, unit: &'static str, raw: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            unit,
            value: median(&raw),
            raw,
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Replicas attempted.
    pub attempted: u64,
    /// Replicas failed, or counted failed by a failed check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// The full result record.
    pub record: serde_json::Value,
}

/// Failed-check bookkeeping.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn fail(&mut self, replicas: u64, msg: String) {
        self.failed += replicas;
        self.problems.push(msg);
    }

    /// Counts a cell's replicas and checks status, accuracy floor and
    /// (for CONTROL) bitwise identity.
    fn cell(&mut self, w: &Workload, cell: &Cell, runs: &VariantRuns, report: &StabilityReport) {
        let n = runs.statuses.len() as u64;
        self.attempted += n;
        let label = cell_label(w, cell);
        let dead = runs.statuses.iter().filter(|s| s.is_failed()).count() as u64;
        if dead > 0 {
            let reasons: Vec<String> = runs
                .statuses
                .iter()
                .filter(|s| s.is_failed())
                .map(|s| format!("{s:?}"))
                .collect();
            self.fail(
                dead,
                format!("{label}: {dead} replica(s) failed: {reasons:?}"),
            );
            return;
        }
        let floor = w.accuracy_floor(cell);
        if report.mean_accuracy < floor {
            self.fail(
                n,
                format!(
                    "{label}: mean accuracy {:.3} below floor {floor:.3}",
                    report.mean_accuracy
                ),
            );
        }
        if cell.variant == NoiseVariant::Control {
            let first = &runs.results[0];
            let same = runs.results.iter().all(|r| {
                r.preds == first.preds
                    && r.weights.len() == first.weights.len()
                    && r.weights
                        .iter()
                        .zip(&first.weights)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            if !same {
                self.fail(
                    n,
                    format!("{label}: CONTROL replicas are not bitwise equal"),
                );
            }
        }
    }
}

fn cell_label(w: &Workload, c: &Cell) -> String {
    format!(
        "{} / {} / {}",
        w.tasks[c.task].name,
        c.device.name(),
        c.variant.label()
    )
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn clear_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("remove {}: {e}", dir.display())),
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            total += dir_bytes(&p);
        } else if let Ok(m) = e.metadata() {
            total += m.len();
        }
    }
    total
}

/// Scratch paths of one run, removed when the run ends.
struct Scratch {
    store: PathBuf,
    worker_times: PathBuf,
    replay_ckpt: PathBuf,
}

impl Scratch {
    fn new(out: &Path, kind: Kind) -> Self {
        let tag = format!("{}-{}", kind.name(), std::process::id());
        Self {
            store: out.join(format!("store-{tag}")),
            worker_times: out.join(format!("worker-times-{tag}")),
            replay_ckpt: out.join(format!("replay-ckpt-{tag}")),
        }
    }

    fn remove(&self) {
        for d in [&self.store, &self.worker_times, &self.replay_ckpt] {
            std::fs::remove_dir_all(d).ok();
        }
    }
}

/// Prepared tasks, set-up seconds per repetition, prepare milliseconds
/// per task per repetition.
type SetUp = (Vec<PreparedTask>, Vec<f64>, Vec<f64>);

/// Set-up: prepares every task (and, for the fleet workload, creates a
/// fresh checkpoint store). Returns the prepared tasks, the set-up time
/// of each repetition and the per-task prepare time of each repetition.
fn setup(w: &Workload, scratch: &Scratch) -> Result<SetUp, String> {
    let mut setup_s = Vec::new();
    let mut prepare_ms = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        clear_dir(&scratch.store)?;
        let t0 = Instant::now();
        prepared = w.tasks.iter().map(PreparedTask::prepare).collect();
        let prep = t0.elapsed();
        if w.uses_fleet() {
            let store = CheckpointStore::for_settings(&scratch.store, &w.settings);
            std::fs::create_dir_all(store.root())
                .map_err(|e| format!("create store {}: {e}", store.root().display()))?;
        }
        setup_s.push(secs(t0.elapsed()));
        prepare_ms.push(secs(prep) * 1e3 / w.tasks.len() as f64);
    }
    Ok((prepared, setup_s, prepare_ms))
}

fn fleet_options(exe: &Path, times_dir: &Path) -> FleetOptions {
    FleetOptions {
        procs: FLEET_PROCS,
        worker_exe: Some(exe.to_path_buf()),
        worker_args: vec![
            OsString::from("--worker"),
            OsString::from("--times"),
            times_dir.as_os_str().to_os_string(),
        ],
    }
}

/// One untraced pass over every cell.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Fleet workload: the largest peak RSS a worker reported, in KiB.
    worker_peak_kib: u64,
    samples: u64,
    digest: Digest,
    /// Fleet workload: the digest of the second pass over the store.
    resumed: Option<Digest>,
    cells: Vec<(VariantRuns, StabilityReport)>,
}

fn in_process_cells(
    w: &Workload,
    prepared: &[PreparedTask],
    cells: &[Cell],
) -> Vec<(VariantRuns, StabilityReport)> {
    cells
        .iter()
        .map(|c| {
            let p = &prepared[c.task];
            let runs = run_variant(p, &c.device, c.variant, &w.settings);
            let report = stability_report(p, &c.device, c.variant, &runs);
            (runs, report)
        })
        .collect()
}

fn fleet_cells(
    w: &Workload,
    prepared: &[PreparedTask],
    cells: &[Cell],
    store: &CheckpointStore,
    opts: &FleetOptions,
) -> Result<Vec<(VariantRuns, StabilityReport)>, String> {
    cells
        .iter()
        .map(|c| {
            let p = &prepared[c.task];
            let runs = run_variant_fleet(p, &c.device, c.variant, &w.settings, store, 1, opts)
                .map_err(|e| format!("{}: fleet: {e}", cell_label(w, c)))?;
            let report = stability_report(p, &c.device, c.variant, &runs);
            Ok((runs, report))
        })
        .collect()
}

fn samples(w: &Workload, prepared: &[PreparedTask]) -> u64 {
    let mut n = 0;
    for c in &w.cells {
        n += w.samples_per_replica(c, prepared[c.task].train_set().len())
            * u64::from(w.settings.replicas);
    }
    n
}

fn run_pass(
    w: &Workload,
    prepared: &[PreparedTask],
    scratch: &Scratch,
    opts: &Options,
) -> Result<Pass, String> {
    let fleet = w.uses_fleet();
    let store = CheckpointStore::for_settings(&scratch.store, &w.settings);
    if fleet {
        // A fresh store per pass; removing the old one is not timed.
        clear_dir(&scratch.store)?;
        std::fs::create_dir_all(store.root()).map_err(|e| format!("create store: {e}"))?;
        std::fs::create_dir_all(&scratch.worker_times)
            .map_err(|e| format!("create worker-times dir: {e}"))?;
    }
    let fopts = fleet_options(&opts.worker_exe, &scratch.worker_times);
    let cpu0 = sys::total_cpu_s();
    let t0 = Instant::now();
    let (cells, resumed) = if fleet {
        let first = fleet_cells(w, prepared, &w.cells, &store, &fopts)?;
        let second = fleet_cells(w, prepared, &w.cells, &store, &fopts)?;
        let d2 = cells_digest(second.iter().map(|(r, _)| r));
        (first, Some(d2))
    } else {
        (in_process_cells(w, prepared, &w.cells), None)
    };
    let wall_s = secs(t0.elapsed());
    let cpu_s = sys::total_cpu_s() - cpu0;
    let mut worker_peak_kib = 0;
    if fleet {
        for r in worker_reports(&scratch.worker_times) {
            worker_peak_kib = worker_peak_kib.max(r.peak_kib);
        }
        clear_dir(&scratch.worker_times)?;
    }
    Ok(Pass {
        wall_s,
        cpu_s,
        worker_peak_kib,
        samples: samples(w, prepared),
        digest: cells_digest(cells.iter().map(|(r, _)| r)),
        resumed,
        cells,
    })
}

fn golden(kind: Kind) -> &'static str {
    GOLDEN
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, g)| *g)
        .expect("every workload has a golden digest")
}

/// Checks the digest against the pinned value at the default seed.
fn check_golden(w: &Workload, digest: Digest, checks: &mut Checks) {
    if w.seed == DEFAULT_SEED && w.scale == Scale::Full {
        let want = golden(w.kind);
        if digest.hex() != want {
            checks.fail(
                w.replicas_per_pass(),
                format!(
                    "digest {} differs from the golden {want} at seed {DEFAULT_SEED}",
                    digest.hex()
                ),
            );
        }
    }
}

/// Runs the benchmark and returns its outcome.
///
/// # Errors
///
/// Set-up or IO failures that leave nothing to measure; failed checks are
/// reported in the outcome instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = Workload::build(opts.workload, opts.seed, opts.scale)?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let scratch = Scratch::new(&opts.out_dir, w.kind);
    let result = if opts.trace {
        traced_run(&w, opts, &scratch)
    } else {
        untraced_run(&w, opts, &scratch)
    };
    scratch.remove();
    let (checks, metrics, mut record) = result?;
    insert(&mut record, "provenance", provenance(opts));
    insert(&mut record, "specs", w.specs_json());
    insert(
        &mut record,
        "problems",
        serde_json::to_value(&checks.problems).expect("strings serialize"),
    );
    let metrics_json: BTreeMap<String, serde_json::Value> = metrics
        .iter()
        .map(|m| {
            let [q1, q2, q3] = quartiles(&m.raw);
            (
                m.name.clone(),
                serde_json::json!({
                    "value": m.value,
                    "unit": m.unit,
                    "median": q2,
                    "q1": q1,
                    "q3": q3,
                    "raw": m.raw.clone(),
                }),
            )
        })
        .collect();
    insert(
        &mut record,
        "metrics",
        serde_json::to_value(&metrics_json).expect("metrics serialize"),
    );
    Ok(Outcome {
        correct: checks.problems.is_empty(),
        attempted: checks.attempted.max(1),
        failed: checks.failed.min(checks.attempted.max(1)),
        metrics,
        problems: checks.problems,
        record,
    })
}

type RunParts = (Checks, Vec<Metric>, serde_json::Value);

/// Adds a key to a JSON object record.
fn insert(record: &mut serde_json::Value, key: &str, value: serde_json::Value) {
    if let serde_json::Value::Obj(map) = record {
        map.insert(key.to_string(), value);
    }
}

/// Integer total of nanosecond durations.
fn total_ns(xs: &[u64]) -> u64 {
    let mut t = 0;
    for &x in xs {
        t += x;
    }
    t
}

fn untraced_run(w: &Workload, opts: &Options, scratch: &Scratch) -> Result<RunParts, String> {
    let mut checks = Checks::default();
    let (prepared, setup_s, _) = setup(w, scratch)?;
    let mut passes: Vec<Pass> = Vec::new();
    let t0 = Instant::now();
    while passes.len() < MIN_PASSES || secs(t0.elapsed()) < opts.seconds {
        let pass = run_pass(w, &prepared, scratch, opts)?;
        for (c, (runs, report)) in w.cells.iter().zip(&pass.cells) {
            checks.cell(w, c, runs, report);
        }
        if let Some(d2) = pass.resumed {
            if d2 != pass.digest {
                checks.fail(
                    w.replicas_per_pass(),
                    format!(
                        "pass {}: second fleet pass digest {} != first {}",
                        passes.len(),
                        d2.hex(),
                        pass.digest.hex()
                    ),
                );
            }
        }
        if let Some(first) = passes.first() {
            if pass.digest != first.digest {
                checks.fail(
                    w.replicas_per_pass(),
                    format!(
                        "pass {}: digest {} != first pass {}",
                        passes.len(),
                        pass.digest.hex(),
                        first.digest.hex()
                    ),
                );
            }
        }
        passes.push(pass);
    }
    // Peak memory of this process plus the largest fleet worker.
    let mut peak_kib = sys::peak_rss_kib();
    peak_kib += passes.iter().map(|p| p.worker_peak_kib).max().unwrap_or(0);
    let digest = passes[0].digest;
    check_golden(w, digest, &mut checks);
    if w.uses_fleet() {
        // Process-isolated replicas must equal in-process ones bit for bit.
        let reference = in_process_cells(w, &prepared, &w.cells);
        let d = cells_digest(reference.iter().map(|(r, _)| r));
        if d != digest {
            checks.fail(
                w.replicas_per_pass(),
                format!(
                    "fleet digest {} != in-process digest {}",
                    digest.hex(),
                    d.hex()
                ),
            );
        }
    }
    let nproc = sys::nproc() as f64;
    let metrics = vec![
        Metric::median_of("wall_s", "s", passes.iter().map(|p| p.wall_s).collect()),
        Metric::median_of("setup_s", "s", setup_s),
        Metric::median_of(
            "samples_per_core_s",
            "samples/CPU-s",
            passes
                .iter()
                .map(|p| p.samples as f64 / p.cpu_s.max(1e-9))
                .collect(),
        ),
        Metric::median_of(
            "cpu_util",
            "ratio",
            passes
                .iter()
                .map(|p| p.cpu_s / (p.wall_s * nproc))
                .collect(),
        ),
        Metric::one("peak_rss_mb", "MB", peak_kib as f64 / 1024.0),
    ];
    let pass_json: Vec<serde_json::Value> = passes
        .iter()
        .map(|p| {
            serde_json::json!({
                "wall_s": p.wall_s,
                "cpu_s": p.cpu_s,
                "samples": p.samples,
                "digest": p.digest.hex(),
                "resumed_digest": p.resumed.map(Digest::hex),
                "mean_accuracy": p.cells.iter().map(|(_, r)| r.mean_accuracy).collect::<Vec<_>>(),
            })
        })
        .collect();
    let record = serde_json::json!({
        "mode": "untraced",
        "digest": digest.hex(),
        "golden": golden(w.kind),
        "passes": pass_json,
        "failed_replica_ratio": checks.failed.min(checks.attempted) as f64 / checks.attempted.max(1) as f64,
    });
    Ok((checks, metrics, record))
}

/// A replica index and what its replay produced.
type ReplicaOutcome = (u32, Result<Replayed, String>);

/// Replays every replica of a cell on up to `threads` threads, under
/// spans parented to the cell's span.
#[allow(clippy::too_many_arguments)]
fn replay_cell(
    w: &Workload,
    prepared: &PreparedTask,
    cell: &Cell,
    ci: usize,
    origin: Instant,
    cell_span: usize,
    threads: usize,
    ckpt_dir: &Path,
) -> (Vec<ReplicaOutcome>, Vec<Tracer>) {
    let n = w.settings.replicas;
    let next = std::sync::atomic::AtomicU32::new(0);
    let (mut out, tracers): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let next = &next;
                scope.spawn(move || {
                    let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new(
                        origin,
                        t as u32 + 1,
                        Some(cell_span),
                    )));
                    let mut local = Vec::new();
                    loop {
                        let r = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if r >= n {
                            break;
                        }
                        let span = tracer.borrow_mut().begin("replica");
                        let path = ckpt_dir.join(format!("c{ci}-r{r}.ckpt"));
                        let res = replay_replica(
                            prepared,
                            &cell.device,
                            cell.variant,
                            &w.settings,
                            r,
                            &tracer,
                            &path,
                        );
                        tracer.borrow_mut().end(span);
                        local.push((r, res));
                    }
                    let tracer = Rc::try_unwrap(tracer)
                        .expect("layer wrappers dropped with their networks")
                        .into_inner();
                    (local, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .unzip()
    });
    let mut flat: Vec<ReplicaOutcome> = out.drain(..).flatten().collect();
    flat.sort_by_key(|(r, _)| *r);
    (flat, tracers)
}

/// What one fleet worker process reported about itself.
#[derive(Debug, Clone, Copy)]
struct WorkerReport {
    /// Wall seconds spent in `worker_main`.
    secs: f64,
    /// Peak RSS in KiB.
    peak_kib: u64,
    /// Start, nanoseconds since the Unix epoch.
    start_unix_ns: u64,
}

/// Nanoseconds since the Unix epoch: the clock a supervisor and its worker
/// processes share, used only to place worker spans in the trace.
pub fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Reads the `<secs> <peak KiB> <start ns>` line each fleet worker left.
fn worker_reports(dir: &Path) -> Vec<WorkerReport> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        let Ok(text) = std::fs::read_to_string(&p) else {
            continue;
        };
        let f: Vec<&str> = text.split_whitespace().collect();
        if let [secs, kib, start] = f[..] {
            if let (Ok(secs), Ok(peak_kib), Ok(start_unix_ns)) =
                (secs.parse(), kib.parse(), start.parse())
            {
                out.push(WorkerReport {
                    secs,
                    peak_kib,
                    start_unix_ns,
                });
            }
        }
    }
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn traced_run(w: &Workload, opts: &Options, scratch: &Scratch) -> Result<RunParts, String> {
    let mut checks = Checks::default();
    let mut metrics: Vec<Metric> = Vec::new();
    let (prepared, _, prepare_ms) = setup(w, scratch)?;
    let origin = Instant::now();
    let origin_unix_ns = unix_ns();
    let mut main = Tracer::new(origin, 0, None);
    let workload_span = main.begin("workload");
    for task in &w.tasks {
        main.span("prepare", |_| PreparedTask::prepare(task));
    }

    // Untraced in-process reference passes: digest and wall for overhead.
    let mut untraced_wall = Vec::new();
    let mut reference: Vec<(VariantRuns, StabilityReport)> = Vec::new();
    let u = main.begin("untraced_passes");
    let t0 = Instant::now();
    while untraced_wall.len() < 2 || secs(t0.elapsed()) < opts.seconds / 2.0 {
        let t = Instant::now();
        reference = in_process_cells(w, &prepared, &w.cells);
        untraced_wall.push(secs(t.elapsed()));
    }
    main.end(u);
    let digest = cells_digest(reference.iter().map(|(r, _)| r));
    check_golden(w, digest, &mut checks);

    // Traced replay of every cell.
    std::fs::create_dir_all(&scratch.replay_ckpt).map_err(|e| format!("replay dir: {e}"))?;
    let mut lanes: Vec<Tracer> = Vec::new();
    let mut replayed_cells: Vec<VariantRuns> = Vec::new();
    let mut replayed: Vec<Replayed> = Vec::new();
    let threads = sys::nproc().min(w.settings.replicas as usize).max(1);
    let mut cell_wall_threads_ns = 0u64;
    let pass_span = main.begin("pass");
    for (ci, cell) in w.cells.iter().enumerate() {
        let cell_span = main.begin("cell");
        let (outs, tracers) = replay_cell(
            w,
            &prepared[cell.task],
            cell,
            ci,
            origin,
            cell_span,
            threads,
            &scratch.replay_ckpt,
        );
        lanes.extend(tracers);
        let mut runs = VariantRuns {
            variant: cell.variant,
            results: Vec::new(),
            statuses: Vec::new(),
        };
        for (_, res) in outs {
            match res {
                Ok(rep) => {
                    runs.results.push(rep.result.clone());
                    runs.statuses.push(ReplicaStatus::Ok);
                    replayed.push(rep);
                }
                Err(reason) => runs.statuses.push(ReplicaStatus::Failed { reason }),
            }
        }
        let report = main.span("report", |_| {
            stability_report(&prepared[cell.task], &cell.device, cell.variant, &runs)
        });
        checks.cell(w, cell, &runs, &report);
        replayed_cells.push(runs);
        main.end(cell_span);
    }
    main.end(pass_span);
    let traced_digest = cells_digest(&replayed_cells);
    if traced_digest != digest {
        checks.fail(
            w.replicas_per_pass(),
            format!(
                "traced digest {} != untraced {}",
                traced_digest.hex(),
                digest.hex()
            ),
        );
    }

    // Fleet probe: the whole fleet workload, or the first cell of an
    // in-process one, through worker processes and a fresh store, then a
    // second pass over the complete store.
    let probe_cells: Vec<Cell> = if w.uses_fleet() {
        w.cells.clone()
    } else {
        w.cells[..1].to_vec()
    };
    clear_dir(&scratch.store)?;
    let store = CheckpointStore::for_settings(&scratch.store, &w.settings);
    std::fs::create_dir_all(store.root()).map_err(|e| format!("create store: {e}"))?;
    std::fs::create_dir_all(&scratch.worker_times).map_err(|e| format!("worker dir: {e}"))?;
    let fopts = fleet_options(&opts.worker_exe, &scratch.worker_times);
    let f1 = main.begin("fleet.first_pass");
    let t = Instant::now();
    let first = fleet_cells(w, &prepared, &probe_cells, &store, &fopts)?;
    let first_s = secs(t.elapsed());
    main.end(f1);
    let store_bytes = dir_bytes(store.root());
    let f2 = main.begin("fleet.second_pass");
    let t = Instant::now();
    let second = fleet_cells(w, &prepared, &probe_cells, &store, &fopts)?;
    let second_s = secs(t.elapsed());
    main.end(f2);
    let workers = worker_reports(&scratch.worker_times);
    let worker_s: Vec<f64> = workers.iter().map(|r| r.secs).collect();
    let d1 = cells_digest(first.iter().map(|(r, _)| r));
    let d2 = cells_digest(second.iter().map(|(r, _)| r));
    let d_ref = cells_digest(reference.iter().take(probe_cells.len()).map(|(r, _)| r));
    for (c, (runs, report)) in probe_cells.iter().zip(&first) {
        checks.cell(w, c, runs, report);
    }
    if d1 != d2 || d1 != d_ref {
        checks.fail(
            probe_cells.len() as u64 * u64::from(w.settings.replicas),
            format!(
                "fleet probe digests differ: first {} second {} in-process {}",
                d1.hex(),
                d2.hex(),
                d_ref.hex()
            ),
        );
    }

    // Kernel pass.
    let k = main.begin("kernels");
    let kernel_budget = match w.scale {
        Scale::Full => Duration::from_millis(40),
        Scale::Smoke => Duration::from_millis(1),
    };
    let cases = kernel_pass(w, kernel_budget)?;
    main.end(k);
    main.end(workload_span);

    let mut trace = Trace::default();
    trace.absorb(main);
    for lane in lanes {
        trace.absorb(lane);
    }
    // Worker processes report their start on the shared Unix clock; each
    // gets a lane of its own under the first fleet pass.
    for (i, r) in workers.iter().enumerate() {
        let start_ns = r.start_unix_ns.saturating_sub(origin_unix_ns);
        trace.spans.push(Span {
            name: "fleet.worker",
            start_ns,
            end_ns: start_ns + (r.secs * 1e9) as u64,
            parent: Some(f1),
            tid: 100 + i as u32,
        });
    }
    let pass = &trace.spans[pass_span];
    let traced_wall_s = pass.dur_ns() as f64 / 1e9;
    for s in &trace.spans {
        if s.name == "cell" {
            cell_wall_threads_ns += s.dur_ns() * threads as u64;
        }
    }

    // --- per-layer metrics ---
    kernel_metrics(&cases, &mut metrics);

    let mut steps = 0u64;
    let mut calls = [0u64; 5];
    let mut ckpt_bytes = Vec::new();
    for r in &replayed {
        steps += r.steps;
        for (acc, c) in calls.iter_mut().zip(r.reducer_calls) {
            *acc += c;
        }
        ckpt_bytes.extend(r.ckpt_bytes.iter().map(|&b| b as f64));
    }
    let steps_f = steps.max(1) as f64;
    for (class, c) in OpClass::ALL.iter().zip(calls) {
        let name = match class {
            OpClass::MatmulForward => "matmul_forward",
            OpClass::InputGrad => "input_grad",
            OpClass::WeightGrad => "weight_grad",
            OpClass::Statistics => "statistics",
            OpClass::Misc => "misc",
        };
        metrics.push(Metric::one(
            &format!("hwsim.reducer_calls.{name}"),
            "calls/step",
            c as f64 / steps_f,
        ));
    }

    let by_name = trace.self_by_name();
    let self_ns = |name: &str| by_name.get(name).map_or(0, |e| e.0);
    let count = |name: &str| by_name.get(name).map_or(0, |e| e.1);
    let step_ms: Vec<f64> = trace.durations("step").into_iter().map(ms).collect();
    let step_total_ms = sum_ordered_f64(step_ms.iter().copied());
    metrics.push(Metric::one("nnet.step_ms.p50", "ms", median(&step_ms)));
    let (tail_p, tail_v) = tail_percentile(&step_ms).unwrap_or((100.0, median(&step_ms)));
    metrics.push(Metric::one("nnet.step_ms.tail", "ms", tail_v));

    let mut groups: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for (name, (ns, _)) in &by_name {
        if let Some(g) = layer_group(name) {
            *groups.entry(g).or_default() += ns;
        }
    }
    let mut accounted_ns = 0u64;
    for dir in ["forward", "backward"] {
        for group in ["conv", "batchnorm", "relu", "pool", "dense"] {
            let ns = groups.get(&(dir, group)).copied().unwrap_or(0);
            metrics.push(Metric::one(
                &format!("nnet.{dir}.{group}.self_ms"),
                "ms/step",
                ms(ns) / steps_f,
            ));
        }
    }
    for ns in groups.values() {
        accounted_ns += ns;
    }
    for name in ["gather", "augment", "loss", "optim"] {
        accounted_ns += self_ns(name);
    }
    let per_step_us = |name: &str| self_ns(name) as f64 / 1e3 / steps_f;
    metrics.push(Metric::one("nnet.loss.us", "us/step", per_step_us("loss")));
    metrics.push(Metric::one(
        "nnet.optim.us",
        "us/step",
        per_step_us("optim"),
    ));
    let mean_ms = |name: &str| ms(total_ns(&trace.durations(name))) / count(name).max(1) as f64;
    metrics.push(Metric::one("nnet.eval_ms", "ms/replica", mean_ms("eval")));
    let mean_us = |name: &str| mean_ms(name) * 1e3;
    metrics.push(Metric::one(
        "nnet.checkpoint.encode_us",
        "us",
        mean_us("ckpt.encode"),
    ));
    metrics.push(Metric::one(
        "nnet.checkpoint.decode_us",
        "us",
        mean_us("ckpt.decode"),
    ));
    metrics.push(Metric::one(
        "nnet.checkpoint.bytes",
        "bytes",
        if ckpt_bytes.is_empty() {
            0.0
        } else {
            median(&ckpt_bytes)
        },
    ));
    metrics.push(Metric::one(
        "nnet.step_unaccounted_share",
        "ratio",
        1.0 - ms(accounted_ns) / step_total_ms.max(1e-12),
    ));

    metrics.push(Metric::median_of(
        "nsdata.prepare_ms",
        "ms/task",
        prepare_ms,
    ));
    metrics.push(Metric::one(
        "nsdata.gather.us",
        "us/step",
        per_step_us("gather"),
    ));
    metrics.push(Metric::one(
        "nsdata.augment.us",
        "us/step",
        per_step_us("augment"),
    ));

    let replica_s: Vec<f64> = trace
        .durations("replica")
        .into_iter()
        .map(|ns| ns as f64 / 1e9)
        .collect();
    let busy_ns = total_ns(&trace.durations("replica"));
    metrics.push(Metric::one("runner.replica_s.p50", "s", median(&replica_s)));
    metrics.push(Metric::one(
        "runner.replica_s.max",
        "s",
        replica_s.iter().copied().fold(0.0, f64::max),
    ));
    metrics.push(Metric::one(
        "runner.idle_core_share",
        "ratio",
        1.0 - busy_ns as f64 / cell_wall_threads_ns.max(1) as f64,
    ));

    metrics.push(Metric::one(
        "resume.write_atomic_ms",
        "ms",
        mean_ms("store.write_atomic"),
    ));
    metrics.push(Metric::one(
        "resume.store_bytes",
        "bytes",
        store_bytes as f64,
    ));
    metrics.push(Metric::one("resume.harvest_ms", "ms", second_s * 1e3));

    let probe_replicas = probe_cells.len() as f64 * f64::from(w.settings.replicas);
    let procs = FLEET_PROCS.min(w.settings.replicas as usize) as f64;
    let worker_total = sum_ordered_f64(worker_s.iter().copied());
    metrics.push(Metric::one(
        "fleet.worker_s.p50",
        "s",
        if worker_s.is_empty() {
            0.0
        } else {
            median(&worker_s)
        },
    ));
    metrics.push(Metric::one(
        "fleet.overhead_ms_per_replica",
        "ms",
        (first_s * procs - worker_total) * 1e3 / probe_replicas.max(1.0),
    ));
    metrics.push(Metric::one(
        "nsmetrics.report_ms",
        "ms/cell",
        mean_ms("report"),
    ));
    let untraced_median = median(&untraced_wall);
    metrics.push(Metric::one(
        "trace.overhead_s",
        "s",
        traced_wall_s - untraced_median,
    ));

    let _ = std::fs::create_dir_all(&opts.out_dir);
    let trace_path = opts
        .out_dir
        .join(format!("trace-{}-seed{}.json", w.kind.name(), w.seed));
    let chrome = trace.to_chrome_json(serde_json::json!({
        "workload": w.kind.name(),
        "seed": w.seed,
    }));
    std::fs::write(&trace_path, chrome)
        .map_err(|e| format!("write trace {}: {e}", trace_path.display()))?;

    let kernels_json: Vec<serde_json::Value> = cases
        .iter()
        .map(|c| {
            serde_json::json!({
                "op": c.op,
                "mode": c.mode,
                "shape": c.shape.clone(),
                "us": c.us,
                "calls": c.calls,
                "madds": c.madds,
            })
        })
        .collect();
    let record = serde_json::json!({
        "mode": "traced",
        "digest": digest.hex(),
        "traced_digest": traced_digest.hex(),
        "golden": golden(w.kind),
        "trace_file": trace_path.display().to_string(),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall_s,
        "steps": steps,
        "step_tail_percentile": tail_p,
        "kernels": kernels_json,
        "fleet_probe": {
            "first_pass_s": first_s,
            "second_pass_s": second_s,
            "worker_s": worker_s,
        },
        "failed_replica_ratio": checks.failed.min(checks.attempted) as f64 / checks.attempted.max(1) as f64,
    });
    Ok((checks, metrics, record))
}

/// `nstensor.<op>.<mode>.{us,madds}`: summed over the workload's shapes.
fn kernel_metrics(cases: &[KernelCase], metrics: &mut Vec<Metric>) {
    for op in ["gemm", "conv_fwd", "conv_bwd"] {
        for mode in ["fixed_tree", "permuted"] {
            let sel: Vec<&KernelCase> = cases
                .iter()
                .filter(|c| c.op == op && c.mode == mode)
                .collect();
            let us = sum_ordered_f64(sel.iter().map(|c| c.us));
            let mut madds = 0u64;
            for c in &sel {
                madds += c.madds;
            }
            metrics.push(Metric::one(&format!("nstensor.{op}.{mode}.us"), "us", us));
            metrics.push(Metric::one(
                &format!("nstensor.{op}.{mode}.madds"),
                "count",
                madds as f64,
            ));
        }
    }
}

/// Reads the checked-out commit from `.git` in the working directory,
/// without leaving it; `unknown` outside a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(opts: &Options) -> serde_json::Value {
    let args: Vec<String> = std::env::args().collect();
    serde_json::json!({
        "command": args,
        "commit": commit(),
        "nproc": sys::nproc(),
        "rustc": rustc_version(),
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
    })
}
