//! Replica fleets: train N independent models under a noise variant and
//! collect everything the stability metrics need.
//!
//! Every experiment reaches its replicas through one grid driver,
//! [`run_grid`], over a list of [`Cell`]s: one store harvest per distinct
//! cell, one queue of every pending replica of every cell, one thread pool
//! that drains it, and one supervised attempt loop per replica; `repro`
//! calls it once. A [`CheckpointStore`] makes the grid durable and
//! resumable; [`FleetOptions`] on top of it runs each attempt in a worker
//! process instead of in process. Both run the same attempt body, which
//! writes the replica's checkpoints and result into the store cell; the
//! supervisor writes nothing there.
//! [`run_cell`] is a one-cell grid, and [`run_variant`] and
//! [`crate::fleet::run_variant_fleet`] are one-line wrappers over it.

use crate::fleet::{process_attempt, FleetOptions};
use crate::resume::{self, CheckpointStore};
use crate::settings::ExperimentSettings;
use crate::task::{DataSource, TaskSpec};
use crate::variant::{AlgoSource, NoiseVariant};
use detrand::Philox;
use hwsim::{Device, ExecutionContext, FaultPlan};
use nnet::checkpoint::Checkpoint;
use nnet::trainer::{
    predict_binary, predict_classes, Dataset, FitOptions, Targets, TrainError, Trainer,
};
use nsdata::{CelebaData, ShiftFlip, SplitDataset};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A task with its dataset materialized (generation happens once; the
/// dataset is a fixed artifact shared by every replica and every clone of
/// the task, like CIFAR on disk).
#[derive(Debug, Clone)]
pub struct PreparedTask {
    /// The task specification.
    pub spec: TaskSpec,
    /// The materialized data.
    pub data: PreparedData,
}

/// The materialized dataset of a prepared task.
#[derive(Debug, Clone)]
pub enum PreparedData {
    /// Gaussian-cluster classification splits.
    Gaussian(Arc<SplitDataset>),
    /// The CelebA stand-in (with subgroup metadata).
    Celeba(Arc<CelebaData>),
}

impl PreparedTask {
    /// Generates the task's dataset.
    pub fn prepare(spec: &TaskSpec) -> Self {
        let data = match spec.data {
            DataSource::Gaussian(g) => PreparedData::Gaussian(Arc::new(g.generate())),
            DataSource::Celeba(c) => PreparedData::Celeba(Arc::new(c.generate())),
        };
        Self {
            spec: spec.clone(),
            data,
        }
    }

    /// The training split.
    pub fn train_set(&self) -> &Dataset {
        match &self.data {
            PreparedData::Gaussian(s) => &s.train,
            PreparedData::Celeba(c) => &c.train,
        }
    }

    /// The test split.
    pub fn test_set(&self) -> &Dataset {
        match &self.data {
            PreparedData::Gaussian(s) => &s.test,
            PreparedData::Celeba(c) => &c.test,
        }
    }

    /// Number of classes (1 for binary attribute tasks).
    pub fn classes(&self) -> usize {
        match &self.data {
            PreparedData::Gaussian(s) => s.classes,
            PreparedData::Celeba(_) => 1,
        }
    }
}

/// One cell of a grid: replicas `0..replicas` of a prepared task trained
/// on a device under a variant.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The task.
    pub(crate) task: PreparedTask,
    /// The device.
    pub(crate) device: Device,
    /// The noise variant.
    pub(crate) variant: NoiseVariant,
    /// How many replicas to train.
    pub(crate) replicas: u32,
}

impl Cell {
    /// The cells of a `tasks × devices × variants` grid, task-major, then
    /// device, then variant, each of `replicas` replicas.
    pub fn grid(
        tasks: impl IntoIterator<Item = PreparedTask>,
        devices: &[Device],
        variants: &[NoiseVariant],
        replicas: u32,
    ) -> Vec<Cell> {
        let mut cells = Vec::new();
        for task in tasks {
            for &device in devices {
                for &variant in variants {
                    let task = task.clone();
                    cells.push(Cell {
                        task,
                        device,
                        variant,
                        replicas,
                    });
                }
            }
        }
        cells
    }
}

/// Test-set predictions of one replica.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preds {
    /// Class predictions.
    Classes(Vec<u32>),
    /// Flat binary attribute predictions.
    Binary(Vec<u8>),
}

/// Everything a stability metric needs from one trained replica.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaResult {
    /// Replica index.
    pub replica: u32,
    /// Test accuracy.
    pub accuracy: f64,
    /// Test predictions.
    pub preds: Preds,
    /// Flattened final weights.
    pub weights: Vec<f32>,
    /// Final-epoch mean training loss.
    pub final_train_loss: f32,
}

/// How one replica of a fleet ended up, as recorded by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaStatus {
    /// Trained successfully on the first attempt.
    Ok,
    /// Failed at least once but a retry succeeded; `attempts` counts every
    /// execution including the successful one. Because retries re-derive
    /// all seeds from the replica index, a retried replica's result is
    /// bit-identical to a never-faulted run.
    Retried {
        /// Total executions including the successful one (≥ 2).
        attempts: u32,
    },
    /// Every attempt within the retry budget failed — a training error or
    /// panic in process; a worker's nonzero exit, signal, missing result
    /// file or watchdog kill in a fleet. The replica has no result and
    /// downstream reports flag the cell as incomplete.
    Failed {
        /// `"<n> attempts exhausted; last: <reason>"`, the last attempt's
        /// reason (e.g. `"signal 6"`, `"no heartbeat within 300 ms"`).
        reason: String,
    },
}

impl ReplicaStatus {
    /// Whether this replica produced no result.
    pub fn is_failed(&self) -> bool {
        matches!(self, ReplicaStatus::Failed { .. })
    }
}

/// All replicas of one (task, device, variant) cell.
///
/// `results` holds the *successful* replicas in replica order; `statuses`
/// always has one entry per requested replica index, so a degraded fleet
/// is visible (`results.len() < statuses.len()`) without being fatal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantRuns {
    /// The variant trained under.
    pub variant: NoiseVariant,
    /// Successful replica outcomes, in replica order.
    pub results: Vec<ReplicaResult>,
    /// Per-replica supervision outcome, indexed by replica.
    pub statuses: Vec<ReplicaStatus>,
}

/// A [`VariantRuns`] accessor was asked for one kind of predictions but a
/// replica holds the other (e.g. class predictions requested from a binary
/// attribute task).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredsKindError {
    /// What the accessor expected.
    pub expected: &'static str,
    /// What the replica actually holds.
    pub found: &'static str,
    /// The offending replica index.
    pub replica: u32,
}

impl std::fmt::Display for PredsKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expected {} predictions but replica {} holds {} predictions",
            self.expected, self.replica, self.found
        )
    }
}

impl std::error::Error for PredsKindError {}

impl Preds {
    fn kind(&self) -> &'static str {
        match self {
            Preds::Classes(_) => "class",
            Preds::Binary(_) => "binary",
        }
    }
}

impl VariantRuns {
    /// Whether every requested replica produced a result.
    pub fn is_complete(&self) -> bool {
        self.statuses.iter().all(|s| !s.is_failed())
    }

    /// Indices of replicas that exhausted their retry budget.
    pub fn failed_replicas(&self) -> Vec<u32> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_failed())
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Number of replicas that needed at least one retry.
    pub fn retried_replicas(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| matches!(s, ReplicaStatus::Retried { .. }))
            .count()
    }

    /// Replica accuracies.
    pub fn accuracies(&self) -> Vec<f64> {
        self.results.iter().map(|r| r.accuracy).collect()
    }

    /// Replica weight vectors.
    pub fn weight_sets(&self) -> Vec<Vec<f32>> {
        self.results.iter().map(|r| r.weights.clone()).collect()
    }

    /// Replica class predictions.
    ///
    /// # Errors
    ///
    /// Returns [`PredsKindError`] if any replica holds binary predictions.
    pub fn class_pred_sets(&self) -> Result<Vec<Vec<u32>>, PredsKindError> {
        self.pred_sets("class", |p| match p {
            Preds::Classes(c) => Some(c),
            Preds::Binary(_) => None,
        })
    }

    /// Replica binary predictions.
    ///
    /// # Errors
    ///
    /// Returns [`PredsKindError`] if any replica holds class predictions.
    pub fn binary_pred_sets(&self) -> Result<Vec<Vec<u8>>, PredsKindError> {
        self.pred_sets("binary", |p| match p {
            Preds::Binary(b) => Some(b),
            Preds::Classes(_) => None,
        })
    }

    fn pred_sets<T: Clone>(
        &self,
        expected: &'static str,
        pick: fn(&Preds) -> Option<&Vec<T>>,
    ) -> Result<Vec<Vec<T>>, PredsKindError> {
        let set = |r: &ReplicaResult| {
            pick(&r.preds).cloned().ok_or(PredsKindError {
                expected,
                found: r.preds.kind(),
                replica: r.replica,
            })
        };
        self.results.iter().map(set).collect()
    }
}

/// Trains one replica of a task on a device under a variant.
///
/// Every seed (algorithmic streams, scheduler entropy, chaos schedule) is
/// derived from the replica index, so a replica is a pure function of its
/// arguments: re-running it — whether as a supervision retry or a
/// checkpoint resume — reproduces the result bit-for-bit.
///
/// # Errors
///
/// Returns the [`TrainError`] of a diverged, faulted or empty training
/// run. Injected kernel panics are *not* caught here; the supervisor in
/// [`run_grid`] isolates those.
pub fn run_replica(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
    replica: u32,
) -> Result<ReplicaResult, TrainError> {
    run_replica_with(
        prepared,
        device,
        variant,
        settings,
        replica,
        0,
        FitOptions::default(),
    )
}

/// [`run_replica`] as retry `attempt` (0 = first execution; it selects the
/// chaos fault schedule for transient-fault configs), with `opts` handed to
/// [`Trainer::fit_with`]: resume from a checkpoint, a sink that receives a
/// checkpoint after every epoch, and a progress hook.
///
/// # Errors
///
/// As [`run_replica`].
pub fn run_replica_with(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
    replica: u32,
    attempt: u32,
    opts: FitOptions<'_>,
) -> Result<ReplicaResult, TrainError> {
    let spec = &prepared.spec;
    // Each algorithmic stream is seeded per replica when the variant
    // leaves it free and pinned to the base seed otherwise; the model
    // root is the init stream.
    let base = settings.base_seed;
    let seed = |source| variant.stream_policy(source).seed_for(base, replica);
    let algo = Philox::from_seed(seed(AlgoSource::Init));
    let mut train = spec.train_config(settings);
    train.shuffle_seed_override = Some(seed(AlgoSource::Shuffle));
    train.augment_seed_override = Some(seed(AlgoSource::Augment));
    train.dropout_seed_override = Some(seed(AlgoSource::Dropout));
    // Chaos faults are scheduled over the run's horizon in optimizer steps.
    let per_epoch = prepared.train_set().len().div_ceil(train.batch_size).max(1) as u64;
    let horizon = u64::from(train.epochs) * per_epoch;
    let chaos = settings.chaos.as_ref().map_or_else(FaultPlan::none, |cfg| {
        FaultPlan::build(cfg, replica, attempt, horizon)
    });
    let mut exec = ExecutionContext::builder(*device)
        .mode(variant.exec_mode())
        .entropy(settings.entropy_for(replica))
        .amp_ulps(settings.amp_ulps)
        .threads(settings.exec_threads)
        .chaos(chaos)
        .build();
    let mut net = spec.build_model(&algo);
    let trainer = Trainer::new(train);
    let augment = ShiftFlip::standard();
    let report = trainer.fit_with(
        &mut net,
        prepared.train_set(),
        &mut exec,
        &algo,
        if spec.augment { Some(&augment) } else { None },
        opts,
    )?;

    let test = prepared.test_set();
    let (preds, accuracy) = match &test.targets {
        Targets::Classes(labels) => {
            let p = predict_classes(&mut net, test, &mut exec, &algo, 64);
            let acc = nsmetrics::accuracy(&p, labels);
            (Preds::Classes(p), acc)
        }
        Targets::Binary(t) => {
            let p = predict_binary(&mut net, test, &mut exec, &algo, 64);
            let labels: Vec<u8> = t.as_slice().iter().map(|&v| (v > 0.5) as u8).collect();
            let acc = nsmetrics::accuracy(&p, &labels);
            (Preds::Binary(p), acc)
        }
    };

    Ok(ReplicaResult {
        replica,
        accuracy,
        preds,
        weights: net.flat_weights(),
        // `fit` guards against empty runs (`TrainError::NoSteps`), so a
        // successful report always has a final epoch loss — no NaN
        // sentinel needed.
        final_train_loss: *report
            .epoch_losses
            .last()
            .expect("successful fit has at least one epoch"),
    })
}

/// Renders a caught panic payload for a `ReplicaStatus::Failed` reason.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    let text = text.or_else(|| payload.downcast_ref::<&str>().copied());
    format!("panic: {}", text.unwrap_or("<non-string payload>"))
}

/// How one attempt of one replica ended: its result, or the reason it has
/// none.
pub(crate) type AttemptOutcome = Result<ReplicaResult, String>;

/// The one attempt body, run in process and in a fleet worker alike:
/// [`run_replica_with`] as retry `attempt`, with `progress` as the
/// trainer's progress hook (every `settings.heartbeat_every_steps`
/// steps). With a store cell `dir` the attempt resumes from the replica's
/// newest checkpoint, saves a new one after every epoch and, on success,
/// writes the result file and removes the checkpoint. A checkpoint save is
/// best effort — a failed one costs a later retry its resume point, never
/// this attempt — while the result write is strict. Checkpoints are only
/// ever emitted at fault-free epoch boundaries (`fit` aborts *before* the
/// sink on a faulted step), so a checkpoint from a crashed attempt is
/// still a bit-exact prefix of the clean trajectory and safe for any
/// later attempt to resume from.
///
/// # Errors
///
/// The IO error of writing the result file; training failures are the
/// inner [`TrainError`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_attempt(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
    dir: Option<&Path>,
    replica: u32,
    attempt: u32,
    progress: Option<&mut dyn FnMut(u64)>,
) -> io::Result<Result<ReplicaResult, TrainError>> {
    let ckpt = dir.map(|dir| resume::ckpt_path(dir, replica));
    let resume_from = ckpt.as_deref().and_then(resume::load_checkpoint);
    let mut sink = |c: &Checkpoint| {
        if let Some(path) = &ckpt {
            c.save(path).ok();
        }
    };
    let outcome = run_replica_with(
        prepared,
        device,
        variant,
        settings,
        replica,
        attempt,
        FitOptions {
            resume: resume_from.as_ref(),
            sink: dir.map(|_| &mut sink as &mut dyn FnMut(&Checkpoint)),
            progress_every_steps: settings.heartbeat_every_steps,
            progress: progress.map(|p| p as &mut dyn FnMut(u64)),
        },
    );
    if let (Some(dir), Ok(result)) = (dir, &outcome) {
        resume::write_atomic(
            &resume::result_path(dir, replica),
            &resume::encode_result(result, attempt),
        )?;
        std::fs::remove_file(resume::ckpt_path(dir, replica)).ok();
    }
    Ok(outcome)
}

/// The in-process attempt body: `catch_unwind` around [`train_attempt`],
/// so a kernel panic costs the replica a retry, not the process.
fn in_process_attempt<'a>(
    cell: &'a Cell,
    settings: &'a ExperimentSettings,
    dir: Option<&'a Path>,
) -> impl Fn(u32, u32) -> io::Result<AttemptOutcome> + Sync + 'a {
    move |replica, attempt| {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (task, device, variant) = (&cell.task, &cell.device, cell.variant);
            train_attempt(task, device, variant, settings, dir, replica, attempt, None)
        }));
        match outcome {
            Ok(trained) => Ok(trained?.map_err(|err| err.to_string())),
            Err(payload) => Ok(Err(panic_reason(payload))),
        }
    }
}

/// The status of a replica whose attempt `attempt` (0 = first) was clean:
/// the supervisor's and the store harvest's one mapping.
fn clean_status(attempt: u32) -> ReplicaStatus {
    match attempt {
        0 => ReplicaStatus::Ok,
        a => ReplicaStatus::Retried { attempts: a + 1 },
    }
}

/// Runs one replica of `cell` under supervision: attempts run until one
/// is clean or `settings.retry_budget` retries are spent. Deterministic
/// re-derivation of all seeds makes a successful retry bit-identical to a
/// never-faulted run. Each failed attempt that is retried prints one
/// stderr line with its reason (attempts count from 1, as in
/// [`ReplicaStatus::Retried`]); a replica whose budget is spent has its
/// final status printed there too, the one place its reason is kept.
fn supervise(
    cell: &Cell,
    settings: &ExperimentSettings,
    replica: u32,
    attempt: &(dyn Fn(u32, u32) -> io::Result<AttemptOutcome> + Sync),
) -> io::Result<Outcome> {
    let (task, device, variant) = (&cell.task.spec.name, cell.device.name(), cell.variant);
    let mut a = 0;
    let reason = loop {
        match attempt(replica, a)? {
            Ok(r) => return Ok((Some(r), clean_status(a))),
            Err(reason) if a < settings.retry_budget => {
                a += 1;
                eprintln!(
                    "{task} / {device} / {variant} replica {replica} attempt {a} failed: {reason}; retrying"
                );
            }
            Err(reason) => break format!("{} attempts exhausted; last: {reason}", a + 1),
        }
    };
    let status = ReplicaStatus::Failed { reason };
    eprintln!("{task} / {device} / {variant} replica {replica}: {status:?}");
    Ok((None, status))
}

/// A replica's outcome as the supervisor records it: the result, if any,
/// and the status.
type Outcome = (Option<ReplicaResult>, ReplicaStatus);

/// One attempt body, called as `attempt(replica, attempt)`.
type Attempt<'a> = Box<dyn Fn(u32, u32) -> io::Result<AttemptOutcome> + Sync + 'a>;

/// Loads the completed replicas of the store cell `dir`, creating the
/// cell; a `None` slot is a replica still to run.
fn harvest(dir: Option<&Path>, replicas: u32) -> io::Result<Vec<Option<Outcome>>> {
    let mut slots = vec![None; replicas as usize];
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
        for (r, slot) in (0..).zip(&mut slots) {
            // A readable result file is a completed replica, its status
            // derived from the attempt that wrote it; anything else
            // (absent, torn write, another codec version, foreign bytes)
            // means the replica runs again.
            if let Ok(Ok((result, attempt))) =
                std::fs::read(resume::result_path(dir, r)).map(|b| resume::decode_result(&b))
            {
                *slot = Some((Some(result), clean_status(attempt)));
            }
        }
    }
    Ok(slots)
}

/// Trains every replica of every cell of a grid under supervision: the
/// one replica queue every experiment runs on.
///
/// Every task is validated before any IO. A cell asked for more than once
/// is queued once, keyed by its store directory
/// ([`CheckpointStore::cell_dir`]) whether or not there is a store, with
/// the largest replica count asked for; each asker gets its own replicas'
/// runs. With a `store`, each cell's completed replicas are loaded from
/// its directory instead of re-trained, in-flight replicas checkpoint
/// every epoch and resume from their newest checkpoint, and every
/// completion is persisted as it lands. All pending `(cell, replica)`
/// pairs go on one queue in cell order, drained by one pool:
/// host-parallelism threads in process, or `procs` threads each blocking
/// on a worker process with a `fleet` (see [`crate::fleet`]). A failed
/// attempt — a panic or training failure, or a worker's death or watchdog
/// kill — costs a replica a retry (up to `settings.retry_budget`), never
/// the grid; a replica whose budget is exhausted is recorded as
/// [`ReplicaStatus::Failed`] in [`VariantRuns::statuses`] and is absent
/// from `results`; it leaves no result in the store, so it trains again
/// on the next run. Every combination produces the same bits: each
/// replica derives its seeds and entropy from its index. The runs come
/// back in `cells` order.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for settings that fail
/// [`ExperimentSettings::validate_for`] on any task, a fleet without a
/// store, or a fleet on a non-UTF-8 store path; otherwise store and spawn
/// IO failures. Training faults and worker deaths degrade into
/// [`ReplicaStatus::Failed`] entries.
pub fn run_grid(
    cells: &[Cell],
    settings: &ExperimentSettings,
    store: Option<&CheckpointStore>,
    fleet: Option<&FleetOptions>,
) -> io::Result<Vec<VariantRuns>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    cells
        .iter()
        .try_for_each(|cell| settings.validate_for(&cell.task.spec))
        .map_err(|e| invalid(e.to_string()))?;
    if fleet.is_some() && store.is_none() {
        let msg = "a fleet needs a checkpoint store: workers checkpoint into its cells";
        return Err(invalid(msg.into()));
    }
    // The distinct cells in first-asked order, each with its key and the
    // most replicas asked of it, and the distinct cell of each asker.
    let mut distinct: Vec<(&Cell, PathBuf, u32)> = Vec::new();
    let asked: Vec<usize> = cells
        .iter()
        .map(|cell| {
            let key = resume::cell_path(&cell.task.spec, &cell.device, cell.variant);
            let d = match distinct.iter().position(|(_, k, _)| *k == key) {
                Some(d) => d,
                None => {
                    distinct.push((cell, key, 0));
                    distinct.len() - 1
                }
            };
            distinct[d].2 = distinct[d].2.max(cell.replicas);
            d
        })
        .collect();
    let dirs: Vec<_> = distinct
        .iter()
        .map(|(_, key, _)| store.map(|s| s.root().join(key)))
        .collect();
    let (mut attempts, mut slots) = (Vec::<Attempt>::new(), Vec::new());
    for (&(cell, _, replicas), dir) in distinct.iter().zip(&dirs) {
        let dir = dir.as_deref();
        attempts.push(match (fleet, dir) {
            (Some(opts), Some(dir)) => Box::new(process_attempt(cell, settings, dir, opts)?),
            _ => Box::new(in_process_attempt(cell, settings, dir)),
        });
        slots.push(harvest(dir, replicas)?);
    }
    let pending: Vec<(usize, u32)> = (0..distinct.len())
        .flat_map(|c| (0..distinct[c].2).map(move |r| (c, r)))
        .filter(|&(c, r)| slots[c][r as usize].is_none())
        .collect();
    let workers = match fleet.map_or(0, |opts| opts.procs) {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        w => w,
    }
    .min(pending.len())
    .max(1);
    let next = AtomicUsize::new(0);
    let supervised = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    while let Some(&(c, r)) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let out = supervise(distinct[c].0, settings, r, &*attempts[c]);
                        local.push((c, r, out));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("supervisor thread panicked"))
            .collect::<Vec<_>>()
    });
    for (c, r, out) in supervised {
        slots[c][r as usize] = Some(out?);
    }
    let runs: Vec<_> = distinct
        .iter()
        .zip(slots)
        .map(|(&(cell, _, _), slots)| {
            let (mut results, mut statuses) = (Vec::new(), Vec::new());
            for slot in slots {
                let (result, status) = slot.expect("every replica is harvested or supervised");
                results.extend(result);
                statuses.push(status);
            }
            VariantRuns {
                variant: cell.variant,
                results,
                statuses,
            }
        })
        .collect();
    // Each asker gets the runs of its own replicas.
    let own = |(cell, d): (&Cell, usize)| {
        let mut runs = runs[d].clone();
        runs.statuses.truncate(cell.replicas as usize);
        runs.results.retain(|r| r.replica < cell.replicas);
        runs
    };
    Ok(cells.iter().zip(asked).map(own).collect())
}

/// [`run_grid`] over the one cell `(prepared, device, variant)` of
/// `settings.replicas` replicas.
///
/// # Errors
///
/// As [`run_grid`].
pub fn run_cell(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
    store: Option<&CheckpointStore>,
    fleet: Option<&FleetOptions>,
) -> io::Result<VariantRuns> {
    let tasks = [prepared.clone()];
    let cells = Cell::grid(tasks, &[*device], &[variant], settings.replicas);
    let mut runs = run_grid(&cells, settings, store, fleet)?;
    Ok(runs.pop().expect("a one-cell grid yields one cell"))
}

/// [`run_cell`] in process with no store.
///
/// # Panics
///
/// Panics (with the rendered [`crate::settings::SettingsError`]) if the
/// settings or task fail [`ExperimentSettings::validate_for`], the only
/// error [`run_cell`] can return without a store.
pub fn run_variant(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
) -> VariantRuns {
    run_cell(prepared, device, variant, settings, None, None)
        .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;
    use nsdata::GaussianSpec;

    /// A deliberately tiny task for unit tests.
    fn tiny_task() -> TaskSpec {
        let mut t = TaskSpec::small_cnn_cifar10();
        t.data = crate::task::DataSource::Gaussian(GaussianSpec {
            classes: 4,
            train_per_class: 12,
            test_per_class: 8,
            ..GaussianSpec::cifar10_sim()
        });
        t.train.epochs = 2;
        t.augment = false;
        t
    }

    fn tiny_settings() -> ExperimentSettings {
        ExperimentSettings {
            replicas: 2,
            ..ExperimentSettings::default()
        }
    }

    #[test]
    fn replica_produces_complete_result() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let r = run_replica(
            &prepared,
            &Device::cpu(),
            NoiseVariant::Control,
            &tiny_settings(),
            0,
        )
        .expect("replica trains");
        assert_eq!(r.preds, r.preds);
        assert!(!r.weights.is_empty());
        assert!((0.0..=1.0).contains(&r.accuracy));
        assert!(r.final_train_loss.is_finite());
    }

    #[test]
    fn control_variant_is_bitwise_reproducible() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let runs = run_variant(&prepared, &Device::v100(), NoiseVariant::Control, &settings);
        assert_eq!(runs.results.len(), 2);
        assert_eq!(runs.results[0].weights, runs.results[1].weights);
        assert_eq!(runs.results[0].preds, runs.results[1].preds);
        assert!(runs.is_complete());
        assert_eq!(runs.statuses, vec![ReplicaStatus::Ok; 2]);
    }

    #[test]
    fn chaos_faults_are_retried_to_a_bit_identical_fleet() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let clean = tiny_settings();
        let chaotic = ExperimentSettings {
            chaos: Some(hwsim::ChaosConfig::standard(17)),
            ..clean
        };
        let baseline = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &clean);
        let faulted = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &chaotic);
        assert!(faulted.is_complete(), "transient faults must be recovered");
        assert!(
            faulted.retried_replicas() > 0,
            "standard chaos must actually fault at least one replica: {:?}",
            faulted.statuses
        );
        for (a, b) in baseline.results.iter().zip(&faulted.results) {
            assert_eq!(
                a.weights, b.weights,
                "retried replica {} must be bit-identical to the fault-free run",
                a.replica
            );
            assert_eq!(a.preds, b.preds);
        }
    }

    #[test]
    fn exhausted_retry_budget_degrades_not_panics() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            retry_budget: 1,
            // Persistent faults: every attempt of every replica fails.
            chaos: Some(hwsim::ChaosConfig {
                persistent: true,
                ..hwsim::ChaosConfig::standard(3)
            }),
            ..tiny_settings()
        };
        let runs = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &settings);
        assert!(!runs.is_complete());
        assert_eq!(runs.failed_replicas(), vec![0, 1]);
        assert!(runs.results.is_empty());
        for s in &runs.statuses {
            match s {
                ReplicaStatus::Failed { reason } => {
                    assert!(reason.contains("2 attempts exhausted"), "{reason}");
                }
                other => panic!("expected Failed, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid experiment configuration")]
    fn run_variant_rejects_invalid_settings_up_front() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 0,
            ..tiny_settings()
        };
        run_variant(&prepared, &Device::cpu(), NoiseVariant::Control, &settings);
    }

    #[test]
    fn algo_variant_diverges() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let runs = run_variant(&prepared, &Device::v100(), NoiseVariant::Algo, &settings);
        assert_ne!(runs.results[0].weights, runs.results[1].weights);
    }

    #[test]
    fn impl_variant_diverges_on_gpu_but_not_tpu() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let gpu = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &settings);
        assert_ne!(
            gpu.results[0].weights, gpu.results[1].weights,
            "GPU IMPL runs must diverge"
        );
        let tpu = run_variant(&prepared, &Device::tpu_v2(), NoiseVariant::Impl, &settings);
        assert_eq!(
            tpu.results[0].weights, tpu.results[1].weights,
            "TPU is deterministic by design"
        );
    }
}
