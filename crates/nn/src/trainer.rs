//! The training loop.
//!
//! Wires together the four algorithmic noise sources (initialization is the
//! model's job; the trainer owns shuffling, augmentation and the step
//! counter that addresses dropout streams) and the implementation noise
//! carried by the [`hwsim::ExecutionContext`].

use crate::checkpoint::Checkpoint;
use crate::loss::{argmax_predictions, binary_predictions, sigmoid_bce, softmax_cross_entropy};
use crate::model::Network;
use crate::optim::{Sgd, SgdConfig};
use crate::schedule::LrSchedule;
use detrand::{shuffle_in_place, Philox, StreamId, StreamRng};
use hwsim::ExecutionContext;
use nstensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a training run could not produce a usable report.
///
/// Training failures are *data*, not panics: the supervision layer in
/// `noisescope` catches these, retries deterministically, and records the
/// replica as degraded instead of taking the whole fleet down.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// A non-finite loss, gradient or weight was observed.
    Diverged {
        /// Epoch in which divergence was detected.
        epoch: u32,
        /// Global optimizer-step index at detection.
        step: u64,
        /// The offending loss value (NaN when the loss itself was finite
        /// but the update was not).
        loss: f32,
    },
    /// The execution context reported an injected or simulated hardware
    /// fault (e.g. a kernel-launch failure from `hwsim` chaos mode).
    Fault {
        /// Epoch in which the fault surfaced.
        epoch: u32,
        /// Global optimizer-step index at detection.
        step: u64,
        /// Human-readable fault description.
        detail: String,
    },
    /// The run took no optimizer steps (zero epochs or an empty dataset),
    /// so there is no report to return.
    NoSteps,
    /// A resume checkpoint does not match the run it was applied to.
    BadCheckpoint {
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Diverged { epoch, step, loss } => {
                write!(f, "diverged at epoch {epoch} step {step} (loss {loss})")
            }
            TrainError::Fault {
                epoch,
                step,
                detail,
            } => {
                write!(f, "hardware fault at epoch {epoch} step {step}: {detail}")
            }
            TrainError::NoSteps => write!(f, "no optimizer steps taken"),
            TrainError::BadCheckpoint { detail } => {
                write!(f, "checkpoint mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Supervision targets.
#[derive(Debug, Clone)]
pub enum Targets {
    /// One class index per sample (softmax cross-entropy).
    Classes(Vec<u32>),
    /// `[N, A]` binary attribute matrix (sigmoid BCE, CelebA-style).
    Binary(Tensor),
}

impl Targets {
    /// Number of samples covered.
    pub fn len(&self) -> usize {
        match self {
            Targets::Classes(v) => v.len(),
            Targets::Binary(t) => t.shape().dim(0),
        }
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn gather(&self, idx: &[usize]) -> Targets {
        match self {
            Targets::Classes(v) => Targets::Classes(idx.iter().map(|&i| v[i]).collect()),
            Targets::Binary(t) => {
                let a = t.shape().dim(1);
                let mut data = Vec::with_capacity(idx.len() * a);
                for &i in idx {
                    data.extend_from_slice(&t.as_slice()[i * a..(i + 1) * a]);
                }
                Targets::Binary(
                    Tensor::from_vec(Shape::of(&[idx.len(), a]), data).expect("target gather"),
                )
            }
        }
    }
}

/// An in-memory supervised dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Features: `[N, C, H, W]` images or `[N, D]` vectors.
    pub x: Tensor,
    /// Targets aligned with the first axis of `x`.
    pub targets: Targets,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the sample counts disagree.
    pub fn new(x: Tensor, targets: Targets) -> Self {
        assert_eq!(x.shape().dim(0), targets.len(), "sample count mismatch");
        Self { x, targets }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.shape().dim(0)
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of one sample in scalars.
    pub fn sample_len(&self) -> usize {
        self.x.len() / self.len().max(1)
    }

    /// Gathers the samples at `idx` into a batch.
    pub fn gather(&self, idx: &[usize]) -> Batch {
        let sl = self.sample_len();
        let mut data = Vec::with_capacity(idx.len() * sl);
        for &i in idx {
            data.extend_from_slice(&self.x.as_slice()[i * sl..(i + 1) * sl]);
        }
        let mut dims = vec![idx.len()];
        dims.extend_from_slice(&self.x.shape().dims()[1..]);
        Batch {
            x: Tensor::from_vec(Shape::of(&dims), data).expect("batch gather"),
            targets: self.targets.gather(idx),
        }
    }
}

/// One minibatch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Features.
    pub x: Tensor,
    /// Targets.
    pub targets: Targets,
}

/// Stochastic data augmentation applied per sample during training.
pub trait Augment: std::fmt::Debug {
    /// Mutates one sample in place. `dims` are the sample's dimensions
    /// (e.g. `[C, H, W]`); `rng` is the run's augmentation stream.
    fn apply(&self, sample: &mut [f32], dims: &[usize], rng: &mut StreamRng);
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: u32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Optimizer configuration.
    pub sgd: SgdConfig,
    /// Whether to reshuffle the training set every epoch (an algorithmic
    /// noise source; disabled for the paper's Fig. 6 ordering experiment).
    pub shuffle: bool,
    /// When set, the shuffle stream is drawn from this seed instead of the
    /// run's algorithmic root — lets an experiment vary *only* the data
    /// order while every other algorithmic factor stays fixed (the paper's
    /// Fig. 6 design).
    pub shuffle_seed_override: Option<u64>,
    /// Must be 1: every step runs one forward/backward pass on one
    /// simulated device. The field is kept only so that serialized task
    /// specs, checkpoint-store cell keys and fleet specs stay unchanged;
    /// ROADMAP item 4 (the benchmark change) deletes it.
    pub data_parallel_workers: usize,
    /// When set, the augmentation stream derives from this seed instead of
    /// the run's algorithmic root (vary *only* augmentation).
    pub augment_seed_override: Option<u64>,
    /// When set, stochastic layers (dropout) derive their streams from
    /// this seed instead of the run's algorithmic root (vary *only* the
    /// stochastic layers).
    pub dropout_seed_override: Option<u64>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            schedule: LrSchedule::Constant { lr: 0.05 },
            sgd: SgdConfig::default(),
            shuffle: true,
            shuffle_seed_override: None,
            data_parallel_workers: 1,
            augment_seed_override: None,
            dropout_seed_override: None,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Total optimizer steps taken.
    pub steps: u64,
}

/// Resume/checkpoint controls for [`Trainer::fit_with`].
///
/// The default (`FitOptions::default()`) is the zero-cost path: no resume,
/// no checkpointing, byte-identical to what [`Trainer::fit`] did before
/// checkpointing existed.
#[derive(Default)]
pub struct FitOptions<'a> {
    /// Resume from this snapshot instead of starting at epoch 0.
    pub resume: Option<&'a Checkpoint>,
    /// Receives a checkpoint after every completed epoch (typically:
    /// persist it to disk).
    pub sink: Option<&'a mut dyn FnMut(&Checkpoint)>,
    /// Invoke `progress` after every N completed optimizer steps
    /// (0 disables). Pure observation: the hook sees the global step
    /// count and cannot perturb training, so arming it is bit-free.
    pub progress_every_steps: u32,
    /// Receives the global step count at each progress interval
    /// (typically: emit a liveness heartbeat to a supervisor).
    pub progress: Option<&'a mut dyn FnMut(u64)>,
}

impl fmt::Debug for FitOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FitOptions")
            .field("resume", &self.resume.map(|c| c.epochs_done))
            .field("sink", &self.sink.is_some())
            .field("progress_every_steps", &self.progress_every_steps)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

/// The training loop driver.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or `data_parallel_workers != 1`.
    pub fn new(config: TrainConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        assert_eq!(
            config.data_parallel_workers, 1,
            "data-parallel training is not supported"
        );
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> TrainConfig {
        self.config
    }

    /// Trains `net` on `data`.
    ///
    /// `algo` is the run's algorithmic root: shuffling uses its `SHUFFLE`
    /// stream, augmentation its `AUGMENT` stream, dropout layers their own
    /// streams. `exec` carries the device's accumulation-order semantics.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Diverged`] on a non-finite loss, gradient or
    /// weight, [`TrainError::Fault`] when the execution context reports an
    /// injected hardware fault, and [`TrainError::NoSteps`] when the run
    /// takes no optimizer steps.
    pub fn fit(
        &self,
        net: &mut Network,
        data: &Dataset,
        exec: &mut ExecutionContext,
        algo: &Philox,
        augment: Option<&dyn Augment>,
    ) -> Result<TrainReport, TrainError> {
        self.fit_with(net, data, exec, algo, augment, FitOptions::default())
    }

    /// [`Trainer::fit`] with checkpoint/resume control.
    ///
    /// With `opts.resume` set, training continues from the snapshot's
    /// epoch boundary; because a replica is a pure function of its seeds
    /// and the checkpoint captures every RNG cursor byte-exactly, the
    /// resumed continuation is bitwise identical to the uninterrupted run.
    /// With `opts.sink` set, a [`Checkpoint`] is handed to it at every
    /// epoch boundary.
    ///
    /// # Errors
    ///
    /// As [`Trainer::fit`], plus [`TrainError::BadCheckpoint`] when a
    /// resume snapshot does not fit the run's model or dataset.
    pub fn fit_with(
        &self,
        net: &mut Network,
        data: &Dataset,
        exec: &mut ExecutionContext,
        algo: &Philox,
        augment: Option<&dyn Augment>,
        mut opts: FitOptions<'_>,
    ) -> Result<TrainReport, TrainError> {
        let cfg = self.config;
        let mut opt = Sgd::new(cfg.sgd);
        let mut shuffle_rng = match cfg.shuffle_seed_override {
            Some(seed) => Philox::from_seed(seed).stream(StreamId::SHUFFLE),
            None => algo.stream(StreamId::SHUFFLE),
        };
        let mut augment_rng = match cfg.augment_seed_override {
            Some(seed) => Philox::from_seed(seed).stream(StreamId::AUGMENT),
            None => algo.stream(StreamId::AUGMENT),
        };
        // Stochastic layers read their streams from the root handed to
        // `forward`; substituting it isolates dropout as a noise source.
        let forward_root = cfg
            .dropout_seed_override
            .map(Philox::from_seed)
            .unwrap_or(*algo);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut step: u64 = 0;
        let mut start_epoch: u32 = 0;
        let mut epoch_losses = Vec::with_capacity(cfg.epochs as usize);
        let sample_dims: Vec<usize> = data.x.shape().dims()[1..].to_vec();

        if let Some(ck) = opts.resume {
            apply_checkpoint(
                ck,
                net,
                &mut opt,
                exec,
                &mut shuffle_rng,
                &mut augment_rng,
                &mut order,
            )?;
            start_epoch = ck.epochs_done.min(cfg.epochs);
            step = ck.steps;
            epoch_losses = ck.epoch_losses.clone();
        }

        for epoch in start_epoch..cfg.epochs {
            if cfg.shuffle {
                shuffle_in_place(&mut shuffle_rng, &mut order);
            }
            let lr = cfg.schedule.lr_at(epoch);
            let mut loss_sum = 0f64;
            let mut batches = 0u32;
            for chunk in order.chunks(cfg.batch_size) {
                exec.begin_step(step);
                let mut batch = data.gather(chunk);
                if let Some(aug) = augment {
                    let sl = data.sample_len();
                    for s in 0..chunk.len() {
                        aug.apply(
                            &mut batch.x.as_mut_slice()[s * sl..(s + 1) * sl],
                            &sample_dims,
                            &mut augment_rng,
                        );
                    }
                }
                let logits = net.forward(batch.x, exec, &forward_root, step, true);
                let (loss, dlogits) = match &batch.targets {
                    Targets::Classes(labels) => softmax_cross_entropy(&logits, labels),
                    Targets::Binary(t) => sigmoid_bce(&logits, t),
                };
                net.backward(dlogits, exec);
                if let Some(ev) = exec.take_fault() {
                    exec.disarm_chaos();
                    return Err(TrainError::Fault {
                        epoch,
                        step,
                        detail: ev.to_string(),
                    });
                }
                if !loss.is_finite() {
                    exec.disarm_chaos();
                    return Err(TrainError::Diverged { epoch, step, loss });
                }
                if !opt.step(net, lr) {
                    exec.disarm_chaos();
                    return Err(TrainError::Diverged { epoch, step, loss });
                }
                loss_sum += loss as f64;
                batches += 1;
                step += 1;
                if opts.progress_every_steps > 0
                    && step.is_multiple_of(opts.progress_every_steps as u64)
                {
                    if let Some(progress) = opts.progress.as_mut() {
                        progress(step);
                    }
                }
            }
            epoch_losses.push((loss_sum / batches.max(1) as f64) as f32);
            if let Some(sink) = opts.sink.as_mut() {
                let ck = capture_checkpoint(
                    epoch + 1,
                    step,
                    &epoch_losses,
                    net,
                    &opt,
                    exec,
                    &shuffle_rng,
                    &augment_rng,
                    &order,
                );
                sink(&ck);
            }
        }
        // Training is over: stop injecting faults so evaluation passes run
        // on clean semantics even when the same context is reused.
        exec.disarm_chaos();
        if step == 0 {
            return Err(TrainError::NoSteps);
        }
        let mut weights_finite = true;
        net.visit_params(&mut |p, _| {
            weights_finite &= p.as_slice().iter().all(|v| v.is_finite());
        });
        if !weights_finite {
            return Err(TrainError::Diverged {
                epoch: cfg.epochs,
                step,
                loss: f32::NAN,
            });
        }
        Ok(TrainReport {
            epoch_losses,
            steps: step,
        })
    }
}

/// Builds a [`Checkpoint`] from live training state at an epoch boundary.
#[allow(clippy::too_many_arguments)]
fn capture_checkpoint(
    epochs_done: u32,
    steps: u64,
    epoch_losses: &[f32],
    net: &mut Network,
    opt: &Sgd,
    exec: &ExecutionContext,
    shuffle_rng: &StreamRng,
    augment_rng: &StreamRng,
    order: &[usize],
) -> Checkpoint {
    Checkpoint {
        epochs_done,
        steps,
        epoch_losses: epoch_losses.to_vec(),
        weights: net.flat_state(),
        velocity: opt.velocity().to_vec(),
        shuffle_rng: shuffle_rng.snapshot(),
        augment_rng: augment_rng.snapshot(),
        exec: exec.snapshot(),
        order: order.iter().map(|&i| i as u32).collect(),
    }
}

/// Applies a resume [`Checkpoint`] to live training state, validating that
/// it matches the model and dataset it is being applied to.
fn apply_checkpoint(
    ck: &Checkpoint,
    net: &mut Network,
    opt: &mut Sgd,
    exec: &mut ExecutionContext,
    shuffle_rng: &mut StreamRng,
    augment_rng: &mut StreamRng,
    order: &mut Vec<usize>,
) -> Result<(), TrainError> {
    net.set_flat_state(&ck.weights)
        .map_err(|expected| TrainError::BadCheckpoint {
            detail: format!(
                "checkpoint has {} state values, model expects {expected}",
                ck.weights.len()
            ),
        })?;
    if ck.order.len() != order.len() {
        return Err(TrainError::BadCheckpoint {
            detail: format!(
                "checkpoint order covers {} samples, dataset has {}",
                ck.order.len(),
                order.len()
            ),
        });
    }
    if ck.exec.reducers.len() != hwsim::OpClass::ALL.len() {
        return Err(TrainError::BadCheckpoint {
            detail: format!(
                "checkpoint has {} reducer states, context expects {}",
                ck.exec.reducers.len(),
                hwsim::OpClass::ALL.len()
            ),
        });
    }
    opt.set_velocity(ck.velocity.clone());
    *shuffle_rng = StreamRng::from_snapshot(ck.shuffle_rng);
    *augment_rng = StreamRng::from_snapshot(ck.augment_rng);
    *order = ck.order.iter().map(|&i| i as usize).collect();
    exec.restore(&ck.exec);
    Ok(())
}

/// Runs inference over a dataset in batches; returns class predictions.
pub fn predict_classes(
    net: &mut Network,
    data: &Dataset,
    exec: &mut ExecutionContext,
    algo: &Philox,
    batch_size: usize,
) -> Vec<u32> {
    let idx: Vec<usize> = (0..data.len()).collect();
    let mut preds = Vec::with_capacity(data.len());
    for chunk in idx.chunks(batch_size.max(1)) {
        let batch = data.gather(chunk);
        let logits = net.forward(batch.x, exec, algo, u64::MAX, false);
        preds.extend(argmax_predictions(&logits));
    }
    preds
}

/// Runs inference; returns flat `[N × A]` binary attribute predictions.
pub fn predict_binary(
    net: &mut Network,
    data: &Dataset,
    exec: &mut ExecutionContext,
    algo: &Philox,
    batch_size: usize,
) -> Vec<u8> {
    let idx: Vec<usize> = (0..data.len()).collect();
    let mut preds = Vec::new();
    for chunk in idx.chunks(batch_size.max(1)) {
        let batch = data.gather(chunk);
        let logits = net.forward(batch.x, exec, algo, u64::MAX, false);
        preds.extend(binary_predictions(&logits));
    }
    preds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use hwsim::{Device, ExecutionMode};

    /// A linearly separable 2-class problem the MLP must learn.
    fn toy_dataset(n: usize, seed: u64) -> Dataset {
        let root = Philox::from_seed(seed);
        let mut rng = root.stream(StreamId::DATASET);
        let mut x = Tensor::zeros(Shape::of(&[n, 4]));
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = (i % 2) as u32;
            labels.push(c);
            for j in 0..4 {
                let mean = if c == 1 { 1.0 } else { -1.0 };
                x.as_mut_slice()[i * 4 + j] = rng.normal_with(mean, 0.5);
            }
        }
        Dataset::new(x, Targets::Classes(labels))
    }

    fn mlp(seed: u64) -> (Network, Philox) {
        let root = Philox::from_seed(seed);
        let mut rng = root.stream(StreamId::INIT.child(0));
        let mut net = Network::new();
        net.push(Dense::new(4, 16, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(16, 2, &mut rng));
        (net, root)
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let data = toy_dataset(128, 1);
        let (mut net, root) = mlp(2);
        let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
        let trainer = Trainer::new(TrainConfig {
            epochs: 20,
            batch_size: 16,
            schedule: LrSchedule::Constant { lr: 0.1 },
            sgd: SgdConfig::default(),
            shuffle: true,
            shuffle_seed_override: None,
            data_parallel_workers: 1,
            augment_seed_override: None,
            dropout_seed_override: None,
        });
        let report = trainer
            .fit(&mut net, &data, &mut exec, &root, None)
            .expect("training failed");
        assert_eq!(report.steps, 20 * 8);
        assert!(
            report.epoch_losses.last().unwrap() < &(report.epoch_losses[0] * 0.5),
            "loss did not drop: {:?}",
            report.epoch_losses
        );
        let preds = predict_classes(&mut net, &data, &mut exec, &root, 32);
        let Targets::Classes(labels) = &data.targets else {
            unreachable!("toy_dataset is class-labelled")
        };
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        assert!(correct as f64 / labels.len() as f64 > 0.95);
    }

    #[test]
    fn identical_seeds_identical_training_on_cpu() {
        let data = toy_dataset(64, 3);
        let run = || {
            let (mut net, root) = mlp(7);
            let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
            let trainer = Trainer::new(TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            });
            trainer
                .fit(&mut net, &data, &mut exec, &root, None)
                .expect("training failed");
            net.flat_weights()
        };
        assert_eq!(run(), run(), "CPU training must be bitwise replayable");
    }

    #[test]
    fn shuffle_order_changes_training() {
        let data = toy_dataset(64, 3);
        let run = |algo_seed: u64| {
            let (mut net, _) = mlp(7); // same init
            let root = Philox::from_seed(algo_seed); // different shuffle
            let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
            let trainer = Trainer::new(TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            });
            trainer
                .fit(&mut net, &data, &mut exec, &root, None)
                .expect("training failed");
            net.flat_weights()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn zero_epochs_is_no_steps() {
        let data = toy_dataset(8, 5);
        let (mut net, root) = mlp(7);
        let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
        let trainer = Trainer::new(TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        });
        assert_eq!(
            trainer.fit(&mut net, &data, &mut exec, &root, None),
            Err(TrainError::NoSteps)
        );
    }

    /// Interrupt-at-epoch-k then resume must reproduce the uninterrupted
    /// run bit-for-bit — the core guarantee of the supervision layer,
    /// checked here at the trainer level on a nondeterministic device.
    #[test]
    fn resume_from_checkpoint_is_bitwise_identical() {
        let data = toy_dataset(64, 11);
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let make_exec = || {
            ExecutionContext::builder(Device::v100())
                .mode(ExecutionMode::Default)
                .entropy(99)
                .build()
        };

        // Uninterrupted reference run.
        let (mut ref_net, root) = mlp(13);
        let mut exec = make_exec();
        let ref_report = Trainer::new(cfg)
            .fit(&mut ref_net, &data, &mut exec, &root, None)
            .expect("reference run");
        let ref_weights = ref_net.flat_weights();

        // Interrupted run: capture a checkpoint at epoch 3, throw the rest
        // away, then resume into a *fresh* network and context.
        let (mut int_net, root) = mlp(13);
        let mut exec = make_exec();
        let mut saved: Option<Checkpoint> = None;
        let mut sink = |ck: &Checkpoint| {
            if ck.epochs_done == 3 {
                saved = Some(ck.clone());
            }
        };
        Trainer::new(cfg)
            .fit_with(
                &mut int_net,
                &data,
                &mut exec,
                &root,
                None,
                FitOptions {
                    sink: Some(&mut sink),
                    ..FitOptions::default()
                },
            )
            .expect("interrupted run");
        let ck = saved.expect("epoch-3 checkpoint");
        assert_eq!(ck.epochs_done, 3);

        let (mut res_net, root) = mlp(13);
        let mut exec = make_exec();
        let res_report = Trainer::new(cfg)
            .fit_with(
                &mut res_net,
                &data,
                &mut exec,
                &root,
                None,
                FitOptions {
                    resume: Some(&ck),
                    ..FitOptions::default()
                },
            )
            .expect("resumed run");

        let to_bits = |w: &[f32]| -> Vec<u32> { w.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(
            to_bits(&res_net.flat_weights()),
            to_bits(&ref_weights),
            "resumed weights must match the uninterrupted run bit-for-bit"
        );
        assert_eq!(res_report.steps, ref_report.steps);
        assert_eq!(
            to_bits(&res_report.epoch_losses),
            to_bits(&ref_report.epoch_losses)
        );
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let data = toy_dataset(16, 3);
        let (mut net, root) = mlp(5);
        let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
        let mut saved: Option<Checkpoint> = None;
        let mut sink = |ck: &Checkpoint| saved = Some(ck.clone());
        Trainer::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        })
        .fit_with(
            &mut net,
            &data,
            &mut exec,
            &root,
            None,
            FitOptions {
                sink: Some(&mut sink),
                ..FitOptions::default()
            },
        )
        .expect("train");
        let mut ck = saved.expect("checkpoint");
        ck.weights.pop(); // wrong parameter count
        let err = Trainer::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        })
        .fit_with(
            &mut net,
            &data,
            &mut exec,
            &root,
            None,
            FitOptions {
                resume: Some(&ck),
                ..FitOptions::default()
            },
        )
        .expect_err("mismatched checkpoint must be rejected");
        assert!(matches!(err, TrainError::BadCheckpoint { .. }), "{err}");
    }

    /// A NaN in the training data must surface as a structured `Diverged`
    /// error, not a panic or a silent NaN report.
    #[test]
    fn nan_feature_surfaces_as_diverged() {
        let mut data = toy_dataset(64, 3);
        data.x.as_mut_slice()[5 * 4] = f32::NAN;
        let (mut net, root) = mlp(7);
        let mut exec = ExecutionContext::builder(Device::v100()).entropy(1).build();
        let err = Trainer::new(TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        })
        .fit(&mut net, &data, &mut exec, &root, None)
        .expect_err("a NaN feature must fail the run");
        assert!(
            matches!(err, TrainError::Diverged { epoch: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn gather_preserves_rows() {
        let data = toy_dataset(8, 5);
        let batch = data.gather(&[3, 1]);
        assert_eq!(batch.x.shape().dims(), &[2, 4]);
        assert_eq!(
            &batch.x.as_slice()[0..4],
            &data.x.as_slice()[12..16],
            "row 3 first"
        );
        match batch.targets {
            Targets::Classes(ref l) => assert_eq!(l, &[1, 1]),
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_rejected() {
        Trainer::new(TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "sample count mismatch")]
    fn dataset_validates_lengths() {
        Dataset::new(
            Tensor::zeros(Shape::of(&[3, 2])),
            Targets::Classes(vec![0, 1]),
        );
    }
}
