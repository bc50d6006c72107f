//! The benchmark's workloads: replica-fleet cells built from explicit task
//! specs.
//!
//! Every epoch, batch and data-size field is set here rather than taken
//! from a `TaskSpec` preset, so a change to a preset cannot silently change
//! the load this benchmark measures.

use detrand::SplitMix64;
use hwsim::Device;
use nnet::optim::SgdConfig;
use nnet::schedule::LrSchedule;
use nnet::TrainConfig;
use noisescope::settings::ExperimentSettings;
use noisescope::task::{DataSource, ModelKind, TaskSpec};
use noisescope::variant::NoiseVariant;
use nsdata::GaussianSpec;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// V100 ALGO+IMPL and IMPL arms: every reduction runs `Permuted`.
    ImplNoise,
    /// V100 ALGO and CONTROL arms (`FixedTree`) plus a full-batch TPUv2
    /// CONTROL arm.
    DetControl,
    /// SmallCNN+BN under IMPL and ALGO through process-isolated workers
    /// and a checkpoint store, then a second pass over the complete store.
    FleetResume,
}

impl Kind {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Kind; 3] = [Kind::ImplNoise, Kind::DetControl, Kind::FleetResume];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ImplNoise => "impl_noise",
            Kind::DetControl => "det_control",
            Kind::FleetResume => "fleet_resume",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few steps per replica, for self-tests.
    Smoke,
}

/// One (task, device, variant) cell of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into [`Workload::tasks`].
    pub task: usize,
    /// Simulated device.
    pub device: Device,
    /// Noise arm.
    pub variant: NoiseVariant,
}

/// A fully specified workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The seed every input derives from.
    pub seed: u64,
    /// Problem size.
    pub scale: Scale,
    /// Distinct tasks; each is prepared once per set-up.
    pub tasks: Vec<TaskSpec>,
    /// Cells in run order.
    pub cells: Vec<Cell>,
    /// Fleet settings shared by every cell.
    pub settings: ExperimentSettings,
}

/// Replicas per cell.
pub const REPLICAS: u32 = 2;
/// Fleet worker processes for `fleet_resume` (and the traced fleet probe).
pub const FLEET_PROCS: usize = 2;

/// The CIFAR-10 stand-in at an explicit size.
fn cifar10_sim(
    seed: u64,
    hw: usize,
    train_per_class: usize,
    test_per_class: usize,
) -> GaussianSpec {
    GaussianSpec {
        classes: 10,
        superclasses: 1,
        hw,
        channels: 3,
        train_per_class,
        test_per_class,
        class_sep: 1.6,
        super_sep: 0.0,
        noise_std: 1.0,
        label_noise: 0.0,
        seed,
    }
}

fn train_config(
    epochs: u32,
    batch_size: usize,
    momentum: f32,
    schedule: LrSchedule,
) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size,
        schedule,
        sgd: SgdConfig {
            momentum,
            weight_decay: 1e-4,
        },
        shuffle: true,
        shuffle_seed_override: None,
        data_parallel_workers: 1,
        augment_seed_override: None,
        dropout_seed_override: None,
    }
}

struct Sizes {
    train_per_class: usize,
    test_per_class: usize,
    epochs: u32,
    full_batch_epochs: u32,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            train_per_class: 16,
            test_per_class: 10,
            epochs: 4,
            full_batch_epochs: 40,
        },
        Scale::Smoke => Sizes {
            train_per_class: 4,
            test_per_class: 2,
            epochs: 1,
            full_batch_epochs: 2,
        },
    }
}

fn small_cnn(with_bn: bool, data_seed: u64, s: &Sizes) -> TaskSpec {
    TaskSpec {
        name: if with_bn {
            "SmallCNN+BN CIFAR-10".into()
        } else {
            "SmallCNN CIFAR-10".into()
        },
        model: ModelKind::SmallCnn { with_bn },
        data: DataSource::Gaussian(cifar10_sim(
            data_seed,
            12,
            s.train_per_class,
            s.test_per_class,
        )),
        // Momentum 0.5 and a two-epoch warmup: with momentum 0.9, about
        // one seed in a hundred left the BN-free model dead at chance.
        train: train_config(
            s.epochs,
            16,
            0.5,
            LrSchedule::WarmupCosine {
                base_lr: 0.04,
                warmup_epochs: 2,
                total_epochs: s.epochs,
            },
        ),
        augment: true,
    }
}

fn resnet18(data_seed: u64, s: &Sizes) -> TaskSpec {
    TaskSpec {
        name: "ResNet18 CIFAR-10".into(),
        model: ModelKind::MicroResNet18,
        data: DataSource::Gaussian(cifar10_sim(
            data_seed,
            8,
            s.train_per_class,
            s.test_per_class,
        )),
        train: train_config(
            s.epochs,
            16,
            0.9,
            LrSchedule::StepDecay {
                base_lr: 0.05,
                factor: 0.1,
                every: s.epochs.max(2) - 1,
            },
        ),
        augment: true,
    }
}

/// Fig. 6's order-only setting: one batch holds the whole training set and
/// there is no augmentation. A warmup keeps the BN-free model from dying
/// on its few large steps.
fn full_batch(data_seed: u64, s: &Sizes) -> TaskSpec {
    let mut t = small_cnn(false, data_seed, s);
    t.name = "SmallCNN CIFAR-10 full-batch".into();
    t.augment = false;
    t.train = train_config(
        s.full_batch_epochs,
        10 * s.train_per_class,
        0.5,
        LrSchedule::WarmupCosine {
            base_lr: 0.08,
            warmup_epochs: 8,
            total_epochs: s.full_batch_epochs,
        },
    );
    t
}

impl Workload {
    /// Builds and validates a workload from a seed.
    ///
    /// # Errors
    ///
    /// Returns the rendered settings error if a task fails
    /// `ExperimentSettings::validate_for`.
    pub fn build(kind: Kind, seed: u64, scale: Scale) -> Result<Self, String> {
        let mut sm = SplitMix64::new(seed);
        let data_seed = sm.next_u64();
        let settings = ExperimentSettings {
            replicas: REPLICAS,
            base_seed: sm.next_u64(),
            entropy_salt: sm.next_u64(),
            amp_ulps: 512.0,
            epochs_scale: 1.0,
            exec_threads: 1,
            // No retries: a replica that fails once counts as failed.
            retry_budget: 0,
            chaos: None,
            worker_timeout_ms: 120_000,
            heartbeat_every_steps: 4,
        };
        let s = sizes(scale);
        let v100 = Device::v100();
        let cell = |task, device, variant| Cell {
            task,
            device,
            variant,
        };
        let (tasks, cells) = match kind {
            Kind::ImplNoise => (
                vec![small_cnn(false, data_seed, &s), resnet18(data_seed, &s)],
                vec![
                    cell(0, v100, NoiseVariant::AlgoImpl),
                    cell(0, v100, NoiseVariant::Impl),
                    cell(1, v100, NoiseVariant::AlgoImpl),
                    cell(1, v100, NoiseVariant::Impl),
                ],
            ),
            Kind::DetControl => (
                vec![
                    small_cnn(false, data_seed, &s),
                    resnet18(data_seed, &s),
                    full_batch(data_seed, &s),
                ],
                vec![
                    cell(0, v100, NoiseVariant::Algo),
                    cell(0, v100, NoiseVariant::Control),
                    cell(1, v100, NoiseVariant::Algo),
                    cell(1, v100, NoiseVariant::Control),
                    cell(2, Device::tpu_v2(), NoiseVariant::Control),
                ],
            ),
            // Three times the training set: each replica's process spawn
            // and per-epoch fsynced checkpoints are fixed costs, and a
            // longer replica keeps them from dominating the pass.
            Kind::FleetResume => (
                vec![small_cnn(
                    true,
                    data_seed,
                    &Sizes {
                        train_per_class: 3 * s.train_per_class,
                        ..sizes(scale)
                    },
                )],
                vec![
                    cell(0, v100, NoiseVariant::Impl),
                    cell(0, v100, NoiseVariant::Algo),
                ],
            ),
        };
        for t in &tasks {
            settings.validate_for(t).map_err(|e| e.to_string())?;
            if t.train.data_parallel_workers != 1 {
                return Err(format!("{}: replay supports one worker", t.name));
            }
        }
        Ok(Self {
            kind,
            seed,
            scale,
            tasks,
            cells,
            settings,
        })
    }

    /// Whether the timed phase runs through fleet worker processes.
    pub fn uses_fleet(&self) -> bool {
        self.kind == Kind::FleetResume
    }

    /// Lowest acceptable mean test accuracy of a cell: 2.5 times chance,
    /// so a collapsed arm fails the run. Smoke runs train too little to
    /// clear it and use 0.
    pub fn accuracy_floor(&self, cell: &Cell) -> f64 {
        match self.scale {
            Scale::Full => 2.5 / self.tasks[cell.task].data.output_dim() as f64,
            Scale::Smoke => 0.0,
        }
    }

    /// Training samples seen per replica of a cell: epochs × the size of
    /// the prepared training set.
    pub fn samples_per_replica(&self, cell: &Cell, train_len: usize) -> u64 {
        let t = &self.tasks[cell.task];
        u64::from(self.settings.scale_epochs(t.train.epochs)) * train_len as u64
    }

    /// Replicas the timed phase trains per pass.
    pub fn replicas_per_pass(&self) -> u64 {
        self.cells.len() as u64 * u64::from(self.settings.replicas)
    }

    /// The pinned specs, for the result record.
    pub fn specs_json(&self) -> serde_json::Value {
        let cells: Vec<serde_json::Value> = self
            .cells
            .iter()
            .map(|c| {
                serde_json::json!({
                    "task": self.tasks[c.task].name.clone(),
                    "device": c.device.name(),
                    "variant": c.variant.label(),
                })
            })
            .collect();
        serde_json::json!({
            "workload": self.kind.name(),
            "seed": self.seed,
            "tasks": serde_json::to_value(&self.tasks).expect("task specs serialize"),
            "cells": cells,
            "settings": serde_json::to_value(self.settings).expect("settings serialize"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_specs() {
        let a = Workload::build(Kind::DetControl, 7, Scale::Full).expect("valid");
        let b = Workload::build(Kind::DetControl, 7, Scale::Full).expect("valid");
        let c = Workload::build(Kind::DetControl, 8, Scale::Full).expect("valid");
        let s = |w: &Workload| serde_json::to_string(&w.specs_json()).expect("json");
        assert_eq!(s(&a), s(&b));
        assert_ne!(s(&a), s(&c));
    }

    #[test]
    fn full_batch_arm_holds_the_whole_training_set() {
        let w = Workload::build(Kind::DetControl, 1, Scale::Full).expect("valid");
        let tpu = w.cells.last().expect("tpu cell");
        assert_eq!(tpu.device.name(), "TPUv2");
        let t = &w.tasks[tpu.task];
        let DataSource::Gaussian(g) = t.data else {
            panic!("gaussian data")
        };
        assert_eq!(t.train.batch_size, g.classes * g.train_per_class);
    }
}
