//! Benchmark task presets: model × dataset × training recipe.

use crate::settings::ExperimentSettings;
use detrand::Philox;
use nnet::optim::SgdConfig;
use nnet::schedule::LrSchedule;
use nnet::trainer::TrainConfig;
use nnet::{zoo, Network};
use nsdata::{CelebaSpec, GaussianSpec};
use serde::{Deserialize, Serialize};

/// Which trainable model a task uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ModelKind {
    /// The paper's 3-layer small CNN; `with_bn` selects the Fig. 2 arm.
    SmallCnn {
        /// Whether batch-norm follows each convolution.
        with_bn: bool,
    },
    /// Small CNN with a dropout layer (stochastic-layer noise source).
    SmallCnnDropout {
        /// Drop probability.
        rate: f32,
    },
    /// Scaled ResNet-18.
    MicroResNet18,
    /// Scaled ResNet-50.
    MicroResNet50,
}

/// Which dataset a task trains on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DataSource {
    /// A Gaussian-cluster classification dataset.
    Gaussian(GaussianSpec),
    /// The CelebA attribute-prediction stand-in.
    Celeba(CelebaSpec),
}

impl DataSource {
    /// Image side length.
    pub fn input_hw(&self) -> usize {
        match self {
            DataSource::Gaussian(g) => g.hw,
            DataSource::Celeba(c) => c.hw,
        }
    }

    /// Image channels.
    pub fn channels(&self) -> usize {
        match self {
            DataSource::Gaussian(g) => g.channels,
            DataSource::Celeba(c) => c.channels,
        }
    }

    /// Output width of the classifier head (classes, or attribute count).
    pub fn output_dim(&self) -> usize {
        match self {
            DataSource::Gaussian(g) => g.classes,
            DataSource::Celeba(_) => 1,
        }
    }
}

/// A fully specified benchmark task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Display name (paper nomenclature, e.g. `ResNet18 CIFAR-10`).
    pub name: String,
    /// The model.
    pub model: ModelKind,
    /// The dataset.
    pub data: DataSource,
    /// The training recipe.
    pub train: TrainConfig,
    /// Whether stochastic shift/flip augmentation is applied (the paper
    /// augments everything except CelebA).
    pub augment: bool,
}

impl TaskSpec {
    /// SmallCNN on the CIFAR-10 stand-in (paper Table 2, rows 1/4/7).
    pub fn small_cnn_cifar10() -> Self {
        Self {
            name: "SmallCNN CIFAR-10".into(),
            model: ModelKind::SmallCnn { with_bn: false },
            data: DataSource::Gaussian(GaussianSpec {
                class_sep: 0.34,
                train_per_class: 40,
                ..GaussianSpec::cifar10_sim()
            }),
            train: TrainConfig {
                epochs: 20,
                batch_size: 32,
                // Warmup keeps the BN-free small CNN from diverging on
                // unlucky initializations (its instability is the point of
                // the experiment, but collapsed replicas are not).
                schedule: LrSchedule::WarmupCosine {
                    base_lr: 0.03,
                    warmup_epochs: 3,
                    total_epochs: 20,
                },
                sgd: SgdConfig {
                    momentum: 0.9,
                    weight_decay: 1e-4,
                },
                ..TrainConfig::default()
            },
            augment: true,
        }
    }

    /// SmallCNN with batch-norm (the Fig. 2 ablation arm).
    pub fn small_cnn_bn_cifar10() -> Self {
        let mut t = Self::small_cnn_cifar10();
        t.name = "SmallCNN+BN CIFAR-10".into();
        t.model = ModelKind::SmallCnn { with_bn: true };
        t
    }

    /// Micro-ResNet-18 on the CIFAR-10 stand-in (8×8 canvas).
    pub fn resnet18_cifar10() -> Self {
        let data = GaussianSpec {
            hw: 8,
            train_per_class: 48,
            class_sep: 0.85,
            ..GaussianSpec::cifar10_sim()
        };
        Self {
            name: "ResNet18 CIFAR-10".into(),
            model: ModelKind::MicroResNet18,
            data: DataSource::Gaussian(data),
            train: TrainConfig {
                epochs: 10,
                batch_size: 32,
                schedule: LrSchedule::StepDecay {
                    base_lr: 0.05,
                    factor: 0.1,
                    every: 8,
                },
                sgd: SgdConfig {
                    momentum: 0.9,
                    weight_decay: 1e-4,
                },
                ..TrainConfig::default()
            },
            augment: true,
        }
    }

    /// Micro-ResNet-18 on the CIFAR-100 stand-in.
    pub fn resnet18_cifar100() -> Self {
        let data = GaussianSpec {
            hw: 8,
            train_per_class: 8,
            test_per_class: 8,
            class_sep: 1.2,
            super_sep: 0.5,
            ..GaussianSpec::cifar100_sim()
        };
        let mut t = Self::resnet18_cifar10();
        t.name = "ResNet18 CIFAR-100".into();
        t.data = DataSource::Gaussian(data);
        t.train.epochs = 8;
        t
    }

    /// Micro-ResNet-50 on the ImageNet stand-in (warmup + cosine recipe).
    pub fn resnet50_imagenet() -> Self {
        let data = GaussianSpec {
            hw: 8,
            train_per_class: 16,
            class_sep: 1.0,
            ..GaussianSpec::imagenet_sim()
        };
        Self {
            name: "ResNet50 ImageNet".into(),
            model: ModelKind::MicroResNet50,
            data: DataSource::Gaussian(data),
            train: TrainConfig {
                epochs: 8,
                batch_size: 32,
                schedule: LrSchedule::WarmupCosine {
                    base_lr: 0.08,
                    warmup_epochs: 1,
                    total_epochs: 8,
                },
                sgd: SgdConfig {
                    momentum: 0.9,
                    weight_decay: 1e-4,
                },
                ..TrainConfig::default()
            },
            augment: true,
        }
    }

    /// ResNet-style attribute predictor on the CelebA stand-in (no
    /// augmentation, per the paper's Appendix B).
    pub fn celeba() -> Self {
        Self {
            name: "ResNet18 CelebA".into(),
            model: ModelKind::MicroResNet18,
            data: DataSource::Celeba(CelebaSpec::default()),
            train: TrainConfig {
                epochs: 6,
                batch_size: 32,
                schedule: LrSchedule::StepDecay {
                    base_lr: 0.05,
                    factor: 0.1,
                    every: 5,
                },
                sgd: SgdConfig {
                    momentum: 0.9,
                    weight_decay: 1e-4,
                },
                ..TrainConfig::default()
            },
            augment: false,
        }
    }

    /// The three non-ImageNet tasks of Table 2 / Figures 1, 9, 10.
    pub fn table2_tasks() -> Vec<TaskSpec> {
        vec![
            Self::small_cnn_cifar10(),
            Self::resnet18_cifar10(),
            Self::resnet18_cifar100(),
        ]
    }

    /// Builds the task's model with the given algorithmic root.
    pub fn build_model(&self, root: &Philox) -> Network {
        let hw = self.data.input_hw();
        let c = self.data.channels();
        let out = self.data.output_dim();
        match self.model {
            ModelKind::SmallCnn { with_bn } => zoo::small_cnn(hw, c, out, with_bn, root),
            ModelKind::SmallCnnDropout { rate } => zoo::small_cnn_dropout(hw, c, out, rate, root),
            ModelKind::MicroResNet18 => zoo::micro_resnet18(hw, c, out, root),
            ModelKind::MicroResNet50 => zoo::micro_resnet50(hw, c, out, root),
        }
    }

    /// The training config with the settings' epoch scaling applied.
    ///
    /// The run's `E` epochs become `E' = scale_epochs(E)`, and each
    /// epoch-valued schedule field (`StepDecay::every`,
    /// `WarmupCosine::{warmup_epochs, total_epochs}`) is scaled by `E'/E`,
    /// rounded down, with a floor of 1 for a field that is at least 1.
    /// Rounding down keeps a decay boundary that falls inside the run
    /// inside the scaled run, and a cosine that ends with the run ends with
    /// the scaled run. At scale 1 the config is returned unchanged.
    pub fn train_config(&self, settings: &ExperimentSettings) -> TrainConfig {
        let mut cfg = self.train;
        let (from, to) = (cfg.epochs.max(1), settings.scale_epochs(cfg.epochs));
        let scale = |field: &mut u32| {
            if *field >= 1 {
                let scaled = u64::from(*field) * u64::from(to) / u64::from(from);
                *field = u32::try_from(scaled).unwrap_or(u32::MAX).max(1);
            }
        };
        match &mut cfg.schedule {
            LrSchedule::Constant { .. } => {}
            LrSchedule::StepDecay { every, .. } => scale(every),
            LrSchedule::WarmupCosine {
                warmup_epochs,
                total_epochs,
                ..
            } => {
                scale(warmup_epochs);
                scale(total_epochs);
            }
        }
        cfg.epochs = to;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_models() {
        let root = Philox::from_seed(1);
        for task in [
            TaskSpec::small_cnn_cifar10(),
            TaskSpec::small_cnn_bn_cifar10(),
            TaskSpec::resnet18_cifar10(),
            TaskSpec::resnet18_cifar100(),
            TaskSpec::resnet50_imagenet(),
            TaskSpec::celeba(),
        ] {
            let net = task.build_model(&root);
            assert!(net.param_count() > 0, "{}", task.name);
        }
    }

    #[test]
    fn celeba_head_is_single_output() {
        assert_eq!(TaskSpec::celeba().data.output_dim(), 1);
        assert_eq!(TaskSpec::resnet18_cifar100().data.output_dim(), 100);
    }

    #[test]
    fn epoch_scaling_applies() {
        let task = TaskSpec::small_cnn_cifar10();
        let settings = ExperimentSettings {
            epochs_scale: 0.5,
            ..ExperimentSettings::default()
        };
        assert_eq!(task.train_config(&settings).epochs, 10);
    }

    /// The five presets with their own recipe (SmallCNN+BN shares
    /// SmallCNN's) keep their schedule's shape at every epoch scale.
    #[test]
    #[allow(clippy::float_cmp)]
    fn schedules_scale_with_the_epoch_budget() {
        let presets = [
            TaskSpec::small_cnn_cifar10(),
            TaskSpec::resnet18_cifar10(),
            TaskSpec::resnet18_cifar100(),
            TaskSpec::resnet50_imagenet(),
            TaskSpec::celeba(),
        ];
        let at = |scale: f32| ExperimentSettings {
            epochs_scale: scale,
            ..ExperimentSettings::default()
        };
        for task in &presets {
            let full = task.train_config(&at(1.0));
            assert_eq!(full, task.train, "{}", task.name);
            for scale in [0.5, 1.0, 2.0] {
                let cfg = task.train_config(&at(scale));
                let last = |c: &TrainConfig| c.schedule.lr_at(c.epochs - 1);
                match cfg.schedule {
                    // A decay boundary inside the full run stays inside the
                    // scaled one (CelebA at 0.5: 3 epochs, boundary 5 of 6
                    // lands on epoch 2, where rounding to nearest gives 3).
                    LrSchedule::StepDecay { .. } => {
                        assert_eq!(last(&cfg), last(&full), "{} at {scale}", task.name);
                    }
                    LrSchedule::WarmupCosine {
                        warmup_epochs,
                        total_epochs,
                        ..
                    } => {
                        assert_eq!(total_epochs, cfg.epochs, "{} at {scale}", task.name);
                        assert!(warmup_epochs >= 1, "{} at {scale}", task.name);
                    }
                    LrSchedule::Constant { .. } => panic!("{} has no schedule", task.name),
                }
            }
        }
    }

    #[test]
    fn table2_tasks_have_paper_names() {
        let names: Vec<String> = TaskSpec::table2_tasks()
            .iter()
            .map(|t| t.name.clone())
            .collect();
        assert_eq!(
            names,
            vec![
                "SmallCNN CIFAR-10",
                "ResNet18 CIFAR-10",
                "ResNet18 CIFAR-100"
            ]
        );
    }
}
