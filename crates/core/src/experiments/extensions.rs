//! Extension experiments beyond the paper's published figures.
//!
//! The paper's §6 names distributed training as the key open question
//! ("an important area of future work involves understanding how
//! distributed training impacts model stability"), and its §3.3 attributes
//! V100's higher implementation noise to its larger CUDA-core count.
//! These two experiments probe both claims directly in the simulator:
//!
//! - [`data_parallel_sweep`] — IMPL-only noise as the batch is sharded
//!   across 1..=8 simulated workers whose gradients are all-reduced in
//!   nondeterministic arrival order;
//! - [`lanes_sweep`] — IMPL-only noise as a synthetic GPU's core count
//!   (and therefore its independently-ordered accumulation-lane count)
//!   grows, isolating the parallelism → noise mechanism from all other
//!   architectural differences.

use super::Plan;
use crate::report::render_table;
use crate::runner::{Cell, PreparedTask};
use crate::settings::ExperimentSettings;
use crate::task::{ModelKind, TaskSpec};
use crate::variant::{AlgoSource, NoiseVariant};
use hwsim::{Architecture, Device};
use serde::{Deserialize, Serialize};

/// One point of the data-parallel extension sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataParallelPoint {
    /// Simulated worker count.
    pub workers: usize,
    /// IMPL-only pairwise churn.
    pub churn: f64,
    /// IMPL-only pairwise normalized weight L2.
    pub l2: f64,
    /// Mean test accuracy (sanity signal).
    pub mean_accuracy: f64,
}

/// Sweeps simulated data-parallel worker counts under IMPL-only noise:
/// one grid with a task per count. A cell with a failed replica is an
/// error.
pub fn data_parallel_sweep(settings: &ExperimentSettings) -> Plan<Vec<DataParallelPoint>> {
    let prepared = PreparedTask::prepare(&TaskSpec::resnet18_cifar10());
    let worker_counts = [1usize, 2, 4, 8];
    let tasks = worker_counts.map(|workers| {
        let mut cell = prepared.clone();
        cell.spec.train.data_parallel_workers = workers;
        cell
    });
    let (device, variant) = (Device::v100(), NoiseVariant::Impl);
    let cells = Cell::grid(tasks, &[device], &[variant], settings.replicas);
    Plan::strict_reports(cells).map(move |reports| {
        worker_counts
            .into_iter()
            .zip(reports)
            .map(|(workers, r)| DataParallelPoint {
                workers,
                churn: r.churn,
                l2: r.l2,
                mean_accuracy: r.mean_accuracy,
            })
            .collect()
    })
}

/// One point of the accumulation-lane (parallelism) sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LanesPoint {
    /// Synthetic CUDA-core count.
    pub cuda_cores: u32,
    /// Effective accumulation lanes ([`Device::lanes`]).
    pub lanes: usize,
    /// IMPL-only pairwise churn.
    pub churn: f64,
    /// IMPL-only pairwise normalized weight L2.
    pub l2: f64,
}

/// Sweeps a synthetic GPU's core count under IMPL-only noise (everything
/// else — throughput model, architecture family — held fixed): one grid
/// with a device per core count. The [`Device::custom`] devices cross the
/// fleet wire like the presets. A cell with a failed replica is an error.
pub fn lanes_sweep(settings: &ExperimentSettings) -> Plan<Vec<LanesPoint>> {
    let prepared = PreparedTask::prepare(&TaskSpec::small_cnn_cifar10());
    let devices: Vec<_> = [640u32, 1280, 2560, 5120]
        .into_iter()
        .map(|cores| Device::custom("SWEEP-GPU", Architecture::Volta, cores, false, false, 14.9))
        .collect();
    let variant = NoiseVariant::Impl;
    let cells = Cell::grid([prepared], &devices, &[variant], settings.replicas);
    Plan::strict_reports(cells).map(move |reports| {
        devices
            .iter()
            .zip(reports)
            .map(|(device, r)| LanesPoint {
                cuda_cores: device.cuda_cores(),
                lanes: device.lanes(),
                churn: r.churn,
                l2: r.l2,
            })
            .collect()
    })
}

/// Renders the data-parallel sweep.
pub fn render_data_parallel(points: &[DataParallelPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                format!("{:.4}", p.churn),
                format!("{:.4}", p.l2),
                format!("{:.2}%", 100.0 * p.mean_accuracy),
            ]
        })
        .collect();
    render_table(
        "Extension: IMPL noise vs simulated data-parallel workers (V100, ResNet18/CIFAR-10-sim)",
        &["Workers", "churn", "l2", "mean acc"],
        &rows,
    )
}

/// Renders the lanes sweep.
pub fn render_lanes(points: &[LanesPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.cuda_cores.to_string(),
                p.lanes.to_string(),
                format!("{:.4}", p.churn),
                format!("{:.4}", p.l2),
            ]
        })
        .collect();
    render_table(
        "Extension: IMPL noise vs accumulation-lane count (synthetic GPU sweep)",
        &["CUDA cores", "lanes", "churn", "l2"],
        &rows,
    )
}

/// One arm of the per-source ALGO decomposition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlgoSourcePoint {
    /// The isolated source ("init", "shuffle", "augment", "dropout", "all").
    pub source: String,
    /// Pairwise churn across replicas varying only in this source.
    pub churn: f64,
    /// Pairwise normalized weight L2.
    pub l2: f64,
}

/// Decomposes ALGO noise into its four sources (paper Table 1) in one
/// grid: an `ALGO:<source>` cell per source — initialization, data shuffling,
/// augmentation, dropout — with every other stream pinned, plus the
/// plain `ALGO` cell as "all". The replicas run on the deterministic TPU
/// so no scheduler noise mixes in. (Shuffle-order arms still pick up the
/// data-order accumulation effect of Fig. 6; that is intrinsic to varying
/// the order.) Extends the framework in the direction of Summers &
/// Dinneen (2021), which the paper cites as the per-source study. A cell
/// with a failed replica is an error; no partial decomposition is read.
pub fn algo_source_decomposition(settings: &ExperimentSettings) -> Plan<Vec<AlgoSourcePoint>> {
    let mut task = TaskSpec::small_cnn_cifar10();
    task.model = ModelKind::SmallCnnDropout { rate: 0.2 };
    let prepared = PreparedTask::prepare(&task);
    let arms = [
        ("init", NoiseVariant::AlgoOnly(AlgoSource::Init)),
        ("shuffle", NoiseVariant::AlgoOnly(AlgoSource::Shuffle)),
        ("augment", NoiseVariant::AlgoOnly(AlgoSource::Augment)),
        ("dropout", NoiseVariant::AlgoOnly(AlgoSource::Dropout)),
        ("all", NoiseVariant::Algo),
    ];
    let variants = arms.map(|(_, variant)| variant);
    let device = Device::tpu_v2();
    let cells = Cell::grid([prepared], &[device], &variants, settings.replicas);
    Plan::strict_reports(cells).map(move |reports| {
        arms.into_iter()
            .zip(reports)
            .map(|((source, _), r)| AlgoSourcePoint {
                source: source.to_string(),
                churn: r.churn,
                l2: r.l2,
            })
            .collect()
    })
}

/// Renders the ALGO-source decomposition.
pub fn render_algo_sources(points: &[AlgoSourcePoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.source.clone(),
                format!("{:.4}", p.churn),
                format!("{:.4}", p.l2),
            ]
        })
        .collect();
    render_table(
        "Extension: per-source decomposition of ALGO noise (TPU, dropout small CNN)",
        &["Varied source", "churn", "l2"],
        &rows,
    )
}

/// One point of the architecture-instability comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArchInstabilityPoint {
    /// Model name.
    pub model: String,
    /// ALGO+IMPL pairwise churn.
    pub churn: f64,
    /// ALGO+IMPL accuracy stddev.
    pub std_accuracy: f64,
    /// Mean accuracy.
    pub mean_accuracy: f64,
}

/// Compares architecture families' instability under full (ALGO+IMPL)
/// noise on the same dataset — extends the paper's Fig. 1/2 observation
/// (model design moderates noise) to LeNet-5, which Pham et al. (ASE'20)
/// found to be the most variance-prone architecture across DL libraries.
/// One grid with a task per model. A cell with a failed replica is an
/// error.
pub fn architecture_instability(settings: &ExperimentSettings) -> Plan<Vec<ArchInstabilityPoint>> {
    let prepared = PreparedTask::prepare(&TaskSpec::small_cnn_cifar10());
    let tasks = [
        ("LeNet5", ModelKind::LeNet5),
        ("SmallCNN", ModelKind::SmallCnn { with_bn: false }),
        ("SmallCNN+BN", ModelKind::SmallCnn { with_bn: true }),
        ("MicroResNet18", ModelKind::MicroResNet18),
    ]
    .map(|(name, model)| {
        let mut cell = prepared.clone();
        cell.spec.name = name.to_string();
        cell.spec.model = model;
        cell
    });
    let (device, variant) = (Device::v100(), NoiseVariant::AlgoImpl);
    let cells = Cell::grid(tasks, &[device], &[variant], settings.replicas);
    Plan::strict_reports(cells).map(|reports| {
        reports
            .into_iter()
            .map(|r| ArchInstabilityPoint {
                model: r.task,
                churn: r.churn,
                std_accuracy: r.std_accuracy,
                mean_accuracy: r.mean_accuracy,
            })
            .collect()
    })
}

/// Renders the architecture-instability comparison.
pub fn render_architecture_instability(points: &[ArchInstabilityPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.model.clone(),
                format!("{:.4}", p.churn),
                format!("{:.3}", 100.0 * p.std_accuracy),
                format!("{:.2}%", 100.0 * p.mean_accuracy),
            ]
        })
        .collect();
    render_table(
        "Extension: architecture instability under ALGO+IMPL (same dataset, V100)",
        &["Model", "churn", "stddev(acc) %", "mean acc"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_variant;
    use crate::task::DataSource;
    use nsdata::GaussianSpec;

    #[test]
    fn data_parallel_training_still_learns_and_injects_noise() {
        // Direct check of the mechanism at tiny scale: sharded gradients
        // combined through a nondeterministic reducer diverge replicas.
        let mut task = TaskSpec::small_cnn_cifar10();
        task.data = DataSource::Gaussian(GaussianSpec {
            classes: 3,
            train_per_class: 16,
            test_per_class: 8,
            hw: 8,
            ..GaussianSpec::cifar10_sim()
        });
        task.train.epochs = 2;
        task.train.data_parallel_workers = 4;
        task.augment = false;
        let prepared = PreparedTask::prepare(&task);
        let settings = ExperimentSettings {
            replicas: 2,
            ..ExperimentSettings::default()
        };
        let runs = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &settings);
        assert_ne!(runs.results[0].weights, runs.results[1].weights);
        // And the control stays exact even when sharded.
        let control = run_variant(&prepared, &Device::v100(), NoiseVariant::Control, &settings);
        assert_eq!(control.results[0].weights, control.results[1].weights);
    }

    #[test]
    fn sharded_and_unsharded_control_agree_on_learning() {
        // Sharding changes accumulation structure but must not change what
        // is learned in any material way (deterministic device).
        let mut task = TaskSpec::small_cnn_cifar10();
        task.data = DataSource::Gaussian(GaussianSpec {
            classes: 3,
            train_per_class: 16,
            test_per_class: 8,
            hw: 8,
            ..GaussianSpec::cifar10_sim()
        });
        task.train.epochs = 2;
        task.augment = false;
        let settings = ExperimentSettings {
            replicas: 1,
            ..ExperimentSettings::default()
        };
        let single = {
            let prepared = PreparedTask::prepare(&task);
            crate::runner::run_replica(
                &prepared,
                &Device::tpu_v2(),
                NoiseVariant::Control,
                &settings,
                0,
            )
            .expect("single-device control replica")
        };
        task.train.data_parallel_workers = 4;
        let sharded = {
            let prepared = PreparedTask::prepare(&task);
            crate::runner::run_replica(
                &prepared,
                &Device::tpu_v2(),
                NoiseVariant::Control,
                &settings,
                0,
            )
            .expect("sharded control replica")
        };
        // Not bitwise equal (different reduction structure), but the
        // learned functions must be close.
        let l2 = nsmetrics::l2_normalized(&single.weights, &sharded.weights);
        assert!(
            l2 < 0.5,
            "sharded training diverged from single-device: {l2}"
        );
    }
}
