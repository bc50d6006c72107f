//! Figure 6: data-order-only nondeterminism vs batch size, on the TPU.
//!
//! Every algorithmic factor (initialization, augmentation — disabled —,
//! dropout — none) is pinned, execution is the TPU's deterministic
//! fixed-order mode, and the *only* thing that varies between replicas is
//! the shuffle order of the training data. Mathematically, at full batch
//! the gradient is the same set of per-sample terms every time — yet
//! replicas still diverge, because a different visit order changes the
//! floating-point accumulation order of the gradient reductions. This is
//! the paper's "latent implementation noise" result.

use super::Plan;
use crate::report::{degenerate_tag, render_table};
use crate::runner::{Cell, PreparedTask};
use crate::settings::ExperimentSettings;
use crate::task::TaskSpec;
use crate::variant::{AlgoSource, NoiseVariant};
use hwsim::Device;
use serde::{Deserialize, Serialize};

/// One Figure-6 data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OrderingPoint {
    /// Training batch size (`train_len` = single full batch).
    pub batch_size: usize,
    /// Mean pairwise churn across order-only replicas.
    pub churn: f64,
    /// Mean pairwise normalized-L2 weight distance.
    pub l2: f64,
    /// Mean accuracy (sanity signal).
    pub mean_accuracy: f64,
    /// Replicas that learned nothing (see
    /// [`StabilityReport::degenerate_replicas`](crate::report::StabilityReport::degenerate_replicas)).
    pub degenerate_replicas: Vec<u32>,
}

/// The ordering experiment: one grid of `ALGO:shuffle` cells on the TPU,
/// one task per batch size with its batch size and epoch budget set in
/// `task.train`.
///
/// Uses the small CNN on the CIFAR-10 stand-in with a longer epoch budget
/// than the stability experiments: order-only noise starts at 1-ulp scale
/// (no amplification applies on the deterministic TPU datapath) and needs
/// time to grow through the training dynamics. A cell with a failed
/// replica is an error; no partial series is read.
pub fn fig6(settings: &ExperimentSettings) -> Plan<Vec<OrderingPoint>> {
    let mut task = TaskSpec::small_cnn_cifar10();
    task.augment = false; // per-sample augmentation would covary with order
    task.train.schedule = nnet::schedule::LrSchedule::Constant { lr: 0.05 };
    let prepared = PreparedTask::prepare(&task);
    let train_len = prepared.train_set().len();
    let batch_sizes = [16usize, 64, train_len];
    let tasks = batch_sizes.map(|batch_size| {
        let mut cell = prepared.clone();
        cell.spec.train.batch_size = batch_size;
        // Optimizer *steps*, not epochs, drive both learning and the
        // amplification of order noise; give larger batches more
        // epochs so every arm sees a comparable step budget (the paper
        // trains 200 epochs on the full dataset for every batch size).
        cell.spec.train.epochs = match batch_size {
            b if b >= train_len => 300,
            b if b >= 64 => 60,
            _ => 30,
        };
        cell
    });
    // The one varying factor: the shuffle stream's seed.
    let (device, variant) = (
        Device::tpu_v2(),
        NoiseVariant::AlgoOnly(AlgoSource::Shuffle),
    );
    let cells = Cell::grid(tasks, &[device], &[variant], settings.replicas);
    Plan::strict_reports(cells).map(move |reports| {
        batch_sizes
            .into_iter()
            .zip(reports)
            .map(|(batch_size, r)| OrderingPoint {
                batch_size,
                churn: r.churn,
                l2: r.l2,
                mean_accuracy: r.mean_accuracy,
                degenerate_replicas: r.degenerate_replicas,
            })
            .collect()
    })
}

/// Renders the Figure-6 series.
pub fn render_fig6(points: &[OrderingPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.batch_size.to_string(),
                format!("{:.4}", p.churn),
                format!("{:.5}", p.l2),
                format!(
                    "{:.2}%{}",
                    100.0 * p.mean_accuracy,
                    degenerate_tag(&p.degenerate_replicas)
                ),
            ]
        })
        .collect();
    render_table(
        "Figure 6: data-order-only nondeterminism on TPU (fixed seed, deterministic hardware)",
        &["Batch size", "churn", "l2", "mean acc"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_points_cover_full_batch() {
        // Smoke-scale run: the full experiment is exercised by the repro
        // harness; here we only verify plumbing and the full-batch case.
        let settings = ExperimentSettings {
            replicas: 2,
            epochs_scale: 0.01, // 1-3 epochs per arm
            ..ExperimentSettings::default()
        };
        let points = fig6(&settings)
            .run(&settings)
            .expect("smoke-scale fig6 trains");
        assert_eq!(points.len(), 3);
        let full = points.last().unwrap();
        // Full batch = one step per epoch; batch size equals train length.
        assert_eq!(full.batch_size, 400);
        for p in &points {
            assert!(p.churn >= 0.0 && p.l2 >= 0.0);
        }
    }
}
