//! The stability experiments: Table 2 and Figures 1, 2, 4, 5, 9, 10.

use crate::fleet::FleetOptions;
use crate::report::{render_table, stability_report, StabilityReport};
use crate::resume::CheckpointStore;
use crate::runner::{grid_cells, run_grid, PreparedTask};
use crate::settings::ExperimentSettings;
use crate::task::TaskSpec;
use crate::variant::NoiseVariant;
use hwsim::Device;
use serde::{Deserialize, Serialize};

/// The result of a stability grid: one report per
/// (task, device, variant) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StabilityGrid {
    /// All cell reports.
    pub reports: Vec<StabilityReport>,
}

impl StabilityGrid {
    /// The reports for one device (a Figure-1/9/10 panel).
    pub fn for_device(&self, device: &str) -> Vec<&StabilityReport> {
        self.reports.iter().filter(|r| r.device == device).collect()
    }

    /// The report for one exact cell.
    pub fn cell(
        &self,
        task: &str,
        device: &str,
        variant: NoiseVariant,
    ) -> Option<&StabilityReport> {
        self.reports
            .iter()
            .find(|r| r.task == task && r.device == device && r.variant == variant)
    }
}

/// Runs every (task × device × variant) combination as one
/// [`run_grid`] with durable per-cell progress: completed replicas are
/// loaded from `store`, in-flight replicas checkpoint every epoch, and an
/// interrupted grid resumes from wherever it stopped — mid-grid and
/// mid-training — bit-identically. With `fleet`, every replica runs in a
/// supervised worker process.
///
/// # Errors
///
/// Store/spawn IO failures or an invalid configuration; training faults
/// and worker deaths degrade into flagged reports.
pub fn run_stability_grid(
    tasks: &[TaskSpec],
    devices: &[Device],
    variants: &[NoiseVariant],
    settings: &ExperimentSettings,
    store: &CheckpointStore,
    fleet: Option<&FleetOptions>,
) -> std::io::Result<StabilityGrid> {
    let tasks: Vec<_> = tasks.iter().map(PreparedTask::prepare).collect();
    let runs = run_grid(&tasks, devices, variants, settings, Some(store), fleet)?;
    let reports = grid_cells(&tasks, devices, variants)
        .zip(&runs)
        .map(|((task, device, variant), runs)| stability_report(task, device, variant, runs))
        .collect();
    Ok(StabilityGrid { reports })
}

/// The paper's Table-2 grid: the three CIFAR tasks on P100/RTX5000/V100
/// plus ResNet-50/ImageNet-sim on V100, under the three measured variants
/// (see [`run_stability_grid`] for `store` and `fleet`).
///
/// # Errors
///
/// As [`run_stability_grid`].
pub fn run_table2_grid(
    settings: &ExperimentSettings,
    store: &CheckpointStore,
    fleet: Option<&FleetOptions>,
) -> std::io::Result<StabilityGrid> {
    let mut grid = run_stability_grid(
        &TaskSpec::table2_tasks(),
        &Device::stability_gpus(),
        &NoiseVariant::MEASURED,
        settings,
        store,
        fleet,
    )?;
    // ImageNet-sim row (V100 only; the paper trains 5 replicas).
    let imagenet = ExperimentSettings {
        replicas: settings.replicas.min(5),
        ..*settings
    };
    let extra = run_stability_grid(
        &[TaskSpec::resnet50_imagenet()],
        &[Device::v100()],
        &NoiseVariant::MEASURED,
        &imagenet,
        store,
        fleet,
    )?;
    grid.reports.extend(extra.reports);
    Ok(grid)
}

/// Renders the Table-2 text table from a grid.
pub fn render_table2(grid: &StabilityGrid) -> String {
    let mut rows = Vec::new();
    for r in &grid.reports {
        rows.push(vec![
            r.device.clone(),
            r.task.clone(),
            r.variant.label().to_string(),
            format!(
                "{:.2}% ± {:.2}",
                100.0 * r.mean_accuracy,
                100.0 * r.std_accuracy
            ),
        ]);
    }
    render_table(
        "Table 2: test accuracy ± stddev per hardware × task × noise variant",
        &["Hardware", "Task", "Variant", "Test accuracy"],
        &rows,
    )
}

/// Extracts one device's Figure-1-style panel (Fig. 1 = V100,
/// Fig. 9 = P100, Fig. 10 = RTX5000) as rendered rows.
pub fn render_fig_panel(grid: &StabilityGrid, device: &str, figure: &str) -> String {
    let mut rows = Vec::new();
    for r in grid.for_device(device) {
        rows.push(vec![
            r.task.clone(),
            r.variant.label().to_string(),
            format!("{:.3}", 100.0 * r.std_accuracy),
            format!("{:.4}", r.churn),
            format!("{:.4}", r.l2),
        ]);
    }
    render_table(
        &format!("{figure}: stability by noise source on {device}"),
        &["Task", "Variant", "stddev(acc) %", "churn", "l2"],
        &rows,
    )
}

/// Figure 2: the batch-norm ablation of the small CNN on V100 (see
/// [`run_stability_grid`] for `store` and `fleet`). The CI fleet job runs
/// this under pinned hang+abort chaos and asserts bit-identity with the
/// in-process golden run.
///
/// # Errors
///
/// As [`run_stability_grid`].
pub fn fig2(
    settings: &ExperimentSettings,
    store: &CheckpointStore,
    fleet: Option<&FleetOptions>,
) -> std::io::Result<StabilityGrid> {
    run_stability_grid(
        &[
            TaskSpec::small_cnn_cifar10(),
            TaskSpec::small_cnn_bn_cifar10(),
        ],
        &[Device::v100()],
        &NoiseVariant::MEASURED,
        settings,
        store,
        fleet,
    )
}

/// A Figure-4 series: per-class variance amplification for one task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Series {
    /// Task name.
    pub task: String,
    /// Variant.
    pub variant: NoiseVariant,
    /// Top-line accuracy stddev.
    pub overall_std: f64,
    /// Largest per-class accuracy stddev.
    pub max_class_std: f64,
    /// Amplification ratio (the paper's 4× / 23×).
    pub ratio: f64,
}

/// Derives Figure 4 (per-class vs overall variance) from already-run
/// V100 grid reports.
pub fn fig4_from_reports(grid: &StabilityGrid) -> Vec<Fig4Series> {
    grid.reports
        .iter()
        .filter(|r| r.device == "V100" && !r.per_class_std.is_empty())
        .map(|r| {
            let max_class = r.per_class_std.iter().cloned().fold(0.0f64, f64::max);
            Fig4Series {
                task: r.task.clone(),
                variant: r.variant,
                overall_std: r.std_accuracy,
                max_class_std: max_class,
                ratio: r.max_per_class_ratio,
            }
        })
        .collect()
}

/// Figure 5: ResNet-18/CIFAR-100-sim across accelerator types, including
/// Tensor Cores and the TPU (see [`run_stability_grid`] for `store` and
/// `fleet`).
///
/// # Errors
///
/// As [`run_stability_grid`].
pub fn fig5(
    settings: &ExperimentSettings,
    store: &CheckpointStore,
    fleet: Option<&FleetOptions>,
) -> std::io::Result<StabilityGrid> {
    run_stability_grid(
        &[TaskSpec::resnet18_cifar100()],
        &[
            Device::p100(),
            Device::v100(),
            Device::rtx5000(),
            Device::rtx5000_tensor_cores(),
            Device::tpu_v2(),
        ],
        &NoiseVariant::MEASURED,
        settings,
        store,
        fleet,
    )
}

#[cfg(test)]
// Tests assert exact float values: bit-identical replay is the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::resume::tests::Scratch;
    use crate::task::DataSource;
    use nsdata::GaussianSpec;

    fn tiny_task(name: &str) -> TaskSpec {
        let mut t = TaskSpec::small_cnn_cifar10();
        t.name = name.into();
        t.data = DataSource::Gaussian(GaussianSpec {
            classes: 3,
            train_per_class: 8,
            test_per_class: 6,
            ..GaussianSpec::cifar10_sim()
        });
        t.train.epochs = 1;
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
    fn grid_covers_all_cells() {
        let scratch = Scratch::new("grid-cells");
        let grid = run_stability_grid(
            &[tiny_task("A"), tiny_task("B")],
            &[Device::cpu()],
            &[NoiseVariant::Algo, NoiseVariant::Control],
            &tiny_settings(),
            &scratch.0,
            None,
        )
        .expect("grid runs");
        assert_eq!(grid.reports.len(), 4);
        assert!(grid.cell("A", "CPU", NoiseVariant::Algo).is_some());
        assert!(grid.cell("A", "CPU", NoiseVariant::Impl).is_none());
        assert_eq!(grid.for_device("CPU").len(), 4);
    }

    #[test]
    fn control_cells_have_zero_variance() {
        let scratch = Scratch::new("grid-control");
        let grid = run_stability_grid(
            &[tiny_task("A")],
            &[Device::v100()],
            &[NoiseVariant::Control],
            &tiny_settings(),
            &scratch.0,
            None,
        )
        .expect("grid runs");
        let r = &grid.reports[0];
        assert_eq!(r.std_accuracy, 0.0);
        assert_eq!(r.churn, 0.0);
        assert_eq!(r.l2, 0.0);
    }

    #[test]
    fn renderers_produce_tables() {
        let scratch = Scratch::new("grid-render");
        let grid = run_stability_grid(
            &[tiny_task("A")],
            &[Device::v100()],
            &[NoiseVariant::Algo],
            &tiny_settings(),
            &scratch.0,
            None,
        )
        .expect("grid runs");
        let t2 = render_table2(&grid);
        assert!(t2.contains("Table 2"));
        assert!(t2.contains("V100"));
        let panel = render_fig_panel(&grid, "V100", "Figure 1");
        assert!(panel.contains("stddev(acc)"));
        let fig4 = fig4_from_reports(&grid);
        assert_eq!(fig4.len(), 1);
        assert!(fig4[0].max_class_std >= 0.0);
    }
}
