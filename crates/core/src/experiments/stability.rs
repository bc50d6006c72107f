//! The stability experiments: Table 2 and Figures 1, 2, 4, 5, 9, 10.

use super::Plan;
use crate::report::{render_table, StabilityReport};
use crate::runner::{Cell, PreparedTask};
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

/// A stability grid plan: every `tasks × devices × variants` cell of
/// `replicas` replicas, each reported (a cell with failed replicas is
/// flagged, not an error).
pub fn grid(
    tasks: &[TaskSpec],
    devices: &[Device],
    variants: &[NoiseVariant],
    replicas: u32,
) -> Plan<StabilityGrid> {
    let tasks = tasks.iter().map(PreparedTask::prepare);
    let cells = Cell::grid(tasks, devices, variants, replicas);
    Plan::reports(cells).map(|reports| StabilityGrid { reports })
}

/// The paper's Table-2 grid: the three CIFAR tasks on P100/RTX5000/V100
/// plus ResNet-50/ImageNet-sim on V100, under the three measured variants
/// (as [`grid`]). It also feeds Figures 1, 4, 9 and 10.
pub fn table2(settings: &ExperimentSettings) -> Plan<StabilityGrid> {
    let tasks = TaskSpec::table2_tasks();
    let mut cells = Cell::grid(
        tasks.iter().map(PreparedTask::prepare),
        &Device::stability_gpus(),
        &NoiseVariant::MEASURED,
        settings.replicas,
    );
    // ImageNet-sim row (V100 only; the paper trains 5 replicas).
    cells.extend(Cell::grid(
        [PreparedTask::prepare(&TaskSpec::resnet50_imagenet())],
        &[Device::v100()],
        &NoiseVariant::MEASURED,
        settings.replicas.min(5),
    ));
    Plan::reports(cells).map(|reports| StabilityGrid { reports })
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

/// Figure 2: the batch-norm ablation of the small CNN on V100 (as
/// [`grid`]). The CI chaos and fleet jobs run it under pinned faults and
/// compare it with the in-process golden run.
pub fn fig2(settings: &ExperimentSettings) -> Plan<StabilityGrid> {
    grid(
        &[
            TaskSpec::small_cnn_cifar10(),
            TaskSpec::small_cnn_bn_cifar10(),
        ],
        &[Device::v100()],
        &NoiseVariant::MEASURED,
        settings.replicas,
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

/// Renders the Figure-4 table from its series.
pub fn render_fig4(series: &[Fig4Series]) -> String {
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
    render_table(
        "Figure 4: per-class vs overall accuracy variance (V100)",
        &[
            "Task",
            "Variant",
            "stddev(acc)",
            "max class stddev",
            "ratio",
        ],
        &rows,
    )
}

/// Figure 5: ResNet-18/CIFAR-100-sim across accelerator types, including
/// Tensor Cores and the TPU (as [`grid`]).
pub fn fig5(settings: &ExperimentSettings) -> Plan<StabilityGrid> {
    grid(
        &[TaskSpec::resnet18_cifar100()],
        &[
            Device::p100(),
            Device::v100(),
            Device::rtx5000(),
            Device::rtx5000_tensor_cores(),
            Device::tpu_v2(),
        ],
        &NoiseVariant::MEASURED,
        settings.replicas,
    )
}

/// Renders the Figure-5 table from its grid.
pub fn render_fig5(grid: &StabilityGrid) -> String {
    let rows: Vec<Vec<String>> = grid
        .reports
        .iter()
        .map(|r| {
            vec![
                r.device.clone(),
                r.variant.label().to_string(),
                format!("{:.3}", 100.0 * r.std_accuracy),
                format!("{:.4}", r.churn),
                format!("{:.4}", r.l2),
            ]
        })
        .collect();
    render_table(
        "Figure 5: ResNet18/CIFAR-100-sim across accelerators",
        &["Accelerator", "Variant", "stddev(acc) %", "churn", "l2"],
        &rows,
    )
}

#[cfg(test)]
// Tests assert exact float values: bit-identical replay is the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
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
        let grid = grid(
            &[tiny_task("A"), tiny_task("B")],
            &[Device::cpu()],
            &[NoiseVariant::Algo, NoiseVariant::Control],
            2,
        )
        .run(&tiny_settings())
        .expect("grid runs");
        assert_eq!(grid.reports.len(), 4);
        assert!(grid.cell("A", "CPU", NoiseVariant::Algo).is_some());
        assert!(grid.cell("A", "CPU", NoiseVariant::Impl).is_none());
        assert_eq!(grid.for_device("CPU").len(), 4);
    }

    #[test]
    fn control_cells_have_zero_variance() {
        let grid = grid(
            &[tiny_task("A")],
            &[Device::v100()],
            &[NoiseVariant::Control],
            2,
        )
        .run(&tiny_settings())
        .expect("grid runs");
        let r = &grid.reports[0];
        assert_eq!(r.std_accuracy, 0.0);
        assert_eq!(r.churn, 0.0);
        assert_eq!(r.l2, 0.0);
    }

    #[test]
    fn renderers_produce_tables() {
        let grid = grid(
            &[tiny_task("A")],
            &[Device::v100()],
            &[NoiseVariant::Algo],
            2,
        )
        .run(&tiny_settings())
        .expect("grid runs");
        let t2 = render_table2(&grid);
        assert!(t2.contains("Table 2"));
        assert!(t2.contains("V100"));
        let panel = render_fig_panel(&grid, "V100", "Figure 1");
        assert!(panel.contains("stddev(acc)"));
        assert!(render_fig5(&grid).contains("Figure 5"));
        let fig4 = fig4_from_reports(&grid);
        assert_eq!(fig4.len(), 1);
        assert!(fig4[0].max_class_std >= 0.0);
        assert!(render_fig4(&fig4).contains("ratio"));
    }
}
