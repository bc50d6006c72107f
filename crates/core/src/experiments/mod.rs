//! One entry point per table and figure of the paper.
//!
//! Every training experiment is a tasks × devices × variants grid: it
//! takes an optional [`crate::resume::CheckpointStore`] and optional
//! [`crate::fleet::FleetOptions`] and runs all of its cells through one
//! [`crate::runner::run_grid`] call: one replica queue and one
//! supervisor, in process or in worker processes, durable when there is
//! a store.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 2 (accuracy ± std per hardware × task × variant) | [`stability::run_table2_grid`] + [`stability::render_table2`] |
//! | Figure 1 (stddev/churn/L2 by noise source, V100) | [`stability::render_fig_panel`] |
//! | Figure 2 (batch-norm ablation) | [`stability::fig2`] |
//! | Table 3 (CelebA subgroup counts) | [`fairness::table3`] |
//! | Figure 3 / Table 5 (subgroup variance) | [`fairness::fig3_table5`] |
//! | Figure 4 (per-class vs overall variance) | [`stability::fig4_from_reports`] |
//! | Figure 5 (hardware comparison incl. TC, TPU) | [`stability::fig5`] |
//! | Figure 6 (data-order noise vs batch size) | [`ordering::fig6`] |
//! | Figure 7 (top-20 kernel time, det vs default) | [`cost::fig7`] |
//! | Figure 8 left (overhead across 10 networks) | [`cost::fig8a`] |
//! | Figure 8 right (overhead vs filter size) | [`cost::fig8b`] |
//! | Figures 9/10 (Fig. 1 on P100 / RTX5000) | [`stability::render_fig_panel`] |
//! | Extension: distributed data parallelism (§6) | [`extensions::data_parallel_sweep`] |
//! | Extension: parallelism → noise ablation (§3.3) | [`extensions::lanes_sweep`] |

use crate::fleet::FleetOptions;
use crate::report::{stability_report, StabilityReport};
use crate::resume::CheckpointStore;
use crate::runner::{grid_cells, run_grid, PreparedTask, VariantRuns};
use crate::settings::ExperimentSettings;
use crate::variant::NoiseVariant;
use hwsim::Device;

pub mod cost;
pub mod extensions;
pub mod fairness;
pub mod ordering;
pub mod stability;

/// Why a training experiment produced no result: an error from
/// [`crate::runner::run_grid`], a [`crate::runner::PredsKindError`], a
/// [`fairness::UnknownSubgroupError`], or a cell whose replicas failed.
pub type ExperimentError = Box<dyn std::error::Error + Send + Sync>;

/// `runs` when every replica delivered, else an error naming the failed
/// ones: a pairwise metric over a partial cell would silently compare
/// fewer replicas than asked for.
fn require_complete(runs: VariantRuns) -> Result<VariantRuns, ExperimentError> {
    match runs.failed_replicas() {
        failed if failed.is_empty() => Ok(runs),
        failed => Err(format!("{} cell: replicas {failed:?} failed", runs.variant).into()),
    }
}

/// Runs a grid through [`run_grid`] and reports every cell, in grid
/// order; a cell with a failed replica is an error, as in
/// [`require_complete`].
fn complete_reports(
    tasks: &[PreparedTask],
    devices: &[Device],
    variants: &[NoiseVariant],
    settings: &ExperimentSettings,
    store: Option<&CheckpointStore>,
    fleet: Option<&FleetOptions>,
) -> Result<Vec<StabilityReport>, ExperimentError> {
    let runs = run_grid(tasks, devices, variants, settings, store, fleet)?;
    grid_cells(tasks, devices, variants)
        .zip(runs)
        .map(|((task, device, variant), runs)| {
            let runs = require_complete(runs)?;
            Ok(stability_report(task, device, variant, &runs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_experiment_reports_a_dead_cell_as_noise_free() {
        // Persistent faults and no retries: every replica of every cell
        // fails, which must be an error naming them, not churn 0.
        let settings = ExperimentSettings {
            replicas: 2,
            epochs_scale: 0.01,
            retry_budget: 0,
            chaos: Some(hwsim::ChaosConfig {
                persistent: true,
                ..hwsim::ChaosConfig::standard(3)
            }),
            ..ExperimentSettings::default()
        };
        let outcomes = [
            (
                "data_parallel_sweep",
                extensions::data_parallel_sweep(&settings, None, None).map(drop),
            ),
            (
                "lanes_sweep",
                extensions::lanes_sweep(&settings, None, None).map(drop),
            ),
            (
                "architecture_instability",
                extensions::architecture_instability(&settings, None, None).map(drop),
            ),
            (
                "fig3_table5",
                fairness::fig3_table5(&settings, None, None).map(drop),
            ),
        ];
        for (name, outcome) in outcomes {
            let err = outcome.expect_err(name).to_string();
            assert!(
                err.contains("cell: replicas [0, 1] failed"),
                "{name}: {err}"
            );
        }
    }
}
