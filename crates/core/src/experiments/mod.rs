//! One entry point per table and figure of the paper.
//!
//! Every training experiment takes an optional
//! [`crate::resume::CheckpointStore`] and optional
//! [`crate::fleet::FleetOptions`] and runs each of its cells through
//! [`crate::runner::run_cell`]: one replica supervisor, in process or in
//! worker processes, durable when there is a store.
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

use crate::runner::VariantRuns;

pub mod cost;
pub mod extensions;
pub mod fairness;
pub mod ordering;
pub mod stability;

/// Why a training experiment produced no result: an error from
/// [`crate::runner::run_cell`], a [`crate::runner::PredsKindError`], a
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
