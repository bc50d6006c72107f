//! NoiseScope: the experimental framework of *"Randomness in Neural Network
//! Training: Characterizing the Impact of Tooling"* (Zhuang, Zhang, Song,
//! Hooker — MLSys 2022), reproduced end-to-end on a simulated accelerator
//! substrate.
//!
//! The framework isolates two families of training-time noise:
//!
//! - **Algorithmic noise (ALGO)** — random initialization, data shuffling,
//!   stochastic augmentation, stochastic layers. Controlled by fixing the
//!   run's algorithmic seed ([`detrand`]).
//! - **Implementation noise (IMPL)** — floating-point accumulation-order
//!   nondeterminism introduced by parallel hardware and nondeterministic
//!   vendor kernels. Controlled by deterministic execution
//!   ([`hwsim::ExecutionMode::Deterministic`]), at a cost this framework
//!   also measures.
//!
//! The crate's public surface is organized as:
//!
//! - [`variant::NoiseVariant`] — the paper's four experimental arms
//!   (`ALGO+IMPL`, `ALGO`, `IMPL`, `Control`), plus single-stream `ALGO`
//!   arms;
//! - [`task::TaskSpec`] — model × dataset × training-recipe presets
//!   mirroring the paper's benchmarks;
//! - [`runner`] — trains replica fleets and collects weights/predictions,
//!   through the one grid driver [`runner::run_grid`];
//! - [`report`] — stability reports (accuracy stddev, churn, normalized
//!   L2) and text-table rendering;
//! - [`experiments`] — one entry point per table/figure of the paper
//!   (Table 2, Table 3/5, Figures 1-10); a training experiment is a plan
//!   of the cells it trains and a read step that turns their runs into a
//!   serializable result structure.
//!
//! # Example
//!
//! ```no_run
//! use noisescope::prelude::*;
//!
//! // Measure IMPL-only noise of the small CNN on a simulated V100.
//! let settings = ExperimentSettings { replicas: 3, ..ExperimentSettings::default() };
//! let task = TaskSpec::small_cnn_cifar10();
//! let prepared = PreparedTask::prepare(&task);
//! let runs = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &settings);
//! let report = stability_report(&prepared, &Device::v100(), NoiseVariant::Impl, &runs);
//! println!("{}", report.summary_line());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
pub mod experiments;
pub mod fleet;
pub mod paper;
pub mod report;
pub mod resume;
pub mod runner;
pub mod settings;
pub mod task;
pub mod variant;

/// Convenience re-exports for experiment drivers.
pub mod prelude {
    pub use crate::fleet::{run_variant_fleet, worker_main, FleetOptions};
    pub use crate::report::{render_table, save_json, stability_report, StabilityReport};
    pub use crate::resume::CheckpointStore;
    pub use crate::runner::{
        run_cell, run_grid, run_replica, run_replica_with, run_variant, Cell, Preds,
        PredsKindError, PreparedData, PreparedTask, ReplicaResult, ReplicaStatus, VariantRuns,
    };
    pub use crate::settings::ExperimentSettings;
    pub use crate::settings::SettingsError;
    pub use crate::task::{DataSource, ModelKind, TaskSpec};
    pub use crate::variant::{AlgoSource, NoiseVariant};
    pub use hwsim::{Device, ExecutionContext, ExecutionMode, OpClass};
    pub use nnet::trainer::FitOptions;
}
