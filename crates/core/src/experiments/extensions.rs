//! Extension experiments beyond the paper's published figures.
//!
//! The paper's §3.3 attributes V100's higher implementation noise to its
//! larger CUDA-core count, and its Table 1 lists four algorithmic noise
//! sources that it only ever varies together. These two experiments probe
//! both directly in the simulator:
//!
//! - [`lanes_sweep`] — IMPL-only noise as a synthetic GPU's core count
//!   (and therefore its independently-ordered accumulation-lane count)
//!   grows, isolating the parallelism → noise mechanism from all other
//!   architectural differences;
//! - [`algo_source_decomposition`] — ALGO noise with one source free at a
//!   time, on the deterministic TPU.

use super::Plan;
use crate::report::{degenerate_tag, render_table};
use crate::runner::{Cell, PreparedTask};
use crate::settings::ExperimentSettings;
use crate::task::{ModelKind, TaskSpec};
use crate::variant::{AlgoSource, NoiseVariant};
use hwsim::{Architecture, Device};
use serde::{Deserialize, Serialize};

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
    /// Replicas that learned nothing (see
    /// [`StabilityReport::degenerate_replicas`](crate::report::StabilityReport::degenerate_replicas)).
    pub degenerate_replicas: Vec<u32>,
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
                degenerate_replicas: r.degenerate_replicas,
            })
            .collect()
    })
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
                format!("{:.4}{}", p.l2, degenerate_tag(&p.degenerate_replicas)),
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
    /// Replicas that learned nothing (see
    /// [`StabilityReport::degenerate_replicas`](crate::report::StabilityReport::degenerate_replicas)).
    pub degenerate_replicas: Vec<u32>,
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
                degenerate_replicas: r.degenerate_replicas,
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
                format!("{:.4}{}", p.l2, degenerate_tag(&p.degenerate_replicas)),
            ]
        })
        .collect();
    render_table(
        "Extension: per-source decomposition of ALGO noise (TPU, dropout small CNN)",
        &["Varied source", "churn", "l2"],
        &rows,
    )
}
