//! The simulated kernel profiler (the reproduction's `nvprof`).
//!
//! Executes a workload's *cost model* — no tensors move — accumulating
//! simulated GPU time per kernel name across training steps. Each pass of
//! each convolution runs the fastest *admissible* kernel, as cuDNN's
//! `cudnnFindConvolutionForwardAlgorithm` picks it; in
//! [`ExecutionMode::Deterministic`] admissibility excludes nondeterministic
//! algorithms — the restriction whose cost the paper quantifies.
//! Regenerates the paper's Figure 7 (top-20 kernel cumulative runtime,
//! deterministic vs. default) and Figure 8 (determinism overhead across
//! models, GPUs and filter sizes).

use crate::cost::CostModel;
use crate::device::{Architecture, Device};
use crate::exec::ExecutionMode;
use crate::kernels::{kernel_name, ConvAlgorithm, ConvPass};
use crate::workload::WorkloadOp;
use nstensor::reduce::sum_ordered_f64;
use nstensor::ConvGeometry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregated time of one kernel across a profiled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRecord {
    /// Kernel display name.
    pub name: String,
    /// Number of invocations.
    pub invocations: u64,
    /// Cumulative simulated time, in seconds.
    pub total_time_s: f64,
}

/// The profile of a workload: per-kernel aggregated simulated GPU time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    device: String,
    mode: ExecutionMode,
    steps: u64,
    records: Vec<KernelRecord>,
}

impl KernelProfile {
    /// All kernel records, sorted by descending cumulative time.
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// The `n` most expensive kernels.
    pub fn top_k(&self, n: usize) -> &[KernelRecord] {
        &self.records[..n.min(self.records.len())]
    }

    /// Total simulated GPU time across all kernels, in seconds.
    pub fn total_time_s(&self) -> f64 {
        sum_ordered_f64(self.records.iter().map(|r| r.total_time_s))
    }

    /// Number of distinct kernels scheduled.
    pub fn distinct_kernels(&self) -> usize {
        self.records.len()
    }
}

/// Short architecture tag used in kernel names.
fn arch_tag(arch: Architecture) -> &'static str {
    match arch {
        Architecture::Pascal => "pascal",
        Architecture::Volta => "volta",
        Architecture::Turing => "turing",
        Architecture::TpuV2 => "tpu",
        Architecture::Cpu => "cpu",
    }
}

/// The fastest admissible algorithm for one pass of a convolution, and its
/// simulated time per invocation. A tie keeps the earlier algorithm in
/// [`ConvAlgorithm::ALL`].
///
/// # Panics
///
/// Never panics for valid geometries: a deterministic fallback exists for
/// every pass (guaranteed by the kernel registry tests).
fn fastest(
    model: &CostModel,
    pass: ConvPass,
    geom: &ConvGeometry,
    batch: usize,
    mode: ExecutionMode,
) -> (ConvAlgorithm, f64) {
    ConvAlgorithm::ALL
        .into_iter()
        .filter(|alg| alg.supports(pass, geom))
        .filter(|alg| mode != ExecutionMode::Deterministic || alg.is_deterministic())
        .map(|alg| (alg, model.conv_pass_time(alg, pass, geom, batch)))
        .reduce(|best, next| if next.1 < best.1 { next } else { best })
        .expect("registry guarantees at least one admissible kernel per pass")
}

/// Profiles `steps` training steps of a workload on a device in a mode.
///
/// Every op contributes its forward pass; convs and dense layers also
/// contribute dgrad and wgrad kernels (one training step = fwd + bwd).
///
/// # Example
///
/// ```
/// use hwsim::{profile_workload, Device, ExecutionMode, WorkloadOp};
/// use nstensor::ConvGeometry;
///
/// let ops = [WorkloadOp::Conv {
///     geom: ConvGeometry::new(16, 32, 3, 1, 1, 28, 28),
///     batch: 8,
/// }];
/// let nd = profile_workload(&ops, &Device::p100(), ExecutionMode::Default, 10);
/// let det = profile_workload(&ops, &Device::p100(), ExecutionMode::Deterministic, 10);
/// // Determinism costs simulated GPU time:
/// assert!(det.total_time_s() > nd.total_time_s());
/// ```
pub fn profile_workload(
    ops: &[WorkloadOp],
    device: &Device,
    mode: ExecutionMode,
    steps: u64,
) -> KernelProfile {
    let model = CostModel::for_device(device);
    let arch = arch_tag(device.arch());
    let deterministic = mode == ExecutionMode::Deterministic;
    // BTreeMap, not HashMap: the aggregate is iterated into the sorted
    // record list below, and kernels tied on total time must come out in
    // the same order every run (detlint DL001).
    let mut agg: BTreeMap<String, KernelRecord> = BTreeMap::new();
    let mut add = |name: String, time_s: f64| {
        let e = agg.entry(name.clone()).or_insert(KernelRecord {
            name,
            invocations: 0,
            total_time_s: 0.0,
        });
        e.invocations += steps;
        e.total_time_s += time_s * steps as f64;
    };

    for op in ops {
        match *op {
            WorkloadOp::Conv { geom, batch } => {
                for pass in ConvPass::ALL {
                    let (alg, t) = fastest(&model, pass, &geom, batch, mode);
                    add(kernel_name(arch, alg, pass, &geom), t);
                }
            }
            WorkloadOp::Dense {
                batch,
                in_features,
                out_features,
            } => {
                let t = model.misc_op_time(op, deterministic);
                let det_tag = if deterministic { "seq" } else { "splitk" };
                // fwd, dgrad, wgrad GEMMs.
                add(
                    format!("sgemm_{det_tag}_nn_{in_features}x{out_features}"),
                    t,
                );
                add(
                    format!("sgemm_{det_tag}_nt_{out_features}x{in_features}"),
                    t,
                );
                add(
                    format!("sgemm_{det_tag}_tn_{in_features}x{out_features}_b{batch}"),
                    t,
                );
            }
            WorkloadOp::BatchNorm { .. } => {
                let t = model.misc_op_time(op, deterministic);
                let det_tag = if deterministic { "det" } else { "atomic" };
                add(format!("bn_fw_stats_{det_tag}"), t);
                add(format!("bn_bw_reduce_{det_tag}"), t);
            }
            WorkloadOp::Pool { .. } => {
                let t = model.misc_op_time(op, deterministic);
                add("pooling_fw".to_string(), t);
                add("pooling_bw".to_string(), t);
            }
            WorkloadOp::Activation { .. } => {
                let t = model.misc_op_time(op, deterministic);
                add("relu_fw_bw_fused".to_string(), 2.0 * t);
            }
        }
    }

    let mut records: Vec<KernelRecord> = agg.into_values().collect();
    // Tie-break on name so equal-cost kernels keep a stable order.
    records.sort_by(|a, b| {
        b.total_time_s
            .total_cmp(&a.total_time_s)
            .then_with(|| a.name.cmp(&b.name))
    });
    KernelProfile {
        device: device.name().to_string(),
        mode,
        steps,
        records,
    }
}

#[cfg(test)]
// Tests assert exact float values: bit-identical replay is the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn tiny_workload() -> Vec<WorkloadOp> {
        vec![
            WorkloadOp::Conv {
                geom: ConvGeometry::new(3, 16, 3, 1, 1, 32, 32),
                batch: 8,
            },
            WorkloadOp::BatchNorm {
                elems: 16 * 32 * 32 * 8,
            },
            WorkloadOp::Activation {
                elems: 16 * 32 * 32 * 8,
            },
            WorkloadOp::Conv {
                geom: ConvGeometry::new(16, 32, 3, 1, 1, 16, 16),
                batch: 8,
            },
            WorkloadOp::Dense {
                batch: 8,
                in_features: 32,
                out_features: 10,
            },
        ]
    }

    #[test]
    fn profile_accumulates_over_steps() {
        let ops = tiny_workload();
        let p1 = profile_workload(&ops, &Device::v100(), ExecutionMode::Default, 1);
        let p100 = profile_workload(&ops, &Device::v100(), ExecutionMode::Default, 100);
        assert!((p100.total_time_s() / p1.total_time_s() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_mode_costs_more() {
        let ops = tiny_workload();
        let nd = profile_workload(&ops, &Device::p100(), ExecutionMode::Default, 10);
        let det = profile_workload(&ops, &Device::p100(), ExecutionMode::Deterministic, 10);
        assert!(det.total_time_s() > nd.total_time_s());
    }

    fn geom(k: usize) -> ConvGeometry {
        ConvGeometry::new(32, 64, k, 1, k / 2, 28, 28)
    }

    /// The selected algorithm and time of each pass, in `ConvPass::ALL`
    /// order, for batch 32.
    fn select(k: usize, device: &Device, mode: ExecutionMode) -> [(ConvAlgorithm, f64); 3] {
        let model = CostModel::for_device(device);
        ConvPass::ALL.map(|pass| fastest(&model, pass, &geom(k), 32, mode))
    }

    fn total_time_s(plan: &[(ConvAlgorithm, f64); 3]) -> f64 {
        plan[0].1 + plan[1].1 + plan[2].1
    }

    fn gpus() -> [Device; 3] {
        [Device::p100(), Device::v100(), Device::t4()]
    }

    #[test]
    fn default_mode_picks_winograd_for_3x3() {
        let plan = select(3, &Device::v100(), ExecutionMode::Default);
        assert_eq!(plan[0].0, ConvAlgorithm::WinogradNonfused);
        assert!(plan.iter().any(|(alg, _)| !alg.is_deterministic()));
    }

    #[test]
    fn default_mode_picks_fft_for_large_filters() {
        let plan = select(7, &Device::v100(), ExecutionMode::Default);
        assert_eq!(plan[0].0, ConvAlgorithm::FftTiling);
    }

    #[test]
    fn deterministic_mode_selects_only_deterministic_kernels() {
        for k in [1, 3, 5, 7] {
            for d in gpus() {
                let plan = select(k, &d, ExecutionMode::Deterministic);
                assert!(
                    plan.iter().all(|(alg, _)| alg.is_deterministic()),
                    "k={k} on {}",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn deterministic_mode_is_never_faster() {
        for k in [1, 3, 5, 7] {
            for d in gpus() {
                let nd = select(k, &d, ExecutionMode::Default);
                let det = select(k, &d, ExecutionMode::Deterministic);
                assert!(
                    total_time_s(&det) >= total_time_s(&nd),
                    "k={k} on {}",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn overhead_grows_with_filter_size() {
        for d in gpus() {
            let mut prev = 0.0f64;
            for k in [1, 3, 5, 7] {
                let nd = select(k, &d, ExecutionMode::Default);
                let det = select(k, &d, ExecutionMode::Deterministic);
                let ratio = total_time_s(&det) / total_time_s(&nd);
                assert!(
                    ratio >= prev * 0.999,
                    "{}: ratio not monotone at k={k}: {ratio} < {prev}",
                    d.name()
                );
                prev = ratio;
            }
        }
    }

    #[test]
    fn wgrad_never_selects_transform_algorithms() {
        for k in [3, 5, 7] {
            let plan = select(k, &Device::v100(), ExecutionMode::Default);
            assert_eq!(plan[2].0, ConvAlgorithm::ImplicitGemmAtomic);
        }
    }

    #[test]
    fn kernel_names_carry_arch_tag() {
        let ops = [WorkloadOp::Conv {
            geom: geom(3),
            batch: 32,
        }];
        let p = profile_workload(&ops, &Device::p100(), ExecutionMode::Default, 1);
        assert_eq!(p.distinct_kernels(), 3);
        for r in p.records() {
            assert!(r.name.starts_with("pascal_scudnn_"), "{}", r.name);
        }
    }

    #[test]
    fn deterministic_mode_uses_fewer_distinct_conv_kernels() {
        // With both winograd-eligible and fft-eligible convs, default mode
        // spreads across more algorithms.
        let ops = vec![
            WorkloadOp::Conv {
                geom: ConvGeometry::new(16, 32, 3, 1, 1, 28, 28),
                batch: 8,
            },
            WorkloadOp::Conv {
                geom: ConvGeometry::new(16, 32, 5, 1, 2, 28, 28),
                batch: 8,
            },
            WorkloadOp::Conv {
                geom: ConvGeometry::new(16, 32, 1, 1, 0, 28, 28),
                batch: 8,
            },
        ];
        let nd = profile_workload(&ops, &Device::v100(), ExecutionMode::Default, 1);
        let det = profile_workload(&ops, &Device::v100(), ExecutionMode::Deterministic, 1);
        assert!(det.distinct_kernels() <= nd.distinct_kernels());
        // Deterministic mode is confined to a narrower algorithm menu.
        let schedules = |p: &KernelProfile, alg: ConvAlgorithm| {
            p.records().iter().any(|r| r.name.contains(alg.tag()))
        };
        for alg in [
            ConvAlgorithm::WinogradNonfused,
            ConvAlgorithm::FftTiling,
            ConvAlgorithm::ImplicitGemmAtomic,
        ] {
            assert!(schedules(&nd, alg), "default mode lacks {alg:?}");
            assert!(!schedules(&det, alg), "deterministic mode runs {alg:?}");
        }
    }

    #[test]
    fn records_sorted_descending() {
        let p = profile_workload(&tiny_workload(), &Device::t4(), ExecutionMode::Default, 5);
        let times: Vec<f64> = p.records().iter().map(|r| r.total_time_s).collect();
        for w in times.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(p.top_k(3).len() <= 3);
    }

    #[test]
    fn empty_workload_is_empty_profile() {
        let p = profile_workload(&[], &Device::v100(), ExecutionMode::Default, 10);
        assert_eq!(p.total_time_s(), 0.0);
        assert_eq!(p.distinct_kernels(), 0);
    }
}
