//! The analytic kernel-time model.
//!
//! Simulated GPU time for an op is `flops / (peak_throughput × utilization)`
//! where utilization depends on (algorithm, pass, architecture, geometry).
//! The *structure* encodes the real mechanisms behind cuDNN's determinism
//! overhead:
//!
//! - Winograd/FFT transforms accelerate forward/dgrad for 3×3 and large
//!   filters; deterministic mode forfeits them, so the penalty grows with
//!   filter size.
//! - Deterministic weight-gradient kernels cannot use atomic split-K
//!   accumulation: they serialize the reduction over the output-pixel
//!   dimension, so layers whose spatial extent is large relative to their
//!   channel count (early layers, small CNNs on large inputs) pay the most,
//!   and older architectures (Pascal) with weaker serialized-reduction
//!   machinery pay more than Volta/Turing.
//!
//! The per-architecture constants are *calibrated* so the medium-CNN
//! filter-size sweep and 10-model sweep land in the ranges reported by the
//! paper (Fig. 8); see `DESIGN.md` §5 and the calibration tests in
//! `tests/tests/cost_calibration.rs`.

use crate::device::{Architecture, Device};

/// Fraction of a memory-bound op's traffic that survives framework-level
/// kernel fusion (XLA/grappler fuse BN, activations and small elementwise
/// ops into the producing convolution's epilogue).
const FUSION_DISCOUNT: f64 = 0.15;

use crate::kernels::{ConvAlgorithm, ConvPass};
use crate::workload::WorkloadOp;
use nstensor::ConvGeometry;

/// Per-architecture cost constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchCosts {
    /// Utilization of deterministic implicit-GEMM relative to the atomic
    /// baseline (< 1: mild constant penalty).
    pub det_gemm_util: f32,
    /// Multiplicative utilization decay of deterministic forward/dgrad
    /// kernels per unit of filter size above 1 (tiling degrades).
    pub det_fwd_k_decay: f32,
    /// Weight of the spatial-skew serialization penalty in deterministic
    /// wgrad kernels.
    pub det_wgrad_skew: f32,
    /// Utilization of the direct deterministic fallback kernel.
    pub direct_det_util: f32,
    /// Winograd speedup factor for 3×3 stride-1 forward/dgrad.
    pub winograd_speedup: f32,
    /// FFT speedup: `winograd_speedup + fft_slope × (k − 3)` for k ≥ 4
    /// (transform-method gains keep growing with filter size).
    pub fft_slope: f32,
    /// Memory bandwidth in GB/s (memory-bound ops).
    pub mem_bw_gbps: f32,
    /// Deterministic-mode penalty on batch-norm statistics kernels.
    pub bn_det_penalty: f32,
}

/// The calibrated cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    costs: ArchCosts,
    eff_tflops: f32,
}

impl CostModel {
    /// Builds the cost model for a device.
    pub fn for_device(device: &Device) -> Self {
        Self {
            costs: Self::arch_costs(device.arch()),
            eff_tflops: device.eff_tflops(),
        }
    }

    /// Calibrated constants per architecture (see module docs).
    pub fn arch_costs(arch: Architecture) -> ArchCosts {
        match arch {
            Architecture::Pascal => ArchCosts {
                det_gemm_util: 0.93,
                det_fwd_k_decay: 0.055,
                det_wgrad_skew: 4.5,
                direct_det_util: 0.015,
                winograd_speedup: 2.1,
                fft_slope: 0.30,
                mem_bw_gbps: 732.0,
                bn_det_penalty: 1.25,
            },
            Architecture::Volta => ArchCosts {
                det_gemm_util: 0.98,
                det_fwd_k_decay: 0.030,
                det_wgrad_skew: 0.90,
                direct_det_util: 0.11,
                winograd_speedup: 1.75,
                fft_slope: 0.030,
                mem_bw_gbps: 900.0,
                bn_det_penalty: 1.10,
            },
            Architecture::Turing => ArchCosts {
                det_gemm_util: 0.985,
                det_fwd_k_decay: 0.025,
                det_wgrad_skew: 0.60,
                direct_det_util: 0.17,
                winograd_speedup: 1.50,
                fft_slope: 0.030,
                mem_bw_gbps: 320.0,
                bn_det_penalty: 1.08,
            },
            // TPU and CPU are deterministic by design: no penalty structure.
            Architecture::TpuV2 | Architecture::Cpu => ArchCosts {
                det_gemm_util: 1.0,
                det_fwd_k_decay: 0.0,
                det_wgrad_skew: 0.0,
                direct_det_util: 1.0,
                winograd_speedup: 1.0,
                fft_slope: 0.0,
                mem_bw_gbps: 600.0,
                bn_det_penalty: 1.0,
            },
        }
    }

    /// Spatial-skew factor of a geometry: how much larger the output pixel
    /// count is than the channel parallelism available to a deterministic
    /// wgrad kernel. Early layers (huge spatial, few channels) score high;
    /// very thin channel products additionally starve the kernel's tile
    /// occupancy (the `1024 / channel_par` factor). Depthwise convolutions
    /// (modeled as `in_c == 1`) reduce per-channel independently and incur
    /// no serialization skew.
    pub fn spatial_skew(geom: &ConvGeometry) -> f32 {
        // Depthwise convolutions reduce per-channel independently, and RGB
        // stems use dedicated small-channel kernels with deterministic
        // layouts: neither incurs serialization skew.
        if geom.in_c <= 4 {
            return 0.0;
        }
        let pixels = geom.out_pixels() as f32;
        let channel_par = (geom.in_c * geom.out_c) as f32;
        if channel_par >= 1024.0 {
            // Enough filter-level parallelism for a fixed-order tree
            // reduction at full occupancy: no serialization skew.
            return 0.0;
        }
        (pixels / channel_par).sqrt() * (1024.0 / channel_par)
    }

    /// Simulated time (seconds) of one convolution pass under `alg`.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm does not support the pass/geometry — callers
    /// must check [`ConvAlgorithm::supports`] first (the profiler's kernel
    /// selection does).
    pub fn conv_pass_time(
        &self,
        alg: ConvAlgorithm,
        pass: ConvPass,
        geom: &ConvGeometry,
        batch: usize,
    ) -> f64 {
        assert!(
            alg.supports(pass, geom),
            "{alg:?} does not support {pass:?} for k={}",
            geom.k
        );
        let flops = geom.flops(batch) as f64;
        let peak = self.eff_tflops as f64 * 1e12;
        let c = self.costs;
        let util = match alg {
            ConvAlgorithm::WinogradNonfused => c.winograd_speedup,
            ConvAlgorithm::FftTiling => c.winograd_speedup + c.fft_slope * (geom.k as f32 - 3.0),
            ConvAlgorithm::ImplicitGemmAtomic => 1.0,
            ConvAlgorithm::ImplicitGemmDet => match pass {
                ConvPass::Forward | ConvPass::InputGrad => {
                    c.det_gemm_util * (1.0 - c.det_fwd_k_decay * (geom.k as f32 - 1.0)).max(0.2)
                }
                ConvPass::WeightGrad => {
                    c.det_gemm_util / (1.0 + c.det_wgrad_skew * Self::spatial_skew(geom))
                }
            },
            ConvAlgorithm::DirectDeterministic => c.direct_det_util,
        };
        flops / (peak * util as f64)
    }

    /// Simulated time of a non-convolution workload op, in seconds.
    ///
    /// `deterministic` applies the (small) deterministic-mode penalties for
    /// ops that have them (GEMM-backed dense layers, batch-norm statistics).
    pub fn misc_op_time(&self, op: &WorkloadOp, deterministic: bool) -> f64 {
        let c = self.costs;
        match *op {
            WorkloadOp::Conv { .. } => {
                unreachable!("conv ops are priced through conv_pass_time")
            }
            WorkloadOp::Dense {
                batch,
                in_features,
                out_features,
            } => {
                let flops = 2.0 * (batch * in_features * out_features) as f64;
                let util = if deterministic {
                    c.det_gemm_util as f64
                } else {
                    1.0
                };
                flops / (self.eff_tflops as f64 * 1e12 * util)
            }
            WorkloadOp::BatchNorm { elems } => {
                // Two passes over the data (stats + normalize), 4 B/elem,
                // discounted by the framework's op fusion (BN/activation
                // kernels fuse into the producing convolution).
                let bytes = FUSION_DISCOUNT * 2.0 * 4.0 * elems as f64;
                let t = bytes / (c.mem_bw_gbps as f64 * 1e9);
                if deterministic {
                    t * c.bn_det_penalty as f64
                } else {
                    t
                }
            }
            WorkloadOp::Pool { elems } | WorkloadOp::Activation { elems } => {
                let bytes = FUSION_DISCOUNT * 2.0 * 4.0 * elems as f64;
                bytes / (c.mem_bw_gbps as f64 * 1e9)
            }
        }
    }
}

#[cfg(test)]
// Tests assert exact float values: bit-identical replay is the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn geom(k: usize) -> ConvGeometry {
        ConvGeometry::new(16, 32, k, 1, k / 2, 28, 28)
    }

    #[test]
    fn winograd_beats_atomic_for_3x3() {
        let m = CostModel::for_device(&Device::v100());
        let g = geom(3);
        let w = m.conv_pass_time(ConvAlgorithm::WinogradNonfused, ConvPass::Forward, &g, 32);
        let a = m.conv_pass_time(ConvAlgorithm::ImplicitGemmAtomic, ConvPass::Forward, &g, 32);
        assert!(w < a);
    }

    #[test]
    fn fft_advantage_grows_with_filter_size() {
        let m = CostModel::for_device(&Device::v100());
        let g5 = geom(5);
        let g7 = geom(7);
        let r5 = m.conv_pass_time(ConvAlgorithm::FftTiling, ConvPass::Forward, &g5, 32)
            / m.conv_pass_time(
                ConvAlgorithm::ImplicitGemmAtomic,
                ConvPass::Forward,
                &g5,
                32,
            );
        let r7 = m.conv_pass_time(ConvAlgorithm::FftTiling, ConvPass::Forward, &g7, 32)
            / m.conv_pass_time(
                ConvAlgorithm::ImplicitGemmAtomic,
                ConvPass::Forward,
                &g7,
                32,
            );
        assert!(r7 < r5, "fft relative time should drop with k");
    }

    #[test]
    fn deterministic_wgrad_slower_than_atomic() {
        for d in [Device::p100(), Device::v100(), Device::t4()] {
            let m = CostModel::for_device(&d);
            let g = geom(3);
            let det =
                m.conv_pass_time(ConvAlgorithm::ImplicitGemmDet, ConvPass::WeightGrad, &g, 32);
            let nd = m.conv_pass_time(
                ConvAlgorithm::ImplicitGemmAtomic,
                ConvPass::WeightGrad,
                &g,
                32,
            );
            assert!(det > nd, "{}", d.name());
        }
    }

    #[test]
    fn pascal_pays_more_than_turing_for_determinism() {
        let g = geom(3);
        let ratio = |d: Device| {
            let m = CostModel::for_device(&d);
            m.conv_pass_time(ConvAlgorithm::ImplicitGemmDet, ConvPass::WeightGrad, &g, 32)
                / m.conv_pass_time(
                    ConvAlgorithm::ImplicitGemmAtomic,
                    ConvPass::WeightGrad,
                    &g,
                    32,
                )
        };
        assert!(ratio(Device::p100()) > ratio(Device::v100()));
        assert!(ratio(Device::v100()) > ratio(Device::t4()));
    }

    #[test]
    fn spatial_skew_highest_for_early_layers() {
        // Early layer: 16→32 channels at 112×112 (thin channel product,
        // huge spatial extent).
        let early = ConvGeometry::new(16, 32, 3, 1, 1, 112, 112);
        // Late layer: 256→512 channels at 7×7 (ample parallelism: no skew).
        let late = ConvGeometry::new(256, 512, 3, 1, 1, 7, 7);
        assert!(CostModel::spatial_skew(&early) > 5.0);
        assert_eq!(CostModel::spatial_skew(&late), 0.0);
        // Depthwise convolutions and RGB stems carry no skew.
        assert_eq!(
            CostModel::spatial_skew(&ConvGeometry::new(1, 64, 3, 1, 1, 112, 112)),
            0.0
        );
        assert_eq!(
            CostModel::spatial_skew(&ConvGeometry::new(3, 64, 7, 2, 3, 224, 224)),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn pricing_unsupported_algorithm_panics() {
        let m = CostModel::for_device(&Device::v100());
        let g = geom(5);
        m.conv_pass_time(ConvAlgorithm::WinogradNonfused, ConvPass::Forward, &g, 32);
    }

    #[test]
    fn misc_ops_have_positive_time() {
        let m = CostModel::for_device(&Device::t4());
        for op in [
            WorkloadOp::Dense {
                batch: 8,
                in_features: 128,
                out_features: 10,
            },
            WorkloadOp::BatchNorm { elems: 1000 },
            WorkloadOp::Pool { elems: 1000 },
            WorkloadOp::Activation { elems: 1000 },
        ] {
            assert!(m.misc_op_time(&op, false) > 0.0);
            assert!(m.misc_op_time(&op, true) >= m.misc_op_time(&op, false));
        }
    }

    #[test]
    fn tpu_has_no_determinism_penalty() {
        let c = CostModel::arch_costs(Architecture::TpuV2);
        assert_eq!(c.det_gemm_util, 1.0);
        assert_eq!(c.det_wgrad_skew, 0.0);
    }
}
