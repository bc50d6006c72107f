//! The convolution kernel registry.
//!
//! Mirrors cuDNN's algorithm menu: for each pass of a convolution there are
//! several implementations, the fastest of which trade determinism for
//! speed (atomic split-K accumulation, Winograd/FFT transforms with
//! nondeterministic reduction stages).

use nstensor::ConvGeometry;

/// A convolution pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvPass {
    /// Forward convolution.
    Forward,
    /// Gradient w.r.t. the input (dgrad).
    InputGrad,
    /// Gradient w.r.t. the weights (wgrad) — the cross-batch reduction.
    WeightGrad,
}

impl ConvPass {
    /// All passes of one training step.
    pub const ALL: [ConvPass; 3] = [ConvPass::Forward, ConvPass::InputGrad, ConvPass::WeightGrad];

    /// Short name used in kernel identifiers.
    pub fn tag(self) -> &'static str {
        match self {
            ConvPass::Forward => "fprop",
            ConvPass::InputGrad => "dgrad",
            ConvPass::WeightGrad => "wgrad",
        }
    }
}

/// A convolution algorithm, with cuDNN-like availability and determinism
/// properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvAlgorithm {
    /// Winograd transform: fastest for 3×3 stride-1 filters; its reduction
    /// stage uses atomics → nondeterministic.
    WinogradNonfused,
    /// FFT tiling: fastest for large filters; nondeterministic.
    FftTiling,
    /// Implicit GEMM with atomic split-K accumulation: fast general-purpose
    /// baseline; nondeterministic.
    ImplicitGemmAtomic,
    /// Implicit GEMM with fixed-order (serialized split-K) accumulation:
    /// deterministic, moderate penalty.
    ImplicitGemmDet,
    /// Direct convolution with fully serialized reductions: deterministic
    /// fallback, heavy penalty. Always available.
    DirectDeterministic,
}

impl ConvAlgorithm {
    /// All algorithms, in registry order.
    pub const ALL: [ConvAlgorithm; 5] = [
        ConvAlgorithm::WinogradNonfused,
        ConvAlgorithm::FftTiling,
        ConvAlgorithm::ImplicitGemmAtomic,
        ConvAlgorithm::ImplicitGemmDet,
        ConvAlgorithm::DirectDeterministic,
    ];

    /// Whether the algorithm produces bitwise-identical results across runs.
    pub fn is_deterministic(self) -> bool {
        matches!(
            self,
            ConvAlgorithm::ImplicitGemmDet | ConvAlgorithm::DirectDeterministic
        )
    }

    /// Whether the algorithm supports the given pass and geometry
    /// (availability constraints mirror cuDNN's).
    pub fn supports(self, pass: ConvPass, geom: &ConvGeometry) -> bool {
        match self {
            // Winograd: 3×3, stride 1, dense (non-depthwise), fwd/dgrad only.
            ConvAlgorithm::WinogradNonfused => {
                geom.k == 3 && geom.stride == 1 && geom.in_c > 1 && pass != ConvPass::WeightGrad
            }
            // FFT: pays off for dense filters ≥ 4, stride 1, fwd/dgrad only.
            ConvAlgorithm::FftTiling => {
                geom.k >= 4 && geom.stride == 1 && geom.in_c > 1 && pass != ConvPass::WeightGrad
            }
            ConvAlgorithm::ImplicitGemmAtomic
            | ConvAlgorithm::ImplicitGemmDet
            | ConvAlgorithm::DirectDeterministic => true,
        }
    }

    /// Short name used in kernel identifiers.
    pub fn tag(self) -> &'static str {
        match self {
            ConvAlgorithm::WinogradNonfused => "winograd_nonfused",
            ConvAlgorithm::FftTiling => "fft_tiling",
            ConvAlgorithm::ImplicitGemmAtomic => "implicit_gemm_splitk_atomic",
            ConvAlgorithm::ImplicitGemmDet => "implicit_gemm_seq",
            ConvAlgorithm::DirectDeterministic => "direct_serial",
        }
    }
}

/// Builds a cuDNN-style kernel name.
pub fn kernel_name(
    arch_tag: &str,
    alg: ConvAlgorithm,
    pass: ConvPass,
    geom: &ConvGeometry,
) -> String {
    // Tile size bucketed by output channels, like cuDNN's *_128x64 suffixes.
    let tile = match geom.out_c {
        0..=32 => "64x32",
        33..=96 => "128x64",
        97..=256 => "128x128",
        _ => "256x128",
    };
    format!(
        "{arch_tag}_scudnn_{}_{}_{}_k{}",
        alg.tag(),
        pass.tag(),
        tile,
        geom.k
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(k: usize, stride: usize) -> ConvGeometry {
        ConvGeometry::new(16, 32, k, stride, k / 2, 16, 16)
    }

    #[test]
    fn winograd_only_for_3x3_stride1_non_wgrad() {
        let a = ConvAlgorithm::WinogradNonfused;
        assert!(a.supports(ConvPass::Forward, &g(3, 1)));
        assert!(!a.supports(ConvPass::WeightGrad, &g(3, 1)));
        assert!(!a.supports(ConvPass::Forward, &g(5, 1)));
        assert!(!a.supports(ConvPass::Forward, &g(3, 2)));
    }

    #[test]
    fn fft_only_for_large_filters() {
        let a = ConvAlgorithm::FftTiling;
        assert!(!a.supports(ConvPass::Forward, &g(3, 1)));
        assert!(a.supports(ConvPass::Forward, &g(5, 1)));
        assert!(a.supports(ConvPass::InputGrad, &g(7, 1)));
        assert!(!a.supports(ConvPass::WeightGrad, &g(7, 1)));
    }

    #[test]
    fn deterministic_fallback_always_available() {
        for pass in ConvPass::ALL {
            for k in [1, 3, 5, 7] {
                assert!(ConvAlgorithm::DirectDeterministic.supports(pass, &g(k, 1)));
                assert!(ConvAlgorithm::ImplicitGemmDet.supports(pass, &g(k, 1)));
            }
        }
    }

    #[test]
    fn every_pass_has_a_deterministic_and_a_nondeterministic_option() {
        for pass in ConvPass::ALL {
            for k in [1, 2, 3, 5, 7] {
                let geom = g(k, 1);
                let det = ConvAlgorithm::ALL
                    .iter()
                    .any(|a| a.is_deterministic() && a.supports(pass, &geom));
                let nondet = ConvAlgorithm::ALL
                    .iter()
                    .any(|a| !a.is_deterministic() && a.supports(pass, &geom));
                assert!(det && nondet, "pass {pass:?} k {k}");
            }
        }
    }

    #[test]
    fn kernel_names_are_stable_and_distinct_by_tile() {
        let small = ConvGeometry::new(3, 16, 3, 1, 1, 8, 8);
        let large = ConvGeometry::new(3, 512, 3, 1, 1, 8, 8);
        let a = kernel_name(
            "volta",
            ConvAlgorithm::WinogradNonfused,
            ConvPass::Forward,
            &small,
        );
        let b = kernel_name(
            "volta",
            ConvAlgorithm::WinogradNonfused,
            ConvPass::Forward,
            &large,
        );
        assert_ne!(a, b);
        assert_eq!(
            a,
            kernel_name(
                "volta",
                ConvAlgorithm::WinogradNonfused,
                ConvPass::Forward,
                &small
            )
        );
        assert!(a.contains("winograd"));
        assert!(a.contains("fprop"));
    }
}
