//! Device models.
//!
//! Each [`Device`] captures the properties of an accelerator that matter
//! for nondeterminism: how many independently-scheduled accumulation lanes
//! it effectively has (a function of its core count), whether matmul-class
//! ops run on fixed-order systolic hardware (Tensor Cores, TPU MXU), and
//! its effective floating-point throughput for the cost model.

use nstensor::MAX_LANES;
use serde::{Deserialize, Serialize};

/// Accelerator micro-architecture family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Architecture {
    /// NVIDIA Pascal (P100).
    Pascal,
    /// NVIDIA Volta (V100).
    Volta,
    /// NVIDIA Turing (T4, RTX 5000).
    Turing,
    /// Google TPU v2 (systolic matrix unit; deterministic by design).
    TpuV2,
    /// Host CPU (sequential reference).
    Cpu,
}

/// A simulated accelerator.
///
/// Construct with the named presets ([`Device::p100`], [`Device::v100`],
/// [`Device::rtx5000`], [`Device::rtx5000_tensor_cores`], [`Device::t4`],
/// [`Device::tpu_v2`], [`Device::cpu`]) or [`Device::custom`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Device {
    name: &'static str,
    arch: Architecture,
    cuda_cores: u32,
    /// Whether matmul-class ops are routed to fixed-order systolic units
    /// (Tensor Cores / TPU MXU).
    systolic_matmul: bool,
    /// Whether *every* op is deterministic by hardware design (TPU).
    deterministic_by_design: bool,
    /// Effective sustained throughput for the cost model, in TFLOP/s.
    eff_tflops: f32,
}

impl Device {
    /// NVIDIA P100 (Pascal, 3584 CUDA cores).
    pub fn p100() -> Self {
        Self {
            name: "P100",
            arch: Architecture::Pascal,
            cuda_cores: 3584,
            systolic_matmul: false,
            deterministic_by_design: false,
            eff_tflops: 9.5,
        }
    }

    /// NVIDIA V100 (Volta, 5120 CUDA cores).
    pub fn v100() -> Self {
        Self {
            name: "V100",
            arch: Architecture::Volta,
            cuda_cores: 5120,
            systolic_matmul: false,
            deterministic_by_design: false,
            eff_tflops: 14.9,
        }
    }

    /// NVIDIA RTX 5000 (Turing, 3072 CUDA cores), CUDA-core execution.
    pub fn rtx5000() -> Self {
        Self {
            name: "RTX5000",
            arch: Architecture::Turing,
            cuda_cores: 3072,
            systolic_matmul: false,
            deterministic_by_design: false,
            eff_tflops: 11.2,
        }
    }

    /// NVIDIA RTX 5000 with Tensor Cores enabled: matmul-class ops run on
    /// fixed-order systolic units, but unsupported ops (gradient and
    /// statistics accumulations) fall back to nondeterministic CUDA cores —
    /// which is why the paper finds Tensor-Core training still
    /// nondeterministic.
    pub fn rtx5000_tensor_cores() -> Self {
        Self {
            name: "RTX5000-TC",
            arch: Architecture::Turing,
            cuda_cores: 3072,
            systolic_matmul: true,
            deterministic_by_design: false,
            eff_tflops: 22.3,
        }
    }

    /// NVIDIA T4 (Turing, 2560 CUDA cores).
    pub fn t4() -> Self {
        Self {
            name: "T4",
            arch: Architecture::Turing,
            cuda_cores: 2560,
            systolic_matmul: false,
            deterministic_by_design: false,
            eff_tflops: 8.1,
        }
    }

    /// Google TPU v2-8 chip: single-threaded deterministic execution model.
    pub fn tpu_v2() -> Self {
        Self {
            name: "TPUv2",
            arch: Architecture::TpuV2,
            cuda_cores: 0,
            systolic_matmul: true,
            deterministic_by_design: true,
            eff_tflops: 22.5,
        }
    }

    /// Host CPU: one lane, deterministic by design, so every reduction is
    /// a plain left-to-right sum (reference semantics).
    pub fn cpu() -> Self {
        Self {
            name: "CPU",
            arch: Architecture::Cpu,
            cuda_cores: 1,
            systolic_matmul: false,
            deterministic_by_design: true,
            eff_tflops: 0.1,
        }
    }

    /// A custom device (for sweeps over parallelism).
    pub fn custom(
        name: &'static str,
        arch: Architecture,
        cuda_cores: u32,
        systolic_matmul: bool,
        deterministic_by_design: bool,
        eff_tflops: f32,
    ) -> Self {
        Self {
            name,
            arch,
            cuda_cores,
            systolic_matmul,
            deterministic_by_design,
            eff_tflops,
        }
    }

    /// The device's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The micro-architecture family.
    pub fn arch(&self) -> Architecture {
        self.arch
    }

    /// Number of CUDA cores (0 for TPU).
    pub fn cuda_cores(&self) -> u32 {
        self.cuda_cores
    }

    /// Whether matmul-class ops use fixed-order systolic accumulation.
    pub fn systolic_matmul(&self) -> bool {
        self.systolic_matmul
    }

    /// Whether every op is deterministic by hardware design.
    pub fn deterministic_by_design(&self) -> bool {
        self.deterministic_by_design
    }

    /// Effective sustained throughput for the cost model, in TFLOP/s.
    pub fn eff_tflops(&self) -> f32 {
        self.eff_tflops
    }

    /// The number of independently-ordered accumulation lanes the device
    /// effectively exhibits. More cores → more concurrently arriving
    /// partial sums → more ordering freedom. Scaled into
    /// `[8, MAX_LANES]` for GPUs; 16 fixed lanes for systolic hardware;
    /// 1 for the CPU.
    pub fn lanes(&self) -> usize {
        match self.arch {
            Architecture::Cpu => 1,
            Architecture::TpuV2 => 16,
            _ => ((self.cuda_cores / 80) as usize).clamp(8, MAX_LANES),
        }
    }

    /// All GPU presets evaluated by the paper's stability experiments.
    pub fn stability_gpus() -> Vec<Device> {
        vec![Self::p100(), Self::v100(), Self::rtx5000()]
    }

    /// All GPU presets evaluated by the paper's overhead experiments.
    pub fn overhead_gpus() -> Vec<Device> {
        vec![Self::p100(), Self::v100(), Self::t4()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ordering_follows_core_count() {
        // V100 has the most CUDA cores, so the widest ordering freedom.
        assert!(Device::v100().lanes() > Device::p100().lanes());
        assert!(Device::p100().lanes() > Device::rtx5000().lanes());
        assert!(Device::rtx5000().lanes() > Device::t4().lanes());
    }

    #[test]
    fn lanes_within_bounds() {
        for d in [
            Device::p100(),
            Device::v100(),
            Device::rtx5000(),
            Device::t4(),
            Device::tpu_v2(),
            Device::cpu(),
        ] {
            assert!((1..=MAX_LANES).contains(&d.lanes()), "{}", d.name());
        }
    }

    #[test]
    fn tpu_is_deterministic_by_design() {
        assert!(Device::tpu_v2().deterministic_by_design());
        assert!(!Device::v100().deterministic_by_design());
    }

    #[test]
    fn tensor_core_variant_is_systolic_but_not_deterministic() {
        let tc = Device::rtx5000_tensor_cores();
        assert!(tc.systolic_matmul());
        assert!(!tc.deterministic_by_design());
    }

    #[test]
    fn preset_names_are_distinct() {
        let names: Vec<&str> = [
            Device::p100(),
            Device::v100(),
            Device::rtx5000(),
            Device::rtx5000_tensor_cores(),
            Device::t4(),
            Device::tpu_v2(),
            Device::cpu(),
        ]
        .iter()
        .map(|d| d.name())
        .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
