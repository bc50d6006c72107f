//! Accelerator execution-semantics simulator.
//!
//! Real accelerators differ from a reference CPU in two ways that matter for
//! the NoiseScope study:
//!
//! 1. **Scheduling nondeterminism.** GPUs combine partial floating-point
//!    sums in arrival order (atomics, split-K matmuls), so the numerical
//!    result of an op varies between runs. TPUs use fixed-order systolic
//!    reduction and are deterministic by design. This crate maps each
//!    device/mode to the [`nstensor::ReduceOrder`] its reductions use, via
//!    an [`ExecutionContext`].
//! 2. **Kernel selection under a determinism constraint.** cuDNN's fastest
//!    convolution kernels (Winograd, FFT, atomic implicit GEMM) are
//!    nondeterministic; forcing determinism restricts the autotuner to
//!    slower kernels, with a penalty that depends on GPU generation and
//!    layer geometry. The [`cost`] module provides a calibrated analytic
//!    time model, and [`profiler`] makes the restricted selection and
//!    accumulates simulated per-kernel GPU time — regenerating the paper's
//!    determinism-overhead results (Figs. 7 and 8).
//!
//! # Example
//!
//! ```
//! use hwsim::{Device, ExecutionMode, ExecutionContext, OpClass};
//!
//! // A V100 in default (nondeterministic) mode:
//! let mut ctx = ExecutionContext::new(Device::v100(), ExecutionMode::Default, 1234);
//! let xs = vec![0.1f32; 1000];
//! let a = ctx.reducer(OpClass::WeightGrad).sum(&xs);
//!
//! // The same device in deterministic mode is bitwise stable across
//! // contexts regardless of entropy:
//! let mut d1 = ExecutionContext::new(Device::v100(), ExecutionMode::Deterministic, 1);
//! let mut d2 = ExecutionContext::new(Device::v100(), ExecutionMode::Deterministic, 2);
//! assert_eq!(
//!     d1.reducer(OpClass::WeightGrad).sum(&xs).to_bits(),
//!     d2.reducer(OpClass::WeightGrad).sum(&xs).to_bits(),
//! );
//! # let _ = a;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod cost;
pub mod device;
pub mod exec;
pub mod kernels;
pub mod profiler;
pub mod workload;

pub use chaos::{ChaosConfig, FaultKind, FaultPlan, PlannedFault};
pub use cost::CostModel;
pub use device::{Architecture, Device};
pub use exec::{ExecSnapshot, ExecutionContext, ExecutionContextBuilder, ExecutionMode, OpClass};
pub use kernels::{ConvAlgorithm, ConvPass};
pub use profiler::{profile_workload, KernelProfile, KernelRecord};
pub use workload::WorkloadOp;
