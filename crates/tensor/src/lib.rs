//! Dense `f32` tensors whose reductions have *explicit, pluggable
//! accumulation order* — the substrate for simulating accelerator
//! floating-point nondeterminism.
//!
//! Floating-point addition is not associative: `(a + b) + c` and
//! `a + (b + c)` can differ in the last unit-in-last-place. Massively
//! parallel accelerators exploit that freedom — atomics, split-K matmuls and
//! warp-level trees combine partial sums in whatever order the hardware
//! scheduler happens to produce — which makes the *numerical result of
//! training* a function of scheduling, not just of the algorithm. This is
//! the "implementation noise" of Zhuang et al. (MLSys 2022), and this crate
//! is where it physically happens in the reproduction.
//!
//! Every reduction in the training hot path (matmul/conv dot products,
//! gradient sums over the batch, batch-norm statistics) flows through a
//! [`Reducer`], whose [`ReduceOrder`] selects:
//!
//! - [`ReduceOrder::FixedTree`] — strided multi-lane partial sums combined
//!   in fixed index order (deterministic GPU kernels, TPU systolic arrays;
//!   with one lane, the plain left-to-right sum of the CPU reference),
//! - [`ReduceOrder::Permuted`] — the same lane partials combined in an
//!   order perturbed by a scheduler RNG (nondeterministic GPU kernels).
//!
//! `FixedTree` and `Permuted` share lane structure, so a deterministic run
//! is one valid accumulation order of the nondeterministic kernel — exactly
//! the relation between cuDNN's deterministic and default algorithms.
//!
//! # Example
//!
//! ```
//! use nstensor::{Reducer, ReduceOrder};
//!
//! let xs: Vec<f32> = (0..1000).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.137).collect();
//! let mut det = Reducer::new(ReduceOrder::FixedTree, 32, 0);
//! // Deterministic reducers are bitwise stable:
//! assert_eq!(det.sum(&xs), det.sum(&xs));
//! // Nondeterministic reducers re-order partial sums between calls; results
//! // stay within a few ulps but are not bitwise stable in general.
//! let mut nd = Reducer::new(ReduceOrder::Permuted, 32, 42);
//! let a = nd.sum(&xs);
//! let b = nd.sum(&xs);
//! assert!((a - b).abs() < 1e-3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conv;
pub mod error;
pub mod gemm;
pub mod linalg;
pub mod ops;
pub mod pack;
pub mod pool;
pub mod reduce;
pub mod shape;
pub mod tensor;
mod tile;
pub mod workspace;

pub use conv::{
    conv2d_backward, conv2d_backward_ws, conv2d_forward, conv2d_forward_ws, conv2d_input_grad_ws,
    conv2d_param_grads_ws, Conv2dGrads, ConvGeometry,
};
pub use error::ShapeError;
pub use gemm::{matmul_a_bt_ws, matmul_at_b_ws, matmul_ws};
pub use linalg::{matmul, matmul_a_bt_reference, matmul_at_b_reference, matmul_reference};
pub use pool::{
    global_avg_pool_backward, global_avg_pool_forward, maxpool2d_backward, maxpool2d_forward,
};
pub use reduce::{ReduceOrder, Reducer, ReducerSnapshot, MAX_LANES};
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::{Scratch, Workspace};
