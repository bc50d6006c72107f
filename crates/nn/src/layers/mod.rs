//! Network layers with hand-written forward/backward passes.
//!
//! Every accumulating operation inside a layer routes through the
//! [`hwsim::ExecutionContext`]'s reducer for the appropriate
//! [`hwsim::OpClass`], so that the executing device's accumulation-order
//! semantics (deterministic or not) apply to exactly the reductions real
//! hardware reorders: forward inner products, weight-gradient sums across
//! the batch, and batch-statistics.

mod activation;
mod conv;
mod dense;
mod norm;
mod pool;
mod residual;

pub use activation::{Dropout, Relu};
pub use conv::Conv2d;
pub use dense::Dense;
pub use norm::BatchNorm2d;
pub use pool::{Flatten, GlobalAvgPool, MaxPool2d};
pub use residual::ResidualBlock;

use detrand::Philox;
use hwsim::ExecutionContext;
use nstensor::Tensor;

/// A trainable network layer.
///
/// `forward` consumes the input and caches whatever the backward pass
/// needs; `backward` consumes the upstream gradient and returns the
/// downstream one, storing parameter gradients internally until the
/// optimizer collects them through [`Layer::visit_params`]. The first
/// layer of a network runs [`Layer::backward_params`] instead.
pub trait Layer: std::fmt::Debug {
    /// Forward pass.
    ///
    /// `algo` is the run's algorithmic-randomness root (consumed only by
    /// stochastic layers such as [`Dropout`]); `step` is the global
    /// training step (used to address per-step random streams); `training`
    /// selects train vs. inference behaviour (dropout, batch-norm stats).
    fn forward(
        &mut self,
        x: Tensor,
        exec: &mut ExecutionContext,
        algo: &Philox,
        step: u64,
        training: bool,
    ) -> Tensor;

    /// Backward pass: upstream gradient in, downstream gradient out.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, dy: Tensor, exec: &mut ExecutionContext) -> Tensor;

    /// Backward pass for a layer whose input gradient nobody reads (a
    /// network's first layer): stores the parameter gradients and returns
    /// nothing.
    ///
    /// The default runs [`Layer::backward`] and drops its result. A layer
    /// may skip the input gradient only when computing it draws from no
    /// reducer, so that skipping it leaves every later bit unchanged;
    /// [`Dense`]'s input gradient advances the `InputGrad` reducer, so it
    /// keeps the default.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward_params(&mut self, dy: Tensor, exec: &mut ExecutionContext) {
        self.backward(dy, exec);
    }

    /// Visits `(parameter, gradient)` pairs for the optimizer.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    /// Visits the layer's state that training updates but the optimizer
    /// does not (batch-norm running statistics), for checkpoints.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut [f32])) {}

    /// Total number of trainable scalars.
    fn param_count(&self) -> usize {
        0
    }

    /// The addresses of the buffers the layer keeps from one training
    /// step to the next and rewrites in place, for tests that check the
    /// storage is reused.
    #[cfg(test)]
    fn kept_buffers(&self) -> Vec<*const u8> {
        Vec::new()
    }

    /// Human-readable layer kind.
    fn kind(&self) -> &'static str;
}
