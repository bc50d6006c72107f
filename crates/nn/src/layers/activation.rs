//! Activation and stochastic-regularization layers.

use super::Layer;
use detrand::{Philox, StreamId};
use hwsim::ExecutionContext;
use nstensor::{ops, Tensor};

/// Rectified linear unit.
///
/// A training forward pass writes the activation in place and its mask,
/// one byte per element, into a vector the layer keeps, so from the
/// second step on of an unchanged batch shape the mask reuses the same
/// storage; an inference pass writes no mask, and leaves the last
/// training pass's in place. The backward pass multiplies the gradient
/// by the mask in place (see [`nstensor::ops::relu_forward`]).
#[derive(Debug, Default)]
pub struct Relu {
    mask: Vec<u8>,
}

impl Relu {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(
        &mut self,
        mut x: Tensor,
        _exec: &mut ExecutionContext,
        _algo: &Philox,
        _step: u64,
        training: bool,
    ) -> Tensor {
        ops::relu_forward(&mut x, training.then_some(&mut self.mask));
        x
    }

    fn backward(&mut self, mut dy: Tensor, _exec: &mut ExecutionContext) -> Tensor {
        assert!(!self.mask.is_empty(), "backward before forward");
        ops::relu_backward(&mut dy, &self.mask);
        dy
    }

    #[cfg(test)]
    fn kept_buffers(&self) -> Vec<*const u8> {
        vec![self.mask.as_ptr()]
    }

    fn kind(&self) -> &'static str {
        "relu"
    }
}

/// Inverted dropout: one of the paper's four algorithmic noise sources
/// ("stochastic layers", Table 1).
///
/// Masks are drawn from the run's *algorithmic* root via a dedicated
/// stream addressed by `(layer_id, step)` — so a fixed algorithmic seed
/// replays identical masks regardless of the executing hardware, which is
/// exactly what the paper's `IMPL` variant requires.
#[derive(Debug)]
pub struct Dropout {
    rate: f32,
    layer_id: u16,
    mask: Vec<f32>,
}

impl Dropout {
    /// Creates the layer.
    ///
    /// `layer_id` must be unique among the network's dropout layers (it
    /// addresses the layer's random stream).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn new(rate: f32, layer_id: u16) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "dropout rate {rate} outside [0, 1)"
        );
        Self {
            rate,
            layer_id,
            mask: Vec::new(),
        }
    }

    /// The drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }
}

impl Layer for Dropout {
    fn forward(
        &mut self,
        mut x: Tensor,
        _exec: &mut ExecutionContext,
        algo: &Philox,
        step: u64,
        training: bool,
    ) -> Tensor {
        if !training || self.rate == 0.0 {
            return x;
        }
        // Per-(layer, step) random access: each step owns a disjoint
        // counter range of the layer's stream.
        let stream_key = algo.derive(StreamId::DROPOUT.child(self.layer_id).salt());
        let mut rng = stream_key.rng_at((step as u128) << 64);
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        self.mask = (0..x.len())
            .map(|_| if rng.next_f32() < keep { scale } else { 0.0 })
            .collect();
        for (v, m) in x.as_mut_slice().iter_mut().zip(&self.mask) {
            *v *= m;
        }
        x
    }

    fn backward(&mut self, mut dy: Tensor, _exec: &mut ExecutionContext) -> Tensor {
        if self.mask.is_empty() {
            return dy; // was a no-op forward (eval or rate 0)
        }
        for (g, m) in dy.as_mut_slice().iter_mut().zip(&self.mask) {
            *g *= m;
        }
        dy
    }

    fn kind(&self) -> &'static str {
        "dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::{Device, ExecutionMode};
    use nstensor::Shape;

    fn exec() -> ExecutionContext {
        ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0)
    }

    #[test]
    fn relu_masks_negative_paths() {
        let root = Philox::from_seed(1);
        let mut l = Relu::new();
        let x = Tensor::from_vec(Shape::of(&[4]), vec![-1.0, 2.0, -3.0, 4.0]).unwrap();
        let y = l.forward(x, &mut exec(), &root, 0, true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let dx = l.backward(Tensor::full(Shape::of(&[4]), 1.0), &mut exec());
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn dropout_keeps_expectation() {
        let root = Philox::from_seed(2);
        let mut l = Dropout::new(0.5, 0);
        let x = Tensor::full(Shape::of(&[10_000]), 1.0);
        let y = l.forward(x, &mut exec(), &root, 0, true);
        let mean: f64 = y.as_slice().iter().map(|&v| v as f64).sum::<f64>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Values are either 0 or 1/keep.
        assert!(y
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn dropout_inactive_at_eval() {
        let root = Philox::from_seed(2);
        let mut l = Dropout::new(0.5, 0);
        let x = Tensor::full(Shape::of(&[64]), 3.0);
        let y = l.forward(x.clone(), &mut exec(), &root, 0, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn dropout_masks_replay_with_seed() {
        let root = Philox::from_seed(7);
        let x = Tensor::full(Shape::of(&[256]), 1.0);
        let mut a = Dropout::new(0.3, 4);
        let mut b = Dropout::new(0.3, 4);
        let ya = a.forward(x.clone(), &mut exec(), &root, 9, true);
        let yb = b.forward(x.clone(), &mut exec(), &root, 9, true);
        assert_eq!(ya.as_slice(), yb.as_slice());
        // Different step → different mask.
        let yc = b.forward(x, &mut exec(), &root, 10, true);
        assert_ne!(ya.as_slice(), yc.as_slice());
    }

    #[test]
    fn dropout_masks_differ_across_layers() {
        let root = Philox::from_seed(7);
        let x = Tensor::full(Shape::of(&[256]), 1.0);
        let ya = Dropout::new(0.3, 0).forward(x.clone(), &mut exec(), &root, 0, true);
        let yb = Dropout::new(0.3, 1).forward(x, &mut exec(), &root, 0, true);
        assert_ne!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn dropout_rejects_rate_one() {
        Dropout::new(1.0, 0);
    }
}
