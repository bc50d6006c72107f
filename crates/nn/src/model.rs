//! The network container.

use crate::layers::Layer;
use detrand::Philox;
use hwsim::ExecutionContext;
use nstensor::Tensor;

/// A sequential stack of layers.
///
/// # Example
///
/// ```
/// use detrand::{Philox, StreamId};
/// use hwsim::{Device, ExecutionContext, ExecutionMode};
/// use nnet::layers::{Dense, Relu};
/// use nnet::model::Network;
/// use nstensor::{Shape, Tensor};
///
/// let root = Philox::from_seed(1);
/// let mut rng = root.stream(StreamId::INIT.child(0));
/// let mut net = Network::new();
/// net.push(Dense::new(4, 8, &mut rng));
/// net.push(Relu::new());
/// net.push(Dense::new(8, 2, &mut rng));
/// let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
/// let y = net.forward(Tensor::zeros(Shape::of(&[3, 4])), &mut exec, &root, 0, false);
/// assert_eq!(y.shape().dims(), &[3, 2]);
/// ```
#[derive(Debug, Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Forward pass through every layer.
    pub fn forward(
        &mut self,
        mut x: Tensor,
        exec: &mut ExecutionContext,
        algo: &Philox,
        step: u64,
        training: bool,
    ) -> Tensor {
        for layer in &mut self.layers {
            x = layer.forward(x, exec, algo, step, training);
        }
        x
    }

    /// Backward pass through every layer in reverse, leaving each layer's
    /// parameter gradients for [`Network::visit_params`].
    ///
    /// Nothing reads the first layer's input gradient, so that layer runs
    /// [`Layer::backward_params`], which skips it where that changes no
    /// bit.
    pub fn backward(&mut self, mut dy: Tensor, exec: &mut ExecutionContext) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        for layer in rest.iter_mut().rev() {
            dy = layer.backward(dy, exec);
        }
        first.backward_params(dy, exec);
    }

    /// Visits every `(parameter, gradient)` pair.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Flattens every parameter into one vector (for weight-divergence
    /// measurements between replicas).
    pub fn flat_weights(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.visit_params(&mut |p, _| out.extend_from_slice(p.as_slice()));
        out
    }

    /// Flattens the network's whole training state: every parameter, in
    /// [`Network::flat_weights`] order, followed by every buffer (batch-norm
    /// running statistics). A checkpoint carries this, so a resumed run
    /// evaluates like an uninterrupted one.
    pub fn flat_state(&mut self) -> Vec<f32> {
        let mut out = self.flat_weights();
        self.visit_buffers(&mut |b| out.extend_from_slice(b));
        out
    }

    /// Overwrites the state captured by [`Network::flat_state`]
    /// (checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns the expected length when `flat` does not match the
    /// network's state size; the network is left untouched.
    pub fn set_flat_state(&mut self, flat: &[f32]) -> Result<(), usize> {
        let mut expected = self.param_count();
        self.visit_buffers(&mut |b| expected += b.len());
        if flat.len() != expected {
            return Err(expected);
        }
        let mut rest = flat;
        let mut take = |dst: &mut [f32]| {
            let (head, tail) = rest.split_at(dst.len());
            dst.copy_from_slice(head);
            rest = tail;
        };
        self.visit_params(&mut |p, _| take(p.as_mut_slice()));
        self.visit_buffers(&mut take);
        Ok(())
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }

    /// Euclidean norm of all weights.
    pub fn weight_norm(&mut self) -> f64 {
        let mut s = 0f64;
        self.visit_params(&mut |p, _| {
            s += nstensor::reduce::sum_ordered_f64(
                p.as_slice().iter().map(|&v| (v as f64) * (v as f64)),
            );
        });
        s.sqrt()
    }

    /// The kinds of the layers, in order.
    pub fn layer_kinds(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.kind()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use detrand::StreamId;
    use hwsim::{Device, ExecutionMode, OpClass};
    use nstensor::Shape;

    fn mlp(seed: u64) -> (Network, Philox) {
        let root = Philox::from_seed(seed);
        let mut rng = root.stream(StreamId::INIT.child(0));
        let mut net = Network::new();
        net.push(Dense::new(3, 5, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(5, 2, &mut rng));
        (net, root)
    }

    #[test]
    fn forward_backward_shapes() {
        let (mut net, root) = mlp(1);
        let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
        let y = net.forward(
            Tensor::full(Shape::of(&[4, 3]), 0.5),
            &mut exec,
            &root,
            0,
            true,
        );
        assert_eq!(y.shape().dims(), &[4, 2]);
        net.backward(Tensor::full(Shape::of(&[4, 2]), 1.0), &mut exec);
        let mut shapes = Vec::new();
        net.visit_params(&mut |p, g| {
            assert_eq!(g.shape(), p.shape());
            shapes.push(g.shape().dims().to_vec());
        });
        assert_eq!(shapes, vec![vec![3, 5], vec![5], vec![5, 2], vec![2]]);
    }

    #[test]
    fn dense_first_network_still_advances_input_grad() {
        // Dense keeps the default `backward_params`: its input gradient
        // draws from the InputGrad reducer, so the first layer still
        // computes it. Batch 4: 4×5 dots for the last Dense, 4×3 for the
        // first.
        let (mut net, root) = mlp(6);
        let mut exec = ExecutionContext::new(Device::v100(), ExecutionMode::Default, 3);
        net.forward(
            Tensor::full(Shape::of(&[4, 3]), 0.5),
            &mut exec,
            &root,
            0,
            true,
        );
        net.backward(Tensor::full(Shape::of(&[4, 2]), 1.0), &mut exec);
        assert_eq!(
            exec.reducer(OpClass::InputGrad).invocations(),
            4 * 5 + 4 * 3
        );
    }

    #[test]
    fn param_count_and_flat_weights_agree() {
        let (mut net, _) = mlp(2);
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
        assert_eq!(net.flat_weights().len(), net.param_count());
    }

    #[test]
    fn same_seed_identical_weights() {
        let (mut a, _) = mlp(3);
        let (mut b, _) = mlp(3);
        assert_eq!(a.flat_weights(), b.flat_weights());
        let (mut c, _) = mlp(4);
        assert_ne!(a.flat_weights(), c.flat_weights());
    }

    #[test]
    fn layer_kinds_in_order() {
        let (net, _) = mlp(5);
        assert_eq!(net.layer_kinds(), vec!["dense", "relu", "dense"]);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }
}
