//! The convolution layer.

use super::Layer;
use crate::init::Init;
use detrand::{Philox, StreamRng};
use hwsim::{ExecutionContext, OpClass};
use nstensor::{
    conv2d_backward_ws, conv2d_forward_ws, conv2d_param_grads_ws, ConvGeometry, Shape, Tensor,
    Workspace,
};

/// A 2-D convolution layer (`[N, C, H, W]` input).
///
/// Forward inner products use the device's `MatmulForward` reducer; the
/// backward pass's weight-gradient reduction (which spans the whole batch)
/// uses the `WeightGrad` reducer — on Tensor-Core devices the former is
/// systolic (fixed order) while the latter falls back to nondeterministic
/// CUDA-core accumulation, reproducing the paper's finding.
#[derive(Debug)]
pub struct Conv2d {
    geom: ConvGeometry,
    w: Tensor,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
    cached_x: Option<Tensor>,
    /// Recycled scratch (im2col columns, packed GEMM panels) reused across
    /// training steps instead of re-allocated per call.
    ws: Workspace,
}

impl Conv2d {
    /// Creates the layer with He-normal weights drawn from `rng`.
    pub fn new(geom: ConvGeometry, rng: &mut StreamRng) -> Self {
        let fan_in = geom.patch_len();
        let fan_out = geom.out_c * geom.k * geom.k;
        let w = Init::HeNormal.tensor(
            Shape::of(&[geom.out_c, geom.patch_len()]),
            fan_in,
            fan_out,
            rng,
        );
        let b = Init::SmallPositive.tensor(Shape::of(&[geom.out_c]), 1, 1, rng);
        Self {
            dw: Tensor::zeros(w.shape()),
            db: Tensor::zeros(b.shape()),
            w,
            b,
            geom,
            cached_x: None,
            ws: Workspace::new(),
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// Immutable view of the weights (for divergence measurements).
    pub fn weights(&self) -> &Tensor {
        &self.w
    }
}

impl Layer for Conv2d {
    fn forward(
        &mut self,
        x: Tensor,
        exec: &mut ExecutionContext,
        _algo: &Philox,
        _step: u64,
        training: bool,
    ) -> Tensor {
        let threads = exec.threads();
        let y = conv2d_forward_ws(
            &x,
            &self.w,
            &self.b,
            &self.geom,
            exec.reducer(OpClass::MatmulForward),
            threads,
            &mut self.ws,
        )
        .expect("conv2d forward shape");
        if training {
            self.cached_x = Some(x);
        }
        y
    }

    fn backward(&mut self, dy: Tensor, exec: &mut ExecutionContext) -> Tensor {
        let x = self.cached_x.take().expect("backward before forward");
        let threads = exec.threads();
        let grads = conv2d_backward_ws(
            &x,
            &self.w,
            &dy,
            &self.geom,
            exec.reducer(OpClass::WeightGrad),
            threads,
            &mut self.ws,
        )
        .expect("conv2d backward shape");
        self.dw = grads.dw;
        self.db = grads.db;
        grads.dx
    }

    /// dW and db only: the input gradient draws from no reducer, so
    /// skipping it changes no bit.
    fn backward_params(&mut self, dy: Tensor, exec: &mut ExecutionContext) {
        let x = self.cached_x.take().expect("backward before forward");
        let threads = exec.threads();
        (self.dw, self.db) = conv2d_param_grads_ws(
            &x,
            &dy,
            &self.geom,
            exec.reducer(OpClass::WeightGrad),
            threads,
            &mut self.ws,
        )
        .expect("conv2d backward shape");
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.w, &mut self.dw);
        f(&mut self.b, &mut self.db);
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn kind(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::StreamId;
    use hwsim::{Device, ExecutionMode};

    fn make() -> (Conv2d, ExecutionContext, Philox) {
        let root = Philox::from_seed(9);
        let mut rng = root.stream(StreamId::INIT.child(0));
        let geom = ConvGeometry::new(3, 4, 3, 1, 1, 6, 6);
        (
            Conv2d::new(geom, &mut rng),
            ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0),
            root,
        )
    }

    #[test]
    fn forward_shape() {
        let (mut l, mut exec, root) = make();
        let x = Tensor::zeros(Shape::of(&[2, 3, 6, 6]));
        let y = l.forward(x, &mut exec, &root, 0, true);
        assert_eq!(y.shape().dims(), &[2, 4, 6, 6]);
    }

    #[test]
    fn backward_returns_input_shaped_grad() {
        let (mut l, mut exec, root) = make();
        let x = Tensor::full(Shape::of(&[1, 3, 6, 6]), 0.5);
        let y = l.forward(x, &mut exec, &root, 0, true);
        let dx = l.backward(Tensor::full(y.shape(), 1.0), &mut exec);
        assert_eq!(dx.shape().dims(), &[1, 3, 6, 6]);
        // Gradients populated.
        let mut n = 0;
        l.visit_params(&mut |_, g| {
            n += 1;
            assert!(g.as_slice().iter().any(|&v| v != 0.0) || g.is_empty());
        });
        assert_eq!(n, 2);
    }

    #[test]
    fn param_only_backward_matches_full_backward() {
        // V100 in default mode: the WeightGrad reducer is Permuted with
        // amplification, so any extra or missing draw shows in the bits or
        // the snapshot.
        let grads = |params_only: bool| {
            let (mut l, _, root) = make();
            let mut exec = ExecutionContext::builder(Device::v100())
                .mode(ExecutionMode::Default)
                .entropy(4)
                .amp_ulps(512.0)
                .build();
            let x = Tensor::from_vec(
                Shape::of(&[2, 3, 6, 6]),
                (0..216)
                    .map(|i| ((i * 37 % 101) as f32 - 50.0) / 25.0)
                    .collect(),
            )
            .unwrap();
            let y = l.forward(x, &mut exec, &root, 0, true);
            let dy = Tensor::from_vec(
                y.shape(),
                (0..y.len())
                    .map(|i| ((i * 53 % 97) as f32 - 48.0) / 30.0)
                    .collect(),
            )
            .unwrap();
            if params_only {
                l.backward_params(dy, &mut exec);
            } else {
                l.backward(dy, &mut exec);
            }
            let mut bits = Vec::new();
            l.visit_params(&mut |_, g| bits.extend(g.as_slice().iter().map(|v| v.to_bits())));
            (bits, exec.reducer(OpClass::WeightGrad).snapshot())
        };
        let (full, full_snap) = grads(false);
        let (params, params_snap) = grads(true);
        assert_eq!(params, full);
        assert_eq!(params_snap, full_snap);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let (mut l, mut exec, _) = make();
        l.backward(Tensor::zeros(Shape::of(&[1, 4, 6, 6])), &mut exec);
    }

    #[test]
    fn param_count_matches() {
        let (l, _, _) = make();
        assert_eq!(l.param_count(), 4 * 27 + 4);
        assert_eq!(l.kind(), "conv2d");
    }

    #[test]
    fn init_is_seed_deterministic() {
        let (a, _, _) = make();
        let (b, _, _) = make();
        assert_eq!(a.weights().as_slice(), b.weights().as_slice());
    }
}
