//! Batch normalization.
//!
//! Batch-norm is load-bearing in the paper twice over: its batch statistics
//! are cross-sample reductions (so they are order-sensitive on
//! nondeterministic hardware), yet the normalization *suppresses* the
//! amplification of perturbations through the network — which is why the
//! paper's small CNN (the only benchmarked model without BN) shows by far
//! the highest instability (Fig. 2).

use super::Layer;
use crate::init::Init;
use detrand::{Philox, StreamRng};
use hwsim::{ExecutionContext, OpClass};
use nstensor::{ops, Shape, Tensor};

const EPS: f32 = 1e-5;

/// Batch normalization over the channel axis of `[N, C, H, W]` inputs.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    dgamma: Tensor,
    dbeta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    // Backward cache.
    cached_xhat: Option<Tensor>,
    cached_inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates the layer for `channels` feature maps.
    pub fn new(channels: usize, rng: &mut StreamRng) -> Self {
        Self {
            gamma: Init::Ones.tensor(Shape::of(&[channels]), 1, 1, rng),
            beta: Init::Zeros.tensor(Shape::of(&[channels]), 1, 1, rng),
            dgamma: Tensor::zeros(Shape::of(&[channels])),
            dbeta: Tensor::zeros(Shape::of(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.9,
            cached_xhat: None,
            cached_inv_std: Vec::new(),
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// The running mean (inference statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }
}

impl Layer for BatchNorm2d {
    fn forward(
        &mut self,
        mut x: Tensor,
        exec: &mut ExecutionContext,
        _algo: &Philox,
        _step: u64,
        training: bool,
    ) -> Tensor {
        let (n, c, h, w) = (
            x.shape().dim(0),
            x.shape().dim(1),
            x.shape().dim(2),
            x.shape().dim(3),
        );
        assert_eq!(c, self.channels(), "channel mismatch");
        let hw = h * w;
        let (mean, var) = if training {
            let (m, v) =
                ops::channel_mean_var(&x, exec.reducer(OpClass::Statistics)).expect("bn stats");
            for ch in 0..c {
                self.running_mean[ch] =
                    self.momentum * self.running_mean[ch] + (1.0 - self.momentum) * m[ch];
                self.running_var[ch] =
                    self.momentum * self.running_var[ch] + (1.0 - self.momentum) * v[ch];
            }
            (m, v)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let gv = self.gamma.as_slice().to_vec();
        let bv = self.beta.as_slice().to_vec();
        let xv = x.as_mut_slice();
        let mut xhat = vec![0f32; n * c * hw];
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * hw;
                for i in 0..hw {
                    let xh = (xv[base + i] - mean[ch]) * inv_std[ch];
                    xhat[base + i] = xh;
                    xv[base + i] = gv[ch] * xh + bv[ch];
                }
            }
        }
        if training {
            self.cached_xhat = Some(Tensor::from_vec(x.shape(), xhat).expect("xhat shape"));
            self.cached_inv_std = inv_std;
        }
        x
    }

    fn backward(&mut self, dy: Tensor, exec: &mut ExecutionContext) -> Tensor {
        let xhat = self.cached_xhat.take().expect("backward before forward");
        let (n, c, h, w) = (
            dy.shape().dim(0),
            dy.shape().dim(1),
            dy.shape().dim(2),
            dy.shape().dim(3),
        );
        let hw = h * w;
        let m = (n * hw) as f32;
        let dyv = dy.as_slice();
        let xhv = xhat.as_slice();
        let gv = self.gamma.as_slice().to_vec();

        // Per-channel reductions over (batch × spatial) — order-sensitive.
        let red = exec.reducer(OpClass::Statistics);
        let mut scratch = vec![0f32; n * hw];
        let mut sum_dy = vec![0f32; c];
        let mut sum_dy_xhat = vec![0f32; c];
        for ch in 0..c {
            for s in 0..n {
                let base = (s * c + ch) * hw;
                scratch[s * hw..(s + 1) * hw].copy_from_slice(&dyv[base..base + hw]);
            }
            sum_dy[ch] = red.sum(&scratch);
            for s in 0..n {
                let base = (s * c + ch) * hw;
                for i in 0..hw {
                    scratch[s * hw + i] = dyv[base + i] * xhv[base + i];
                }
            }
            sum_dy_xhat[ch] = red.sum(&scratch);
        }

        self.dgamma = Tensor::from_vec(Shape::of(&[c]), sum_dy_xhat.clone()).expect("dgamma");
        self.dbeta = Tensor::from_vec(Shape::of(&[c]), sum_dy.clone()).expect("dbeta");

        // dx = (γ·inv_std/m) · (m·dy − Σdy − x̂·Σ(dy·x̂))
        let mut dx = Tensor::zeros(dy.shape());
        let dxv = dx.as_mut_slice();
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * hw;
                let k = gv[ch] * self.cached_inv_std[ch] / m;
                for i in 0..hw {
                    dxv[base + i] =
                        k * (m * dyv[base + i] - sum_dy[ch] - xhv[base + i] * sum_dy_xhat[ch]);
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.gamma, &mut self.dgamma);
        f(&mut self.beta, &mut self.dbeta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn param_count(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }

    fn kind(&self) -> &'static str {
        "batchnorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::StreamId;
    use hwsim::{Device, ExecutionMode};

    fn setup(c: usize) -> (BatchNorm2d, ExecutionContext, Philox) {
        let root = Philox::from_seed(5);
        let mut rng = root.stream(StreamId::INIT.child(0));
        (
            BatchNorm2d::new(c, &mut rng),
            ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0),
            root,
        )
    }

    fn random_input(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor {
        let root = Philox::from_seed(seed);
        let mut rng = root.stream(StreamId::TEST);
        let mut t = Tensor::zeros(Shape::of(&[n, c, h, w]));
        for v in t.as_mut_slice() {
            *v = rng.normal_with(3.0, 2.0);
        }
        t
    }

    #[test]
    fn training_output_is_normalized() {
        let (mut bn, mut exec, root) = setup(2);
        let x = random_input(8, 2, 4, 4, 11);
        let y = bn.forward(x, &mut exec, &root, 0, true);
        // Per-channel mean ≈ 0, var ≈ 1 (γ=1, β=0).
        for ch in 0..2 {
            let mut vals = Vec::new();
            for s in 0..8 {
                for i in 0..16 {
                    vals.push(y.as_slice()[(s * 2 + ch) * 16 + i] as f64);
                }
            }
            let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            let var: f64 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let (mut bn, mut exec, root) = setup(1);
        // Train a few batches to move the running stats.
        for seed in 0..20 {
            let x = random_input(8, 1, 4, 4, 100 + seed);
            bn.forward(x, &mut exec, &root, seed, true);
        }
        assert!(
            bn.running_mean()[0].abs() > 0.5,
            "running mean barely moved"
        );
        // Eval on a constant input: output must be a deterministic function
        // of the running stats, not the batch.
        let x = Tensor::full(Shape::of(&[2, 1, 4, 4]), 3.0);
        let y1 = bn.forward(x.clone(), &mut exec, &root, 0, false);
        let y2 = bn.forward(x, &mut exec, &root, 0, false);
        assert_eq!(y1.as_slice(), y2.as_slice());
    }

    #[test]
    fn gradient_check() {
        let (mut bn, mut exec, root) = setup(2);
        let x = random_input(4, 2, 2, 2, 17);
        // L = Σ y² with fresh stats each forward; use the same batch so
        // finite differences see the same normalization function.
        let y = bn.forward(x.clone(), &mut exec, &root, 0, true);
        let mut dy = y.clone();
        dy.scale(2.0);
        let dx = bn.backward(dy, &mut exec);
        let mut loss = |x: &Tensor| -> f64 {
            let y = bn.forward(x.clone(), &mut exec, &root, 0, true);
            bn.cached_xhat = None; // discard cache from probe forwards
            y.as_slice().iter().map(|&v| (v as f64).powi(2)).sum()
        };
        let eps = 1e-2f32;
        for i in [0usize, 3, 9, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps as f64);
            let an = dx.as_slice()[i] as f64;
            assert!(
                (fd - an).abs() < 0.05 * fd.abs().max(0.5),
                "dx[{i}]: fd {fd} vs an {an}"
            );
        }
    }

    #[test]
    fn param_count_and_kind() {
        let (bn, _, _) = setup(8);
        assert_eq!(bn.param_count(), 16);
        assert_eq!(bn.kind(), "batchnorm2d");
        assert_eq!(bn.channels(), 8);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let (mut bn, mut exec, root) = setup(3);
        bn.forward(
            Tensor::zeros(Shape::of(&[1, 2, 2, 2])),
            &mut exec,
            &root,
            0,
            true,
        );
    }
}
