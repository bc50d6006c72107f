//! Pooling and reshaping layers.

use super::Layer;
use detrand::Philox;
use hwsim::{ExecutionContext, OpClass};
use nstensor::{
    global_avg_pool_backward, global_avg_pool_forward, maxpool2d_backward, maxpool2d_forward,
    Shape, Tensor,
};

/// Non-overlapping 2-D max pooling with window (and stride) `k`.
///
/// A training forward pass keeps two buffers for the backward pass: the
/// argmax indices, rewritten in place each step, and the forward input
/// itself, whose storage the backward pass zeroes and fills with the
/// input gradient instead of allocating one. An inference pass writes no
/// index and keeps no input.
#[derive(Debug)]
pub struct MaxPool2d {
    k: usize,
    cached_x: Option<Tensor>,
    argmax: Vec<u32>,
}

impl MaxPool2d {
    /// Creates the layer.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        Self {
            k,
            cached_x: None,
            argmax: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(
        &mut self,
        x: Tensor,
        _exec: &mut ExecutionContext,
        _algo: &Philox,
        _step: u64,
        training: bool,
    ) -> Tensor {
        let y = maxpool2d_forward(&x, self.k, training.then_some(&mut self.argmax))
            .expect("maxpool shape");
        if training {
            self.cached_x = Some(x);
        }
        y
    }

    fn backward(&mut self, dy: Tensor, _exec: &mut ExecutionContext) -> Tensor {
        let mut dx = self.cached_x.take().expect("backward before forward");
        maxpool2d_backward(&mut dx, self.k, &dy, &self.argmax).expect("maxpool backward shape");
        dx
    }

    #[cfg(test)]
    fn kept_buffers(&self) -> Vec<*const u8> {
        vec![self.argmax.as_ptr().cast()]
    }

    fn kind(&self) -> &'static str {
        "maxpool2d"
    }
}

/// Global average pooling: `[N, C, H, W]` → `[N, C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(
        &mut self,
        x: Tensor,
        exec: &mut ExecutionContext,
        _algo: &Philox,
        _step: u64,
        training: bool,
    ) -> Tensor {
        if training {
            self.cached_shape = Some(x.shape());
        }
        global_avg_pool_forward(&x, exec.reducer(OpClass::Misc)).expect("gap shape")
    }

    fn backward(&mut self, dy: Tensor, _exec: &mut ExecutionContext) -> Tensor {
        let shape = self.cached_shape.take().expect("backward before forward");
        global_avg_pool_backward(shape, &dy).expect("gap backward shape")
    }

    fn kind(&self) -> &'static str {
        "global_avg_pool"
    }
}

/// Flattens `[N, C, H, W]` into `[N, C·H·W]`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(
        &mut self,
        x: Tensor,
        _exec: &mut ExecutionContext,
        _algo: &Philox,
        _step: u64,
        training: bool,
    ) -> Tensor {
        let shape = x.shape();
        let n = shape.dim(0);
        let rest = shape.len() / n;
        if training {
            self.cached_shape = Some(shape);
        }
        x.reshape(Shape::of(&[n, rest])).expect("flatten reshape")
    }

    fn backward(&mut self, dy: Tensor, _exec: &mut ExecutionContext) -> Tensor {
        let shape = self.cached_shape.take().expect("backward before forward");
        dy.reshape(shape).expect("flatten backward reshape")
    }

    fn kind(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::{Device, ExecutionMode};

    fn exec() -> ExecutionContext {
        ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0)
    }

    #[test]
    fn maxpool_round_trip() {
        let root = Philox::from_seed(0);
        let mut l = MaxPool2d::new(2);
        let x = Tensor::from_vec(Shape::of(&[1, 1, 2, 2]), vec![1.0, 4.0, 2.0, 3.0]).unwrap();
        let y = l.forward(x, &mut exec(), &root, 0, true);
        assert_eq!(y.as_slice(), &[4.0]);
        let dx = l.backward(Tensor::full(y.shape(), 1.0), &mut exec());
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn gap_shapes() {
        let root = Philox::from_seed(0);
        let mut l = GlobalAvgPool::new();
        let x = Tensor::full(Shape::of(&[2, 3, 4, 4]), 2.0);
        let y = l.forward(x, &mut exec(), &root, 0, true);
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert!(y.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        let dx = l.backward(Tensor::full(Shape::of(&[2, 3]), 16.0), &mut exec());
        assert_eq!(dx.shape().dims(), &[2, 3, 4, 4]);
        assert!(dx.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn flatten_round_trip() {
        let root = Philox::from_seed(0);
        let mut l = Flatten::new();
        let x = Tensor::zeros(Shape::of(&[2, 3, 2, 2]));
        let y = l.forward(x, &mut exec(), &root, 0, true);
        assert_eq!(y.shape().dims(), &[2, 12]);
        let dx = l.backward(y, &mut exec());
        assert_eq!(dx.shape().dims(), &[2, 3, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        MaxPool2d::new(0);
    }
}
