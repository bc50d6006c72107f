//! Residual (ResNet basic) blocks.

use super::{BatchNorm2d, Conv2d, Layer, Relu};
use detrand::{Philox, StreamRng};
use hwsim::ExecutionContext;
use nstensor::{ConvGeometry, Tensor};

/// A ResNet basic block: `relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))`,
/// with a projection (1×1 strided conv + BN) shortcut when the shape changes.
#[derive(Debug)]
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    projection: Option<(Conv2d, BatchNorm2d)>,
    relu2: Relu,
}

impl ResidualBlock {
    /// Creates a block mapping `in_c` channels at `in_h × in_w` to `out_c`
    /// channels, downsampling by `stride`.
    pub fn new(
        in_c: usize,
        out_c: usize,
        stride: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut StreamRng,
    ) -> Self {
        let g1 = ConvGeometry::new(in_c, out_c, 3, stride, 1, in_h, in_w);
        let (mid_h, mid_w) = (g1.out_h(), g1.out_w());
        let g2 = ConvGeometry::new(out_c, out_c, 3, 1, 1, mid_h, mid_w);
        let projection = if stride != 1 || in_c != out_c {
            let gp = ConvGeometry::new(in_c, out_c, 1, stride, 0, in_h, in_w);
            Some((Conv2d::new(gp, rng), BatchNorm2d::new(out_c, rng)))
        } else {
            None
        };
        Self {
            conv1: Conv2d::new(g1, rng),
            bn1: BatchNorm2d::new(out_c, rng),
            relu1: Relu::new(),
            conv2: Conv2d::new(g2, rng),
            bn2: BatchNorm2d::new(out_c, rng),
            projection,
            relu2: Relu::new(),
        }
    }

    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        self.conv2.geometry().out_h()
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        self.conv2.geometry().out_w()
    }

    /// Output channels.
    pub fn out_c(&self) -> usize {
        self.conv2.geometry().out_c
    }
}

impl Layer for ResidualBlock {
    fn forward(
        &mut self,
        x: Tensor,
        exec: &mut ExecutionContext,
        algo: &Philox,
        step: u64,
        training: bool,
    ) -> Tensor {
        let main = self.conv1.forward(x.clone(), exec, algo, step, training);
        let main = self.bn1.forward(main, exec, algo, step, training);
        let main = self.relu1.forward(main, exec, algo, step, training);
        let main = self.conv2.forward(main, exec, algo, step, training);
        let mut main = self.bn2.forward(main, exec, algo, step, training);

        let shortcut = match &mut self.projection {
            Some((conv, bn)) => {
                let s = conv.forward(x, exec, algo, step, training);
                bn.forward(s, exec, algo, step, training)
            }
            None => x,
        };
        main.add_assign(&shortcut).expect("residual shape");
        self.relu2.forward(main, exec, algo, step, training)
    }

    fn backward(&mut self, dy: Tensor, exec: &mut ExecutionContext) -> Tensor {
        let dy = self.relu2.backward(dy, exec);
        // Main branch.
        let d = self.bn2.backward(dy.clone(), exec);
        let d = self.conv2.backward(d, exec);
        let d = self.relu1.backward(d, exec);
        let d = self.bn1.backward(d, exec);
        let mut dx = self.conv1.backward(d, exec);
        // Shortcut branch.
        let ds = match &mut self.projection {
            Some((conv, bn)) => {
                let d = bn.backward(dy, exec);
                conv.backward(d, exec)
            }
            None => dy,
        };
        dx.add_assign(&ds).expect("residual grad shape");
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((conv, bn)) = &mut self.projection {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.bn1.visit_buffers(f);
        self.bn2.visit_buffers(f);
        if let Some((_, bn)) = &mut self.projection {
            bn.visit_buffers(f);
        }
    }

    fn param_count(&self) -> usize {
        let mut n = self.conv1.param_count()
            + self.bn1.param_count()
            + self.conv2.param_count()
            + self.bn2.param_count();
        if let Some((conv, bn)) = &self.projection {
            n += conv.param_count() + bn.param_count();
        }
        n
    }

    #[cfg(test)]
    fn kept_buffers(&self) -> Vec<*const u8> {
        [&self.relu1, &self.relu2]
            .iter()
            .flat_map(|r| r.kept_buffers())
            .collect()
    }

    fn kind(&self) -> &'static str {
        "residual_block"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::StreamId;
    use hwsim::{Device, ExecutionMode};
    use nstensor::Shape;

    fn setup(
        in_c: usize,
        out_c: usize,
        stride: usize,
    ) -> (ResidualBlock, ExecutionContext, Philox) {
        let root = Philox::from_seed(21);
        let mut rng = root.stream(StreamId::INIT.child(0));
        (
            ResidualBlock::new(in_c, out_c, stride, 8, 8, &mut rng),
            ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0),
            root,
        )
    }

    #[test]
    fn identity_block_shapes() {
        let (mut b, mut exec, root) = setup(8, 8, 1);
        let x = Tensor::full(Shape::of(&[2, 8, 8, 8]), 0.1);
        let y = b.forward(x, &mut exec, &root, 0, true);
        assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
        let dx = b.backward(Tensor::full(y.shape(), 1.0), &mut exec);
        assert_eq!(dx.shape().dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn downsampling_block_shapes_and_projection() {
        let (mut b, mut exec, root) = setup(8, 16, 2);
        assert_eq!(b.out_c(), 16);
        assert_eq!(b.out_h(), 4);
        let x = Tensor::full(Shape::of(&[2, 8, 8, 8]), 0.1);
        let y = b.forward(x, &mut exec, &root, 0, true);
        assert_eq!(y.shape().dims(), &[2, 16, 4, 4]);
        let dx = b.backward(Tensor::full(y.shape(), 1.0), &mut exec);
        assert_eq!(dx.shape().dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn params_cover_all_sublayers() {
        let (b, _, _) = setup(8, 16, 2);
        // conv1 (8·16·9 + 16) + bn1 (32) + conv2 (16·16·9 + 16) + bn2 (32)
        // + proj conv (8·16 + 16) + proj bn (32)
        let expected = (8 * 16 * 9 + 16) + 32 + (16 * 16 * 9 + 16) + 32 + (8 * 16 + 16) + 32;
        assert_eq!(b.param_count(), expected);
        let (mut b2, _, _) = setup(8, 16, 2);
        let mut count = 0;
        b2.visit_params(&mut |_, _| count += 1);
        assert_eq!(count, 12); // 6 sublayers × (param, grad) pairs of 2 each
    }

    #[test]
    fn outputs_are_nonnegative() {
        let (mut b, mut exec, root) = setup(4, 4, 1);
        let mut x = Tensor::zeros(Shape::of(&[1, 4, 8, 8]));
        let mut rng = root.stream(StreamId::TEST);
        for v in x.as_mut_slice() {
            *v = rng.normal();
        }
        let y = b.forward(x, &mut exec, &root, 0, true);
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
    }
}
