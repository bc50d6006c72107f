//! The trainable model zoo.
//!
//! Scaled-down counterparts of the architectures the paper *trains*
//! (Appendix B/C), sized so that replica fleets run on a CPU-backed
//! simulator in seconds. The scaling preserves what matters for the study:
//! the small CNN has no batch-norm (the paper's highest-instability model),
//! its BN variant differs only by normalization, and the Micro-ResNets keep
//! the residual/BN topology that curbs noise amplification.

use crate::layers::{
    BatchNorm2d, Conv2d, Dense, Dropout, Flatten, GlobalAvgPool, MaxPool2d, Relu, ResidualBlock,
};
use crate::model::Network;
use detrand::{Philox, StreamId};
use nstensor::ConvGeometry;

/// The paper's three-layer small CNN (Appendix C), scaled.
///
/// `conv3×3 → [bn] → relu → pool2` twice, a final `conv3×3 → [bn] → relu`,
/// then `flatten → dense(32) → relu → dense(classes)`. `with_bn` selects
/// the Fig. 2 batch-norm ablation arm. `input_hw` must be divisible by 4.
///
/// # Example
///
/// ```
/// use detrand::Philox;
/// let net = nnet::zoo::small_cnn(12, 3, 10, false, &Philox::from_seed(1));
/// assert!(net.param_count() > 1000);
/// ```
///
/// # Panics
///
/// Panics if `input_hw` is not divisible by 4.
pub fn small_cnn(
    input_hw: usize,
    in_c: usize,
    classes: usize,
    with_bn: bool,
    root: &Philox,
) -> Network {
    assert_eq!(input_hw % 4, 0, "input size must be divisible by 4");
    let mut rng = root.stream(StreamId::INIT.child(0));
    let mut net = Network::new();
    let channels = [16usize, 16, 16];
    let mut c_in = in_c;
    let mut hw = input_hw;
    for (i, &c_out) in channels.iter().enumerate() {
        let geom = ConvGeometry::new(c_in, c_out, 3, 1, 1, hw, hw);
        net.push(Conv2d::new(geom, &mut rng));
        if with_bn {
            net.push(BatchNorm2d::new(c_out, &mut rng));
        }
        net.push(Relu::new());
        if i < 2 {
            net.push(MaxPool2d::new(2));
            hw /= 2;
        }
        c_in = c_out;
    }
    net.push(Flatten::new());
    net.push(Dense::new(c_in * hw * hw, 32, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(32, classes, &mut rng));
    net
}

/// A small CNN with a dropout layer before the classifier — exercises the
/// "stochastic layers" algorithmic noise source.
pub fn small_cnn_dropout(
    input_hw: usize,
    in_c: usize,
    classes: usize,
    rate: f32,
    root: &Philox,
) -> Network {
    assert_eq!(input_hw % 4, 0, "input size must be divisible by 4");
    let mut rng = root.stream(StreamId::INIT.child(0));
    let mut net = Network::new();
    let geom1 = ConvGeometry::new(in_c, 8, 3, 1, 1, input_hw, input_hw);
    net.push(Conv2d::new(geom1, &mut rng));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2));
    let geom2 = ConvGeometry::new(8, 16, 3, 1, 1, input_hw / 2, input_hw / 2);
    net.push(Conv2d::new(geom2, &mut rng));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2));
    net.push(Flatten::new());
    net.push(Dropout::new(rate, 0));
    net.push(Dense::new(
        16 * (input_hw / 4) * (input_hw / 4),
        32,
        &mut rng,
    ));
    net.push(Relu::new());
    net.push(Dense::new(32, classes, &mut rng));
    net
}

/// A scaled ResNet-18 stand-in: stem conv + BN, three basic residual
/// stages (16 → 32 → 64 channels, downsampling twice), global average
/// pooling and a linear classifier.
///
/// # Panics
///
/// Panics if `input_hw` is not divisible by 4.
pub fn micro_resnet18(input_hw: usize, in_c: usize, classes: usize, root: &Philox) -> Network {
    assert_eq!(input_hw % 4, 0, "input size must be divisible by 4");
    let mut rng = root.stream(StreamId::INIT.child(0));
    let mut net = Network::new();
    let stem = ConvGeometry::new(in_c, 8, 3, 1, 1, input_hw, input_hw);
    net.push(Conv2d::new(stem, &mut rng));
    net.push(BatchNorm2d::new(8, &mut rng));
    net.push(Relu::new());
    net.push(ResidualBlock::new(8, 8, 1, input_hw, input_hw, &mut rng));
    net.push(ResidualBlock::new(8, 16, 2, input_hw, input_hw, &mut rng));
    let hw2 = input_hw / 2;
    net.push(ResidualBlock::new(16, 32, 2, hw2, hw2, &mut rng));
    net.push(GlobalAvgPool::new());
    net.push(Dense::new(32, classes, &mut rng));
    net
}

/// A scaled ResNet-50 stand-in: the same residual topology with doubled
/// depth per stage (used for the ImageNet-sim rows of Table 2 / Fig. 1).
///
/// # Panics
///
/// Panics if `input_hw` is not divisible by 4.
pub fn micro_resnet50(input_hw: usize, in_c: usize, classes: usize, root: &Philox) -> Network {
    assert_eq!(input_hw % 4, 0, "input size must be divisible by 4");
    let mut rng = root.stream(StreamId::INIT.child(0));
    let mut net = Network::new();
    let stem = ConvGeometry::new(in_c, 8, 3, 1, 1, input_hw, input_hw);
    net.push(Conv2d::new(stem, &mut rng));
    net.push(BatchNorm2d::new(8, &mut rng));
    net.push(Relu::new());
    net.push(ResidualBlock::new(8, 8, 1, input_hw, input_hw, &mut rng));
    net.push(ResidualBlock::new(8, 8, 1, input_hw, input_hw, &mut rng));
    net.push(ResidualBlock::new(8, 16, 2, input_hw, input_hw, &mut rng));
    let hw2 = input_hw / 2;
    net.push(ResidualBlock::new(16, 16, 1, hw2, hw2, &mut rng));
    net.push(ResidualBlock::new(16, 32, 2, hw2, hw2, &mut rng));
    let hw4 = input_hw / 4;
    net.push(ResidualBlock::new(32, 32, 1, hw4, hw4, &mut rng));
    net.push(GlobalAvgPool::new());
    net.push(Dense::new(32, classes, &mut rng));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::{Device, ExecutionContext, ExecutionMode};
    use nstensor::{Shape, Tensor};

    fn forward_shape(net: &mut Network, in_c: usize, hw: usize, root: &Philox) -> Vec<usize> {
        let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
        let x = Tensor::zeros(Shape::of(&[2, in_c, hw, hw]));
        net.forward(x, &mut exec, root, 0, false)
            .shape()
            .dims()
            .to_vec()
    }

    #[test]
    fn small_cnn_output_shape() {
        let root = Philox::from_seed(1);
        let mut net = small_cnn(12, 3, 10, false, &root);
        assert_eq!(forward_shape(&mut net, 3, 12, &root), vec![2, 10]);
        assert!(!net.layer_kinds().contains(&"batchnorm2d"));
    }

    #[test]
    fn small_cnn_bn_variant_has_batchnorm() {
        let root = Philox::from_seed(1);
        let net = small_cnn(12, 3, 10, true, &root);
        assert_eq!(
            net.layer_kinds()
                .iter()
                .filter(|k| **k == "batchnorm2d")
                .count(),
            3
        );
    }

    #[test]
    fn dropout_variant_has_dropout() {
        let root = Philox::from_seed(2);
        let mut net = small_cnn_dropout(12, 3, 10, 0.25, &root);
        assert!(net.layer_kinds().contains(&"dropout"));
        assert_eq!(forward_shape(&mut net, 3, 12, &root), vec![2, 10]);
    }

    #[test]
    fn micro_resnet18_output_shape() {
        let root = Philox::from_seed(3);
        let mut net = micro_resnet18(8, 3, 100, &root);
        assert_eq!(forward_shape(&mut net, 3, 8, &root), vec![2, 100]);
    }

    #[test]
    fn micro_resnet50_is_deeper_than_18() {
        let root = Philox::from_seed(4);
        let r18 = micro_resnet18(8, 3, 10, &root);
        let r50 = micro_resnet50(8, 3, 10, &root);
        assert!(r50.param_count() > r18.param_count());
        let mut net = micro_resnet50(8, 3, 10, &root);
        assert_eq!(forward_shape(&mut net, 3, 8, &root), vec![2, 10]);
    }

    #[test]
    fn same_seed_same_model() {
        let root = Philox::from_seed(5);
        let mut a = micro_resnet18(8, 3, 10, &root);
        let mut b = micro_resnet18(8, 3, 10, &root);
        assert_eq!(a.flat_weights(), b.flat_weights());
    }

    /// One training step's input: `[4, 3, hw, hw]` values that depend on
    /// the step, with NaN at a few places where `nan`, and labels.
    fn batch(hw: usize, step: u64, nan: bool) -> (Tensor, Vec<u32>) {
        let mut seed = step.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut x: Vec<f32> = (0..4 * 3 * hw * hw)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((seed >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
            })
            .collect();
        if nan {
            // A lone NaN, and a NaN 2×2 window of sample 2's first plane.
            x[5] = f32::NAN;
            for i in [0, 1, hw, hw + 1] {
                x[2 * 3 * hw * hw + i] = f32::NAN;
            }
        }
        let labels = (0..4).map(|i| (i * 3 + step as u32) % 10).collect();
        (
            Tensor::from_vec(Shape::of(&[4, 3, hw, hw]), x).unwrap(),
            labels,
        )
    }

    /// One training step from `net`'s current state: the logits and
    /// every parameter gradient, as bits, then an SGD update.
    fn train_step(net: &mut Network, root: &Philox, hw: usize, step: u64, nan: bool) -> Vec<u32> {
        // Permuted reductions, drawn from a context made for the step,
        // so that a fresh network sees the same draws.
        let mut exec = ExecutionContext::new(Device::v100(), ExecutionMode::Default, step);
        let (x, labels) = batch(hw, step, nan);
        let logits = net.forward(x, &mut exec, root, step, true);
        let (_, dy) = crate::loss::softmax_cross_entropy(&logits, &labels);
        net.backward(dy, &mut exec);
        let mut bits: Vec<u32> = logits.as_slice().iter().map(|v| v.to_bits()).collect();
        net.visit_params(&mut |p, g| {
            bits.extend(g.as_slice().iter().map(|v| v.to_bits()));
            for (w, &d) in p.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *w -= 0.05 * d;
            }
        });
        bits
    }

    #[test]
    fn kept_buffers_are_reused_and_leave_no_stale_bits() {
        // Three training steps of one network, with an inference pass of
        // a larger batch after the first, against a network built fresh
        // for each step with the same state and input: a kept ReLU mask,
        // argmax or pooling input that carried anything from an earlier
        // pass would change a logit or a gradient. Step 3 has NaN where
        // step 2 has none. From step 2 on the masks and argmaxes keep
        // their storage.
        type Build = fn(&Philox) -> Network;
        let nets: [(Build, usize); 3] = [
            (|root| small_cnn(12, 3, 10, false, root), 12),
            (|root| small_cnn(12, 3, 10, true, root), 12),
            (|root| micro_resnet18(8, 3, 10, root), 8),
        ];
        for (build, hw) in nets {
            let root = Philox::from_seed(17);
            let mut net = build(&root);
            let mut kept = Vec::new();
            for (step, nan) in [(1, false), (2, false), (3, true)] {
                let mut fresh = build(&root);
                fresh.set_flat_state(&net.flat_state()).unwrap();
                let got = train_step(&mut net, &root, hw, step, nan);
                let want = train_step(&mut fresh, &root, hw, step, nan);
                assert!(got == want, "{:?} step {step}", net.layer_kinds());
                if step == 1 {
                    let mut exec = ExecutionContext::new(Device::v100(), ExecutionMode::Default, 9);
                    let x = Tensor::full(Shape::of(&[6, 3, hw, hw]), -1.0);
                    net.forward(x, &mut exec, &root, 1, false);
                } else {
                    kept.push(net.kept_buffers());
                }
            }
            assert!(!kept[0].is_empty());
            assert_eq!(kept[0], kept[1], "{:?}", net.layer_kinds());
        }
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn odd_input_rejected() {
        small_cnn(10, 3, 10, false, &Philox::from_seed(0));
    }
}
