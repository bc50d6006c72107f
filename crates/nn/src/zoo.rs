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

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn odd_input_rejected() {
        small_cnn(10, 3, 10, false, &Philox::from_seed(0));
    }
}
