//! Workload descriptions consumed by the profiler.
//!
//! A workload is the op-level trace of one training step: the convolution
//! geometries, dense (fully-connected) shapes and normalization/pooling/
//! activation volumes of a network at a given batch size. The `nnet` crate
//! compiles its architecture descriptors into this form.

use nstensor::ConvGeometry;

/// One operation in a training-step workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadOp {
    /// A 2-D convolution of the given geometry at the given batch size.
    Conv {
        /// Convolution geometry.
        geom: ConvGeometry,
        /// Batch size.
        batch: usize,
    },
    /// A dense layer: `[batch, in] × [in, out]`.
    Dense {
        /// Batch size.
        batch: usize,
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Batch normalization over `batch * channels * spatial` elements.
    BatchNorm {
        /// Total normalized elements.
        elems: usize,
    },
    /// Pooling over `elems` input elements.
    Pool {
        /// Total input elements.
        elems: usize,
    },
    /// Elementwise activation over `elems` elements.
    Activation {
        /// Total elements.
        elems: usize,
    },
}

impl WorkloadOp {
    /// Forward FLOP count of the op (multiply-accumulates × 2).
    pub fn forward_flops(&self) -> u64 {
        match *self {
            WorkloadOp::Conv { geom, batch } => geom.flops(batch),
            WorkloadOp::Dense {
                batch,
                in_features,
                out_features,
            } => 2 * (batch * in_features * out_features) as u64,
            // Memory-bound ops: count element touches, not MACs.
            WorkloadOp::BatchNorm { elems } => 4 * elems as u64,
            WorkloadOp::Pool { elems } => elems as u64,
            WorkloadOp::Activation { elems } => elems as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_flops_delegate_to_geometry() {
        let geom = ConvGeometry::new(3, 8, 3, 1, 1, 8, 8);
        let op = WorkloadOp::Conv { geom, batch: 4 };
        assert_eq!(op.forward_flops(), geom.flops(4));
    }

    #[test]
    fn dense_flops() {
        let op = WorkloadOp::Dense {
            batch: 2,
            in_features: 10,
            out_features: 5,
        };
        assert_eq!(op.forward_flops(), 200);
    }

    #[test]
    fn memory_bound_ops_scale_with_elems() {
        assert_eq!(WorkloadOp::Activation { elems: 7 }.forward_flops(), 7);
        assert_eq!(WorkloadOp::Pool { elems: 7 }.forward_flops(), 7);
        assert_eq!(WorkloadOp::BatchNorm { elems: 7 }.forward_flops(), 28);
    }
}
