//! Model-stability metrics from the NoiseScope study (§2.1 of the paper):
//! predictive churn, normalized weight L2 distance, and standard-deviation
//! decompositions over classes and protected subgroups.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod classification;
pub mod stability;
pub mod stats;

pub use classification::{accuracy, binary_rates, per_class_accuracy, BinaryRates};
pub use stability::{churn, l2_normalized, pairwise_mean_churn, pairwise_mean_l2};
pub use stats::{mean, relative_scale, stddev};
