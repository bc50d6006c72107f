//! A from-scratch convolutional-network training stack whose every
//! floating-point reduction has explicit accumulation-order semantics.
//!
//! This crate is the training substrate of the NoiseScope reproduction. It
//! provides:
//!
//! - [`layers`] — Conv2d, Dense, BatchNorm2d, ReLU, MaxPool2d,
//!   GlobalAvgPool, Dropout, Flatten and residual blocks, each with
//!   hand-written forward/backward passes that route all accumulations
//!   through the executing device's [`hwsim::ExecutionContext`];
//! - [`loss`] — softmax cross-entropy and sigmoid BCE (multi-label);
//! - [`optim`] / [`schedule`] — SGD with momentum, step-decay and
//!   warmup-cosine learning-rate schedules;
//! - [`init`] — Glorot and He initializers fed from [`detrand`] streams
//!   (the *algorithmic* randomness the paper controls with a seed);
//! - [`model`] — the [`model::Network`] container;
//! - [`zoo`] — scaled-down trainable models mirroring the paper's training
//!   experiments (3-layer small CNN with batch-norm or dropout or
//!   neither, Micro-ResNet-18/50);
//! - [`arch`] — full-fidelity layer-geometry descriptors of the ten
//!   networks the paper *profiles* (VGG-16/19, ResNet-50/152,
//!   DenseNet-121/201, MobileNetV2, EfficientNet-B0, Inception-v3, medium
//!   CNN), compiled to [`hwsim::WorkloadOp`] lists for the determinism
//!   cost study;
//! - [`trainer`] — the training loop wiring data order, dropout streams,
//!   the optimizer and the execution context together.
//!
//! # Example
//!
//! ```
//! use detrand::Philox;
//! use hwsim::{Device, ExecutionContext, ExecutionMode};
//! use nnet::{model::Network, zoo, trainer::{self, TrainConfig}};
//! use nstensor::{Shape, Tensor};
//!
//! // Build the paper's small CNN (scaled) with a seeded initializer.
//! let root = Philox::from_seed(42);
//! let mut net = zoo::small_cnn(12, 3, 10, false, &root);
//! // One forward pass on a V100 in default (nondeterministic) mode:
//! let mut exec = ExecutionContext::new(Device::v100(), ExecutionMode::Default, 7);
//! let x = Tensor::zeros(Shape::of(&[2, 3, 12, 12]));
//! let logits = net.forward(x, &mut exec, &root, 0, false);
//! assert_eq!(logits.shape().dims(), &[2, 10]);
//! # let _ = trainer::TrainConfig::default(); let _ = TrainConfig::default();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arch;
pub mod checkpoint;
pub mod init;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod schedule;
pub mod trainer;
pub mod zoo;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use layers::Layer;
pub use model::Network;
pub use trainer::{Batch, FitOptions, Targets, TrainConfig, TrainError, Trainer};
