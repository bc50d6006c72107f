//! Deterministic, counter-based random number generation for reproducible
//! machine-learning experiments.
//!
//! The central design constraint of the NoiseScope study is that *algorithmic*
//! randomness (weight initialization, data shuffling, augmentation, dropout)
//! must be fully replayable from a single seed, independently of how many
//! random numbers any other component consumes. Sequential generators cannot
//! provide that: inserting one extra draw anywhere perturbs every draw after
//! it. Counter-based generators solve the problem — every value is a pure
//! function of `(key, counter)` — and allow cheap, collision-free *stream
//! splitting* so each consumer (init, shuffle, augmentation, dropout layer 3,
//! replica 7, ...) owns an independent substream.
//!
//! The implementation is Philox 4x32-10 (Salmon et al., SC'11), the same
//! generator used by JAX, TensorFlow, and cuRAND, so the semantics mirror the
//! tooling the paper studies. A [`Philox`] is a frozen key; every draw
//! comes from one stream type, [`StreamRng`], opened by [`Philox::stream`]
//! (a named substream) or [`Philox::rng_at`] (any counter), and captured
//! for checkpoints as a [`StreamSnapshot`].
//!
//! # Example
//!
//! ```
//! use detrand::{Philox, StreamId};
//!
//! let root = Philox::from_seed(42);
//! // Independent substreams: one per purpose, one per replica.
//! let mut init = root.stream(StreamId::INIT.child(0));
//! let mut shuffle = root.stream(StreamId::SHUFFLE.child(0));
//! let a = init.next_f32();
//! let b = shuffle.next_f32();
//! assert_ne!(a, b);
//! // Replayable: the same stream id always yields the same sequence.
//! assert_eq!(root.stream(StreamId::INIT.child(0)).next_f32(), a);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod entropy;
pub mod fnv;
pub mod philox;
pub mod seed;
pub mod shuffle;
pub mod splitmix;
pub mod stream;

pub use entropy::EntropySource;
pub use fnv::fnv1a64;
pub use philox::Philox;
pub use seed::SeedPolicy;
pub use shuffle::{permutation, shuffle_in_place};
pub use splitmix::SplitMix64;
pub use stream::{StreamId, StreamRng, StreamSnapshot};
