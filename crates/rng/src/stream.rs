//! Named random streams.
//!
//! Every source of algorithmic randomness in a training run owns a
//! [`StreamRng`] derived from the experiment's root key and a hierarchical
//! [`StreamId`]. Streams are independent by construction: consuming any
//! amount from one stream never shifts another, which is the property that
//! makes the ALGO / IMPL noise decomposition of the paper well-defined.

use crate::philox::{philox4x32, Philox};
use serde::{Deserialize, Serialize};

/// A hierarchical identifier for a random stream.
///
/// Composed of a purpose tag and up to three levels of indices (e.g.
/// `DROPOUT.child(layer).child(step)`), packed into a single salt.
///
/// # Example
///
/// ```
/// use detrand::StreamId;
/// let a = StreamId::DROPOUT.child(3);
/// let b = StreamId::DROPOUT.child(4);
/// assert_ne!(a.salt(), b.salt());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StreamId {
    purpose: u16,
    path: [u16; 3],
    depth: u8,
}

impl StreamId {
    /// Weight initialization draws.
    pub const INIT: StreamId = StreamId::new(1);
    /// Epoch shuffling of the training set.
    pub const SHUFFLE: StreamId = StreamId::new(2);
    /// Stochastic data augmentation.
    pub const AUGMENT: StreamId = StreamId::new(3);
    /// Dropout masks.
    pub const DROPOUT: StreamId = StreamId::new(4);
    /// Synthetic dataset generation.
    pub const DATASET: StreamId = StreamId::new(5);
    /// Anything test-local.
    pub const TEST: StreamId = StreamId::new(6);

    /// Creates a stream id with a custom purpose tag.
    pub const fn new(purpose: u16) -> Self {
        Self {
            purpose,
            path: [0; 3],
            depth: 0,
        }
    }

    /// Appends one level to the path (e.g. layer index, replica index).
    ///
    /// # Panics
    ///
    /// Panics if the id already has three levels.
    pub fn child(mut self, index: u16) -> Self {
        assert!(self.depth < 3, "StreamId supports at most three levels");
        self.path[self.depth as usize] = index;
        self.depth += 1;
        self
    }

    /// Packs the id into a 64-bit salt for key derivation.
    pub fn salt(&self) -> u64 {
        // depth participates so that `X.child(0)` != `X`.
        (self.purpose as u64)
            | ((self.path[0] as u64) << 16)
            | ((self.path[1] as u64) << 32)
            | ((self.path[2] as u64) << 48) ^ ((self.depth as u64) << 61)
    }
}

/// A mutable random stream: the one stream type of the crate.
///
/// Walks a Philox counter sequence under a frozen key, buffering one
/// 128-bit block, and caches the second Box-Muller variate. Obtained from
/// [`Philox::stream`] (a named stream at counter zero) or
/// [`Philox::rng_at`] (any counter). Cloning forks the exact position:
/// both clones produce identical continuations.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRng {
    key: [u32; 2],
    /// Counter of the next block to generate.
    counter: u128,
    buf: [u32; 4],
    /// Read cursor into `buf` (4 = buffer exhausted).
    buf_pos: usize,
    /// Cached second Box-Muller variate.
    gauss_spare: Option<f32>,
}

impl Philox {
    /// Opens the named stream at counter zero.
    pub fn stream(&self, id: StreamId) -> StreamRng {
        self.derive(id.salt()).rng_at(0)
    }

    /// Opens a stream under this key starting at block `counter`.
    pub fn rng_at(&self, counter: u128) -> StreamRng {
        StreamRng {
            key: self.key,
            counter,
            buf: [0; 4],
            buf_pos: 4,
            gauss_spare: None,
        }
    }
}

/// A plain-data snapshot of a [`StreamRng`]: the full generator position
/// (key, counter, buffered block and intra-block cursor) plus the cached
/// Box-Muller spare, so a checkpoint restores the stream byte-exactly,
/// mid-block and between the two halves of a Box-Muller draw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamSnapshot {
    /// The stream's frozen key.
    pub key: [u32; 2],
    /// Low 64 bits of the counter of the next block to generate.
    pub counter_lo: u64,
    /// High 64 bits of the counter.
    pub counter_hi: u64,
    /// The currently buffered output block.
    pub buf: [u32; 4],
    /// Read cursor into `buf` (4 = buffer exhausted).
    pub buf_pos: u8,
    /// The cached second Box-Muller variate, if any.
    pub gauss_spare: Option<f32>,
}

impl StreamRng {
    /// Captures the complete stream position (see [`StreamSnapshot`]).
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            key: self.key,
            counter_lo: self.counter as u64,
            counter_hi: (self.counter >> 64) as u64,
            buf: self.buf,
            buf_pos: self.buf_pos as u8,
            gauss_spare: self.gauss_spare,
        }
    }

    /// Rebuilds a stream at the exact position captured by
    /// [`StreamRng::snapshot`].
    pub fn from_snapshot(s: StreamSnapshot) -> Self {
        Self {
            key: s.key,
            counter: (s.counter_lo as u128) | ((s.counter_hi as u128) << 64),
            buf: s.buf,
            buf_pos: (s.buf_pos as usize).min(4),
            gauss_spare: s.gauss_spare,
        }
    }

    /// Returns the next 32 uniformly distributed random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.buf_pos >= 4 {
            self.refill();
        }
        let v = self.buf[self.buf_pos];
        self.buf_pos += 1;
        v
    }

    /// Returns the next 64 uniformly distributed random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Returns a uniform `f32` in `[0, 1)` using the top 24 bits.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Returns a uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias
    /// (Lemire's method).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "next_below bound must be positive");
        loop {
            let x = self.next_u32();
            let m = (x as u64) * (bound as u64);
            let lo = m as u32;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 32) as u32;
            }
        }
    }

    fn refill(&mut self) {
        let c = self.counter;
        let ctr = [
            c as u32,
            (c >> 32) as u32,
            (c >> 64) as u32,
            (c >> 96) as u32,
        ];
        self.buf = philox4x32(self.key, ctr);
        self.counter = c.wrapping_add(1);
        self.buf_pos = 0;
    }

    /// Returns a uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Returns a standard normal variate (Box-Muller).
    #[inline]
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        loop {
            let u1 = self.next_f32();
            if u1 <= f32::MIN_POSITIVE {
                continue;
            }
            let u2 = self.next_f32();
            let r = (-2.0 * u1.ln()).sqrt();
            let (s, c) = (2.0 * core::f32::consts::PI * u2).sin_cos();
            self.gauss_spare = Some(r * s);
            return r * c;
        }
    }

    /// Returns a normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Returns `true` with probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.next_f32() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_independent_of_consumption() {
        let root = Philox::from_seed(5);
        // Consume a lot from one stream; another stream is unaffected.
        let mut noisy = root.stream(StreamId::SHUFFLE);
        for _ in 0..1_000 {
            noisy.next_u32();
        }
        let a = root.stream(StreamId::INIT).next_u32();
        let fresh_root = Philox::from_seed(5);
        let b = fresh_root.stream(StreamId::INIT).next_u32();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_preserves_gauss_spare() {
        let root = Philox::from_seed(31);
        let mut a = root.stream(StreamId::TEST);
        // One normal() caches the spare Box-Muller variate.
        a.normal();
        let mut b = StreamRng::from_snapshot(a.snapshot());
        for _ in 0..32 {
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn sibling_streams_differ() {
        let root = Philox::from_seed(5);
        let a: Vec<u32> = {
            let mut s = root.stream(StreamId::DROPOUT.child(0));
            (0..8).map(|_| s.next_u32()).collect()
        };
        let b: Vec<u32> = {
            let mut s = root.stream(StreamId::DROPOUT.child(1));
            (0..8).map(|_| s.next_u32()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn child_zero_differs_from_parent() {
        assert_ne!(
            StreamId::INIT.salt(),
            StreamId::INIT.child(0).salt(),
            "depth must participate in the salt"
        );
    }

    #[test]
    #[should_panic(expected = "at most three levels")]
    fn four_levels_panics() {
        StreamId::TEST.child(0).child(0).child(0).child(0);
    }

    #[test]
    fn normal_moments() {
        let root = Philox::from_seed(17);
        let mut s = root.stream(StreamId::TEST);
        let n = 200_000;
        let xs: Vec<f32> = (0..n).map(|_| s.normal()).collect();
        let mean: f64 = xs.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// Known answers: the first draws of every method of one named stream,
    /// and the draws after a snapshot taken mid-block with a Box-Muller
    /// spare cached. Any change to these literals changes every training
    /// run and every checkpoint.
    #[test]
    fn known_answer_stream_draws() {
        let mut s = Philox::from_seed(42).stream(StreamId::SHUFFLE);
        assert_eq!(s.next_u32(), 0xf9a5_d026);
        assert_eq!(s.next_u64(), 0x07d8_22ec_9326_bd72);
        assert_eq!(s.next_f32().to_bits(), 0x3e6b_367c);
        assert_eq!(s.next_f64().to_bits(), 0x3fe1_20f8_16c5_c6cd);
        assert_eq!(s.next_below(1000), 757);
        // Both halves of one Box-Muller pair.
        assert_eq!(s.normal().to_bits(), 0xbf65_8115);
        assert_eq!(s.normal().to_bits(), 0xbf23_543d);
        assert_eq!(
            [s.bernoulli(0.5), s.bernoulli(0.5), s.bernoulli(0.5)],
            [false, true, false]
        );
        // Caches a spare; the buffer sits at cursor 2 of the block.
        assert_eq!(s.normal().to_bits(), 0x3f80_a7af);
        let mut back = StreamRng::from_snapshot(s.snapshot());
        for r in [&mut s, &mut back] {
            assert_eq!(r.normal().to_bits(), 0xc050_303a);
            assert_eq!(r.next_u32(), 0xc8ec_6104);
        }
    }

    /// Known answers for a stream opened at an explicit counter, as
    /// dropout opens one per step.
    #[test]
    fn known_answer_rng_at_draws() {
        let mut r = Philox::from_seed(42).rng_at(7 << 64);
        assert_eq!(r.next_u32(), 0x67ee_6f2c);
        assert_eq!(r.next_u64(), 0x6c7e_ca35_e554_10cc);
        assert_eq!(r.next_f32().to_bits(), 0x3eaa_e730);
        assert_eq!(r.next_f64().to_bits(), 0x3fd8_03d8_65b9_777a);
        assert_eq!(r.next_below(1000), 561);
        assert_eq!(r.next_u32(), 0x2c8e_d839);
    }

    /// Known answers for the remaining methods of a stream opened at an
    /// explicit counter, and for a snapshot of it taken mid-block.
    #[test]
    fn known_answer_rng_at_normal_bernoulli_and_snapshot() {
        let root = Philox::from_seed(42);
        let mut r = root.rng_at(7 << 64);
        assert_eq!(r.normal().to_bits(), 0x3f88_56de);
        assert_eq!(r.normal().to_bits(), 0xbf51_494d);
        assert_eq!(
            [r.bernoulli(0.5), r.bernoulli(0.5), r.bernoulli(0.5)],
            [true, true, false]
        );
        let mut r = root.rng_at(7 << 64);
        for _ in 0..7 {
            r.next_u32();
        }
        assert_eq!(
            StreamRng::from_snapshot(r.snapshot()).next_u32(),
            0x2c8e_d839
        );
    }

    #[test]
    fn bernoulli_rate() {
        let root = Philox::from_seed(23);
        let mut s = root.stream(StreamId::TEST);
        let hits = (0..100_000).filter(|_| s.bernoulli(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
    }
}
