//! Philox 4x32-10 counter-based generator.
//!
//! Philox computes a bijective, avalanche-quality mixing of a 128-bit counter
//! under a 64-bit key using ten rounds of multiply-hi/lo and xor operations.
//! Every 128-bit output block is a pure function of `(key, counter)`, which
//! gives random access, trivially parallel generation, and — most importantly
//! for this project — *replayability*: a consumer's draws never depend on how
//! many numbers other consumers pulled.

use serde::{Deserialize, Serialize};

/// Philox round constants (from the reference implementation in Random123).
const PHILOX_M0: u32 = 0xD251_1F53;
const PHILOX_M1: u32 = 0xCD9E_8D57;
const PHILOX_W0: u32 = 0x9E37_79B9;
const PHILOX_W1: u32 = 0xBB67_AE85;
/// Number of rounds. Ten is the standard "crush-resistant" configuration.
const ROUNDS: usize = 10;

/// A frozen Philox generator: a key from which independent streams are derived.
///
/// `Philox` itself is immutable; [`Philox::stream`] and [`Philox::rng_at`]
/// open a [`crate::StreamRng`], the one mutable stream type, which walks a
/// counter sequence under this key.
///
/// # Example
///
/// ```
/// use detrand::Philox;
/// let root = Philox::from_seed(7);
/// let mut rng = root.rng_at(0);
/// let x = rng.next_u32();
/// // Random access: restarting at the same counter replays the value.
/// assert_eq!(root.rng_at(0).next_u32(), x);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Philox {
    pub(crate) key: [u32; 2],
}

impl Philox {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            key: [(seed & 0xFFFF_FFFF) as u32, (seed >> 32) as u32],
        }
    }

    /// Returns the 64-bit key.
    pub fn key(&self) -> u64 {
        (self.key[0] as u64) | ((self.key[1] as u64) << 32)
    }

    /// Derives a child generator whose key mixes in `salt`.
    ///
    /// Child keys are produced by running the parent key and the salt through
    /// one Philox block, so sibling children are statistically independent.
    pub fn derive(&self, salt: u64) -> Philox {
        let block = philox4x32(
            self.key,
            [
                (salt & 0xFFFF_FFFF) as u32,
                (salt >> 32) as u32,
                0x5EED_5EED,
                0x0BAD_CAFE,
            ],
        );
        Philox {
            key: [block[0], block[1]],
        }
    }
}

/// One Philox 4x32-10 block: mixes a 128-bit counter under a 64-bit key.
#[inline]
pub fn philox4x32(key: [u32; 2], mut ctr: [u32; 4]) -> [u32; 4] {
    let mut k = key;
    for _ in 0..ROUNDS {
        let lo0 = PHILOX_M0.wrapping_mul(ctr[0]);
        let hi0 = ((PHILOX_M0 as u64 * ctr[0] as u64) >> 32) as u32;
        let lo1 = PHILOX_M1.wrapping_mul(ctr[2]);
        let hi1 = ((PHILOX_M1 as u64 * ctr[2] as u64) >> 32) as u32;
        ctr = [hi1 ^ ctr[1] ^ k[0], lo1, hi0 ^ ctr[3] ^ k[1], lo0];
        k[0] = k[0].wrapping_add(PHILOX_W0);
        k[1] = k[1].wrapping_add(PHILOX_W1);
    }
    ctr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_is_deterministic() {
        let a = philox4x32([1, 2], [3, 4, 5, 6]);
        let b = philox4x32([1, 2], [3, 4, 5, 6]);
        assert_eq!(a, b);
    }

    #[test]
    fn block_depends_on_key_and_counter() {
        let base = philox4x32([1, 2], [3, 4, 5, 6]);
        assert_ne!(base, philox4x32([1, 3], [3, 4, 5, 6]));
        assert_ne!(base, philox4x32([1, 2], [3, 4, 5, 7]));
    }

    #[test]
    fn reference_vector_counter_zero() {
        // The philox4x32-10 known-answer vectors of Random123 (`kat_vectors`):
        // a changed round count, multiplier or key schedule fails them.
        let kat = [
            (
                [0, 0],
                [0; 4],
                [0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8],
            ),
            (
                [u32::MAX; 2],
                [u32::MAX; 4],
                [0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd],
            ),
            (
                [0xa4093822, 0x299f31d0],
                [0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344],
                [0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1],
            ),
        ];
        for (key, ctr, want) in kat {
            assert_eq!(philox4x32(key, ctr), want, "key {key:x?}, counter {ctr:x?}");
        }
    }

    #[test]
    fn state_replays_from_same_counter() {
        let g = Philox::from_seed(99);
        let mut a = g.rng_at(5);
        let mut b = g.rng_at(5);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn snapshot_restores_mid_block() {
        let g = Philox::from_seed(77);
        let mut a = g.rng_at(3);
        // Advance into the middle of a buffered block.
        for _ in 0..7 {
            a.next_u32();
        }
        let mut b = crate::StreamRng::from_snapshot(a.snapshot());
        assert_eq!(a, b);
        for _ in 0..64 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_counters_give_different_sequences() {
        let g = Philox::from_seed(99);
        let a: Vec<u32> = (0..8).map(|_| g.rng_at(0).next_u32()).collect();
        let b: Vec<u32> = (0..8).map(|_| g.rng_at(1).next_u32()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn derive_changes_key() {
        let g = Philox::from_seed(1);
        assert_ne!(g.derive(0).key(), g.key());
        assert_ne!(g.derive(0).key(), g.derive(1).key());
    }

    #[test]
    fn f32_in_unit_interval() {
        let g = Philox::from_seed(3);
        let mut r = g.rng_at(0);
        for _ in 0..10_000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let g = Philox::from_seed(4);
        let mut r = g.rng_at(0);
        for bound in [1u32, 2, 3, 7, 100, 1 << 20] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let g = Philox::from_seed(5);
        let mut r = g.rng_at(0);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Philox::from_seed(0).rng_at(0).next_below(0);
    }

    #[test]
    fn clone_forks_position() {
        let g = Philox::from_seed(11);
        let mut a = g.rng_at(0);
        a.next_u32();
        let mut b = a.clone();
        for _ in 0..50 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let g = Philox::from_seed(12);
        let mut r = g.rng_at(0);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
