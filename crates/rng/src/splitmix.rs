//! SplitMix64: a tiny, fast generator used for seed expansion and for the
//! *scheduler* entropy stream in the hardware simulator.
//!
//! SplitMix64 is sequential (unlike [`crate::Philox`]) but has excellent
//! avalanche behaviour, which makes it the right tool where we explicitly
//! *want* an unreplayable-looking walk from a seed: the simulated GPU
//! scheduler's interleaving decisions.

use serde::{Deserialize, Serialize};

/// The counter increment: the state after `n` draws is `seed + n·GAMMA`,
/// and draw `n` ahead mixes the counter `state + (n + 1)·GAMMA`.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The multipliers of [`SplitMix64::mix`]'s two xor-shift-multiply steps.
pub const MIX_MULTIPLIERS: [u64; 2] = [0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];

/// A SplitMix64 generator.
///
/// # Example
///
/// ```
/// use detrand::SplitMix64;
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The current internal state.
    ///
    /// Together with [`SplitMix64::new`] this makes the generator
    /// checkpointable: `SplitMix64::new(g.state())` resumes exactly where
    /// `g` left off (the state *is* the seed of the continuation).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        Self::mix(self.state)
    }

    /// The output function: a bijective avalanche mix of one counter
    /// value. Every draw is `mix` of a counter, so `peek(n) ==
    /// SplitMix64::mix(g.counter(n))`.
    #[inline(always)]
    pub fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(MIX_MULTIPLIERS[0]);
        z = (z ^ (z >> 27)).wrapping_mul(MIX_MULTIPLIERS[1]);
        z ^ (z >> 31)
    }

    /// The counter that draw `n` ahead mixes, `state + (n + 1)·GAMMA`
    /// (wrapping). Draws `d` apart have counters `d·GAMMA` apart, so a
    /// caller walking a regular pattern of draws can step the counter by
    /// addition and pay only for [`SplitMix64::mix`].
    #[inline]
    pub fn counter(&self, n: u64) -> u64 {
        self.state
            .wrapping_add(n.wrapping_add(1).wrapping_mul(GAMMA))
    }

    /// The value the `n + 1`-th [`SplitMix64::next_u64`] call from here
    /// would return, without advancing: `peek(0)` is the next draw.
    ///
    /// SplitMix64 is a counter passed through a bijective mixer, so any
    /// draw ahead is computable in O(1). Draws that do not depend on each
    /// other can therefore be computed in any order (and vectorized) while
    /// reproducing the sequential stream exactly.
    #[inline]
    pub fn peek(&self, n: u64) -> u64 {
        Self::mix(self.counter(n))
    }

    /// Advances the generator by `n` draws in O(1): the state afterwards
    /// equals the state after `n` [`SplitMix64::next_u64`] calls.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Returns the next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "next_below bound must be positive");
        ((self.next_u64() >> 32).wrapping_mul(bound as u64) >> 32) as u32
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Splits off an independent generator (the "split" in SplitMix).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_vector() {
        // First output of SplitMix64 with seed 0 (reference value used by
        // the xoshiro project's seeding procedure).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn split_streams_differ() {
        let mut g = SplitMix64::new(7);
        let mut a = g.split();
        let mut b = g.split();
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn state_round_trips_mid_stream() {
        let mut g = SplitMix64::new(1234);
        for _ in 0..17 {
            g.next_u64();
        }
        let mut resumed = SplitMix64::new(g.state());
        for _ in 0..32 {
            assert_eq!(g.next_u64(), resumed.next_u64());
        }
    }

    /// `n` sequential draws from `g`: the generator after them, and the
    /// draw that would follow.
    fn stepped(mut g: SplitMix64, n: u64) -> (SplitMix64, u64) {
        for _ in 0..n {
            g.next_u64();
        }
        let mut ahead = g;
        (g, ahead.next_u64())
    }

    #[test]
    fn peek_and_skip_match_sequential_draws() {
        // The last seed sits just below u64::MAX, so the counter wraps on
        // the first draw.
        for seed in [0, 42, u64::MAX - 5] {
            for n in [0, 1, 2, 1000] {
                let g = SplitMix64::new(seed);
                let (after, next) = stepped(g, n);
                assert_eq!(g.peek(n), next, "peek({n}) from {seed:#x}");
                let mut skipped = g;
                skipped.skip(n);
                assert_eq!(skipped, after, "skip({n}) from {seed:#x}");
                // peek does not advance.
                assert_eq!(g, SplitMix64::new(seed));
                // Counters step by GAMMA per draw.
                let stepped = g.counter(0).wrapping_add(n.wrapping_mul(GAMMA));
                assert_eq!(
                    SplitMix64::mix(stepped),
                    next,
                    "counter({n}) from {seed:#x}"
                );
            }
        }
    }

    #[test]
    fn skip_round_trips_through_state() {
        let mut g = SplitMix64::new(99);
        g.skip(1000);
        let mut resumed = SplitMix64::new(g.state());
        let (mut sequential, _) = stepped(SplitMix64::new(99), 1000);
        for _ in 0..32 {
            let want = sequential.next_u64();
            assert_eq!(g.next_u64(), want);
            assert_eq!(resumed.next_u64(), want);
        }
    }

    #[test]
    fn next_below_in_range() {
        let mut g = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(g.next_below(17) < 17);
        }
    }
}
