//! Seed management: the policies that define the paper's four experimental
//! variants.
//!
//! A [`SeedPolicy`] answers one question — *does replica `r` reuse the base
//! algorithmic seed, or get its own?* — which is exactly the ALGO axis of
//! the paper's variant matrix. (The IMPL axis lives in `hwsim`, as the
//! execution mode and scheduler entropy.)

use crate::philox::Philox;
use crate::splitmix::SplitMix64;
use serde::{Deserialize, Serialize};

/// How algorithmic seeds are assigned to replicas.
///
/// # Example
///
/// ```
/// use detrand::SeedPolicy;
/// // The IMPL variant pins the seed; ALGO gives each replica its own.
/// assert_eq!(SeedPolicy::Fixed.seed_for(42, 3), 42);
/// assert_ne!(SeedPolicy::PerReplica.seed_for(42, 3), SeedPolicy::PerReplica.seed_for(42, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// Every replica uses the identical base seed: algorithmic factors are
    /// *controlled* (the paper's `IMPL` and `Control` variants).
    Fixed,
    /// Each replica derives a distinct seed from the base: algorithmic
    /// factors are *free* (the `ALGO` and `ALGO+IMPL` variants).
    PerReplica,
}

impl SeedPolicy {
    /// The algorithmic seed for replica `replica` under this policy.
    pub fn seed_for(self, base: u64, replica: u32) -> u64 {
        match self {
            SeedPolicy::Fixed => base,
            SeedPolicy::PerReplica => {
                // Mix thoroughly so that adjacent replicas are uncorrelated.
                let mut m = SplitMix64::new(base ^ ((replica as u64) << 32 | 0xA1C0_5EED));
                m.next_u64()
            }
        }
    }

    /// The root generator for replica `replica` under this policy.
    pub fn root_for(self, base: u64, replica: u32) -> Philox {
        Philox::from_seed(self.seed_for(base, replica))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_reuses_base() {
        for r in 0..10 {
            assert_eq!(SeedPolicy::Fixed.seed_for(99, r), 99);
        }
    }

    #[test]
    fn per_replica_policy_gives_distinct_seeds() {
        let seeds: Vec<u64> = (0..64)
            .map(|r| SeedPolicy::PerReplica.seed_for(99, r))
            .collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn per_replica_policy_is_replayable() {
        assert_eq!(
            SeedPolicy::PerReplica.seed_for(1, 3),
            SeedPolicy::PerReplica.seed_for(1, 3)
        );
    }
}
