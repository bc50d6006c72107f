//! The paper's four experimental arms (§2.2), plus single-stream ALGO
//! arms that isolate one algorithmic noise source at a time.

use detrand::SeedPolicy;
use hwsim::ExecutionMode;
use serde::{Deserialize, Serialize};

/// One algorithmic noise stream (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgoSource {
    /// Weight initialization (the model's root generator).
    Init,
    /// The per-epoch data order.
    Shuffle,
    /// Stochastic shift/flip augmentation.
    Augment,
    /// Stochastic layers (dropout).
    Dropout,
}

/// A noise variant: which families of randomness are left free.
///
/// | Variant       | Algorithmic seed                 | Execution        |
/// |---------------|----------------------------------|------------------|
/// | `AlgoImpl`    | per replica                      | nondeterministic |
/// | `Algo`        | per replica                      | deterministic    |
/// | `Impl`        | fixed                            | nondeterministic |
/// | `Control`     | fixed                            | deterministic    |
/// | `AlgoOnly(s)` | per replica for stream `s` only  | deterministic    |
///
/// `Control` must produce bitwise-identical replicas — asserted by the
/// integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NoiseVariant {
    /// Both noise families free (the default training setting).
    AlgoImpl,
    /// Only algorithmic noise (deterministic execution).
    Algo,
    /// Only implementation noise (fixed algorithmic seed).
    Impl,
    /// Neither (fixed seed + deterministic execution).
    Control,
    /// ALGO restricted to one algorithmic stream, under deterministic
    /// execution (Figure 6 and the per-source decomposition).
    AlgoOnly(AlgoSource),
}

impl NoiseVariant {
    /// The three measured arms of every figure (Control is a check, not a
    /// measurement — its variance is zero by construction).
    pub const MEASURED: [NoiseVariant; 3] = [Self::AlgoImpl, Self::Algo, Self::Impl];

    /// All four paper arms.
    pub const ALL: [NoiseVariant; 4] = [Self::AlgoImpl, Self::Algo, Self::Impl, Self::Control];

    /// How algorithmic seeds are assigned to replicas under this variant
    /// (for `AlgoOnly`, the seed of its one free stream).
    pub fn seed_policy(self) -> SeedPolicy {
        match self {
            Self::AlgoImpl | Self::Algo | Self::AlgoOnly(_) => SeedPolicy::PerReplica,
            Self::Impl | Self::Control => SeedPolicy::Fixed,
        }
    }

    /// How stream `source`'s seed is assigned to replicas: the variant's
    /// [`Self::seed_policy`], except that `AlgoOnly` pins every
    /// stream but its own.
    pub fn stream_policy(self, source: AlgoSource) -> SeedPolicy {
        match self {
            Self::AlgoOnly(free) if free != source => SeedPolicy::Fixed,
            _ => self.seed_policy(),
        }
    }

    /// The execution mode under this variant.
    pub fn exec_mode(self) -> ExecutionMode {
        match self {
            Self::AlgoImpl | Self::Impl => ExecutionMode::Default,
            Self::Algo | Self::Control | Self::AlgoOnly(_) => ExecutionMode::Deterministic,
        }
    }

    /// The paper's label for the variant (`ALGO:<stream>` for the
    /// single-stream arms).
    pub fn label(self) -> &'static str {
        match self {
            Self::AlgoImpl => "ALGO+IMPL",
            Self::Algo => "ALGO",
            Self::Impl => "IMPL",
            Self::Control => "CONTROL",
            Self::AlgoOnly(AlgoSource::Init) => "ALGO:init",
            Self::AlgoOnly(AlgoSource::Shuffle) => "ALGO:shuffle",
            Self::AlgoOnly(AlgoSource::Augment) => "ALGO:augment",
            Self::AlgoOnly(AlgoSource::Dropout) => "ALGO:dropout",
        }
    }
}

impl std::fmt::Display for NoiseVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_matrix_matches_paper() {
        assert_eq!(NoiseVariant::AlgoImpl.seed_policy(), SeedPolicy::PerReplica);
        assert_eq!(NoiseVariant::AlgoImpl.exec_mode(), ExecutionMode::Default);
        assert_eq!(NoiseVariant::Algo.seed_policy(), SeedPolicy::PerReplica);
        assert_eq!(NoiseVariant::Algo.exec_mode(), ExecutionMode::Deterministic);
        assert_eq!(NoiseVariant::Impl.seed_policy(), SeedPolicy::Fixed);
        assert_eq!(NoiseVariant::Impl.exec_mode(), ExecutionMode::Default);
        assert_eq!(NoiseVariant::Control.seed_policy(), SeedPolicy::Fixed);
        assert_eq!(
            NoiseVariant::Control.exec_mode(),
            ExecutionMode::Deterministic
        );
    }

    #[test]
    fn labels_match_paper_nomenclature() {
        assert_eq!(NoiseVariant::AlgoImpl.to_string(), "ALGO+IMPL");
        assert_eq!(NoiseVariant::Impl.to_string(), "IMPL");
    }

    #[test]
    fn single_stream_arms_free_exactly_one_stream() {
        use AlgoSource::*;
        let all = [Init, Shuffle, Augment, Dropout];
        for (free, label) in all
            .into_iter()
            .zip(["init", "shuffle", "augment", "dropout"])
        {
            let v = NoiseVariant::AlgoOnly(free);
            assert_eq!(v.exec_mode(), ExecutionMode::Deterministic);
            assert_eq!(v.label(), format!("ALGO:{label}"));
            for s in all {
                let want = if s == free {
                    SeedPolicy::PerReplica
                } else {
                    SeedPolicy::Fixed
                };
                assert_eq!(v.stream_policy(s), want);
            }
        }
        // The paper arms give every stream the policy of their root.
        for v in NoiseVariant::ALL {
            for s in all {
                assert_eq!(v.stream_policy(s), v.seed_policy());
            }
        }
    }

    #[test]
    fn measured_excludes_control() {
        assert!(!NoiseVariant::MEASURED.contains(&NoiseVariant::Control));
        assert_eq!(NoiseVariant::ALL.len(), 4);
    }
}
