//! The three steps of the GEMM tile kernel ([`crate::gemm`]) that have an
//! explicit 512-bit form: the multiply-add chain that every order runs,
//! and the Permuted combine's spec derivation from the scheduler counter
//! and its two masked passes.
//!
//! The form is chosen here, at build time, and nowhere else: a build whose
//! target has AVX-512 F and DQ (the repository builds with
//! `-C target-cpu=native`, so on such hosts it does) runs `avx512`,
//! every other build runs `portable`. Both compute the same bits:
//!
//! - **The chain** advances the `MR × NR` register tile with one 512-bit
//!   register per tile row: per step, a broadcast of the row's A value,
//!   then a multiply and a separate add, never one fused multiply-add.
//!   The portable loop is the same arithmetic, but on hosts whose LLVM
//!   tuning prefers 256-bit vectors (Sapphire and Emerald Rapids among
//!   them) `target-cpu=native` compiles it to half-width multiplies and
//!   adds.
//! - **Spec derivation** mixes eight counters per 512-bit vector with two
//!   `vpmullq` per mix, and turns the mixed bits into a lane index with a
//!   32×32→64-bit multiply whose high halves are packed into one vector
//!   of sixteen `u32`; the amplification multiplier runs through the
//!   reference's `u64 → f64 → f32` conversions, with the multiply and the
//!   add kept separate.
//! - **The masked passes** compare the pass's lane row `t` against the
//!   sixteen rotations of a tile row with one 32-bit compare and add the
//!   row into the sums under that mask, one merge-masked `vaddps`. A
//!   column the mask skips keeps its sum; nothing from the skipped add
//!   reaches it.
//!
//! The portable code the auto-vectorizer compiles takes each mask from a
//! compare widened to 64 bits, eight per step of a row, all on one port;
//! that, not the adds, bounded the combine.
//!
//! Where two NaNs meet in a multiply or an add, the payload that survives
//! is the first source operand's. Rust leaves that order to the compiler
//! for the reference and the portable forms, and LLVM treats the
//! intrinsics' multiplies and adds as commutative too: it may swap their
//! operands. So the chain's multiply and add and the masked add are
//! written as inline assembly, in the operand order the portable loops
//! compile to (`a · b` with the broadcast A value first; `product + sum`
//! in the chain, `sum + row` in the masked passes), and `avx512`'s tests
//! pin the payloads the 512-bit forms produce against the portable
//! forms'.
//!
//! A global `-C target-feature=-prefer-256-bit` would widen the portable
//! loops instead, but rustc warns that the feature is unknown to it and
//! may be unsound, and it leaves every operand order to LLVM: on an
//! AVX-512 host it changed a NaN payload of a Permuted GEMM against the
//! reference. A 512-bit lane fill written with intrinsics failed the
//! same way, which is why the chain pins its operands. The two in-place
//! swaps stay portable on every build.
//!
//! On an AVX-512 build the portable form is compiled for tests only, as
//! the oracle the 512-bit form must match bit for bit (`avx512`'s tests);
//! CI also runs the tensor tests on an `x86-64-v3` build, where the
//! portable form is the one shipped.

use crate::pack::{MR, NR};

/// The combine specs of one `MR × NR` output tile, derived in registers
/// by [`crate::reduce::DotPlan::tile_specs`]: `[r][j]` belongs to tile row
/// `r`, column `j`.
pub(crate) struct TileSpecs {
    /// First transposition targets (`p.swap(0, j1)`).
    pub j1: [[u32; NR]; MR],
    /// Second transposition targets (`p.swap(1.min(l - 1), j2)`).
    pub j2: [[u32; NR]; MR],
    /// Rotation offsets of the combine loop.
    pub rot: [[u32; NR]; MR],
    /// Amplified-noise multipliers; only applied when the plan is
    /// amplified (a `*= 1.0` is *not* a guaranteed bitwise no-op for NaN
    /// payloads, so the reference path's "skip when amp == 0" is
    /// reproduced exactly).
    pub scale: [[f32; NR]; MR],
}

impl TileSpecs {
    /// Specs with no swaps, no rotation and unit scales, for the derivation
    /// to overwrite what its const parameters select.
    #[inline(always)]
    fn identity() -> Self {
        TileSpecs {
            j1: [[0; NR]; MR],
            j2: [[0; NR]; MR],
            rot: [[0; NR]; MR],
            scale: [[1.0; NR]; MR],
        }
    }
}

cfg_select! {
    all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "avx512dq") => {
        mod avx512;
        pub(crate) use avx512::{chain, derive_specs, masked_passes};
        #[cfg(test)]
        pub(crate) mod portable;
    }
    _ => {
        pub(crate) mod portable;
        pub(crate) use portable::{chain, derive_specs, masked_passes};
    }
}
