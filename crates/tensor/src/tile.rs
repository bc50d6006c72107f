//! The two steps of the Permuted tile kernel ([`crate::gemm`]) that have
//! an explicit 512-bit form: deriving a tile's combine specs from the
//! scheduler counter, and the two masked passes of its combine.
//!
//! The form is chosen here, at build time, and nowhere else: a build whose
//! target has AVX-512 F and DQ (the repository builds with
//! `-C target-cpu=native`, so on such hosts it does) runs `avx512`,
//! every other build runs `portable`. Both compute the same bits:
//!
//! - **Spec derivation** mixes eight counters per 512-bit vector with two
//!   `vpmullq` per mix, and turns the mixed bits into a lane index with a
//!   32×32→64-bit multiply whose high halves are packed into one vector
//!   of sixteen `u32`; the amplification multiplier runs through the
//!   reference's `u64 → f64 → f32` conversions, with the multiply and the
//!   add kept separate.
//! - **The masked passes** compare the pass's lane row `t` against the
//!   sixteen rotations of a tile row with one 32-bit compare and add the
//!   row into the sums under that mask (`_mm512_mask_add_ps`). A column
//!   the mask skips keeps its sum; nothing from the skipped add reaches
//!   it.
//!
//! The portable code the auto-vectorizer compiles takes each mask from a
//! compare widened to 64 bits, eight per step of a row, all on one port;
//! that, not the adds, bounded the combine.
//!
//! Where two NaNs meet in an add, the payload that survives follows the
//! operand order. Rust leaves that order to the compiler for the reference
//! and the portable form, and LLVM treats the intrinsic's add as
//! commutative too (it emits the same code for either order). So
//! `avx512`'s tests pin the payloads the 512-bit passes produce against
//! the portable form's.
//!
//! The lane fill and the two in-place swaps stay portable on every build:
//! a 512-bit lane fill changed one NaN payload against the reference,
//! because the compiler ordered its adds' operands differently from the
//! reference fill's.
//!
//! On an AVX-512 build the portable form is compiled for tests only, as
//! the oracle the 512-bit form must match bit for bit (`avx512`'s tests).

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
        pub(crate) use avx512::{derive_specs, masked_passes};
        #[cfg(test)]
        pub(crate) mod portable;
    }
    _ => {
        pub(crate) mod portable;
        pub(crate) use portable::{derive_specs, masked_passes};
    }
}
