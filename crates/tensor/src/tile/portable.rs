//! The portable forms of the tile steps: plain loops the auto-vectorizer
//! compiles for whatever target the build names.

use super::TileSpecs;
use crate::gemm::add_where;
use crate::pack::{MR, NR};
use crate::reduce::MAX_LANES;
use detrand::splitmix::GAMMA;
use detrand::SplitMix64;

/// Advances an `MR × NR` register tile of independent accumulators, each
/// starting at 0.0, over `kk = start, start + step, … < k`: output
/// `(r, j)` runs `acc += arows[r][kk] · panel[kk][j]` in increasing `kk`.
/// The r loop always runs all `MR` rows and the j loop all `NR` columns,
/// so the inner loops have fixed trip counts — no bounds checks, clean
/// vector code.
#[inline(always)]
pub(crate) fn chain(
    arows: &[&[f32]; MR],
    panel: &[f32],
    start: usize,
    step: usize,
    k: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0f32; NR]; MR];
    let mut kk = start;
    while kk < k {
        let pr = panel_row(panel, kk);
        for r in 0..MR {
            let av = arows[r][kk];
            for j in 0..NR {
                acc[r][j] += av * pr[j];
            }
        }
        kk += step;
    }
    acc
}

/// Reads the `NR`-wide panel row at depth `kk` as a fixed-size array so
/// the optimizer sees compile-time trip counts.
#[inline(always)]
fn panel_row(panel: &[f32], kk: usize) -> &[f32; NR] {
    panel[kk * NR..kk * NR + NR]
        .try_into()
        .expect("panel row is NR wide")
}

/// Derives the combine specs of the `MR × NR` tile whose rows start at the
/// counters `rows` and whose columns sit at the offsets `cols` (see
/// [`crate::reduce::DotPlan::tile_specs`]): output `(r, j)`'s draw `d`
/// mixes `rows[r] + cols[j] + d·γ`, and its amplification draw mixes
/// `rows[r] + cols[j] + last`. Only the mixer multiplies; the lane and
/// amplification branches are the const parameters, so the loops
/// vectorize across the tile.
#[inline(always)]
pub(crate) fn derive_specs<const SWAPS: bool, const AMP: bool>(
    lanes: usize,
    last: u64,
    amp_ulps: f32,
    rows: &[u64; MR],
    cols: &[u64; NR],
) -> TileSpecs {
    let mut t = TileSpecs::identity();
    // r and j index the inputs and all four outputs in lockstep.
    #[allow(clippy::needless_range_loop)]
    for r in 0..MR {
        for j in 0..NR {
            let c = rows[r].wrapping_add(cols[j]);
            if SWAPS {
                t.j1[r][j] = below(SplitMix64::mix(c), lanes);
                t.j2[r][j] = below(SplitMix64::mix(c.wrapping_add(GAMMA)), lanes);
                t.rot[r][j] = below(SplitMix64::mix(c.wrapping_add(GAMMA.wrapping_mul(2))), lanes);
            }
            if AMP {
                t.scale[r][j] = amp_scale(SplitMix64::mix(c.wrapping_add(last)), amp_ulps);
            }
        }
    }
    t
}

/// [`SplitMix64::next_below`]`(lanes)` applied to the drawn bits `x`.
#[inline(always)]
pub(crate) fn below(x: u64, lanes: usize) -> u32 {
    // Both factors fit in 32 bits (lanes ≤ MAX_LANES), which lets the
    // vectorized form use a 32×32→64-bit multiply.
    ((x >> 32).wrapping_mul(u64::from(lanes as u32)) >> 32) as u32
}

/// The amplification multiplier the reference computes from the drawn
/// bits `x`: [`SplitMix64::next_f64`], then `1 + u·amp·ε` with `u` in
/// `[-1, 1)`.
#[inline(always)]
pub(crate) fn amp_scale(x: u64, amp_ulps: f32) -> f32 {
    let unit = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let u = (unit as f32) * 2.0 - 1.0;
    1.0 + u * amp_ulps * f32::EPSILON
}

/// The two masked passes of the Permuted combine over one tile whose swaps
/// are applied: `bufs[r][t][j]` is lane row `t` of output `(r, j)`, and
/// column `j` of row `r` adds row `t` in the first pass when
/// `t ≥ rot[r][j]`, in the second when `t < rot[r][j]`. Every sum starts at
/// 0.0.
#[inline(always)]
pub(crate) fn masked_passes(
    bufs: &[[[f32; NR]; MAX_LANES]; MR],
    l: usize,
    rot: &[[u32; NR]; MR],
) -> [[f32; NR]; MR] {
    // One named accumulator per tile row, so that the optimizer keeps the
    // four rows' chains in registers and interleaves them (an indexed
    // `[[f32; NR]; MR]` was vectorized across rows, through memory).
    let [mut s0, mut s1, mut s2, mut s3] = [[0f32; NR]; MR];
    for first_pass in [true, false] {
        #[allow(clippy::needless_range_loop)] // t indexes all MR rows' buffers
        for t in 0..l {
            let t32 = t as u32;
            masked_add(&mut s0, &bufs[0][t], &rot[0], t32, first_pass);
            masked_add(&mut s1, &bufs[1][t], &rot[1], t32, first_pass);
            masked_add(&mut s2, &bufs[2][t], &rot[2], t32, first_pass);
            masked_add(&mut s3, &bufs[3][t], &rot[3], t32, first_pass);
        }
    }
    [s0, s1, s2, s3]
}

/// One step of a row's masked combine: column `j` adds lane row `t` when
/// `t ≥ rot_j` in the first pass, and when `t < rot_j` in the second.
#[inline(always)]
fn masked_add(s: &mut [f32; NR], row: &[f32; NR], rot: &[u32; NR], t: u32, first_pass: bool) {
    add_where(s, row, |j| (t >= rot[j]) == first_pass);
}
