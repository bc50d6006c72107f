//! The portable forms of the tile steps: plain loops the auto-vectorizer
//! compiles for whatever target the build names.

use super::{Offsets, RowGather, TileSpecs};
use crate::pack::{MR, NR};
use crate::reduce::MAX_LANES;
use detrand::splitmix::GAMMA;
use detrand::SplitMix64;

/// Advances an `MR × NR` register tile of independent accumulators from
/// `acc` over `kk = start, start + step, … < k`: output `(r, j)` runs
/// `acc += arows[r][kk] · panel[kk][j]` in increasing `kk`. A chain split
/// at any `kk` and resumed from the tile it returned computes the same
/// bits. The r loop always runs all `MR` rows and the j loop all `NR`
/// columns, so the inner loops have fixed trip counts — no bounds checks,
/// clean vector code.
///
/// Where this form is only the oracle of the 512-bit one (tests of an
/// AVX-512 build), it is compiled once, out of line. Inlined into each
/// test, it was compiled with the add's operands in one order in some
/// tests and in the other in others (LLVM treats the add as commutative),
/// so which NaN payload survived depended on the test, not on the form.
#[cfg_attr(
    all(test, target_feature = "avx512f", target_feature = "avx512dq"),
    inline(never)
)]
#[cfg_attr(
    not(all(test, target_feature = "avx512f", target_feature = "avx512dq")),
    inline(always)
)]
pub(crate) fn chain_from(
    mut acc: [[f32; NR]; MR],
    arows: &[&[f32]; MR],
    panel: &[f32],
    start: usize,
    step: usize,
    k: usize,
) -> [[f32; NR]; MR] {
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

/// [`chain_from`] a tile of 0.0.
#[inline(always)]
pub(crate) fn chain(
    arows: &[&[f32]; MR],
    panel: &[f32],
    start: usize,
    step: usize,
    k: usize,
) -> [[f32; NR]; MR] {
    chain_from([[0f32; NR]; MR], arows, panel, start, step, k)
}

/// Adds `lane` into the sums `s`, row by row: `s[r][j] + lane[r][j]`.
#[inline(always)]
pub(crate) fn fold(s: &mut [[f32; NR]; MR], lane: &[[f32; NR]; MR]) {
    for (s, lane) in s.iter_mut().zip(lane) {
        for (s, &x) in s.iter_mut().zip(lane) {
            *s += x;
        }
    }
}

/// Adds `row[j]` into `s[j]` for every column `j` whose bit is set in
/// `take` (see [`select_add`]).
#[inline(always)]
pub(crate) fn add_where(s: &mut [f32; NR], row: &[f32; NR], take: u16) {
    select_add(s, row, |j| take >> j & 1 != 0);
}

/// Adds `row[j]` into `s[j]` for every column `j` where `take(j)` holds.
/// The select is a bitwise mask over the sum, not a branch: the add a
/// column skips is computed and dropped, so its value (NaN included)
/// never reaches the column's sum.
#[inline(always)]
fn select_add(s: &mut [f32; NR], row: &[f32; NR], take: impl Fn(usize) -> bool) {
    for j in 0..NR {
        let mask = u32::from(take(j)).wrapping_neg();
        let (kept, added) = (s[j].to_bits(), (s[j] + row[j]).to_bits());
        s[j] = f32::from_bits((added & mask) | (kept & !mask));
    }
}

/// The portable [`RowGather`]: a float-by-float gather.
pub(crate) struct Gather {
    /// Each lane's index; a lane that `take` skips reads the first
    /// selected lane's float, and its bits are cleared.
    lanes: [usize; NR],
    /// All ones for a selected lane, zero for a skipped one.
    keep: [u32; NR],
    /// The largest index, or `None` when no lane is selected.
    high: Option<usize>,
}

impl RowGather for Gather {
    #[inline(always)]
    fn new(lanes: &[u32; NR], take: u16) -> Self {
        let selected = |j: usize| take >> j & 1 != 0;
        let first = (0..NR).find(|&j| selected(j)).unwrap_or(0);
        let lanes: [usize; NR] =
            core::array::from_fn(|j| lanes[if selected(j) { j } else { first }] as usize);
        Gather {
            lanes,
            keep: core::array::from_fn(|j| u32::from(selected(j)).wrapping_neg()),
            high: (take != 0).then(|| lanes.iter().copied().max().unwrap_or(0)),
        }
    }

    #[inline(always)]
    fn rows(&self, src: &[f32], offsets: &Offsets, dst: &mut [[f32; NR]]) {
        let Offsets { at: offsets, max } = *offsets;
        assert_eq!(dst.len(), offsets.len(), "one row per offset");
        let (Some(high), Some(at_max)) = (self.high, max) else {
            dst.fill([0.0; NR]);
            return;
        };
        assert!(
            high + at_max < src.len(),
            "gather index {} past {} floats",
            high + at_max,
            src.len()
        );
        for (row, &at) in dst.iter_mut().zip(offsets) {
            let at = at as usize;
            for ((d, &lane), &keep) in row.iter_mut().zip(&self.lanes).zip(&self.keep) {
                // SAFETY: at + lane <= at_max + high < src.len(), checked
                // above. Checked loads, with the mask tested per float,
                // made the lowerings up to a third slower on an
                // x86-64-v3 build.
                let v = unsafe { *src.get_unchecked(at + lane) };
                *d = f32::from_bits(v.to_bits() & keep);
            }
        }
    }
}

/// 2×2 max pooling of the `h × w` planes of `x` into `out` and, given
/// one, `arg`: the scalar loop of [`crate::pool`] at `k = 2`.
#[inline(always)]
pub(crate) fn max_pool_2x2(
    x: &[f32],
    h: usize,
    w: usize,
    out: &mut [f32],
    arg: Option<&mut [u32]>,
) {
    crate::pool::max_pool(x, h, w, 2, out, arg);
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
/// `rows[r] + cols[j] + last`. Only the mixer multiplies; the
/// amplification branch is the const parameter, so the loops vectorize
/// across the tile.
#[inline(always)]
pub(crate) fn derive_specs<const AMP: bool>(
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
            t.j1[r][j] = below(SplitMix64::mix(c), lanes);
            t.j2[r][j] = below(SplitMix64::mix(c.wrapping_add(GAMMA)), lanes);
            t.rot[r][j] = below(
                SplitMix64::mix(c.wrapping_add(GAMMA.wrapping_mul(2))),
                lanes,
            );
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
    select_add(s, row, |j| (t >= rot[j]) == first_pass);
}
