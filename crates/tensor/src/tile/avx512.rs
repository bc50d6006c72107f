//! The 512-bit forms of the tile steps (see [the parent module](super)).
//! One `__m512` holds the `NR` columns of a tile row.

use super::{lanes_below, Offsets, RowGather, TileSpecs};
use crate::pack::{MR, NR};
use crate::reduce::MAX_LANES;
use core::arch::asm;
use core::arch::x86_64::*;
use detrand::splitmix::{GAMMA, MIX_MULTIPLIERS};

const _: () = assert!(NR == 16, "a tile row is one 512-bit vector of f32");

/// 512-bit `portable::chain_from`.
#[inline(always)]
pub(crate) fn chain_from(
    acc: [[f32; NR]; MR],
    arows: &[&[f32]; MR],
    panel: &[f32],
    start: usize,
    step: usize,
    k: usize,
) -> [[f32; NR]; MR] {
    // SAFETY: as in `derive_specs`, the target has avx512f.
    unsafe { chain_512(&acc, arows, panel, start, step, k) }
}

/// 512-bit `portable::chain`.
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

/// 512-bit `portable::fold`.
#[inline(always)]
pub(crate) fn fold(s: &mut [[f32; NR]; MR], lane: &[[f32; NR]; MR]) {
    // SAFETY: as in `derive_specs`, the target has avx512f.
    unsafe { fold_512(s, lane) }
}

/// 512-bit `portable::add_where`.
#[inline(always)]
pub(crate) fn add_where(s: &mut [f32; NR], row: &[f32; NR], take: u16) {
    // SAFETY: as in `derive_specs`, the target has avx512f.
    unsafe { add_where_512(s, row, take) }
}

/// 512-bit `portable::derive_specs`.
#[inline(always)]
pub(crate) fn derive_specs<const AMP: bool>(
    lanes: usize,
    last: u64,
    amp_ulps: f32,
    rows: &[u64; MR],
    cols: &[u64; NR],
) -> TileSpecs {
    // SAFETY: this module is compiled only when the build's target has
    // avx512f and avx512dq (the `cfg_select!` in `tile.rs`), so the CPU
    // running it has both.
    unsafe { derive_specs_512::<AMP>(lanes, last, amp_ulps, rows, cols) }
}

/// 512-bit `portable::masked_passes`.
#[inline(always)]
pub(crate) fn masked_passes(
    bufs: &[[[f32; NR]; MAX_LANES]; MR],
    l: usize,
    rot: &[[u32; NR]; MR],
) -> [[f32; NR]; MR] {
    // SAFETY: as in `derive_specs`, the target has avx512f.
    unsafe { masked_passes_512(bufs, l, rot) }
}

/// The 512-bit [`RowGather`]: per row, one masked 16-lane gather, or,
/// where the selected lanes fall within 32 consecutive floats, two loads
/// and one two-source permute. Against the gather alone, the permute
/// takes about a third off the forward lowering of a 12×12 output.
pub(crate) struct Gather {
    lanes: [u32; NR],
    take: u16,
    /// The smallest and the largest selected index, or `None` when no
    /// lane is selected.
    bounds: Option<(usize, usize)>,
}

impl RowGather for Gather {
    #[inline(always)]
    fn new(lanes: &[u32; NR], take: u16) -> Self {
        // SAFETY: the target has avx512f, as in `derive_specs`.
        let bounds = (take != 0).then(|| unsafe { lane_bounds(lanes, take) });
        Gather {
            lanes: *lanes,
            take,
            bounds,
        }
    }

    #[inline(always)]
    fn rows(&self, src: &[f32], offsets: &Offsets, dst: &mut [[f32; NR]]) {
        let Offsets { at: offsets, max } = *offsets;
        assert_eq!(dst.len(), offsets.len(), "one row per offset");
        let (Some((low, high)), Some(at)) = (self.bounds, max) else {
            dst.fill([0.0; NR]);
            return;
        };
        let (lanes, take) = (&self.lanes, self.take);
        if high - low < 2 * NR && low + at + 2 * NR <= src.len() {
            // SAFETY: the target has avx512f, as in `derive_specs`. Each
            // row reads the 32 floats from `low + offsets[i]`, which end
            // inside `src` (checked above).
            unsafe { permute_rows_512(&src[low..], lanes, low as u32, take, offsets, dst) }
            return;
        }
        let top = high + at;
        assert!(
            top < src.len() && top <= i32::MAX as usize,
            "gather index {top} past {} floats",
            src.len()
        );
        // SAFETY: the target has avx512f, as in `derive_specs`. A gather
        // reads only the lanes `take` selects, at `lanes[j] + offsets[i]`,
        // which is at most `top`: a valid index of `src` (checked above)
        // that fits the gather's signed 32-bit index, so the add cannot
        // wrap.
        unsafe { gather_rows_512(src, lanes, take, offsets, dst) }
    }
}

/// 512-bit `portable::max_pool_2x2`: sixteen outputs at a time, from
/// four gathers in window order `(0,0), (0,1), (1,0), (1,1)`, each taken
/// where an ordered `>` holds, which is false on NaN as the scalar `>`
/// is, by a blend of the value and of the in-plane index, which is
/// stored only where `arg` is given.
#[inline(always)]
pub(crate) fn max_pool_2x2(
    x: &[f32],
    h: usize,
    w: usize,
    out: &mut [f32],
    arg: Option<&mut [u32]>,
) {
    let (oh, ow) = (h / 2, w / 2);
    let pixels = oh * ow;
    if out.is_empty() {
        return;
    }
    assert!(
        h.is_multiple_of(2) && w.is_multiple_of(2) && out.len().is_multiple_of(pixels),
        "{h}x{w} planes"
    );
    assert!(
        x.len() == 4 * out.len()
            && arg.as_ref().is_none_or(|arg| arg.len() == out.len())
            && x.len() <= i32::MAX as usize,
        "pooling buffer sizes"
    );
    // Per output of a plane and of the NR - 1 outputs after it, which
    // run on into the next planes: its window's first input relative to
    // the plane, and that input's index within its own plane.
    let (mut corner, mut inner) = (Vec::new(), Vec::new());
    for plane in 0..(pixels + NR - 1).div_ceil(pixels) {
        for oy in 0..oh {
            for ox in 0..ow {
                let i = 2 * oy * w + 2 * ox;
                corner.push((plane * h * w + i) as u32);
                inner.push(i as u32);
            }
        }
    }
    // SAFETY: the target has avx512f, as in `derive_specs`. The last
    // output's last window input is `x`'s last float, since `x` holds
    // exactly the planes `out` pools (checked above), and the gathers
    // read only the lanes of outputs `out` holds.
    unsafe { max_pool_2x2_512(x, (h * w, pixels), w, &corner, &inner, out, arg) }
}

/// The smallest and the largest of the lanes `take` selects.
#[target_feature(enable = "avx512f")]
#[inline]
fn lane_bounds(lanes: &[u32; NR], take: u16) -> (usize, usize) {
    let lanes = load_u32x16(lanes);
    let low = _mm512_mask_reduce_min_epu32(take, lanes);
    let high = _mm512_mask_reduce_max_epu32(take, lanes);
    (low as usize, high as usize)
}

/// # Safety
///
/// Every lane `take` selects plus every offset is a valid index of `src`
/// that fits an `i32`.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn gather_rows_512(
    src: &[f32],
    lanes: &[u32; NR],
    take: u16,
    offsets: &[u32],
    dst: &mut [[f32; NR]],
) {
    let lanes = load_u32x16(lanes);
    for (row, &at) in dst.iter_mut().zip(offsets) {
        let index = _mm512_add_epi32(lanes, _mm512_set1_epi32(at as i32));
        // SAFETY: the caller's contract.
        let v = unsafe { gather(take, index, src) };
        store_f32x16(row, v);
    }
}

/// # Safety
///
/// `src` holds 32 floats from each of `offsets`.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn permute_rows_512(
    src: &[f32],
    lanes: &[u32; NR],
    low: u32,
    take: u16,
    offsets: &[u32],
    dst: &mut [[f32; NR]],
) {
    // Lane j's float is element `lanes[j] - low` of the 32 a row loads:
    // bit 4 of the permute index picks the second 16.
    let index = _mm512_sub_epi32(load_u32x16(lanes), _mm512_set1_epi32(low as i32));
    for (row, &at) in dst.iter_mut().zip(offsets) {
        // SAFETY: the caller's contract.
        let (a, b) = unsafe {
            let p = src.as_ptr().add(at as usize);
            (_mm512_loadu_ps(p), _mm512_loadu_ps(p.add(NR)))
        };
        store_f32x16(row, _mm512_maskz_permutex2var_ps(take, a, index, b));
    }
}

/// The floats of `src` at the sixteen indices of `index` in the lanes
/// `take` selects, +0.0 in the others.
///
/// # Safety
///
/// Every selected lane's index is a valid index of `src`.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn gather(take: __mmask16, index: __m512i, src: &[f32]) -> __m512 {
    // SAFETY: the caller's contract: the lanes read are inside `src`,
    // and the masked-off lanes read nothing.
    unsafe { _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), take, index, src.as_ptr()) }
}

/// # Safety
///
/// `x` holds the planes of `plane` floats that `out` pools into planes of
/// `pixels` outputs, and `corner` and `inner` are the tables
/// `max_pool_2x2` builds.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn max_pool_2x2_512(
    x: &[f32],
    (plane, pixels): (usize, usize),
    w: usize,
    corner: &[u32],
    inner: &[u32],
    out: &mut [f32],
    arg: Option<&mut [u32]>,
) {
    let window = [0, 1, w, w + 1].map(|d| _mm512_set1_epi32(d as i32));
    let (mut base, mut r) = (0, 0);
    let mut args = arg.map(|arg| arg.chunks_mut(NR));
    for out in out.chunks_mut(NR) {
        let take = lanes_below(out.len());
        let at = _mm512_add_epi32(_mm512_set1_epi32(base as i32), load_u32(&corner[r..]));
        let inner = load_u32(&inner[r..]);
        let (mut best, mut best_i) = (_mm512_set1_ps(f32::NEG_INFINITY), _mm512_setzero_si512());
        for d in window {
            // SAFETY: a selected lane is an output of `out`, whose window
            // lies in its plane of `x` (the caller's contract).
            let v = unsafe { gather(take, _mm512_add_epi32(at, d), x) };
            let greater = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, best);
            best = _mm512_mask_blend_ps(greater, best, v);
            best_i = _mm512_mask_blend_epi32(greater, best_i, _mm512_add_epi32(inner, d));
        }
        // SAFETY: `take` selects the `out.len()` floats the chunk holds,
        // and as many indices of `arg`'s chunk, which is as long.
        unsafe {
            _mm512_mask_storeu_ps(out.as_mut_ptr(), take, best);
            if let Some(arg) = args.as_mut().and_then(Iterator::next) {
                _mm512_mask_storeu_epi32(arg.as_mut_ptr().cast(), take, best_i);
            }
        }
        r += NR;
        while r >= pixels {
            (r, base) = (r - pixels, base + plane);
        }
    }
}

/// Sixteen table entries from `t`'s first.
#[target_feature(enable = "avx512f")]
#[inline]
fn load_u32(t: &[u32]) -> __m512i {
    load_u32x16(t[..NR].try_into().expect("NR entries"))
}

#[target_feature(enable = "avx512f")]
#[inline]
fn chain_512(
    acc: &[[f32; NR]; MR],
    arows: &[&[f32]; MR],
    panel: &[f32],
    start: usize,
    step: usize,
    k: usize,
) -> [[f32; NR]; MR] {
    // Slicing to k rows and k elements up front leaves the loop, whose
    // kk stays below k, with no bounds check.
    let (panel, _) = panel.as_chunks::<NR>();
    let (panel, [a0, a1, a2, a3]) = (&panel[..k], arows.map(|a| &a[..k]));
    // One named accumulator per tile row, as in the masked passes.
    let [mut s0, mut s1, mut s2, mut s3] = [
        load_f32x16(&acc[0]),
        load_f32x16(&acc[1]),
        load_f32x16(&acc[2]),
        load_f32x16(&acc[3]),
    ];
    let mut kk = start;
    while kk < k {
        let row = load_f32x16(&panel[kk]);
        s0 = mul_add(_mm512_set1_ps(a0[kk]), row, s0);
        s1 = mul_add(_mm512_set1_ps(a1[kk]), row, s1);
        s2 = mul_add(_mm512_set1_ps(a2[kk]), row, s2);
        s3 = mul_add(_mm512_set1_ps(a3[kk]), row, s3);
        kk += step;
    }
    let mut acc = [[0f32; NR]; MR];
    for (out, s) in acc.iter_mut().zip([s0, s1, s2, s3]) {
        store_f32x16(out, s);
    }
    acc
}

#[target_feature(enable = "avx512f")]
#[inline]
fn fold_512(s: &mut [[f32; NR]; MR], lane: &[[f32; NR]; MR]) {
    for (s, lane) in s.iter_mut().zip(lane) {
        let sum = add(load_f32x16(s), load_f32x16(lane));
        store_f32x16(s, sum);
    }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn add_where_512(s: &mut [f32; NR], row: &[f32; NR], take: u16) {
    let sum = add_masked(load_f32x16(s), take, row);
    store_f32x16(s, sum);
}

/// `s + a · b` as a `vmulps` and a separate `vaddps`, never one fused
/// multiply-add. The multiply's first source is `a` and the add's is the
/// product: where two NaNs meet, that operand's payload survives.
#[target_feature(enable = "avx512f")]
#[inline]
fn mul_add(a: __m512, b: __m512, mut s: __m512) -> __m512 {
    // SAFETY: two register-only AVX-512 F instructions, which the target
    // has; they touch no memory, stack or flags.
    unsafe {
        asm!(
            "vmulps {p}, {a}, {b}",
            "vaddps {s}, {p}, {s}",
            a = in(zmm_reg) a,
            b = in(zmm_reg) b,
            s = inout(zmm_reg) s,
            p = out(zmm_reg) _,
            options(pure, nomem, nostack, preserves_flags),
        );
    }
    s
}

#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
fn derive_specs_512<const AMP: bool>(
    lanes: usize,
    last: u64,
    amp_ulps: f32,
    rows: &[u64; MR],
    cols: &[u64; NR],
) -> TileSpecs {
    let mut t = TileSpecs::identity();
    let (halves, _) = cols.as_chunks::<8>();
    let cols = [load_u64x8(&halves[0]), load_u64x8(&halves[1])];
    let lanes = _mm512_set1_epi64(lanes as i64);
    for (r, &row) in rows.iter().enumerate() {
        let row = _mm512_set1_epi64(row as i64);
        let c = [
            _mm512_add_epi64(row, cols[0]),
            _mm512_add_epi64(row, cols[1]),
        ];
        store_u32x16(&mut t.j1[r], below(draw(c, 0), lanes));
        store_u32x16(&mut t.j2[r], below(draw(c, GAMMA), lanes));
        store_u32x16(&mut t.rot[r], below(draw(c, GAMMA.wrapping_mul(2)), lanes));
        if AMP {
            store_f32x16(&mut t.scale[r], amp_scale(draw(c, last), amp_ulps));
        }
    }
    t
}

/// The drawn bits of the sixteen counters `c + offset`, eight per vector.
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
fn draw(c: [__m512i; 2], offset: u64) -> [__m512i; 2] {
    let offset = _mm512_set1_epi64(offset as i64);
    [
        mix(_mm512_add_epi64(c[0], offset)),
        mix(_mm512_add_epi64(c[1], offset)),
    ]
}

/// `SplitMix64::mix` of eight counters.
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
fn mix(z: __m512i) -> __m512i {
    let [m0, m1] = MIX_MULTIPLIERS.map(|m| m as i64);
    let z = _mm512_xor_si512(z, _mm512_srli_epi64::<30>(z));
    let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(m0));
    let z = _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z));
    let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(m1));
    _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
}

/// The portable `below` of sixteen drawn values: the high 32 bits of each
/// times `lanes`, a 32×32→64-bit product whose high half is the lane
/// index, packed into sixteen `u32` in column order.
#[target_feature(enable = "avx512f")]
#[inline]
fn below(x: [__m512i; 2], lanes: __m512i) -> __m512i {
    let lo = _mm512_mul_epu32(_mm512_srli_epi64::<32>(x[0]), lanes);
    let hi = _mm512_mul_epu32(_mm512_srli_epi64::<32>(x[1]), lanes);
    // Element i of the result is 32-bit half 2i + 1 of lo:hi, the high
    // half of product i.
    let odd_halves = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
    _mm512_permutex2var_epi32(lo, odd_halves, hi)
}

/// The portable `amp_scale` of sixteen drawn values, conversion by
/// conversion and operation by operation.
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
fn amp_scale(x: [__m512i; 2], amp_ulps: f32) -> __m512 {
    // `(x >> 11) as f64` is exact (< 2^53), as is the power-of-two scale;
    // the narrowing to f32 rounds to nearest, as `as f32` does.
    let scale = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
    let unit = |x: __m512i| {
        _mm512_cvtpd_ps(_mm512_mul_pd(
            _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(x)),
            scale,
        ))
    };
    let unit = _mm512_insertf32x8::<1>(_mm512_castps256_ps512(unit(x[0])), unit(x[1]));
    let (one, two) = (_mm512_set1_ps(1.0), _mm512_set1_ps(2.0));
    let u = _mm512_sub_ps(_mm512_mul_ps(unit, two), one);
    let amp = _mm512_mul_ps(u, _mm512_set1_ps(amp_ulps));
    _mm512_add_ps(one, _mm512_mul_ps(amp, _mm512_set1_ps(f32::EPSILON)))
}

#[target_feature(enable = "avx512f")]
#[inline]
fn masked_passes_512(
    bufs: &[[[f32; NR]; MAX_LANES]; MR],
    l: usize,
    rot: &[[u32; NR]; MR],
) -> [[f32; NR]; MR] {
    let lanes: [&[[f32; NR]]; MR] = core::array::from_fn(|r| &bufs[r][..l]);
    let rot = [
        load_u32x16(&rot[0]),
        load_u32x16(&rot[1]),
        load_u32x16(&rot[2]),
        load_u32x16(&rot[3]),
    ];
    // One named accumulator per tile row, as in the portable passes.
    let [mut s0, mut s1, mut s2, mut s3] = [_mm512_setzero_ps(); MR];
    // Pass one: column j takes lane row t when t ≥ rot_j.
    #[allow(clippy::needless_range_loop)] // t indexes all MR rows' lanes
    for t in 0..l {
        let t32 = _mm512_set1_epi32(t as i32);
        s0 = add_masked(s0, _mm512_cmpge_epu32_mask(t32, rot[0]), &lanes[0][t]);
        s1 = add_masked(s1, _mm512_cmpge_epu32_mask(t32, rot[1]), &lanes[1][t]);
        s2 = add_masked(s2, _mm512_cmpge_epu32_mask(t32, rot[2]), &lanes[2][t]);
        s3 = add_masked(s3, _mm512_cmpge_epu32_mask(t32, rot[3]), &lanes[3][t]);
    }
    // Pass two: column j takes lane row t when t < rot_j.
    #[allow(clippy::needless_range_loop)] // t indexes all MR rows' lanes
    for t in 0..l {
        let t32 = _mm512_set1_epi32(t as i32);
        s0 = add_masked(s0, _mm512_cmplt_epu32_mask(t32, rot[0]), &lanes[0][t]);
        s1 = add_masked(s1, _mm512_cmplt_epu32_mask(t32, rot[1]), &lanes[1][t]);
        s2 = add_masked(s2, _mm512_cmplt_epu32_mask(t32, rot[2]), &lanes[2][t]);
        s3 = add_masked(s3, _mm512_cmplt_epu32_mask(t32, rot[3]), &lanes[3][t]);
    }
    let mut sums = [[0f32; NR]; MR];
    for (out, s) in sums.iter_mut().zip([s0, s1, s2, s3]) {
        store_f32x16(out, s);
    }
    sums
}

/// `s + x` as one `vaddps` whose first source is `s`: where two NaNs
/// meet, the sum's payload survives.
#[target_feature(enable = "avx512f")]
#[inline]
fn add(mut s: __m512, x: __m512) -> __m512 {
    // SAFETY: as in `mul_add`.
    unsafe {
        asm!(
            "vaddps {s}, {s}, {x}",
            s = inout(zmm_reg) s,
            x = in(zmm_reg) x,
            options(pure, nomem, nostack, preserves_flags),
        );
    }
    s
}

/// `s + row` in the columns `take` selects, `s` in the others: one
/// merge-masked `vaddps` whose first source is `s`. (The intrinsic
/// `_mm512_mask_add_ps` compiles to an unmasked add plus a masked move.)
#[target_feature(enable = "avx512f")]
#[inline]
fn add_masked(mut s: __m512, take: __mmask16, row: &[f32; NR]) -> __m512 {
    let row = load_f32x16(row);
    // SAFETY: as in `mul_add`.
    unsafe {
        asm!(
            "vaddps {s} {{{take}}}, {s}, {row}",
            s = inout(zmm_reg) s,
            take = in(kreg) take,
            row = in(zmm_reg) row,
            options(pure, nomem, nostack, preserves_flags),
        );
    }
    s
}

#[target_feature(enable = "avx512f")]
#[inline]
fn load_f32x16(x: &[f32; NR]) -> __m512 {
    // SAFETY: `x` is 16 readable floats, 64 bytes; an unaligned load
    // needs no alignment.
    unsafe { _mm512_loadu_ps(x.as_ptr()) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn load_u32x16(x: &[u32; NR]) -> __m512i {
    // SAFETY: `x` is 64 readable bytes; an unaligned load needs no
    // alignment.
    unsafe { _mm512_loadu_si512(x.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn load_u64x8(x: &[u64; 8]) -> __m512i {
    // SAFETY: `x` is 64 readable bytes; an unaligned load needs no
    // alignment.
    unsafe { _mm512_loadu_si512(x.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn store_f32x16(x: &mut [f32; NR], v: __m512) {
    // SAFETY: `x` is 16 writable floats, 64 bytes, borrowed exclusively;
    // an unaligned store needs no alignment.
    unsafe { _mm512_storeu_ps(x.as_mut_ptr(), v) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn store_u32x16(x: &mut [u32; NR], v: __m512i) {
    // SAFETY: `x` is 64 writable bytes, borrowed exclusively; an
    // unaligned store needs no alignment.
    unsafe { _mm512_storeu_si512(x.as_mut_ptr().cast(), v) }
}

#[cfg(test)]
mod tests {
    use super::super::portable;
    use super::*;
    use detrand::SplitMix64;

    const LANES: [usize; 4] = [2, 8, 27, 64];

    fn assert_specs_eq(fast: &TileSpecs, oracle: &TileSpecs, what: &str) {
        assert_eq!(fast.j1, oracle.j1, "{what}: j1");
        assert_eq!(fast.j2, oracle.j2, "{what}: j2");
        assert_eq!(fast.rot, oracle.rot, "{what}: rot");
        let bits = |s: &TileSpecs| s.scale.map(|row| row.map(f32::to_bits));
        assert_eq!(bits(fast), bits(oracle), "{what}: scale");
    }

    fn specs_both<const AMP: bool>(
        lanes: usize,
        last: u64,
        amp: f32,
        rows: &[u64; MR],
        cols: &[u64; NR],
    ) {
        let fast = derive_specs::<AMP>(lanes, last, amp, rows, cols);
        let oracle = portable::derive_specs::<AMP>(lanes, last, amp, rows, cols);
        let what = format!("<{AMP}> lanes {lanes} amp {amp} rows {rows:x?}");
        assert_specs_eq(&fast, &oracle, &what);
    }

    #[test]
    fn tile_specs_match_portable_bit_for_bit() {
        let mut g = SplitMix64::new(19);
        for lanes in LANES {
            for amp in [0.5, 512.0, 3.0e6] {
                for _ in 0..64 {
                    let rows = core::array::from_fn(|_| g.next_u64());
                    let cols = core::array::from_fn(|_| g.next_u64());
                    // The amplification draw is the fourth.
                    let four = GAMMA.wrapping_mul(3);
                    specs_both::<true>(lanes, four, amp, &rows, &cols);
                    specs_both::<false>(lanes, four, amp, &rows, &cols);
                }
            }
        }
    }

    #[test]
    fn chain_matches_portable_bit_for_bit() {
        // Finite values, zeros of both signs, both infinities, subnormals
        // and quiet NaNs with distinct payloads of both signs. A NaN
        // product stays in its chain, so later NaN products meet it in
        // adds, and NaN A values meet NaN panel values in multiplies: the
        // payload that survives shows which operand each kept.
        let special = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_0002),
            f32::from_bits(0x7fc0_0003),
            f32::from_bits(0xffc0_0004),
            1.0e-40,
            -3.0e-39,
            1.5,
            -2.25,
        ];
        let mut g = SplitMix64::new(21);
        for k in [27, 150] {
            let mut a = vec![0f32; MR * k];
            let mut panel = vec![0f32; k * NR];
            for step in [1, 2, 16, 27, 64] {
                for round in 0..8 {
                    for x in a.iter_mut().chain(panel.iter_mut()) {
                        let pick = g.next_below(3 * special.len() as u32) as usize;
                        *x = special
                            .get(pick)
                            .copied()
                            .unwrap_or_else(|| g.next_f64() as f32 - 0.5);
                    }
                    let arows = core::array::from_fn(|r| &a[r * k..(r + 1) * k]);
                    // Every lane of the stride, as the lane fill runs them.
                    for start in 0..step {
                        let fast = chain(&arows, &panel, start, step, k);
                        let oracle = portable::chain(&arows, &panel, start, step, k);
                        let bits = |s: [[f32; NR]; MR]| s.map(|row| row.map(f32::to_bits));
                        let what = format!("k {k} step {step} round {round} start {start}");
                        assert_eq!(bits(fast), bits(oracle), "{what}");
                    }
                }
            }
        }
    }

    /// Finite values, zeros of both signs, both infinities, subnormals and
    /// quiet NaNs with distinct payloads of both signs, or a uniform value
    /// in [-0.5, 0.5) two times in three.
    fn special_or_uniform(g: &mut SplitMix64) -> f32 {
        let special = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_0011),
            f32::from_bits(0xffc0_0012),
            f32::from_bits(0x7fc0_0013),
            f32::from_bits(0xffc0_0014),
            1.0e-40,
            -3.0e-39,
            1.5,
            -2.25,
        ];
        let pick = g.next_below(3 * special.len() as u32) as usize;
        special
            .get(pick)
            .copied()
            .unwrap_or_else(|| g.next_f64() as f32 - 0.5)
    }

    fn tile_bits(s: [[f32; NR]; MR]) -> [[u32; NR]; MR] {
        s.map(|row| row.map(f32::to_bits))
    }

    #[test]
    fn chain_from_matches_portable_bit_for_bit() {
        // Initial tiles that carry NaN payloads of both signs, infinities
        // and zeros of both signs, as a lane partial carried from one
        // block of the lane fill to the next does; where a NaN product
        // meets a NaN carried in, the payload that survives shows which
        // operand the add kept. Each chain also resumes mid-walk: a walk
        // split at kk and resumed from the tile it returned must equal
        // the unsplit walk.
        let mut g = SplitMix64::new(22);
        let k = 150;
        let mut a = vec![0f32; MR * k];
        let mut panel = vec![0f32; k * NR];
        for step in [1, 2, 16, 27, 64] {
            for round in 0..8 {
                for x in a.iter_mut().chain(panel.iter_mut()) {
                    *x = special_or_uniform(&mut g);
                }
                let init: [[f32; NR]; MR] =
                    core::array::from_fn(|_| core::array::from_fn(|_| special_or_uniform(&mut g)));
                let arows = core::array::from_fn(|r| &a[r * k..(r + 1) * k]);
                for start in 0..step {
                    let fast = chain_from(init, &arows, &panel, start, step, k);
                    let oracle = portable::chain_from(init, &arows, &panel, start, step, k);
                    let what = format!("step {step} round {round} start {start}");
                    assert_eq!(tile_bits(fast), tile_bits(oracle), "{what}");
                    let split = 37 + start;
                    let head = chain_from(init, &arows, &panel, start, step, split);
                    // The first index of the walk at or past the split.
                    let next = start + (split - start).div_ceil(step) * step;
                    let resumed = chain_from(head, &arows, &panel, next, step, k);
                    assert_eq!(tile_bits(resumed), tile_bits(fast), "{what} split {split}");
                }
            }
        }
    }

    /// Bit equality, except that a NaN matches any NaN.
    fn assert_same_values(fast: &[f32], oracle: &[f32], what: &str) {
        for (idx, (x, y)) in fast.iter().zip(oracle).enumerate() {
            if y.is_nan() {
                assert!(x.is_nan(), "{what}[{idx}]: {x} vs NaN");
            } else {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}[{idx}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn fold_and_add_where_match_portable() {
        // A running sum takes a run of rows, as the FixedTree combine folds
        // lane partials and the col2im gather takes taps, over zeros of
        // both signs, infinities, subnormals and NaN payloads of both
        // signs. The portable adds leave the operand order to LLVM, which
        // picked the sum first in some elements and the row first in
        // others, so NaN payloads are compared by position here; the
        // 512-bit forms pin theirs below.
        let mut g = SplitMix64::new(23);
        let mut lanes = vec![[[0f32; NR]; MR]; 16];
        for round in 0..64 {
            for x in lanes.iter_mut().flatten().flatten() {
                *x = special_or_uniform(&mut g);
            }
            let init: [[f32; NR]; MR] =
                core::array::from_fn(|_| core::array::from_fn(|_| special_or_uniform(&mut g)));
            let (mut fast, mut oracle) = (init, init);
            for lane in &lanes {
                fold(&mut fast, lane);
                portable::fold(&mut oracle, lane);
            }
            let what = format!("fold round {round}");
            assert_same_values(fast.as_flattened(), oracle.as_flattened(), &what);
            // No column, every column, single columns, random columns.
            let masks = [0, u16::MAX, 1, 1 << 15]
                .into_iter()
                .chain((0..lanes.len() - 4).map(|_| g.next_u64() as u16));
            let (mut fast, mut oracle) = (init[0], init[0]);
            for (lane, take) in lanes.iter().zip(masks) {
                add_where(&mut fast, &lane[round % MR], take);
                portable::add_where(&mut oracle, &lane[round % MR], take);
            }
            assert_same_values(&fast, &oracle, &format!("add_where round {round}"));
        }
        // Where a NaN sum meets a NaN row, the sum's payload and sign
        // survive, as in the reference's `sum + lane`; a column the mask
        // skips keeps its sum.
        let (sum, row) = (f32::from_bits(0xffc0_0021), f32::from_bits(0x7fc0_0022));
        let mut s = [[sum; NR]; MR];
        fold(&mut s, &[[row; NR]; MR]);
        assert!(s
            .as_flattened()
            .iter()
            .all(|x| x.to_bits() == sum.to_bits()));
        let mut s = [sum; NR];
        add_where(&mut s, &[row; NR], 0x00ff);
        assert!(s.iter().all(|x| x.to_bits() == sum.to_bits()));
        let mut s = [1.0; NR];
        add_where(&mut s, &[row; NR], 0x00ff);
        let bits = s.map(f32::to_bits);
        assert_eq!(bits[..8], [row.to_bits(); 8]);
        assert_eq!(bits[8..], [1f32.to_bits(); 8]);
    }

    #[test]
    fn max_pool_2x2_matches_portable_bit_for_bit() {
        // Values that tie often, NaNs with distinct payloads of both
        // signs, zeros of both signs and -inf, into NaN-filled outputs
        // and all-ones indices; plane sizes whose output counts are below,
        // at and past 16 and no multiple of it, down to one output per
        // plane, so a vector of outputs spans several planes.
        let special = [
            f32::from_bits(0x7fc0_0041),
            f32::from_bits(0xffc0_0042),
            -0.0,
            0.0,
            f32::NEG_INFINITY,
        ];
        let mut g = SplitMix64::new(24);
        for (planes, h, w) in [(48, 12, 12), (80, 6, 6), (7, 2, 2), (3, 8, 8), (1, 4, 34)] {
            for round in 0..4 {
                let x: Vec<f32> = (0..planes * h * w)
                    .map(|_| {
                        let pick = g.next_below(3 * special.len() as u32) as usize;
                        special
                            .get(pick)
                            .copied()
                            .unwrap_or_else(|| g.next_below(5) as f32 - 2.0)
                    })
                    .collect();
                let outputs = planes * h * w / 4;
                let (mut fast, mut fast_arg) = (vec![f32::NAN; outputs], vec![u32::MAX; outputs]);
                let (mut oracle, mut oracle_arg) = (fast.clone(), fast_arg.clone());
                max_pool_2x2(&x, h, w, &mut fast, Some(&mut fast_arg));
                portable::max_pool_2x2(&x, h, w, &mut oracle, Some(&mut oracle_arg));
                let what = format!("{planes}x{h}x{w} round {round}");
                let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&oracle), "{what}");
                assert_eq!(fast_arg, oracle_arg, "{what}");
                // Without indices, the same outputs.
                let mut alone = vec![f32::NAN; outputs];
                max_pool_2x2(&x, h, w, &mut alone, None);
                assert_eq!(bits(&alone), bits(&oracle), "{what}");
            }
        }
    }

    #[test]
    fn masked_passes_match_portable_bit_for_bit() {
        // Finite values, zeros of both signs, both infinities and quiet
        // NaNs with distinct payloads of both signs: where two NaNs meet,
        // the payload that survives shows which operand the add kept.
        let special = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_0002),
            f32::from_bits(0x7fc0_0003),
            1.5,
            -2.25,
            1.0e-40,
        ];
        let mut g = SplitMix64::new(20);
        let mut bufs = [[[0f32; NR]; MAX_LANES]; MR];
        for l in LANES {
            for round in 0..8 {
                for x in bufs.iter_mut().flatten().flatten() {
                    let pick = g.next_below(3 * special.len() as u32) as usize;
                    *x = special
                        .get(pick)
                        .copied()
                        .unwrap_or_else(|| g.next_f64() as f32 - 0.5);
                }
                // Every rotation 0..l, in every row and column position.
                for first in 0..l {
                    let rot = core::array::from_fn(|r| {
                        core::array::from_fn(|j| ((first + r * NR + j) % l) as u32)
                    });
                    let fast = masked_passes(&bufs, l, &rot);
                    let oracle = portable::masked_passes(&bufs, l, &rot);
                    let bits = |s: [[f32; NR]; MR]| s.map(|row| row.map(f32::to_bits));
                    assert_eq!(bits(fast), bits(oracle), "l {l} round {round} rot {first}");
                }
            }
        }
    }
}
