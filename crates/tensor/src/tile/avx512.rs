//! The 512-bit forms of the tile steps (see [the parent module](super)).
//! One `__m512` holds the `NR` columns of a tile row.

use super::TileSpecs;
use crate::pack::{MR, NR};
use crate::reduce::MAX_LANES;
use core::arch::asm;
use core::arch::x86_64::*;
use detrand::splitmix::{GAMMA, MIX_MULTIPLIERS};

const _: () = assert!(NR == 16, "a tile row is one 512-bit vector of f32");

/// 512-bit `portable::chain`.
#[inline(always)]
pub(crate) fn chain(
    arows: &[&[f32]; MR],
    panel: &[f32],
    start: usize,
    step: usize,
    k: usize,
) -> [[f32; NR]; MR] {
    // SAFETY: as in `derive_specs`, the target has avx512f.
    unsafe { chain_512(arows, panel, start, step, k) }
}

/// 512-bit `portable::derive_specs`.
#[inline(always)]
pub(crate) fn derive_specs<const SWAPS: bool, const AMP: bool>(
    lanes: usize,
    last: u64,
    amp_ulps: f32,
    rows: &[u64; MR],
    cols: &[u64; NR],
) -> TileSpecs {
    // SAFETY: this module is compiled only when the build's target has
    // avx512f and avx512dq (the `cfg_select!` in `tile.rs`), so the CPU
    // running it has both.
    unsafe { derive_specs_512::<SWAPS, AMP>(lanes, last, amp_ulps, rows, cols) }
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

#[target_feature(enable = "avx512f")]
#[inline]
fn chain_512(
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
    let [mut s0, mut s1, mut s2, mut s3] = [_mm512_setzero_ps(); MR];
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
fn derive_specs_512<const SWAPS: bool, const AMP: bool>(
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
        let c = [_mm512_add_epi64(row, cols[0]), _mm512_add_epi64(row, cols[1])];
        if SWAPS {
            store_u32x16(&mut t.j1[r], below(draw(c, 0), lanes));
            store_u32x16(&mut t.j2[r], below(draw(c, GAMMA), lanes));
            store_u32x16(&mut t.rot[r], below(draw(c, GAMMA.wrapping_mul(2)), lanes));
        }
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

    fn specs_both<const SWAPS: bool, const AMP: bool>(
        lanes: usize,
        last: u64,
        amp: f32,
        rows: &[u64; MR],
        cols: &[u64; NR],
    ) {
        let fast = derive_specs::<SWAPS, AMP>(lanes, last, amp, rows, cols);
        let oracle = portable::derive_specs::<SWAPS, AMP>(lanes, last, amp, rows, cols);
        let what = format!("<{SWAPS}, {AMP}> lanes {lanes} amp {amp} rows {rows:x?}");
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
                    // The amplification draw is the fourth with swaps and
                    // the only one without.
                    let (four, one) = (GAMMA.wrapping_mul(3), 0);
                    specs_both::<true, true>(lanes, four, amp, &rows, &cols);
                    specs_both::<true, false>(lanes, four, amp, &rows, &cols);
                    specs_both::<false, true>(lanes, one, amp, &rows, &cols);
                    specs_both::<false, false>(lanes, one, amp, &rows, &cols);
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
