//! Operand packing for the blocked GEMM engine.
//!
//! The micro-kernel in [`crate::gemm`] walks the k dimension once per
//! output tile and wants the `NR` output columns of a tile interleaved at
//! each k index, so one contiguous load feeds all `NR` accumulation
//! chains. Packing rearranges the B operand into that layout ahead of the
//! kernel loop. Packing only *copies* values — it never adds two floats —
//! so it cannot perturb any accumulation order.

/// Column-tile width of the packed layout: how many output columns one
/// micro-kernel pass produces. Sixteen `f32`s are one 512-bit vector or
/// two 256-bit ones. Under `-C target-cpu=native` on an AVX-512 Xeon the
/// auto-vectorizer still emits 256-bit code (LLVM prefers 256-bit vectors
/// on those cores); only the explicit Permuted tile kernels in
/// `crate::tile` use 512-bit vectors.
pub const NR: usize = 16;

/// Row-tile height of the sequential micro-kernel (independent
/// accumulation chains per column, giving the out-of-order core parallel
/// FMA chains to overlap).
pub const MR: usize = 4;

/// Packs `bt` (row-major `[n, k]`; each row is one output column of the
/// GEMM) into `NR`-wide column panels.
///
/// Output layout: panel `p` occupies `packed[p * k * NR ..][.. k * NR]`,
/// and within a panel element `[kk * NR + j]` is column `p * NR + j` at
/// depth `kk`. Columns past `n` are zero-padded; the kernel computes them
/// and discards the results, which is cheaper than edge-case loops and
/// has no effect on any real output's accumulation chain.
///
/// # Panics
///
/// Panics if `bt.len() != n * k` or `packed` is not `n.div_ceil(NR) * k *
/// NR` long.
pub fn pack_bt_panels(bt: &[f32], n: usize, k: usize, packed: &mut [f32]) {
    assert_eq!(bt.len(), n * k, "bt shape mismatch");
    let panels = n.div_ceil(NR);
    assert_eq!(packed.len(), panels * k * NR, "packed buffer size");
    for p in 0..panels {
        let dst = &mut packed[p * k * NR..(p + 1) * k * NR];
        let cols = NR.min(n - p * NR);
        for j in 0..cols {
            let src = &bt[(p * NR + j) * k..(p * NR + j + 1) * k];
            for (kk, &v) in src.iter().enumerate() {
                dst[kk * NR + j] = v;
            }
        }
        // Zero the padded columns (the buffer may be recycled and dirty).
        if cols < NR {
            for kk in 0..k {
                for j in cols..NR {
                    dst[kk * NR + j] = 0.0;
                }
            }
        }
    }
}

/// Packs `b` (row-major `[k, n]`; ordinary matmul layout, each *column*
/// one output column of the GEMM) into `NR`-wide column panels — the same
/// output layout as [`pack_bt_panels`], read transpose-free.
///
/// At each depth `kk` the `NR` panel values are contiguous in `b`'s row,
/// so packing streams both operands; callers that used to transpose `B`
/// first can skip the transpose scratch entirely.
///
/// # Panics
///
/// Panics if `b.len() != k * n` or `packed` is not `n.div_ceil(NR) * k *
/// NR` long.
pub fn pack_b_panels(b: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    assert_eq!(b.len(), k * n, "b shape mismatch");
    let panels = n.div_ceil(NR);
    assert_eq!(packed.len(), panels * k * NR, "packed buffer size");
    for p in 0..panels {
        let dst = &mut packed[p * k * NR..(p + 1) * k * NR];
        let col0 = p * NR;
        let cols = NR.min(n - col0);
        for kk in 0..k {
            let drow = &mut dst[kk * NR..(kk + 1) * NR];
            drow[..cols].copy_from_slice(&b[kk * n + col0..kk * n + col0 + cols]);
            // Zero the padded columns (the buffer may be recycled and
            // dirty).
            drow[cols..].fill(0.0);
        }
    }
}

/// Writes the row-major transpose of `src` (`[r, c]`) into `dst`
/// (`[c, r]`). The GEMM entry points use this to bring `A × B` and
/// `Aᵀ × B` operands into the canonical `[rows, k]` / `[cols, k]` form.
///
/// # Panics
///
/// Panics if the buffers are not `r * c` long.
pub fn transpose_into(src: &[f32], r: usize, c: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), r * c, "transpose src size");
    assert_eq!(dst.len(), r * c, "transpose dst size");
    for i in 0..r {
        for j in 0..c {
            dst[j * r + i] = src[i * c + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_interleaves_columns() {
        // bt: 3 columns of k=2: col0=[1,2], col1=[3,4], col2=[5,6].
        let bt = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut packed = vec![7.0; 2 * NR]; // deliberately dirty
        pack_bt_panels(&bt, 3, 2, &mut packed);
        // Depth 0 holds [1, 3, 5, pad...], depth 1 holds [2, 4, 6, pad...].
        assert_eq!(&packed[..3], &[1.0, 3.0, 5.0]);
        assert_eq!(&packed[NR..NR + 3], &[2.0, 4.0, 6.0]);
        assert!(packed[3..NR].iter().all(|&x| x == 0.0), "padding zeroed");
    }

    #[test]
    #[allow(clippy::float_cmp)] // packing copies values; bit equality is the contract
    fn pack_multiple_panels() {
        let n = NR + 2;
        let k = 3;
        let bt: Vec<f32> = (0..n * k).map(|i| i as f32).collect();
        let mut packed = vec![0.0; 2 * k * NR];
        pack_bt_panels(&bt, n, k, &mut packed);
        // Column NR (first of panel 1), depth 1 == bt[NR * k + 1].
        assert_eq!(packed[k * NR + NR], bt[NR * k + 1]);
    }

    #[test]
    fn transpose_round_trips() {
        let src: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut t = vec![0.0; 12];
        transpose_into(&src, 3, 4, &mut t);
        let mut back = vec![0.0; 12];
        transpose_into(&t, 4, 3, &mut back);
        assert_eq!(src, back);
        assert_eq!(t[0..3], [0.0, 4.0, 8.0]);
    }
}
