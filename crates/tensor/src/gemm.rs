//! Cache-blocked, packed GEMM engine that is bit-identical to the
//! per-element reference path in [`crate::linalg`] for every
//! [`ReduceOrder`].
//!
//! # Why a blocked engine can be bit-identical at all
//!
//! Floating-point addition is not associative, so a conventional blocked
//! GEMM (which tiles the *k* dimension and combines per-tile partials)
//! would change every output's accumulation order and therefore its bits.
//! This engine never does that. The invariant is:
//!
//! > **Blocking may reorder *which outputs* are computed when; it must
//! > never reorder the k-dimension combine chain *inside* one output.**
//!
//! Each output element's reduction is executed exactly as
//! [`Reducer::dot`] would execute it — the `e % lanes` lane fill plus
//! fixed index-order combine for [`ReduceOrder::FixedTree`] (with one
//! lane, a single left-to-right chain), and the same lane fill plus the
//! scheduler-drawn permutation for [`ReduceOrder::Permuted`]. The speed
//! comes from vectorizing *across* outputs: the micro-kernel advances
//! [`NR`] independent accumulation chains (one per output column) with
//! each pass over k, as wide multiplies and adds (never fused into one
//! multiply-add) without touching any single chain's order.
//!
//! The [`ReduceOrder::Permuted`] combine keeps each output's order the
//! same way. Per tile row, the `l` lane partials of all `NR` columns sit
//! in one buffer, lane `dl` of column `j` at `[dl][j]`. Each column's two
//! transpositions are applied *in place within column `j`*, in the
//! reference's order, so a second swap that lands on a slot the first
//! moved sees the moved value exactly as the reference's
//! `p.swap(0, j1); p.swap(1.min(l - 1), j2)` does. The reference then
//! adds `p[(t + rot) % l]` for `t = 0..l`: lanes `rot..l`, then lanes
//! `0..rot`. The combine makes two passes over the `l` lane rows; in the
//! first, column `j` takes row `t` when `t ≥ rot_j`, in the second when
//! `t < rot_j`. Every column's sum starts at 0.0 and adds its `l` lanes in
//! exactly the reference order; what changes is only that the `NR`
//! columns' chains advance together, and the `MR` rows of a tile
//! interleave theirs, so no chain's add latency bounds the combine.
//! "Takes" is a masked add, not a branch: a column the mask skips keeps
//! its sum, so no value from the skipped add, NaN payloads included,
//! reaches it.
//!
//! Four of the tile's steps live in `crate::tile`, which picks at build
//! time between an explicit 512-bit form (targets with AVX-512 F and DQ)
//! and a portable one; both compute the same bits. They are the
//! multiply-add chain every order runs (`tile::chain`: the sequential
//! kernel's whole k walk; `tile::chain_from`: one lane of the lane fill,
//! or the part of it in one k block), the FixedTree fold of the lane
//! partials (`tile::fold`, one `sum + partial` add per tile row), and the
//! Permuted combine's spec derivation and masked passes. The portable chain is a
//! plain loop the auto-vectorizer compiles to separate multiplies and adds
//! (rustc does not contract `a * b + c`), but on AVX-512 hosts whose LLVM
//! tuning prefers 256-bit vectors it gets half-width ones; the 512-bit
//! chain holds one 512-bit register per tile row. The portable masked
//! passes take each column's mask from a compare the auto-vectorizer
//! widens to 64 bits, eight per step of a tile row, and those compares,
//! not the adds, bound them; the 512-bit form needs one 32-bit compare
//! and one masked add per step of a row. The swaps stay portable on every
//! build (see `crate::tile` for why).
//!
//! The remaining subtlety is the scheduler RNG: the reference path draws
//! permutations interleaved with compute, one output at a time in
//! reference order. `Reducer::plan_dots` records the scheduler state
//! before the batch in a `DotPlan` and skips the scheduler past the
//! batch in O(1), so the reducer ends the GEMM in precisely the state
//! `m·n` sequential `dot` calls would have left it. The plan holds no
//! per-output buffer. The scheduler is a SplitMix64 counter, so output
//! `o`'s draw `d` mixes the counter `state + (o·per + d + 1)·γ`, where
//! `per` is the number of draws per output. The Permuted kernel derives
//! each `MR × NR` tile's specs where it combines them: column counters
//! once per panel, one counter per row, then one add and one mix per
//! draw, vectorized across the tile. Output `(row, col)` sits at
//! reference position `row·n + col` in a plain GEMM. A conv forward that
//! batches samples into the columns reads them as sample blocks of
//! `pixels` columns: column `s·pixels + p` of row `o` is reference output
//! `s·m·pixels + o·pixels + p`, because the reference draws one sample's
//! whole `[out_c, pixels]` block before the next. Nothing a tile derives
//! depends on which tile, band or thread ran before it, so the engine is
//! bit-invariant in the thread count by construction.
//!
//! # Blocking k
//!
//! The lane fill walks each lane's k indices `dl, dl + l, …` with a
//! stride of `l` panel rows, and a FixedTree or Permuted tile runs all `l`
//! lanes over the same panel, so every tile of a band walks the whole
//! panel. Up to `BLOCK_ABOVE` rows that is one block: tile by tile,
//! lane by lane, each lane's whole walk in registers, as ever. A longer
//! reduction, such as a conv weight gradient over a batch's pixels
//! (4,608 rows for SmallCNN's `c3→16 12×12` stem at batch 32, 23,040 at
//! the full batch of 160), walks k in blocks of `BLOCK_STEPS · l`
//! rows, with every tile and lane of the band inside each block, so the
//! block's panel rows (at most 32 KiB, at 64 lanes) stay in L1 while they
//! all read it. Each lane's `MR × NR` partial is kept between blocks and
//! the next block's walk resumes from it (`tile::chain_from`): the same
//! multiplies and adds, on the same values, in the same increasing-k
//! order, so each lane partial, and every output after the unchanged
//! combine, has the reference's bits. Only the loop nesting changed, as
//! with the m/n tiling. A block is a whole number of lane steps, so each
//! lane starts every block at its own offset `dl`. All blocks but the
//! last run ahead of the tile loop (`lane_fill_head`); the last runs in
//! it, each tile's lanes resuming where the head left them and going
//! straight to the combine, so the kernels' tile loop, and a short
//! reduction's whole walk, keep the shape they had without blocking.
//!
//! The same walk (`lane_fill`) takes a reduction whose k rows arrive in
//! pieces, as the conv weight gradient's do, one chunk of samples at a
//! time (`gemm_packed_piece`): the piece's rows `first ..` belong to
//! lanes `first % l, …`, every lane of every tile and panel resumes from
//! the partial the previous piece left, and the walk runs in blocks of
//! `BLOCK_STEPS · l` rows from the piece's first row, every tile and lane
//! inside each block, as above. A block of a piece may start off lane
//! 0's phase; each lane still takes its own rows of the block, in
//! increasing order. After the last piece the kernels combine the
//! carried partials without walking again. A GEMM that arrives in one
//! piece runs exactly as `gemm_packed_planned` runs it.
//!
//! Both constants come from a timing sweep of the weight-gradient GEMM
//! shapes (8 or 16 rows; 27 or 144 columns; k from 2,048 to 23,040;
//! FixedTree and Permuted at 16, 32, 38, 44 and 64 lanes; one thread on
//! a 2-vCPU AVX-512 host, 48 KiB L1d and 2 MiB L2 per core). Blocked, the
//! GEMM took 20–58% less time (geometric mean over the lane counts) at
//! every k from 3,456 up, and the same within noise (−5% to +2%) at
//! 2,048 to 3,072. At 44 lanes it took up to 15% longer at k = 3,456 to
//! 4,608, and 19–55% less from 5,760 up. Blocks of 8, 16 or 32 steps per
//! lane, or of a fixed 128, 256 or 512 rows, all gained; 8 steps was the
//! best or within a few points of it at each k, and keeps the block in
//! L1 at every lane count. At 64 lanes and 16 rows the carried partials
//! take 64 KiB, more than L1, so each lane reloads its partial from L2
//! every 8 steps; those shapes still took 22–59% less time. A first
//! version here, which ran every block's tile loop inside the lane fill
//! and handed each lane to the combine through a callback, slowed the
//! short Permuted GEMMs by 7–27% in a kernel timing.
//!
//! # Lanes ≥ k
//!
//! A [`ReduceOrder::FixedTree`] dot with at least as many lanes as
//! elements runs on the sequential kernel. Each lane then holds at most
//! one product, as `+0.0 + a·b`, and the combine adds the lanes in index
//! order to a sum that starts at 0.0: exactly the sequential chain
//! `0.0 + a₀b₀ + a₁b₁ + …`, except that each term is `+0.0 + aᵢbᵢ`
//! instead of `aᵢbᵢ`, and an empty lane adds `+0.0`. Adding `+0.0`
//! changes a value only when that value is `−0.0`, and then only its sign
//! of zero. So a term differs only when `aᵢbᵢ = −0.0`, where the combine
//! adds `+0.0` instead of `−0.0`, and that changes the running sum only
//! if the sum is `−0.0`. Neither chain can hold `−0.0`: it starts at
//! `+0.0`, and in round-to-nearest a sum is `−0.0` only when both addends
//! are. So every output gets the same bits, infinities included, and a
//! NaN output stays NaN (it propagates through an add of `+0.0`). Which
//! payload survives where two NaNs meet is not pinned: that follows the
//! operand order the compiler picks for each add, which Rust leaves open.
//! The conv input gradient (k = `out_c`) and forward GEMMs with
//! `patch_len ≤ lanes` take this path.
//!
//! [`ReduceOrder`]: crate::reduce::ReduceOrder
//! [`Reducer::dot`]: crate::reduce::Reducer::dot

use crate::error::ShapeError;
use crate::linalg::check_rank2;
use crate::pack::{pack_b_panels, pack_bt_panels, transpose_into, MR, NR};
use crate::reduce::{DotPlan, ReduceOrder, Reducer, MAX_LANES};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::tile::{self, TileSpecs};
use crate::workspace::Workspace;

/// Computes `C = A × B` through the blocked engine.
///
/// Bit-identical to [`crate::linalg::matmul`] for any reducer state, but
/// uses `ws` for scratch and runs row bands on up to `threads` threads.
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not rank 2 or the inner
/// dimensions disagree.
pub fn matmul_ws(
    a: &Tensor,
    b: &Tensor,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Tensor, ShapeError> {
    check_rank2("matmul", a, b)?;
    let (m, ka) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(ShapeError::mismatch("matmul", &a.shape(), &b.shape()));
    }
    let plan = red.plan_dots(m * n, ka);
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    if m != 0 && n != 0 {
        let mut packed = ws.take_scratch(n.div_ceil(NR) * ka * NR);
        pack_b_panels(b.as_slice(), kb, n, &mut packed);
        gemm_packed_planned(
            a.as_slice(),
            &packed,
            m,
            n,
            ka,
            &plan,
            threads,
            out.as_mut_slice(),
        );
        ws.recycle(packed);
    }
    Ok(out)
}

/// Computes `C = Aᵀ × B` through the blocked engine.
///
/// Bit-identical to [`crate::linalg::matmul_at_b_reference`].
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not rank 2 or `A`'s rows do
/// not match `B`'s rows.
pub fn matmul_at_b_ws(
    a: &Tensor,
    b: &Tensor,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Tensor, ShapeError> {
    check_rank2("matmul_at_b", a, b)?;
    let (ka, m) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(ShapeError::mismatch("matmul_at_b", &a.shape(), &b.shape()));
    }
    let plan = red.plan_dots(m * n, ka);
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    if m != 0 && n != 0 {
        let mut at = ws.take_scratch(m * ka);
        transpose_into(a.as_slice(), ka, m, &mut at);
        let mut packed = ws.take_scratch(n.div_ceil(NR) * kb * NR);
        pack_b_panels(b.as_slice(), kb, n, &mut packed);
        gemm_packed_planned(&at, &packed, m, n, ka, &plan, threads, out.as_mut_slice());
        ws.recycle(at);
        ws.recycle(packed);
    }
    Ok(out)
}

/// Computes `C = A × Bᵀ` through the blocked engine.
///
/// Bit-identical to [`crate::linalg::matmul_a_bt_reference`]. This is the engine's
/// native operand layout (`B`'s rows are already the output columns), so
/// no transpose scratch is needed.
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not rank 2 or the column
/// counts disagree.
pub fn matmul_a_bt_ws(
    a: &Tensor,
    b: &Tensor,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Tensor, ShapeError> {
    check_rank2("matmul_a_bt", a, b)?;
    let (m, ka) = (a.shape().dim(0), a.shape().dim(1));
    let (n, kb) = (b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(ShapeError::mismatch("matmul_a_bt", &a.shape(), &b.shape()));
    }
    let plan = red.plan_dots(m * n, ka);
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    gemm_bt_planned(
        a.as_slice(),
        b.as_slice(),
        m,
        n,
        ka,
        &plan,
        threads,
        ws,
        out.as_mut_slice(),
    );
    Ok(out)
}

/// The engine core: `out[i, j] = plan-ordered reduction of
/// Σ_kk a[i, kk] · bt[j, kk]`.
///
/// `a` is row-major `[m, k]`; `bt` is row-major `[n, k]` (each row one
/// output column); `out` is row-major `[m, n]`. The `plan` must have been
/// drawn for exactly `m * n` outputs of length `k` (or be a
/// [`DotPlan::fixed_lanes`] plan, which has no per-output state). Rows
/// are split into contiguous bands across up to `threads` threads; the
/// result is bitwise independent of `threads` because all per-output
/// combine state lives in `plan`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bt_planned(
    a: &[f32],
    bt: &[f32],
    m: usize,
    n: usize,
    k: usize,
    plan: &DotPlan,
    threads: usize,
    ws: &mut Workspace,
    out: &mut [f32],
) {
    assert_eq!(bt.len(), n * k, "gemm Bt size");
    assert_eq!(out.len(), m * n, "gemm out size");
    if m == 0 || n == 0 {
        return;
    }
    let mut packed = ws.take_scratch(n.div_ceil(NR) * k * NR);
    pack_bt_panels(bt, n, k, &mut packed);
    gemm_packed_planned(a, &packed, m, n, k, plan, threads, out);
    ws.recycle(packed);
}

/// The engine core on an already-packed B operand (see
/// [`pack_b_panels`] / [`pack_bt_panels`] for the panel layout): callers
/// that produce panels directly — the conv lowering writes im2col output
/// straight into panel form — skip the intermediate `[n, k]` buffer
/// entirely.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed_planned(
    a: &[f32],
    packed: &[f32],
    m: usize,
    n: usize,
    k: usize,
    plan: &DotPlan,
    threads: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm A size");
    assert_eq!(packed.len(), n.div_ceil(NR) * k * NR, "gemm packed size");
    assert_eq!(out.len(), m * n, "gemm out size");
    plan.check_outputs(m, n);
    if m == 0 || n == 0 {
        return;
    }
    for_each_band(m, n, threads, out, &mut [], 0, |row0, rows, band, _| {
        run_band(a, packed, plan, m, n, k, row0, rows, band, None);
    });
}

/// The floats of the lane partials [`gemm_packed_piece`] carries for an
/// `m × n` GEMM at `lanes` lanes: one `MR × NR` tile per lane, row tile
/// and panel.
pub(crate) fn lane_carry_len(m: usize, n: usize, lanes: usize) -> usize {
    m.div_ceil(MR) * n.div_ceil(NR) * lanes * MR * NR
}

/// One piece of a GEMM whose k rows arrive in consecutive pieces, as a
/// conv weight gradient's do, one chunk of samples at a time: `a` holds
/// the piece's `[m, k]` A columns and `packed` the panels of its `k` B
/// rows, which are rows `first .. first + k` of the whole reduction.
///
/// Every lane partial of every tile resumes in `carry` where the previous
/// piece left it ([`lane_fill`]; the first piece, `first == 0`, starts
/// from 0.0), so each lane runs the multiplies and adds of one unsplit
/// walk, in the same increasing-k order. The last piece, the one given
/// `out`, then combines the carried partials exactly as
/// [`gemm_packed_planned`] combines its own, and a GEMM that arrives in
/// one piece is [`gemm_packed_planned`]. `plan` is drawn for the whole
/// reduction, `carry` is [`lane_carry_len`] long, and every piece runs on
/// the same `threads`, which fixes where each band's partials sit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed_piece(
    a: &[f32],
    packed: &[f32],
    m: usize,
    n: usize,
    k: usize,
    first: usize,
    plan: &DotPlan,
    threads: usize,
    carry: &mut [f32],
    out: Option<&mut [f32]>,
) {
    if first == 0 {
        if let Some(out) = out {
            return gemm_packed_planned(a, packed, m, n, k, plan, threads, out);
        }
        carry.fill(0.0);
    }
    assert_eq!(a.len(), m * k, "gemm A size");
    assert_eq!(packed.len(), n.div_ceil(NR) * k * NR, "gemm packed size");
    assert_eq!(
        carry.len(),
        lane_carry_len(m, n, plan.lanes),
        "gemm carry size"
    );
    plan.check_outputs(m, n);
    if m == 0 || n == 0 {
        return;
    }
    let (l, panels) = (plan.lanes, n.div_ceil(NR));
    let (carry, _) = carry.as_chunks_mut::<NR>();
    let (carry, _) = carry.as_chunks_mut::<MR>();
    let last = out.is_some();
    let out = out.unwrap_or_default();
    assert!(!last || out.len() == m * n, "gemm out size");
    for_each_band(
        m,
        if last { n } else { 0 },
        threads,
        out,
        carry,
        panels * l,
        |row0, rows, band, parts| {
            for (p, parts) in parts.chunks_exact_mut(rows.div_ceil(MR) * l).enumerate() {
                let panel = &packed[p * k * NR..(p + 1) * k * NR];
                lane_fill(a, panel, l, k, first, k, row0, rows, parts);
            }
            if last {
                run_band(&[], &[], plan, m, n, 0, row0, rows, band, Some(parts));
            }
        },
    );
}

/// Splits the `m` output rows into contiguous bands of a whole number of
/// `MR`-row tiles, one per thread up to `threads`, and calls
/// `f(row0, rows, band, parts)` for each: `band` is the band's
/// `cols`-wide rows of `out`, and `parts` the band's `per_tile` entries
/// per row tile of `carry` (either may be empty). The first band runs on
/// the calling thread, each other one on a thread of its own. Each band
/// writes only its own rows and partials, so no result depends on the
/// split.
fn for_each_band<F>(
    m: usize,
    cols: usize,
    threads: usize,
    out: &mut [f32],
    carry: &mut [Tile],
    per_tile: usize,
    f: F,
) where
    F: Fn(usize, usize, &mut [f32], &mut [Tile]) + Sync,
{
    let band_rows = m
        .div_ceil(threads.max(1).min(m))
        .next_multiple_of(MR)
        .min(m);
    let tiles = band_rows.div_ceil(MR) * per_tile;
    let (band, mut out) = out.split_at_mut(band_rows * cols);
    let (parts, mut carry) = carry.split_at_mut(tiles);
    if band_rows == m {
        return f(0, m, band, parts);
    }
    let f = &f;
    std::thread::scope(|scope| {
        for row0 in (band_rows..m).step_by(band_rows) {
            let rows = band_rows.min(m - row0);
            let (band, rest) = std::mem::take(&mut out).split_at_mut(rows * cols);
            out = rest;
            let tiles = rows.div_ceil(MR) * per_tile;
            let (parts, rest) = std::mem::take(&mut carry).split_at_mut(tiles);
            carry = rest;
            scope.spawn(move || f(row0, rows, band, parts));
        }
        f(0, band_rows, band, parts);
    });
}

/// One `MR × NR` tile of accumulators or lane partials.
type Tile = [[f32; NR]; MR];

/// Computes the `rows` rows of the `m × n` output from `row0` on, the
/// row band `band`. With `carried`, every lane partial of the band has
/// already walked all of k ([`gemm_packed_piece`]; `a` and `packed` are
/// then empty and `k` is 0), and only the combine runs.
#[allow(clippy::too_many_arguments)]
fn run_band(
    a: &[f32],
    packed: &[f32],
    plan: &DotPlan,
    m: usize,
    n: usize,
    k: usize,
    row0: usize,
    rows: usize,
    band: &mut [f32],
    carried: Option<&[Tile]>,
) {
    match plan.order {
        // A single lane *is* one left-to-right chain: the lane fill puts
        // every element in lane 0 in increasing-k order and the combine
        // reads it back, so the fast sequential kernel computes the same
        // bits. FixedTree with at least as many lanes as k is one chain
        // too (module docs, "Lanes ≥ k"). A Permuted plan has one lane
        // only when k = 1 (every Permuted device has at least 8); it takes
        // the general path, whose swap and rotation draws are then all 0.
        // Carried partials have been filled lane by lane already, so they
        // take the lane kernels, which combine them as the reference does.
        ReduceOrder::FixedTree if carried.is_none() && (plan.lanes == 1 || plan.lanes >= k) => {
            band_sequential(a, packed, n, k, row0, rows, band)
        }
        ReduceOrder::FixedTree => {
            band_fixed_tree(a, packed, plan.lanes, n, k, row0, rows, band, carried)
        }
        ReduceOrder::Permuted if plan.amplified => {
            band_permuted::<true>(a, packed, plan, m, n, k, row0, rows, band, carried)
        }
        ReduceOrder::Permuted => {
            band_permuted::<false>(a, packed, plan, m, n, k, row0, rows, band, carried)
        }
    }
}

/// One-lane micro-kernel: an `MR × NR` register tile of *independent*
/// single-chain accumulators. Each output's chain is
/// `acc += a[i, kk] · b[kk, j]` for `kk = 0..k` — the identical
/// left-to-right chain [`Reducer::dot`] runs — while the `NR`-wide steps
/// and `MR` parallel rows of `tile::chain` give the CPU wide multiplies,
/// adds and ILP.
fn band_sequential(
    a: &[f32],
    packed: &[f32],
    n: usize,
    k: usize,
    row0: usize,
    rows: usize,
    band: &mut [f32],
) {
    let panels = n.div_ceil(NR);
    for p in 0..panels {
        let panel = &packed[p * k * NR..(p + 1) * k * NR];
        let mut i = 0;
        while i < rows {
            let rm = MR.min(rows - i);
            // The chain always runs all MR rows (remainder tiles repeat
            // the last real row and discard the duplicates below), so its
            // loops have fixed trip counts.
            let arows = tile_rows(a, k, row0 + i, rm);
            let acc = tile::chain(&arows, panel, 0, 1, k);
            store_tile(&acc, rm, band, n, i, p * NR);
            i += rm;
        }
    }
}

/// Stores the `rm` real rows of a tile at row `i` of the band, from
/// column `col0` on. A full panel's row is one fixed 16-float copy; only
/// the last panel, when `n` is not a multiple of `NR`, copies fewer
/// ([`store_partial`]). A `copy_from_slice` of `cols` floats compiles to
/// a call to `memcpy` per row.
#[inline(always)]
fn store_tile(tile: &Tile, rm: usize, band: &mut [f32], n: usize, i: usize, col0: usize) {
    if n - col0 < NR {
        return store_partial(tile, rm, band, n, i, col0);
    }
    for (r, src) in tile.iter().enumerate().take(rm) {
        let at = (i + r) * n + col0;
        let dst: &mut [f32; NR] = (&mut band[at..at + NR]).try_into().expect("NR floats");
        *dst = *src;
    }
}

/// [`store_tile`] for the last panel's `n - col0 < NR` columns. Kept out
/// of line: inlined, LLVM merged the two copies into one `memcpy` call of
/// either length.
#[inline(never)]
fn store_partial(tile: &Tile, rm: usize, band: &mut [f32], n: usize, i: usize, col0: usize) {
    for (r, src) in tile.iter().enumerate().take(rm) {
        band[(i + r) * n + col0..(i + r + 1) * n].copy_from_slice(&src[..n - col0]);
    }
}

/// The `MR` A-row slices of one register tile, with remainder tiles
/// clamped to the last real row (the kernels compute the duplicate rows
/// and discard them — cheaper than a variable trip count in the hot
/// loop).
#[inline(always)]
fn tile_rows(a: &[f32], k: usize, first: usize, rm: usize) -> [&[f32]; MR] {
    core::array::from_fn(|r| {
        let row = first + r.min(rm - 1);
        &a[row * k..row * k + k]
    })
}

/// Reductions longer than this run the lane fill in blocks; shorter ones
/// run it as one block (see [Blocking k](self#blocking-k)).
pub(crate) const BLOCK_ABOVE: usize = 3072;

/// Chain steps each lane runs per block of a long lane fill: a block is
/// `BLOCK_STEPS · l` panel rows, so every lane runs the same number of
/// steps between loading and storing its partial, whatever the lane
/// count.
pub(crate) const BLOCK_STEPS: usize = 8;

/// Advances the lane partials `parts` of every tile of one panel, over
/// the band's `rows` rows, through the panel rows `0..end` of a piece of
/// `k` rows whose row 0 is row `first` of the whole reduction: piece row
/// `kk` belongs to lane `(first + kk) % l`, the lane the reference's
/// `p[e % l]` fill puts it in. Tile `t`'s lane `dl` sits at
/// `parts[t * l + dl]`. The walk runs in blocks of `BLOCK_STEPS · l`
/// rows, with every tile and lane inside each block,
/// so the block's panel rows stay in L1 while all of them read it; each
/// lane takes its rows of the block in increasing order
/// (`tile::chain_from`), resuming from its partial.
#[allow(clippy::too_many_arguments)]
fn lane_fill(
    a: &[f32],
    panel: &[f32],
    l: usize,
    k: usize,
    first: usize,
    end: usize,
    row0: usize,
    rows: usize,
    parts: &mut [Tile],
) {
    let block = BLOCK_STEPS * l;
    for k0 in (0..end).step_by(block) {
        let stop = (k0 + block).min(end);
        // Lane 0's first row in the block; lane `dl`'s is `dl` rows on,
        // wrapped into the block's first `l` rows.
        let lane0 = k0 + (l - (first + k0) % l) % l;
        for (t, lanes) in parts.chunks_exact_mut(l).enumerate() {
            let i = t * MR;
            let arows = tile_rows(a, k, row0 + i, MR.min(rows - i));
            let mut start = lane0;
            for lane in lanes {
                *lane = tile::chain_from(*lane, &arows, panel, start, l, stop);
                start += 1;
                if start == k0 + l {
                    start = k0;
                }
            }
        }
    }
}

/// The part of a long lane fill that runs before its last block, for
/// every tile of one panel over the band's `rows` rows ([`lane_fill`]
/// from row 0). Leaves each lane's partial at the last block's start in
/// `carry`, tile `t`'s lane `dl` at `[t * l + dl]`, and returns that
/// start; [`for_each_lane_partial`] resumes each tile's lanes from them.
/// A reduction of at most [`BLOCK_ABOVE`] rows is one block: `carry` is
/// left empty and the start is 0.
fn lane_fill_head(
    a: &[f32],
    panel: &[f32],
    l: usize,
    k: usize,
    row0: usize,
    rows: usize,
    carry: &mut Vec<Tile>,
) -> usize {
    carry.clear();
    if k <= BLOCK_ABOVE {
        return 0;
    }
    let block = BLOCK_STEPS * l;
    let last = (k - 1) / block * block;
    carry.resize(rows.div_ceil(MR) * l, [[0f32; NR]; MR]);
    lane_fill(a, panel, l, k, 0, last, row0, rows, carry);
    last
}

/// Where the tiles of panel `p` resume their lanes, and from which row:
/// the band's `carried` partials, which have walked all of k, or those
/// [`lane_fill_head`] leaves in `own`.
#[allow(clippy::too_many_arguments)]
fn resume_lanes<'c>(
    a: &[f32],
    panel: &[f32],
    l: usize,
    k: usize,
    row0: usize,
    rows: usize,
    p: usize,
    carried: Option<&'c [Tile]>,
    own: &'c mut Vec<Tile>,
) -> (usize, &'c [Tile]) {
    match carried {
        Some(parts) => {
            let per_panel = rows.div_ceil(MR) * l;
            (k, &parts[p * per_panel..(p + 1) * per_panel])
        }
        None => (lane_fill_head(a, panel, l, k, row0, rows, own), own),
    }
}

/// Computes the lane partials of one `MR × NR` tile, one lane at a time,
/// entirely in registers, invoking `sink(dl, lane)` for each lane in
/// **increasing lane order** (all `MR` rows; a remainder tile's rows past
/// the real ones repeat its last row).
///
/// Lane `dl` owns the k indices `dl, dl + l, dl + 2l, …` — the same
/// assignment as the reference `p[e % l] += a[e] · b[e]` fill — and its
/// chain (`tile::chain_from` in steps of `l`) is accumulated in
/// increasing-k order, so each invocation hands the sink the exact
/// reference lane partial. The chain runs from `k0` (a multiple of `l`),
/// resuming from the tile's `l` lane partials `head` that
/// [`lane_fill_head`] or [`gemm_packed_piece`] left there, or, when
/// `head` is empty (then `k0` is 0), from a tile of 0.0 (`tile::chain`).
/// Looping lanes outermost (instead of materializing an `l × NR` buffer)
/// keeps every accumulator in registers: the k-strided walks stay inside
/// `MR` rows of `a` and one packed panel, which stay in cache up to
/// [`BLOCK_ABOVE`] rows, and past it inside the last block's rows.
#[inline(always)]
fn for_each_lane_partial(
    arows: &[&[f32]; MR],
    panel: &[f32],
    l: usize,
    k: usize,
    k0: usize,
    head: &[Tile],
    mut sink: impl FnMut(usize, &Tile),
) {
    // `head` holds `l` lanes or none, so whether it is empty is the same
    // for every lane and the match leaves a short reduction's loop as it
    // was. One `chain_from` call from a selected tile took 8–11% longer
    // on the short Permuted GEMMs at 44 and 64 lanes (a k = 27 forward,
    // most lanes empty), and with `head` sliced open-ended the 16-lane
    // FixedTree one took 25% longer.
    for dl in 0..l {
        let lane = match head.get(dl) {
            Some(&from) => tile::chain_from(from, arows, panel, k0 + dl, l, k),
            None => tile::chain(arows, panel, dl, l, k),
        };
        sink(dl, &lane);
    }
}

/// [`ReduceOrder::FixedTree`] micro-kernel: no lane buffer at all. The
/// running sum starts at 0.0 and folds each lane partial in increasing
/// lane order — bit-identical to the reference
/// `p[..l].iter().sum::<f32>()` — with all `NR` output columns advancing
/// together so the combine vectorizes across columns (`tile::fold`).
#[allow(clippy::too_many_arguments)]
fn band_fixed_tree(
    a: &[f32],
    packed: &[f32],
    l: usize,
    n: usize,
    k: usize,
    row0: usize,
    rows: usize,
    band: &mut [f32],
    carried: Option<&[Tile]>,
) {
    let panels = n.div_ceil(NR);
    // Lane partials carried between the blocks of a long lane fill,
    // reused by every panel.
    let mut own = Vec::new();
    for p in 0..panels {
        let panel = &packed[p * k * NR..(p + 1) * k * NR];
        let (k0, carry) = resume_lanes(a, panel, l, k, row0, rows, p, carried, &mut own);
        let mut i = 0;
        while i < rows {
            let rm = MR.min(rows - i);
            let arows = tile_rows(a, k, row0 + i, rm);
            let mut s = [[0f32; NR]; MR];
            let head = carry.get(i / MR * l..(i / MR + 1) * l).unwrap_or(&[]);
            for_each_lane_partial(&arows, panel, l, k, k0, head, |_dl, lane| {
                tile::fold(&mut s, lane);
            });
            store_tile(&s, rm, band, n, i, p * NR);
            i += rm;
        }
    }
}

/// [`ReduceOrder::Permuted`] micro-kernel: lane partials are computed in
/// registers (one store per lane, never load-modify-store) into a
/// per-tile-row buffer, the tile's combine specs are derived from the
/// scheduler counter ([`DotPlan::tile_specs`]), and
/// [`combine_permuted_tile`] folds all `MR × NR` outputs of the tile
/// together.
#[allow(clippy::too_many_arguments)]
fn band_permuted<const AMP: bool>(
    a: &[f32],
    packed: &[f32],
    plan: &DotPlan,
    m: usize,
    n: usize,
    k: usize,
    row0: usize,
    rows: usize,
    band: &mut [f32],
    carried: Option<&[Tile]>,
) {
    let l = plan.lanes;
    let panels = n.div_ceil(NR);
    // One combine buffer per tile row. Rows `0..l` are rewritten every
    // tile, so nothing needs zeroing between tiles.
    let mut bufs = [[[0f32; NR]; MAX_LANES]; MR];
    // As in `band_fixed_tree`.
    let mut own = Vec::new();
    for p in 0..panels {
        let panel = &packed[p * k * NR..(p + 1) * k * NR];
        let col0 = p * NR;
        let cols = NR.min(n - col0);
        let col_counters = plan.column_counters(m, n, col0);
        let (k0, carry) = resume_lanes(a, panel, l, k, row0, rows, p, carried, &mut own);
        let mut i = 0;
        while i < rows {
            let rm = MR.min(rows - i);
            let arows = tile_rows(a, k, row0 + i, rm);
            let row_counters = core::array::from_fn(|r| plan.row_counter(m, n, row0 + i + r));
            let specs = plan.tile_specs::<AMP>(&row_counters, &col_counters);
            let head = carry.get(i / MR * l..(i / MR + 1) * l).unwrap_or(&[]);
            for_each_lane_partial(&arows, panel, l, k, k0, head, |dl, lane| {
                for (buf, partial) in bufs.iter_mut().zip(lane) {
                    buf[dl] = *partial;
                }
            });
            let sums = combine_permuted_tile(&mut bufs, l, &specs);
            for (r, (sums, scales)) in sums.iter().zip(&specs.scale).enumerate().take(rm) {
                let orow = &mut band[(i + r) * n + col0..(i + r) * n + col0 + cols];
                for ((o, &v), &scale) in orow.iter_mut().zip(sums).zip(scales) {
                    *o = if AMP { v * scale } else { v };
                }
            }
            i += rm;
        }
    }
}

/// Combines one tile: `bufs[r][dl][j]` is lane `dl`'s partial for
/// output `(r, j)`, whose combine swaps lanes `j1` and `j2` in and starts
/// at lane `rot`. Swaps in place within each column, then advances all
/// `MR × NR` sums together in two masked passes over the `l` lane rows;
/// the [module docs](self) give the argument that each output's add
/// order is the reference's. Rows of a remainder tile past the real ones
/// hold stale lanes; their sums are discarded.
#[inline(always)]
fn combine_permuted_tile(
    bufs: &mut [[[f32; NR]; MAX_LANES]; MR],
    l: usize,
    specs: &TileSpecs,
) -> [[f32; NR]; MR] {
    let second = 1.min(l - 1);
    for (lanes, (j1, j2)) in bufs.iter_mut().zip(specs.j1.iter().zip(&specs.j2)) {
        for j in 0..NR {
            let (j1, j2) = (j1[j] as usize, j2[j] as usize);
            (lanes[0][j], lanes[j1][j]) = (lanes[j1][j], lanes[0][j]);
            (lanes[second][j], lanes[j2][j]) = (lanes[j2][j], lanes[second][j]);
        }
    }
    tile::masked_passes(bufs, l, &specs.rot)
}

#[cfg(test)]
// Bit-identity to the reference path is the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::linalg::{matmul_a_bt_reference, matmul_at_b_reference, matmul_reference};

    fn filled(rows: usize, cols: usize, salt: u64) -> Tensor {
        let mut seed = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(Shape::of(&[rows, cols]), data).unwrap()
    }

    fn reducers() -> Vec<Reducer> {
        let mut v = Vec::new();
        for order in [ReduceOrder::FixedTree, ReduceOrder::Permuted] {
            // lanes = 2: the second swap targets slot 1, which the first
            // swap may already have moved.
            for lanes in [1, 2, 3, 40, MAX_LANES] {
                v.push(Reducer::new(order, lanes, 77));
                v.push(Reducer::new(order, lanes, 77).with_amplification(1e4));
            }
        }
        v
    }

    fn assert_bits_eq(fast: &Tensor, reference: &Tensor, what: &str) {
        assert_eq!(fast.shape(), reference.shape(), "{what}: shape");
        for (idx, (x, y)) in fast.as_slice().iter().zip(reference.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {idx}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_bit_identical_to_reference_all_orders() {
        // (13, 70, 37): a remainder row tile and a last panel with padded
        // columns, behind two full panels.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (7, 129, 9),
            (16, 40, 24),
            (13, 70, 37),
        ] {
            let a = filled(m, k, 1);
            let b = filled(k, n, 2);
            for red in reducers() {
                let mut fast_red = red.clone();
                let mut ref_red = red.clone();
                let mut ws = Workspace::new();
                let fast = matmul_ws(&a, &b, &mut fast_red, 1, &mut ws).unwrap();
                let reference = matmul_reference(&a, &b, &mut ref_red).unwrap();
                assert_bits_eq(&fast, &reference, "matmul");
                // Reducer state must also be in sync (same RNG position,
                // same invocation count) for the *next* op to agree.
                assert_eq!(fast_red.invocations(), ref_red.invocations());
                let probe = filled(1, k.max(1), 3);
                assert_eq!(
                    fast_red.dot(probe.as_slice(), probe.as_slice()).to_bits(),
                    ref_red.dot(probe.as_slice(), probe.as_slice()).to_bits(),
                    "reducer RNG state diverged"
                );
            }
        }
    }

    #[test]
    fn permuted_non_finite_bit_identical_to_reference() {
        // Quiet NaNs with distinct payloads, both signs: the payload (and
        // sign) an output ends with tells which NaN lane its combine added
        // first, so an add the combine should have skipped shows up here.
        let nan = |bits: u32| f32::from_bits(bits);
        let (m, k, n) = (6, 80, 37);
        let mut a = filled(m, k, 14);
        let mut b = filled(k, n, 15);
        let av = a.as_mut_slice();
        // Row 0: four payloads spread over different lanes at every l.
        for (kk, bits) in [
            (3, 0x7fc0_0001),
            (10, 0x7fc0_0002),
            (17, 0xffc0_0003),
            (41, 0x7fc0_0004),
        ] {
            av[kk] = nan(bits);
        }
        // Row 1: +Inf and -Inf meet in the combine (or in one lane).
        av[k + 5] = f32::INFINITY;
        av[k + 6] = f32::NEG_INFINITY;
        // Row 2: one infinity only.
        av[2 * k + 30] = f32::INFINITY;
        // Row 3: all ±0.0, so its finite columns sum zeros of both signs
        // and sign-of-zero rounding shows through.
        for (kk, x) in av[3 * k..4 * k].iter_mut().enumerate() {
            *x = if kk % 3 == 0 { 0.0 } else { -0.0 };
        }
        // Column 5 of B carries payloads into every row; column 20 an
        // infinity.
        let bv = b.as_mut_slice();
        bv[7 * n + 5] = nan(0x7fc0_0005);
        bv[50 * n + 5] = nan(0xffc0_0006);
        bv[12 * n + 20] = f32::NEG_INFINITY;
        for lanes in [2, 27, 40] {
            for seed in [1, 2, 3, 77] {
                for amp in [0.0, 1e4] {
                    let red =
                        Reducer::new(ReduceOrder::Permuted, lanes, seed).with_amplification(amp);
                    let mut ws = Workspace::new();
                    let fast = matmul_ws(&a, &b, &mut red.clone(), 1, &mut ws).unwrap();
                    let reference = matmul_reference(&a, &b, &mut red.clone()).unwrap();
                    let what = format!("lanes {lanes} seed {seed} amp {amp}");
                    assert_bits_eq(&fast, &reference, &what);
                }
            }
        }
    }

    #[test]
    fn permuted_non_finite_lanes_at_least_k() {
        // The shapes whose lanes hold at most one product each: the stem
        // convs (patch_len 27) and the 1×1 stride-2 shortcuts (8 and 16),
        // at lanes = k and at the most lanes. NaN payloads of both signs
        // sit in A and in B at different k, so they land in different
        // lanes and meet in the combine, where the payload that survives
        // shows which lane was added first.
        let nan = |bits: u32| f32::from_bits(bits);
        let (m, n) = (6, 37);
        for k in [8, 16, 27] {
            let mut a = filled(m, k, 20);
            let mut b = filled(k, n, 21);
            let av = a.as_mut_slice();
            // Row 0: three payloads.
            av[1] = nan(0x7fc0_0001);
            av[k / 2] = nan(0xffc0_0002);
            av[k - 1] = nan(0x7fc0_0003);
            // Row 1: +Inf and -Inf meet in the combine.
            av[k + 2] = f32::INFINITY;
            av[2 * k - 2] = f32::NEG_INFINITY;
            // Row 2: all ±0.0.
            for (kk, x) in av[2 * k..3 * k].iter_mut().enumerate() {
                *x = if kk % 3 == 0 { 0.0 } else { -0.0 };
            }
            // Column 5 of B carries payloads into every row, at k where
            // row 0 holds none; column 20 an infinity.
            let bv = b.as_mut_slice();
            bv[5] = nan(0x7fc0_0005);
            bv[(k / 2 + 1) * n + 5] = nan(0xffc0_0006);
            bv[3 * n + 20] = f32::NEG_INFINITY;
            for lanes in [k, MAX_LANES] {
                for seed in [1, 2, 3, 77] {
                    for amp in [0.0, 1e4] {
                        let red = Reducer::new(ReduceOrder::Permuted, lanes, seed)
                            .with_amplification(amp);
                        let mut ws = Workspace::new();
                        let fast = matmul_ws(&a, &b, &mut red.clone(), 1, &mut ws).unwrap();
                        let reference = matmul_reference(&a, &b, &mut red.clone()).unwrap();
                        let what = format!("k {k} lanes {lanes} seed {seed} amp {amp}");
                        assert_bits_eq(&fast, &reference, &what);
                    }
                }
            }
        }
    }

    /// Whether the build runs the 512-bit tile steps, whose FixedTree
    /// fold pins the NaN payload that survives.
    const PINNED_FOLD: bool = cfg!(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512dq"
    ));

    #[test]
    fn blocked_lane_fill_non_finite_bit_identical_to_reference() {
        // k spans at least eight blocks of the lane fill (8·l rows each)
        // and is a multiple of no lane count, so every lane carries its
        // partial across each block boundary and the lanes end the short
        // last block at different steps. NaN payloads of both signs sit
        // in A and B at k in different blocks and lanes, so they meet in
        // a lane's chain across blocks and in the combine.
        let nan = |bits: u32| f32::from_bits(bits);
        let (m, k, n) = (6, 4459, 37);
        assert!(k > BLOCK_ABOVE && k / (BLOCK_STEPS * MAX_LANES) >= 8);
        let mut a = filled(m, k, 22);
        let mut b = filled(k, n, 23);
        let av = a.as_mut_slice();
        // Row 0: four payloads, two in one lane at l = 2 and 16.
        for (kk, bits) in [
            (3, 0x7fc0_0001),
            (259, 0x7fc0_0002),
            (2051, 0xffc0_0003),
            (4458, 0x7fc0_0004),
        ] {
            av[kk] = nan(bits);
        }
        // Row 1: +Inf and -Inf in different blocks.
        av[k + 100] = f32::INFINITY;
        av[k + 3000] = f32::NEG_INFINITY;
        // Row 2: all ±0.0.
        for (kk, x) in av[2 * k..3 * k].iter_mut().enumerate() {
            *x = if kk % 3 == 0 { 0.0 } else { -0.0 };
        }
        // Column 5 of B carries payloads into every row; column 20 an
        // infinity.
        let bv = b.as_mut_slice();
        bv[513 * n + 5] = nan(0x7fc0_0005);
        bv[3333 * n + 5] = nan(0xffc0_0006);
        bv[1000 * n + 20] = f32::NEG_INFINITY;
        for order in [ReduceOrder::FixedTree, ReduceOrder::Permuted] {
            for lanes in [2, 16, 27, MAX_LANES] {
                assert!(k % lanes != 0);
                for amp in [0.0, 1e4] {
                    let red = Reducer::new(order, lanes, 5).with_amplification(amp);
                    let reference = matmul_reference(&a, &b, &mut red.clone()).unwrap();
                    for threads in [1, 2] {
                        let mut ws = Workspace::new();
                        let fast = matmul_ws(&a, &b, &mut red.clone(), threads, &mut ws).unwrap();
                        let what = format!("{order:?} lanes {lanes} amp {amp} t {threads}");
                        // The portable FixedTree fold leaves its add's
                        // operand order, and so NaN payloads, to LLVM; the
                        // 512-bit one pins the sum first, as the reference
                        // adds.
                        if order == ReduceOrder::Permuted || PINNED_FOLD {
                            assert_bits_eq(&fast, &reference, &what);
                        } else {
                            assert_same_values(fast.as_slice(), reference.as_slice(), &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pieces_bit_identical_to_reference() {
        // k arrives in pieces of uneven lengths, a multiple of no lane
        // count here: a single row, pieces shorter and longer than a
        // block, and a last piece of several blocks at every lane count,
        // so each lane resumes mid-walk at every boundary and the long
        // pieces walk in blocks that start off lane 0's phase.
        let (m, k, n) = (6, 4459, 37);
        let pieces = [1, 700, 1153, 13, 2592];
        assert_eq!(pieces.iter().sum::<usize>(), k);
        let a = filled(m, k, 24);
        let b = filled(k, n, 25);
        for order in [ReduceOrder::FixedTree, ReduceOrder::Permuted] {
            for lanes in [1, 2, 16, 27, 44, MAX_LANES] {
                for amp in [0.0, 1e4] {
                    let red = Reducer::new(order, lanes, 6).with_amplification(amp);
                    let mut ref_red = red.clone();
                    let reference = matmul_reference(&a, &b, &mut ref_red).unwrap();
                    for threads in [1, 2] {
                        let mut red = red.clone();
                        let plan = red.plan_dots(m * n, k);
                        let mut carry = vec![f32::NAN; lane_carry_len(m, n, plan.lanes)];
                        let mut out = vec![f32::NAN; m * n];
                        let mut first = 0;
                        for (i, &len) in pieces.iter().enumerate() {
                            let av = a.as_slice();
                            let cols: Vec<f32> = (0..m)
                                .flat_map(|r| av[r * k + first..r * k + first + len].to_vec())
                                .collect();
                            let rows = &b.as_slice()[first * n..(first + len) * n];
                            let mut packed = vec![0f32; n.div_ceil(NR) * len * NR];
                            pack_b_panels(rows, len, n, &mut packed);
                            let last = (i + 1 == pieces.len()).then_some(&mut out[..]);
                            gemm_packed_piece(
                                &cols, &packed, m, n, len, first, &plan, threads, &mut carry, last,
                            );
                            first += len;
                        }
                        let what = format!("{order:?} lanes {lanes} amp {amp} t {threads}");
                        assert_bits_eq(
                            &Tensor::from_vec(Shape::of(&[m, n]), out).unwrap(),
                            &reference,
                            &what,
                        );
                        assert_eq!(red.snapshot(), ref_red.snapshot(), "{what}");
                    }
                }
            }
        }
    }

    /// Bit equality, except that a NaN matches any NaN: which payload
    /// survives an add of two NaNs is the compiler's operand order.
    fn assert_same_values(fast: &[f32], reference: &[f32], what: &str) {
        assert_eq!(fast.len(), reference.len(), "{what}: len");
        for (idx, (x, y)) in fast.iter().zip(reference).enumerate() {
            if y.is_nan() {
                assert!(x.is_nan(), "{what}: element {idx}: {x} vs NaN");
            } else {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: element {idx}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn fixed_tree_with_lanes_at_least_k_matches_reference() {
        let nan = |bits: u32| f32::from_bits(bits);
        let (m, n) = (6, 21);
        for k in [1, 5, 16, 64] {
            let mut a = filled(m, k, 16);
            let b = filled(k, n, 17);
            let av = a.as_mut_slice();
            // Row 0: every product is a zero of either sign, so both chains
            // sum signed zeros. Row 1: ±Inf, so columns meet Inf - Inf.
            // Row 2: NaN payloads of both signs. Row 3: one signed-zero
            // product among finite ones.
            for (kk, x) in av[..k].iter_mut().enumerate() {
                *x = if kk % 2 == 0 { -0.0 } else { 0.0 };
            }
            av[k] = f32::INFINITY;
            av[k + k / 2] = if k > 1 {
                f32::NEG_INFINITY
            } else {
                f32::INFINITY
            };
            av[2 * k] = nan(0x7fc0_0011);
            av[2 * k + k - 1] = nan(0xffc0_0012);
            av[3 * k + k / 3] = -0.0;
            for lanes in [k, k + 1, MAX_LANES] {
                let red = Reducer::new(ReduceOrder::FixedTree, lanes, 3);
                let mut ws = Workspace::new();
                let reference = matmul_reference(&a, &b, &mut red.clone()).unwrap();
                for threads in [1, 2] {
                    let fast = matmul_ws(&a, &b, &mut red.clone(), threads, &mut ws).unwrap();
                    let what = format!("k {k} lanes {lanes} t {threads}");
                    assert_same_values(fast.as_slice(), reference.as_slice(), &what);
                }
                // A fixed-lane plan keeps lanes past k (they stay empty):
                // the sequential kernel must match the lane kernel there too.
                let mut packed = vec![0f32; n.div_ceil(NR) * k * NR];
                pack_b_panels(b.as_slice(), k, n, &mut packed);
                let mut lane_kernel = vec![0f32; m * n];
                band_fixed_tree(
                    a.as_slice(),
                    &packed,
                    lanes,
                    n,
                    k,
                    0,
                    m,
                    &mut lane_kernel,
                    None,
                );
                let mut shortcut = vec![0f32; m * n];
                let plan = DotPlan::fixed_lanes(lanes);
                gemm_packed_planned(a.as_slice(), &packed, m, n, k, &plan, 1, &mut shortcut);
                assert_same_values(&shortcut, &lane_kernel, &format!("k {k} lanes {lanes}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "plan drawn for a different GEMM")]
    fn plan_drawn_for_another_gemm_is_rejected() {
        // A FixedTree plan draws nothing from the scheduler, but it still
        // advanced the reducer's invocation count by its output count.
        let (m, k, n) = (3, 5, 4);
        let a = filled(m, k, 18);
        let b = filled(k, n, 19);
        let mut packed = vec![0f32; n.div_ceil(NR) * k * NR];
        pack_b_panels(b.as_slice(), k, n, &mut packed);
        let plan = Reducer::new(ReduceOrder::FixedTree, 8, 1).plan_dots(m * n + 1, k);
        let mut out = vec![0f32; m * n];
        gemm_packed_planned(a.as_slice(), &packed, m, n, k, &plan, 1, &mut out);
    }

    #[test]
    fn at_b_and_a_bt_bit_identical_to_reference() {
        let (m, k, n) = (6, 33, 10);
        for red in reducers() {
            let mut ws = Workspace::new();
            let a = filled(k, m, 4);
            let b = filled(k, n, 5);
            let fast = matmul_at_b_ws(&a, &b, &mut red.clone(), 2, &mut ws).unwrap();
            let reference = matmul_at_b_reference(&a, &b, &mut red.clone()).unwrap();
            assert_bits_eq(&fast, &reference, "matmul_at_b");

            let a = filled(m, k, 6);
            let b = filled(n, k, 7);
            let fast = matmul_a_bt_ws(&a, &b, &mut red.clone(), 2, &mut ws).unwrap();
            let reference = matmul_a_bt_reference(&a, &b, &mut red.clone()).unwrap();
            assert_bits_eq(&fast, &reference, "matmul_a_bt");
        }
    }

    #[test]
    fn thread_count_is_bitwise_irrelevant() {
        let (m, k, n) = (13, 57, 11);
        let a = filled(m, k, 8);
        let b = filled(k, n, 9);
        for red in reducers() {
            let mut ws = Workspace::new();
            let one = matmul_ws(&a, &b, &mut red.clone(), 1, &mut ws).unwrap();
            for threads in [2, 3, 8, 64] {
                let many = matmul_ws(&a, &b, &mut red.clone(), threads, &mut ws).unwrap();
                assert_bits_eq(&many, &one, "threads");
            }
        }
    }

    #[test]
    fn degenerate_shapes() {
        let mut ws = Workspace::new();
        for red in reducers() {
            // k = 0: every output is an empty reduction.
            let a = Tensor::zeros(Shape::of(&[3, 0]));
            let b = Tensor::zeros(Shape::of(&[0, 4]));
            let fast = matmul_ws(&a, &b, &mut red.clone(), 2, &mut ws).unwrap();
            let reference = matmul_reference(&a, &b, &mut red.clone()).unwrap();
            assert_bits_eq(&fast, &reference, "k=0");
            // n = 0: no outputs at all.
            let a = filled(3, 4, 10);
            let b = Tensor::zeros(Shape::of(&[4, 0]));
            let mut fast_red = red.clone();
            let mut ref_red = red.clone();
            let fast = matmul_ws(&a, &b, &mut fast_red, 2, &mut ws).unwrap();
            let reference = matmul_reference(&a, &b, &mut ref_red).unwrap();
            assert_bits_eq(&fast, &reference, "n=0");
            assert_eq!(fast_red.invocations(), ref_red.invocations());
        }
    }

    #[test]
    fn shape_errors_match_reference_path() {
        let mut ws = Workspace::new();
        let mut red = Reducer::sequential();
        let a = filled(2, 3, 11);
        let b = filled(2, 2, 12);
        assert!(matmul_ws(&a, &b, &mut red, 1, &mut ws).is_err());
        let r4 = Tensor::zeros(Shape::of(&[2, 2, 1, 1]));
        assert!(matmul_ws(&r4, &b, &mut red, 1, &mut ws).is_err());
        let b3 = filled(3, 2, 13);
        assert!(matmul_at_b_ws(&a, &b3, &mut red, 1, &mut ws).is_err());
        assert!(matmul_a_bt_ws(&a, &b, &mut red, 1, &mut ws).is_err());
    }
}
