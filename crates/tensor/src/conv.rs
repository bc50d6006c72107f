//! 2-D convolution (im2col formulation) with explicit accumulation order.
//!
//! Convolutions are where cuDNN's determinism trade-offs live, so they get
//! first-class treatment here: the forward inner products, and crucially the
//! *weight-gradient reduction across the whole batch* (the reduction the
//! paper singles out as an overlooked source of implementation noise), all
//! flow through the [`Reducer`].
//!
//! Both passes run on the blocked GEMM engine ([`crate::gemm`]) and are
//! bit-identical to the original per-element loops: the engine only
//! reorders *which outputs* are computed when, never the k-dimension
//! combine order inside one output, and every output's scheduler draws
//! are fixed by its position in the reference order
//! (`Reducer::plan_dots`). The `_ws` variants reuse caller-provided
//! [`Workspace`] scratch (packed panels, transposes, patch-gradient
//! chunks) across calls; the plain variants allocate privately.
//!
//! All three passes, the forward, the weight gradient and the input
//! gradient, run in cache-sized chunks of samples, so no conv buffer
//! grows with the batch.
//!
//! im2col never materializes in row form: the forward pass and the
//! weight gradient each write it straight into the packed panels their
//! GEMM reads, and both read each sample from the same zero-padded,
//! phase-split copy of it, so neither tests a tap against the border.
//! Each call zeroes those planes once; a chunk writes only their
//! interior. The forward pass runs one GEMM per chunk over the chunk's
//! `chunk·pixels` output columns, for every reduction order. The reference draws a Permuted spec per output
//! in sample-major `(s, o, p)` order, so each chunk plans its outputs
//! right after the previous chunk's, and reads its columns as sample
//! blocks (`DotPlan::sample_blocks`) to find each output's place in
//! that order. The forward's buffers do not grow with the batch. Its
//! lowering copies the chunk's samples into one buffer of zero-padded
//! planes, split by column phase at stride > 1, so that every panel row
//! of a tap is one gather of the panel's sixteen pixels at fixed offsets
//! in that buffer (see `im2col_pixel_panels`). The weight gradient's
//! panels hold patch positions as columns, so each output pixel's `NR`
//! values are one gather at one panel's fixed offsets from the pixel's
//! corner in those planes, stored as one row (see `im2col_patch_panels`).
//! Both gathers have a 512-bit form (`tile::Gather`).
//!
//! The weight gradient's chunks split its GEMM's k rows, the batch's
//! pixels, which every output reduces over. Each chunk advances every
//! lane partial of that GEMM, and of the bias sums, over the chunk's
//! rows, resuming where the previous chunk left it
//! (`gemm::gemm_packed_piece`, `reduce::fill_lanes`), and the partials
//! are combined once, after the last chunk: each lane takes the same
//! elements in the same order as over the whole batch at once. A batch
//! short enough to walk as one block of the lane fill, or whose panels
//! are no larger than the partials chunking carries, is one chunk
//! (`dw_chunk`).
//!
//! Backward splits into [`conv2d_param_grads_ws`] (dW and db, the
//! reducer's draws) and [`conv2d_input_grad_ws`] (dX, which draws
//! nothing), so a caller that discards dX, as a network's first layer
//! does, skips it without changing any later bit. dX runs in cache-sized
//! chunks of samples, and its `col2im` is a gather over vectors of input
//! elements that share a stride phase: each element starts from 0.0 and
//! takes its contributions in `(ky, kx)`-descending, that is
//! output-pixel, order, as a pixel-by-pixel scatter adds them, with a
//! bitwise mask for the taps that fall outside the output, one masked
//! add per tap (see `GatherPlan`, `col2im_gather` and `tile::add_where`).

use crate::error::ShapeError;
use crate::gemm::{gemm_packed_piece, gemm_packed_planned, lane_carry_len, BLOCK_ABOVE};
use crate::pack::{transpose_into, NR};
use crate::reduce::{fill_lanes, DotPlan, Reducer};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::tile::{self, lanes_below, Offsets, RowGather};
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// Geometry of a 2-D convolution.
///
/// # Example
///
/// ```
/// use nstensor::ConvGeometry;
/// let g = ConvGeometry::new(3, 16, 3, 1, 1, 8, 8);
/// assert_eq!(g.out_h(), 8);
/// assert_eq!(g.patch_len(), 27);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Square filter size.
    pub k: usize,
    /// Stride (both axes).
    pub stride: usize,
    /// Zero padding (both axes).
    pub pad: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
}

impl ConvGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (except `pad`) or the filter does not
    /// fit the padded input.
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        in_h: usize,
        in_w: usize,
    ) -> Self {
        assert!(in_c > 0 && out_c > 0 && k > 0 && stride > 0 && in_h > 0 && in_w > 0);
        assert!(
            in_h + 2 * pad >= k && in_w + 2 * pad >= k,
            "filter {k} larger than padded input {}x{}",
            in_h + 2 * pad,
            in_w + 2 * pad
        );
        Self {
            in_c,
            out_c,
            k,
            stride,
            pad,
            in_h,
            in_w,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Receptive-field (patch) length: `in_c * k * k`.
    pub fn patch_len(&self) -> usize {
        self.in_c * self.k * self.k
    }

    /// Number of output pixels per channel.
    pub fn out_pixels(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Multiply-accumulate count for one forward pass over a batch of `n`.
    pub fn flops(&self, n: usize) -> u64 {
        2 * (n * self.out_c * self.out_pixels() * self.patch_len()) as u64
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[N, C, H, W]`.
    pub dx: Tensor,
    /// Gradient w.r.t. the weights, `[out_c, patch_len]`.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias, `[out_c]`.
    pub db: Tensor,
}

/// Row width and length of one phase plane (see [`pad_sample`]).
fn phase_plane_dims(g: &ConvGeometry) -> (usize, usize) {
    let qw = (g.in_w + 2 * g.pad).div_ceil(g.stride);
    (qw, (g.in_h + 2 * g.pad) * qw)
}

/// Length of one sample's padded, phase-split input planes.
fn padded_planes_len(g: &ConvGeometry) -> usize {
    g.in_c * g.stride * phase_plane_dims(g).1
}

/// The copies that fill one channel's planes from its input: `(input
/// offset, plane offset, count)` for every input row and column residue
/// `r` whose values some tap reads (all of them unless `k < stride`).
/// Input columns `r, r + stride, …` share one phase: padded column `px`
/// lands in phase plane `px % stride`, column `px / stride`.
fn pad_copies(g: &ConvGeometry) -> Vec<(usize, usize, usize)> {
    let (qw, plane) = phase_plane_dims(g);
    let st = g.stride;
    let mut copies = Vec::new();
    for py in (g.pad..g.pad + g.in_h).filter(|py| py % st < g.k) {
        for px in (g.pad..g.pad + st.min(g.in_w)).filter(|px| px % st < g.k) {
            let from = (py - g.pad) * g.in_w + px - g.pad;
            let to = px % st * plane + py * qw + px / st;
            copies.push((from, to, (g.in_w + g.pad - px).div_ceil(st)));
        }
    }
    copies
}

/// The plane offset of each patch position's tap, in patch order: patch
/// position `(c, ky, kx)` of the output pixel whose top-left tap is at
/// plane offset `o` reads the planes at `o` plus this.
fn tap_offsets(g: &ConvGeometry) -> Vec<u32> {
    let (qw, plane) = phase_plane_dims(g);
    (0..g.patch_len())
        .map(|kk| {
            let (c, ky, kx) = (kk / (g.k * g.k), kk / g.k % g.k, kk % g.k);
            let at = (c * g.stride + kx % g.stride) * plane + ky * qw + kx / g.stride;
            u32::try_from(at).expect("tap offset fits 32 bits")
        })
        .collect()
}

/// Copies one sample into its zero-padded, phase-split input planes:
/// channel `c` fills planes `c * stride ..`, one per column phase, through
/// [`pad_copies`]. Output column `ox` under column tap `kx` reads padded
/// column `ox * stride + kx`, so a run of consecutive output columns
/// reads consecutive columns of one phase plane, at any stride. Only the
/// interior is written: `planes` must have been zeroed once, and the
/// rest stays zero from sample to sample.
fn pad_sample(xs: &[f32], g: &ConvGeometry, copies: &[(usize, usize, usize)], planes: &mut [f32]) {
    let group = g.stride * phase_plane_dims(g).1;
    for (chan, dst) in xs
        .chunks_exact(g.in_h * g.in_w)
        .zip(planes.chunks_mut(group))
    {
        for &(from, to, count) in copies {
            let dst = &mut dst[to..to + count];
            if g.stride == 1 {
                copy_row(dst, &chan[from..from + count]);
            } else {
                for (d, &v) in dst.iter_mut().zip(chan[from..].iter().step_by(g.stride)) {
                    *d = v;
                }
            }
        }
    }
}

/// Copies one input row into its planes in fixed four-float pieces, the
/// last of which overlaps the one before it when the row's length is not
/// a multiple of four; a row of fewer floats is copied float by float. A
/// `copy_from_slice` of the row's length compiles to a call to `memcpy`,
/// which cost about a quarter of a batch-160 `c16→16 6×6` lowering.
#[inline(always)]
fn copy_row(dst: &mut [f32], src: &[f32]) {
    let n = dst.len();
    let src = &src[..n];
    if n < 4 {
        for j in 0..3 {
            if j < n {
                dst[j] = src[j];
            }
        }
        return;
    }
    let (dst4, _) = dst.as_chunks_mut::<4>();
    let (src4, _) = src.as_chunks::<4>();
    for (d, s) in dst4.iter_mut().zip(src4) {
        *d = *s;
    }
    let tail: &mut [f32; 4] = (&mut dst[n - 4..]).try_into().expect("4 floats");
    *tail = src[n - 4..].try_into().expect("4 floats");
}

/// Lowers a batch of samples *directly into the GEMM engine's packed
/// panel layout* (see [`crate::pack::pack_b_panels`]) with the output
/// pixels as columns: element `[p * pl * NR + kk * NR + j]` is patch
/// position `kk` of global output pixel `p * NR + j`, where global pixels
/// run `(sample, oy, ox)` row-major across the batch. Panel columns past
/// the last pixel are zeroed. The forward pass's B operand.
///
/// The batch's samples are first copied into one buffer of zero-padded,
/// phase-split planes ([`pad_sample`]), one sample's after another, so
/// that each pixel's top-left tap has one offset in that buffer and each
/// patch position a fixed offset from there ([`tap_offsets`]), with no
/// border tests. A panel's sixteen pixel offsets are walked in pixel
/// order, with no division, and each of its rows is then one gather at
/// those offsets plus the row's tap offset (`G::rows`, `tile::Gather`
/// outside tests), which writes +0.0 in the pad columns. `planes` is
/// `batch` times [`padded_planes_len`] long and must arrive zeroed, or
/// as an earlier lowering of the same geometry left it: only the planes'
/// interior is written, so a caller zeroes them once per call and its
/// chunks reuse them.
///
/// Packing only copies values, so this cannot perturb any accumulation
/// order.
fn im2col_pixel_panels<G: RowGather>(
    x: &[f32],
    g: &ConvGeometry,
    batch: usize,
    planes: &mut [f32],
    packed: &mut [f32],
) {
    let (oh, ow, pl) = (g.out_h(), g.out_w(), g.patch_len());
    let np = batch * oh * ow;
    let sample_planes = padded_planes_len(g);
    let row_step = g.stride * phase_plane_dims(g).0;
    debug_assert_eq!(x.len(), batch * g.in_c * g.in_h * g.in_w);
    assert_eq!(
        packed.len(),
        np.div_ceil(NR) * pl * NR,
        "packed buffer size"
    );
    assert_eq!(planes.len(), batch * sample_planes, "planes buffer size");
    assert!(
        planes.len() <= u32::MAX as usize,
        "plane offsets fit 32 bits"
    );
    let copies = pad_copies(g);
    for (xs, dst) in x
        .chunks_exact(g.in_c * g.in_h * g.in_w)
        .zip(planes.chunks_exact_mut(sample_planes))
    {
        pad_sample(xs, g, &copies, dst);
    }
    let taps = tap_offsets(g);
    let taps = Offsets::new(&taps);
    // The walk: the next pixel's column, row, row start and offset.
    let (mut ox, mut oy, mut row, mut at) = (0, 0, 0, 0);
    for (p, panel) in packed.chunks_exact_mut(pl * NR).enumerate() {
        let lanes = core::array::from_fn(|_| {
            let lane = at as u32;
            (ox, at) = (ox + 1, at + 1);
            if ox == ow {
                (ox, oy, row) = (0, oy + 1, row + row_step);
                if oy == oh {
                    (oy, row) = (0, row - oh * row_step + sample_planes);
                }
                at = row;
            }
            lane
        });
        let (rows, _) = panel.as_chunks_mut::<NR>();
        G::new(&lanes, lanes_below(np - p * NR)).rows(planes, &taps, rows);
    }
}

/// What [`im2col_patch_panels`] reads of a geometry, built once per
/// weight-gradient call for all its chunks: each panel's gather (its
/// columns' tap offsets and its real columns), each output pixel's
/// top-left tap in pixel order, and the copies that pad a sample
/// ([`pad_copies`]).
struct PatchGathers<G> {
    panels: Vec<G>,
    corners: Vec<u32>,
    copies: Vec<(usize, usize, usize)>,
}

impl<G: RowGather> PatchGathers<G> {
    fn new(g: &ConvGeometry) -> Self {
        let pl = g.patch_len();
        let row_step = g.stride * phase_plane_dims(g).0;
        let taps = tap_offsets(g);
        let panels = (0..pl.div_ceil(NR))
            .map(|p| {
                let lanes = core::array::from_fn(|j| taps[(p * NR + j).min(pl - 1)]);
                G::new(&lanes, lanes_below(pl - p * NR))
            })
            .collect();
        let corners = (0..g.out_h())
            .flat_map(|oy| (0..g.out_w()).map(move |ox| (oy * row_step + ox) as u32))
            .collect();
        Self {
            panels,
            corners,
            copies: pad_copies(g),
        }
    }
}

/// Lowers a batch of samples into packed panels with the *patch
/// positions* as columns and the batch's output pixels as depth: element
/// `[p * np * NR + q * NR + j]` is patch position `p * NR + j` of global
/// output pixel `q` (`np` pixels in `(sample, oy, ox)` order). Patch
/// columns past `patch_len` are zeroed. The weight gradient's B operand.
///
/// Each sample is first copied into the zero-padded, phase-split planes
/// the forward lowering reads ([`pad_sample`]). Output pixel `(oy, ox)`'s
/// top-left tap sits at plane offset `oy·stride·qw + ox`, and its patch
/// position `kk` at a fixed offset from there ([`tap_offsets`]), so each
/// pixel's `NR` panel values are one gather at one panel's fixed offsets
/// plus the pixel's (`G::rows`, `tile::Gather` outside tests), with no
/// border test: a tap on the padding reads a zero of the planes. The
/// gathers, the pixels' offsets and the pad copies come from `gathers`,
/// built for `g`. `planes` is [`padded_planes_len`] long and must arrive
/// zeroed, or as an earlier lowering of the same geometry left it (see
/// [`im2col_pixel_panels`]).
///
/// Packing only copies values, so this cannot perturb any accumulation
/// order.
fn im2col_patch_panels<G: RowGather>(
    x: &[f32],
    g: &ConvGeometry,
    gathers: &PatchGathers<G>,
    batch: usize,
    planes: &mut [f32],
    packed: &mut [f32],
) {
    let pl = g.patch_len();
    let pixels = g.out_pixels();
    let np = batch * pixels;
    debug_assert_eq!(x.len(), batch * g.in_c * g.in_h * g.in_w);
    assert_eq!(
        packed.len(),
        pl.div_ceil(NR) * np * NR,
        "packed buffer size"
    );
    assert_eq!(planes.len(), padded_planes_len(g), "planes buffer size");
    assert!(
        planes.len() <= u32::MAX as usize,
        "plane offsets fit 32 bits"
    );
    let corners = Offsets::new(&gathers.corners);
    for (s, xs) in x.chunks_exact(g.in_c * g.in_h * g.in_w).enumerate() {
        pad_sample(xs, g, &gathers.copies, planes);
        for (panel, slab) in gathers.panels.iter().zip(packed.chunks_exact_mut(np * NR)) {
            let (rows, _) = slab[s * pixels * NR..(s + 1) * pixels * NR].as_chunks_mut::<NR>();
            panel.rows(planes, &corners, rows);
        }
    }
}

/// Packs `dy` (`[batch, out_c, pixels]`) as the `[out_c, batch·pixels]`
/// B operand of the input-gradient GEMM: output channels are the depth,
/// the batch's pixels the columns (see [`crate::pack::pack_b_panels`]).
/// Each sample's `[out_c, pixels]` block is already that matrix's column
/// slice, so a panel copies runs of pixels from it, row by row.
fn pack_dy_panels(dy: &[f32], oc: usize, pixels: usize, packed: &mut [f32]) {
    let np = dy.len() / oc;
    assert_eq!(
        packed.len(),
        np.div_ceil(NR) * oc * NR,
        "packed buffer size"
    );
    for (p, panel) in packed.chunks_exact_mut(oc * NR).enumerate() {
        let g0 = p * NR;
        let cols = NR.min(np - g0);
        let mut j0 = 0;
        while j0 < cols {
            let (s, px) = ((g0 + j0) / pixels, (g0 + j0) % pixels);
            let run = (pixels - px).min(cols - j0);
            let block = &dy[s * oc * pixels..(s + 1) * oc * pixels];
            for (o, drow) in panel.chunks_exact_mut(NR).enumerate() {
                drow[j0..j0 + run].copy_from_slice(&block[o * pixels + px..][..run]);
            }
            j0 += run;
        }
        if cols < NR {
            for drow in panel.chunks_exact_mut(NR) {
                drow[cols..].fill(0.0);
            }
        }
    }
}

/// One vector of a [`GatherPlan`]: `lanes` consecutive elements of one
/// phase sub-grid of an input plane, and the taps that reach them.
struct GatherVector {
    /// The vector's taps in [`GatherPlan::taps`], in the order it takes
    /// them.
    taps: core::ops::Range<usize>,
    /// Lane 0's element in the input plane.
    dst: usize,
    lanes: usize,
    /// Lane 0's column in the phase sub-grid, and the sub-grid's width:
    /// lanes run along a row of the phase, then on to its next row.
    col: usize,
    width: usize,
}

/// The vectors [`col2im_gather`] splits an input plane into, and their
/// taps. It depends on the geometry alone, so the input-gradient pass
/// builds it once for all its chunks.
///
/// The plane is split by row and column phase (every `stride`-th row and
/// column), so that one set of taps reaches all of a phase's elements,
/// and a phase into vectors of up to `NR` elements. A vector's lanes read
/// consecutive output pixels under every tap, so it runs on into the
/// phase's next row only when that row is as long as an output row, as
/// in a conv that keeps the input size; otherwise it stops at the row's
/// end. Phases no tap reaches (when `k < stride`) get no vector.
struct GatherPlan {
    vectors: Vec<GatherVector>,
    /// Per tap: its patch position `ky·k + kx` within the channel; where
    /// lane 0's load starts in that position's `dcol` row, relative to
    /// its sample's block and offset by `slack`; and which lanes take it,
    /// as a bit per lane.
    taps: Vec<(usize, usize, u16)>,
    /// Floats the patch gradients need before and after them, so that
    /// every load stays inside the buffer: a multiple of `NR`, so that
    /// the GEMM writes them at the alignment the buffer has.
    slack: usize,
}

impl GatherPlan {
    fn new(g: &ConvGeometry) -> Self {
        let (oh, ow) = (g.out_h(), g.out_w());
        let (k, st, pad) = (g.k, g.stride, g.pad);
        let mut vectors = Vec::new();
        let mut taps = Vec::new();
        let phases = (0..st.min(g.in_h)).flat_map(|ry| (0..st.min(g.in_w)).map(move |rx| (ry, rx)));
        for (ry, rx) in phases {
            // Element (ry + st·qy, rx + st·qx) takes the taps
            // ky = (ry + pad) % st + st·my and kx = (rx + pad) % st + st·mx,
            // at output pixel (y0 + qy − my, x0 + qx − mx).
            let (py, px) = (ry + pad, rx + pad);
            if py % st >= k || px % st >= k {
                continue;
            }
            let (y0, x0) = (py / st, px / st);
            let (height, width) = ((g.in_h - ry).div_ceil(st), (g.in_w - rx).div_ceil(st));
            let span = if width == ow { height * width } else { width };
            for first in (0..height * width).step_by(span) {
                for e0 in (first..first + span).step_by(NR) {
                    let (qy, qx) = (e0 / width, e0 % width);
                    let mut lane = (qy, qx);
                    let lanes: [(usize, usize); NR] = core::array::from_fn(|_| {
                        let at = lane;
                        lane = if lane.1 + 1 == width {
                            (lane.0 + 1, 0)
                        } else {
                            (lane.0, lane.1 + 1)
                        };
                        at
                    });
                    let start = taps.len();
                    for ky in (py % st..k).step_by(st).rev() {
                        for kx in (px % st..k).step_by(st).rev() {
                            let (my, mx) = (ky / st, kx / st);
                            let at = ((y0 + qy) * ow + x0 + qx) as isize - (my * ow + mx) as isize;
                            let mask = lanes.iter().enumerate().fold(0, |mask, (j, &(qy, qx))| {
                                let (oy, ox) =
                                    ((y0 + qy).wrapping_sub(my), (x0 + qx).wrapping_sub(mx));
                                mask | u16::from(oy < oh && ox < ow) << j
                            });
                            taps.push((ky * k + kx, at, mask));
                        }
                    }
                    vectors.push(GatherVector {
                        taps: start..taps.len(),
                        dst: (ry + st * qy) * g.in_w + rx + st * qx,
                        lanes: (first + span - e0).min(NR),
                        col: qx,
                        width,
                    });
                }
            }
        }
        // A load may start before its sample's block and end past it.
        let pixels = g.out_pixels() as isize;
        let over = taps.iter().map(|t| (-t.1).max(t.1 + NR as isize - pixels));
        let slack = (over.max().unwrap_or(0).max(0) as usize).next_multiple_of(NR);
        let taps = taps
            .into_iter()
            .map(|(kk, at, mask)| (kk, (at + slack as isize) as usize, mask))
            .collect();
        Self {
            vectors,
            taps,
            slack,
        }
    }
}

/// Writes the input gradient `dx` (`[batch, in_c, in_h, in_w]`) of the
/// patch gradients in `dcol`: `[patch_len, batch·pixels]`, one row per
/// patch position, stored after `plan.slack` floats and followed by as
/// many.
///
/// It gathers, along `plan`'s vectors. Each vector is a register
/// accumulator that starts at 0.0 and takes its taps in `(ky, kx)`-
/// descending order, one `NR`-float load of a `dcol` row per tap. For one
/// input element the tap fixes the output pixel, and `(ky, kx)`
/// descending is exactly `(oy, ox)` ascending, so every element receives
/// its contributions in output-pixel order from 0.0: the order a
/// pixel-by-pixel scatter produces. A lane whose output pixel falls
/// outside the output skips the tap through `tile::add_where`'s bitwise
/// mask, so what the load read there, NaN included, never reaches the sum.
/// Elements no tap reaches are not written: `dx` must arrive zeroed.
fn col2im_gather(dcol: &[f32], g: &ConvGeometry, plan: &GatherPlan, batch: usize, dx: &mut [f32]) {
    let (st, pixels) = (g.stride, g.out_pixels());
    let np = batch * pixels;
    debug_assert_eq!(dcol.len(), g.patch_len() * np + 2 * plan.slack);
    for (s, xs) in dx.chunks_exact_mut(g.in_c * g.in_h * g.in_w).enumerate() {
        for (c, plane) in xs.chunks_exact_mut(g.in_h * g.in_w).enumerate() {
            let block = &dcol[c * g.k * g.k * np + s * pixels..];
            for v in &plan.vectors {
                let mut acc = [0f32; NR];
                for &(kk, at, mask) in &plan.taps[v.taps.clone()] {
                    let at = kk * np + at;
                    let row: &[f32; NR] = block[at..at + NR].try_into().expect("NR floats");
                    tile::add_where(&mut acc, row, mask);
                }
                if st == 1 {
                    plane[v.dst..v.dst + v.lanes].copy_from_slice(&acc[..v.lanes]);
                } else {
                    let (mut d, mut col) = (v.dst, v.col);
                    for &a in &acc[..v.lanes] {
                        plane[d] = a;
                        (d, col) = (d + st, col + 1);
                        if col == v.width {
                            (d, col) = (d + st * (g.in_w - v.width), 0);
                        }
                    }
                }
            }
        }
    }
}

/// Float budget (128 KiB) of one forward chunk's packed im2col panels,
/// `patch_len × chunk·pixels`, and its padded planes together: a chunk
/// takes as many samples as fit, and at least one ([`fwd_chunk`]).
const FWD_CHUNK_FLOATS: usize = 1 << 15;

/// The samples of a forward chunk of a batch of `n`: as many as keep
/// their packed panels and padded planes within `FWD_CHUNK_FLOATS`, and
/// at least one. The planes count too: at a 1×1 stride-2 conv they are
/// about four times the panels.
fn fwd_chunk(g: &ConvGeometry, n: usize) -> usize {
    let per_sample = g.patch_len() * g.out_pixels() + padded_planes_len(g);
    (FWD_CHUNK_FLOATS / per_sample).clamp(1, n.max(1))
}

/// Float budget (128 KiB) of one chunk's `[patch_len, chunk·pixels]`
/// patch gradients in the input-gradient pass: a chunk takes as many
/// samples as fit, and at least one.
const DX_CHUNK_FLOATS: usize = 1 << 15;

/// Output pixels, the weight-gradient GEMM's k rows, per chunk of a batch
/// the weight gradient runs in chunks ([`dw_chunk`]): 8 samples of
/// SmallCNN's 12×12 stem, 32 of its 6×6 layer, 128 of its 3×3 one, and
/// nine lane-fill blocks at 16 lanes. The chunk's panels take 144 KiB at
/// the stem's 27 patch positions and 648 KiB at the 144 of a
/// `c16→16 3×3` conv, within a 2 MiB L2.
const DW_CHUNK_ROWS: usize = 1152;

/// The samples of a weight-gradient chunk of a batch of `n`, whose dW
/// GEMM runs at `lanes` lanes. The whole batch is one chunk, walked as
/// [`gemm_packed_planned`] walks it, when its reduction is at most one
/// block of the lane fill ([`BLOCK_ABOVE`] rows) or when its packed
/// panels take no more floats than the lane partials chunking would carry
/// between chunks ([`lane_carry_len`]: 144 KiB at `c16→16 3×3` and 16
/// lanes, but 2.25 MiB at `c32→32 3×3` and 64). Otherwise a chunk takes the
/// samples of `DW_CHUNK_ROWS` rows, and at least one.
fn dw_chunk(g: &ConvGeometry, n: usize, lanes: usize) -> usize {
    let (pl, np) = (g.patch_len(), n * g.out_pixels());
    let panels = pl.div_ceil(NR) * NR * np;
    if np <= BLOCK_ABOVE || panels <= lane_carry_len(g.out_c, pl, lanes) {
        n.max(1)
    } else {
        (DW_CHUNK_ROWS / g.out_pixels()).clamp(1, n)
    }
}

/// Re-lays one chunk of `dy` (`[samples, out_c, pixels]`) as the
/// `[out_c, samples·pixels]` A rows `rows` of the weight-gradient GEMM,
/// and adds each channel's values into its `l` bias-gradient lane
/// partials in `bias` ([`fill_lanes`]): the chunk's pixels are elements
/// `first ..` of each channel's sum over the batch.
fn relay_dy_chunk(
    dys: &[f32],
    oc: usize,
    pixels: usize,
    first: usize,
    rows: &mut [f32],
    bias: &mut [f32],
) {
    let (cnp, l) = (rows.len() / oc, bias.len() / oc);
    for (s, block) in dys.chunks_exact(oc * pixels).enumerate() {
        let channels = block.chunks_exact(pixels).zip(rows.chunks_exact_mut(cnp));
        for ((src, row), lanes) in channels.zip(bias.chunks_exact_mut(l)) {
            row[s * pixels..(s + 1) * pixels].copy_from_slice(src);
            fill_lanes(src, first + s * pixels, lanes);
        }
    }
}

/// Forward 2-D convolution.
///
/// `input` is `[N, in_c, in_h, in_w]`, `weights` is `[out_c, patch_len]`
/// (flattened `[out_c, in_c, k, k]`), `bias` is `[out_c]`. Returns
/// `[N, out_c, out_h, out_w]`.
///
/// Allocates private scratch; hot paths should use
/// [`conv2d_forward_ws`].
///
/// # Errors
///
/// Returns [`ShapeError`] if any operand disagrees with `geom`.
pub fn conv2d_forward(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    geom: &ConvGeometry,
    red: &mut Reducer,
) -> Result<Tensor, ShapeError> {
    conv2d_forward_ws(input, weights, bias, geom, red, 1, &mut Workspace::new())
}

/// Forward 2-D convolution on the blocked engine, reusing `ws` scratch
/// and running output row bands on up to `threads` threads.
///
/// Bit-identical to [`conv2d_forward`] for every reducer configuration
/// and thread count. The batch runs in chunks of samples whose packed
/// im2col panels and padded planes fit `FWD_CHUNK_FLOATS`
/// (`fwd_chunk`): one GEMM per chunk, weights
/// `[out_c, patch_len]` times the chunk's `[patch_len, chunk·pixels]`
/// patches. The chunks plan their dots one after another, and within a
/// chunk output `(o, s·pixels + p)` takes the draws of reference output
/// `s·out_c·pixels + o·pixels + p`, so the scheduler RNG is consumed
/// exactly as the reference's sample-major `(s, o, p)` loop consumes it.
///
/// # Errors
///
/// Returns [`ShapeError`] if any operand disagrees with `geom`.
pub fn conv2d_forward_ws(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    geom: &ConvGeometry,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Tensor, ShapeError> {
    check_input(input, geom)?;
    check_weights(weights, geom)?;
    if bias.shape() != Shape::of(&[geom.out_c]) {
        return Err(ShapeError::new(
            "conv2d",
            format!("bias {} != [{}]", bias.shape(), geom.out_c),
        ));
    }
    let n = input.shape().dim(0);
    let (oh, ow, oc, pl) = (geom.out_h(), geom.out_w(), geom.out_c, geom.patch_len());
    let pixels = oh * ow;
    // Filled in order by the chunks' bias scatters, each element once.
    let mut ov = Vec::with_capacity(n * oc * pixels);
    let xin = input.as_slice();
    let wv = weights.as_slice();
    let bv = bias.as_slice();
    let sample = geom.in_c * geom.in_h * geom.in_w;
    let chunk = fwd_chunk(geom, n);
    let mut packed = ws.take_scratch((chunk * pixels).div_ceil(NR) * pl * NR);
    // Zeroed once: the chunks' lowerings write only the interior.
    let mut planes = ws.take_zeroed(chunk * padded_planes_len(geom));
    let mut out_r = ws.take_scratch(oc * chunk * pixels);
    for xs in xin.chunks(chunk * sample) {
        let samples = xs.len() / sample;
        let cnp = samples * pixels;
        let packed = &mut packed[..cnp.div_ceil(NR) * pl * NR];
        let planes = &mut planes[..samples * padded_planes_len(geom)];
        im2col_pixel_panels::<tile::Gather>(xs, geom, samples, planes, packed);
        // The chunk's outputs come after the previous chunk's in the
        // reference draw order, and within the chunk one sample's
        // `[out_c, pixels]` block follows another.
        let plan = red.plan_dots(oc * cnp, pl).sample_blocks(pixels);
        let out_r = &mut out_r[..oc * cnp];
        gemm_packed_planned(wv, packed, oc, cnp, pl, &plan, threads, out_r);
        // Scatter [oc, chunk·pixels] back to [chunk, oc, pixels], adding
        // the bias after the dot exactly as the reference computes.
        for s in 0..samples {
            for (o, &b) in bv.iter().enumerate() {
                let src = &out_r[o * cnp + s * pixels..o * cnp + (s + 1) * pixels];
                ov.extend(src.iter().map(|&v| v + b));
            }
        }
    }
    ws.recycle(out_r);
    ws.recycle(planes);
    ws.recycle(packed);
    Tensor::from_vec(Shape::of(&[n, oc, oh, ow]), ov)
}

/// Backward 2-D convolution: gradients w.r.t. input, weights and bias.
///
/// The weight gradient is computed as a *single* matmul whose inner
/// dimension spans every (sample, pixel) pair in the batch — the exact
/// cross-data-point reduction whose accumulation order the paper identifies
/// as a latent implementation-noise source.
///
/// Allocates private scratch; hot paths should use
/// [`conv2d_backward_ws`].
///
/// # Errors
///
/// Returns [`ShapeError`] if any operand disagrees with `geom`.
pub fn conv2d_backward(
    input: &Tensor,
    weights: &Tensor,
    dy: &Tensor,
    geom: &ConvGeometry,
    red: &mut Reducer,
) -> Result<Conv2dGrads, ShapeError> {
    conv2d_backward_ws(input, weights, dy, geom, red, 1, &mut Workspace::new())
}

/// Backward 2-D convolution on the blocked engine: the input gradient of
/// [`conv2d_input_grad_ws`] plus the parameter gradients of
/// [`conv2d_param_grads_ws`]. See [`conv2d_backward`] for the math and
/// [`conv2d_forward_ws`] for the engine/workspace contract.
///
/// # Errors
///
/// Returns [`ShapeError`] if any operand disagrees with `geom`; the
/// reducer is then left untouched.
pub fn conv2d_backward_ws(
    input: &Tensor,
    weights: &Tensor,
    dy: &Tensor,
    geom: &ConvGeometry,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Conv2dGrads, ShapeError> {
    // The input gradient draws nothing from the reducer, so computing it
    // first changes no bit and rejects bad weights before the reducer
    // advances.
    let dx = conv2d_input_grad_ws(weights, dy, geom, red, threads, ws)?;
    let (dw, db) = conv2d_param_grads_ws(input, dy, geom, red, threads, ws)?;
    Ok(Conv2dGrads { dx, dw, db })
}

/// The parameter gradients of a 2-D convolution: `(dW, db)`, shaped
/// `[out_c, patch_len]` and `[out_c]`.
///
/// dW is one GEMM, `dy` re-laid to `[out_c, N·pixels]` times the batch's
/// im2col, whose `out_c × patch_len` planned dots over the all-batch
/// inner dimension come first, then `out_c` bias-gradient sums: the
/// reducer call order of the per-element reference path. The batch runs
/// in chunks of samples (`dw_chunk`), so no buffer grows with it. Per
/// chunk, the chunk's `dy` is re-laid as the GEMM's A rows and added into
/// the bias sums' lane partials, its im2col is written straight into the
/// engine's packed panels, and every lane partial of the GEMM advances
/// over the chunk's rows (`gemm_packed_piece`), resuming where the
/// previous chunk left it. After the last chunk the GEMM combines, and
/// then each bias sum (`Reducer::sum_lanes`). Each lane, of the GEMM or
/// a bias sum, takes the same elements in the same order as over the
/// whole batch at once, so no bit depends on the chunking.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` or `dy` disagrees with `geom`.
pub fn conv2d_param_grads_ws(
    input: &Tensor,
    dy: &Tensor,
    geom: &ConvGeometry,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<(Tensor, Tensor), ShapeError> {
    check_input(input, geom)?;
    let n = input.shape().dim(0);
    check_dy(dy, n, geom)?;
    let (oc, pl, pixels) = (geom.out_c, geom.patch_len(), geom.out_pixels());
    let np = n * pixels;
    let sample = geom.in_c * geom.in_h * geom.in_w;
    let (x, dyv) = (input.as_slice(), dy.as_slice());
    let plan = red.plan_dots(oc * pl, np);
    // The bias sums reduce over the same `np` elements, so they take the
    // GEMM's lane count.
    let l = plan.lanes;
    let chunk = dw_chunk(geom, n, l);
    let chunks = n.div_ceil(chunk).max(1);
    let mut dy_r = ws.take_scratch(oc * chunk * pixels);
    let mut packed = ws.take_scratch(pl.div_ceil(NR) * chunk * pixels * NR);
    // Zeroed once: the chunks' lowerings write only the interior.
    let mut planes = ws.take_zeroed(padded_planes_len(geom));
    let mut carry = ws.take_scratch(if chunks > 1 {
        lane_carry_len(oc, pl, l)
    } else {
        0
    });
    let mut bias = ws.take_zeroed(oc * l);
    let mut dw = Tensor::zeros(Shape::of(&[oc, pl]));
    let gathers = PatchGathers::<tile::Gather>::new(geom);
    for c in 0..chunks {
        let (s0, samples) = (c * chunk, chunk.min(n - c * chunk));
        let (first, cnp) = (s0 * pixels, samples * pixels);
        let dy_r = &mut dy_r[..oc * cnp];
        let dys = &dyv[s0 * oc * pixels..(s0 + samples) * oc * pixels];
        relay_dy_chunk(dys, oc, pixels, first, dy_r, &mut bias);
        let packed = &mut packed[..pl.div_ceil(NR) * cnp * NR];
        let xs = &x[s0 * sample..(s0 + samples) * sample];
        im2col_patch_panels(xs, geom, &gathers, samples, &mut planes, packed);
        let out = (c + 1 == chunks).then_some(dw.as_mut_slice());
        gemm_packed_piece(
            dy_r, packed, oc, pl, cnp, first, &plan, threads, &mut carry, out,
        );
    }
    let mut db = Tensor::zeros(Shape::of(&[oc]));
    for (d, lanes) in db.as_mut_slice().iter_mut().zip(bias.chunks_exact_mut(l)) {
        *d = red.sum_lanes(lanes);
    }
    ws.recycle(dy_r);
    ws.recycle(packed);
    ws.recycle(planes);
    ws.recycle(carry);
    ws.recycle(bias);
    Ok((dw, db))
}

/// The input gradient of a 2-D convolution, `[N, in_c, in_h, in_w]`.
///
/// It reads only the reducer's lane count and draws nothing from it: each
/// patch gradient combines the channels with a fixed `channel % lanes`
/// lane assignment in index order, under a stateless
/// `DotPlan::fixed_lanes` plan. So skipping this call, as a network's
/// backward pass does for its first layer, leaves every later bit
/// unchanged.
///
/// The batch runs in chunks of samples sized so that the chunk's
/// `[patch_len, chunk·pixels]` patch gradients stay cache-resident: one
/// GEMM `Wᵀ [patch_len, out_c] × dy [out_c, chunk·pixels]`, whose B
/// operand is packed from each sample's own `[out_c, pixels]` block of
/// `dy`, then an in-order `col2im` into the chunk's slice of the result.
///
/// # Errors
///
/// Returns [`ShapeError`] if `weights` or `dy` disagrees with `geom`.
pub fn conv2d_input_grad_ws(
    weights: &Tensor,
    dy: &Tensor,
    geom: &ConvGeometry,
    red: &Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Tensor, ShapeError> {
    check_weights(weights, geom)?;
    let n = dy.shape().dims().first().copied().unwrap_or(0);
    check_dy(dy, n, geom)?;
    let (oc, pl, pixels) = (geom.out_c, geom.patch_len(), geom.out_pixels());
    let sample = geom.in_c * geom.in_h * geom.in_w;
    let plan = DotPlan::fixed_lanes(red.lanes().min(oc));
    let mut dx = Tensor::zeros(Shape::of(&[n, geom.in_c, geom.in_h, geom.in_w]));
    let mut wt = ws.take_scratch(pl * oc);
    transpose_into(weights.as_slice(), oc, pl, &mut wt);
    let chunk = (DX_CHUNK_FLOATS / (pl * pixels)).clamp(1, n.max(1));
    let gather = GatherPlan::new(geom);
    let slack = gather.slack;
    let mut dcol = ws.take_scratch(pl * chunk * pixels + 2 * slack);
    let mut dy_packed = ws.take_scratch((chunk * pixels).div_ceil(NR) * oc * NR);
    for (dys, dxs) in dy
        .as_slice()
        .chunks(chunk * oc * pixels)
        .zip(dx.as_mut_slice().chunks_mut(chunk * sample))
    {
        let cnp = dys.len() / oc;
        let packed = &mut dy_packed[..cnp.div_ceil(NR) * oc * NR];
        pack_dy_panels(dys, oc, pixels, packed);
        let dcol = &mut dcol[..pl * cnp + 2 * slack];
        let rows = &mut dcol[slack..slack + pl * cnp];
        gemm_packed_planned(&wt, packed, pl, cnp, oc, &plan, threads, rows);
        col2im_gather(dcol, geom, &gather, cnp / pixels, dxs);
    }
    ws.recycle(wt);
    ws.recycle(dcol);
    ws.recycle(dy_packed);
    Ok(dx)
}

fn check_input(input: &Tensor, g: &ConvGeometry) -> Result<(), ShapeError> {
    if input.shape().rank() != 4
        || input.shape().dim(1) != g.in_c
        || input.shape().dim(2) != g.in_h
        || input.shape().dim(3) != g.in_w
    {
        return Err(ShapeError::new(
            "conv2d",
            format!(
                "input {} incompatible with geometry (C={}, H={}, W={})",
                input.shape(),
                g.in_c,
                g.in_h,
                g.in_w
            ),
        ));
    }
    Ok(())
}

fn check_weights(weights: &Tensor, g: &ConvGeometry) -> Result<(), ShapeError> {
    if weights.shape() != Shape::of(&[g.out_c, g.patch_len()]) {
        return Err(ShapeError::new(
            "conv2d",
            format!(
                "weights {} != [{}, {}]",
                weights.shape(),
                g.out_c,
                g.patch_len()
            ),
        ));
    }
    Ok(())
}

fn check_dy(dy: &Tensor, n: usize, g: &ConvGeometry) -> Result<(), ShapeError> {
    let (oc, oh, ow) = (g.out_c, g.out_h(), g.out_w());
    if dy.shape() != Shape::of(&[n, oc, oh, ow]) {
        return Err(ShapeError::new(
            "conv2d_backward",
            format!("dy shape {} != [{n}, {oc}, {oh}, {ow}]", dy.shape()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReduceOrder;

    /// Direct (quadruple-loop) reference convolution in f64.
    fn reference_conv(x: &Tensor, w: &Tensor, b: &Tensor, g: &ConvGeometry) -> Vec<f64> {
        let n = x.shape().dim(0);
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = vec![0f64; n * g.out_c * oh * ow];
        for s in 0..n {
            for o in 0..g.out_c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b.as_slice()[o] as f64;
                        for c in 0..g.in_c {
                            for ky in 0..g.k {
                                for kx in 0..g.k {
                                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                                    let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                                    if iy >= 0
                                        && ix >= 0
                                        && (iy as usize) < g.in_h
                                        && (ix as usize) < g.in_w
                                    {
                                        let (iy, ix) = (iy as usize, ix as usize);
                                        let xi = ((s * g.in_c + c) * g.in_h + iy) * g.in_w + ix;
                                        let xv = x.as_slice()[xi] as f64;
                                        let wv = w.as_slice()
                                            [o * g.patch_len() + c * g.k * g.k + ky * g.k + kx]
                                            as f64;
                                        acc += xv * wv;
                                    }
                                }
                            }
                        }
                        out[((s * g.out_c + o) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    fn setup(g: &ConvGeometry, n: usize) -> (Tensor, Tensor, Tensor) {
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let x = Tensor::from_vec(
            Shape::of(&[n, g.in_c, g.in_h, g.in_w]),
            (0..n * g.in_c * g.in_h * g.in_w).map(|_| next()).collect(),
        )
        .unwrap();
        let w = Tensor::from_vec(
            Shape::of(&[g.out_c, g.patch_len()]),
            (0..g.out_c * g.patch_len()).map(|_| next()).collect(),
        )
        .unwrap();
        let b = Tensor::from_vec(
            Shape::of(&[g.out_c]),
            (0..g.out_c).map(|_| next()).collect(),
        )
        .unwrap();
        (x, w, b)
    }

    #[test]
    fn forward_matches_reference() {
        for (k, stride, pad) in [(3, 1, 1), (1, 1, 0), (3, 2, 1), (5, 1, 2)] {
            let g = ConvGeometry::new(2, 3, k, stride, pad, 6, 6);
            let (x, w, b) = setup(&g, 2);
            let y = conv2d_forward(&x, &w, &b, &g, &mut Reducer::sequential()).unwrap();
            let r = reference_conv(&x, &w, &b, &g);
            for (a, e) in y.as_slice().iter().zip(&r) {
                assert!((*a as f64 - e).abs() < 1e-4, "k={k}: {a} vs {e}");
            }
        }
    }

    #[test]
    // Bit-identity across workspaces/threads is the property under test.
    #[allow(clippy::float_cmp)]
    fn ws_variants_bit_identical_across_threads_and_reuse() {
        let g = ConvGeometry::new(2, 5, 3, 1, 1, 6, 6);
        let (x, w, b) = setup(&g, 3);
        for (order, lanes) in [
            (ReduceOrder::FixedTree, 1),
            (ReduceOrder::FixedTree, 40),
            (ReduceOrder::Permuted, 40),
        ] {
            let base = Reducer::new(order, lanes, 9).with_amplification(1e3);
            let y0 = conv2d_forward(&x, &w, &b, &g, &mut base.clone()).unwrap();
            let mut dy = y0.clone();
            dy.scale(0.5);
            let g0 = conv2d_backward(&x, &w, &dy, &g, &mut base.clone()).unwrap();
            let mut ws = Workspace::new();
            for threads in [1, 3] {
                // Reuse the same workspace across iterations: recycled
                // (dirty) buffers must not leak into results.
                let y =
                    conv2d_forward_ws(&x, &w, &b, &g, &mut base.clone(), threads, &mut ws).unwrap();
                assert_eq!(y.as_slice(), y0.as_slice(), "{order:?} fwd t={threads}");
                let gr = conv2d_backward_ws(&x, &w, &dy, &g, &mut base.clone(), threads, &mut ws)
                    .unwrap();
                assert_eq!(gr.dx.as_slice(), g0.dx.as_slice(), "{order:?} dx");
                assert_eq!(gr.dw.as_slice(), g0.dw.as_slice(), "{order:?} dw");
                assert_eq!(gr.db.as_slice(), g0.db.as_slice(), "{order:?} db");
            }
        }
    }

    /// Lowers one sample into row-form (`[out_pixels, patch_len]`) im2col.
    fn im2col(x: &[f32], g: &ConvGeometry, out: &mut [f32]) {
        let (oh, ow, pl) = (g.out_h(), g.out_w(), g.patch_len());
        debug_assert_eq!(out.len(), oh * ow * pl);
        for oy in 0..oh {
            for ox in 0..ow {
                let dst = &mut out[(oy * ow + ox) * pl..(oy * ow + ox + 1) * pl];
                for c in 0..g.in_c {
                    for ky in 0..g.k {
                        for kx in 0..g.k {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            dst[(c * g.k + ky) * g.k + kx] = if iy >= 0
                                && ix >= 0
                                && (iy as usize) < g.in_h
                                && (ix as usize) < g.in_w
                            {
                                x[(c * g.in_h + iy as usize) * g.in_w + ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }

    /// The per-element reducer path the engine must reproduce: forward
    /// draws one `Reducer::dot` per output in sample-major `(s, o, p)`
    /// order and adds the bias after it; backward then draws `dW` as
    /// `out_c × patch_len` dots over the whole batch's `(s, p)` axis in
    /// `(o, kk)` order, followed by `out_c` bias-gradient sums.
    fn reducer_reference(
        x: &Tensor,
        w: &Tensor,
        b: &Tensor,
        dy: &Tensor,
        g: &ConvGeometry,
        red: &mut Reducer,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let n = x.shape().dim(0);
        let (oc, pl, pixels) = (g.out_c, g.patch_len(), g.out_pixels());
        let col = batch_im2col(x, g);
        let wv = w.as_slice();
        let mut y = Vec::new();
        for s in 0..n {
            for o in 0..oc {
                for p in 0..pixels {
                    let patch = &col[(s * pixels + p) * pl..(s * pixels + p + 1) * pl];
                    y.push(red.dot(&wv[o * pl..(o + 1) * pl], patch) + b.as_slice()[o]);
                }
            }
        }
        let (dw, db) = param_grads_reference(&col, dy, g, red);
        (y, dw, db)
    }

    /// The batch's row-form im2col, `[N·pixels, patch_len]`.
    fn batch_im2col(x: &Tensor, g: &ConvGeometry) -> Vec<f32> {
        let (pl, pixels) = (g.patch_len(), g.out_pixels());
        let sample = g.in_c * g.in_h * g.in_w;
        let mut col = vec![0f32; x.shape().dim(0) * pixels * pl];
        for (xs, rows) in x
            .as_slice()
            .chunks_exact(sample)
            .zip(col.chunks_exact_mut(pixels * pl))
        {
            im2col(xs, g, rows);
        }
        col
    }

    /// The backward half of [`reducer_reference`], from the batch's
    /// row-form im2col `col`: `out_c × patch_len` dots over the whole
    /// batch's `(s, p)` axis in `(o, kk)` order, then `out_c` bias sums.
    /// The sums run on `Reducer::sum_strided`, whose lane fill is its own
    /// loop: the bits and draws of `Reducer::sum`, without sharing the
    /// fill the engine's bias sums use.
    fn param_grads_reference(
        col: &[f32],
        dy: &Tensor,
        g: &ConvGeometry,
        red: &mut Reducer,
    ) -> (Vec<f32>, Vec<f32>) {
        let (oc, pl, pixels) = (g.out_c, g.patch_len(), g.out_pixels());
        let np = col.len() / pl;
        let dyv = dy.as_slice();
        let dy_r: Vec<Vec<f32>> = (0..oc)
            .map(|o| {
                (0..np / pixels)
                    .flat_map(|s| dyv[(s * oc + o) * pixels..(s * oc + o + 1) * pixels].to_vec())
                    .collect()
            })
            .collect();
        let columns: Vec<Vec<f32>> = (0..pl)
            .map(|kk| (0..np).map(|q| col[q * pl + kk]).collect())
            .collect();
        let mut dw = Vec::new();
        for row in &dy_r {
            for column in &columns {
                dw.push(red.dot(row, column));
            }
        }
        let db = dy_r
            .iter()
            .map(|row| red.sum_strided(row, 0, 1, np))
            .collect();
        (dw, db)
    }

    #[test]
    fn ws_variants_bit_identical_to_reducer_reference() {
        // Patch lengths 9 (below every lane count past 2, so lanes clamp to
        // k), 27 and 72; output pixel counts 49, 25 and 12, none a
        // multiple of NR; strides 1 and 2. All three fit one forward
        // chunk at batch 3.
        let geoms = [
            ConvGeometry::new(1, 5, 3, 1, 1, 7, 7),
            ConvGeometry::new(3, 6, 3, 2, 1, 9, 9),
            ConvGeometry::new(8, 4, 3, 1, 0, 6, 5),
        ];
        let mut cases: Vec<(ConvGeometry, usize, &[usize])> = geoms
            .iter()
            .map(|&g| (g, 3, &[1, 2, 27, 40, 64][..]))
            .collect();
        // ResNet's deep shapes: output pixel counts 4 (a 2×2 layer) and 1
        // (a stride-2 1×1 layer on 2×2), so one NR panel spans several
        // samples, at a batch of three full forward chunks plus a
        // remainder.
        for g in [
            ConvGeometry::new(64, 3, 3, 1, 1, 2, 2),
            ConvGeometry::new(480, 2, 1, 2, 0, 2, 2),
        ] {
            let chunk = fwd_chunk(&g, usize::MAX);
            assert!(
                chunk > 1 && !(chunk * g.out_pixels()).is_multiple_of(NR),
                "{g:?}"
            );
            cases.push((g, 3 * chunk + chunk / 2 + 1, &[1, 2, 27, 64]));
        }
        for (g, n, lane_counts) in &cases {
            let (x, w, b) = setup(g, *n);
            let mut dy = conv2d_forward(&x, &w, &b, g, &mut Reducer::sequential()).unwrap();
            dy.scale(0.5);
            for order in [ReduceOrder::FixedTree, ReduceOrder::Permuted] {
                for &lanes in *lane_counts {
                    for amp in [0.0, 512.0] {
                        let base = Reducer::new(order, lanes, 31).with_amplification(amp);
                        let mut ref_red = base.clone();
                        let (y0, dw0, db0) = reducer_reference(&x, &w, &b, &dy, g, &mut ref_red);
                        for threads in [1, 2] {
                            let what =
                                format!("{g:?} {order:?} lanes={lanes} amp={amp} t={threads}");
                            let mut red = base.clone();
                            let mut ws = Workspace::new();
                            let y = conv2d_forward_ws(&x, &w, &b, g, &mut red, threads, &mut ws)
                                .unwrap();
                            let gr = conv2d_backward_ws(&x, &w, &dy, g, &mut red, threads, &mut ws)
                                .unwrap();
                            for (name, fast, reference) in [
                                ("y", y.as_slice(), &y0),
                                ("dw", gr.dw.as_slice(), &dw0),
                                ("db", gr.db.as_slice(), &db0),
                            ] {
                                assert_eq!(fast.len(), reference.len(), "{what} {name} len");
                                for (idx, (f, r)) in fast.iter().zip(reference).enumerate() {
                                    assert_eq!(
                                        f.to_bits(),
                                        r.to_bits(),
                                        "{what} {name}[{idx}]: {f} vs {r}"
                                    );
                                }
                            }
                            assert_eq!(red.snapshot(), ref_red.snapshot(), "{what} snapshot");
                        }
                    }
                }
            }
        }
    }

    /// `f`'s bits equal `r`'s, except that any NaN matches any NaN: which
    /// payload survives where two NaNs meet is not pinned.
    fn same_bits_nan_by_position(what: &str, fast: &[f32], reference: &[f32]) {
        assert_eq!(fast.len(), reference.len(), "{what} len");
        for (idx, (f, r)) in fast.iter().zip(reference).enumerate() {
            if r.is_nan() {
                assert!(f.is_nan(), "{what}[{idx}]: {f} vs NaN");
            } else {
                assert_eq!(f.to_bits(), r.to_bits(), "{what}[{idx}]: {f} vs {r}");
            }
        }
    }

    #[test]
    fn ws_variants_match_reducer_reference_on_wide_strided_and_special_inputs() {
        // Filters 5 (pad 2) and 7 (pad 3, as fig8b's cost-model medium CNN
        // `nnet::arch::medium_cnn` uses), stride 3, stride 2 without
        // padding, and an input wider than NR, so one output row takes
        // more than one run, in two panels. The wide one runs at a batch of
        // two forward chunks.
        let cases = [
            (ConvGeometry::new(2, 3, 5, 1, 2, 9, 9), 3),
            (ConvGeometry::new(2, 3, 7, 1, 3, 10, 10), 3),
            (ConvGeometry::new(3, 4, 3, 3, 1, 11, 10), 3),
            (ConvGeometry::new(3, 4, 3, 2, 0, 9, 8), 3),
            (ConvGeometry::new(2, 3, 3, 1, 1, 18, 20), 7),
        ];
        let (g, n) = cases[4];
        assert!(g.out_w() > NR && n > fwd_chunk(&g, n));
        for (g, n) in &cases {
            let (mut x, mut w, b) = setup(g, *n);
            let mut dy = conv2d_forward(&x, &w, &b, g, &mut Reducer::sequential()).unwrap();
            dy.scale(0.5);
            for special in [false, true] {
                if special {
                    // An infinite weight times a padding tap's +0.0 is
                    // NaN, so the padding must be +0.0 where the
                    // reference reads it, and only there; -0.0 products
                    // check that no sum starts anywhere but 0.0.
                    let (xv, wv) = (x.as_mut_slice(), w.as_mut_slice());
                    let specials = [f32::INFINITY, -0.0, f32::NAN, f32::NEG_INFINITY, 0.0];
                    for (i, &v) in specials.iter().enumerate() {
                        let at = (i * 53 + 7) % xv.len();
                        xv[at] = v;
                        let at = (i * 13 + 2) % wv.len();
                        wv[at] = v;
                    }
                    for v in xv.iter_mut().skip(3).step_by(11) {
                        *v = -0.0;
                    }
                }
                for order in [ReduceOrder::FixedTree, ReduceOrder::Permuted] {
                    for lanes in [1, 2, 27, 64] {
                        for amp in [0.0, 512.0] {
                            let base = Reducer::new(order, lanes, 17).with_amplification(amp);
                            let mut ref_red = base.clone();
                            let (y0, dw0, db0) =
                                reducer_reference(&x, &w, &b, &dy, g, &mut ref_red);
                            for threads in [1, 2] {
                                let what = format!(
                                    "{g:?} special={special} {order:?} lanes={lanes} amp={amp} t={threads}"
                                );
                                let mut red = base.clone();
                                let mut ws = Workspace::new();
                                let y =
                                    conv2d_forward_ws(&x, &w, &b, g, &mut red, threads, &mut ws)
                                        .unwrap();
                                let gr =
                                    conv2d_backward_ws(&x, &w, &dy, g, &mut red, threads, &mut ws)
                                        .unwrap();
                                same_bits_nan_by_position(&format!("{what} y"), y.as_slice(), &y0);
                                same_bits_nan_by_position(
                                    &format!("{what} dw"),
                                    gr.dw.as_slice(),
                                    &dw0,
                                );
                                same_bits_nan_by_position(
                                    &format!("{what} db"),
                                    gr.db.as_slice(),
                                    &db0,
                                );
                                assert_eq!(red.snapshot(), ref_red.snapshot(), "{what} snapshot");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ws_variants_match_reducer_reference_across_lane_fill_blocks() {
        // dW's reduction runs over the batch's 91·49 = 4459 output pixels:
        // past the lane fill's blocking threshold, at least eight blocks
        // and a part at every lane count here, and a multiple of no lane
        // count, so every lane carries its partial across each block
        // boundary and the lanes end the last block at different steps.
        // The second geometry is strided, with two panels of patch
        // positions.
        let cases = [
            (ConvGeometry::new(2, 3, 3, 1, 1, 7, 7), 91),
            (ConvGeometry::new(3, 2, 3, 2, 1, 13, 13), 91),
        ];
        for (g, n) in &cases {
            let np = n * g.out_pixels();
            assert!(np > crate::gemm::BLOCK_ABOVE && np / (crate::gemm::BLOCK_STEPS * 64) >= 8);
            let (mut x, mut w, b) = setup(g, *n);
            let mut dy = conv2d_forward(&x, &w, &b, g, &mut Reducer::sequential()).unwrap();
            dy.scale(0.5);
            // The special values of the wide-and-strided test: infinite
            // weights times padding zeros, NaNs, and -0.0 inputs.
            let (xv, wv) = (x.as_mut_slice(), w.as_mut_slice());
            let specials = [f32::INFINITY, -0.0, f32::NAN, f32::NEG_INFINITY, 0.0];
            for (i, &v) in specials.iter().enumerate() {
                let at = (i * 53 + 7) % xv.len();
                xv[at] = v;
                let at = (i * 13 + 2) % wv.len();
                wv[at] = v;
            }
            for v in xv.iter_mut().skip(3).step_by(11) {
                *v = -0.0;
            }
            for order in [ReduceOrder::FixedTree, ReduceOrder::Permuted] {
                for lanes in [2, 16, 27, 64] {
                    assert!(np % lanes != 0);
                    for amp in [0.0, 512.0] {
                        let base = Reducer::new(order, lanes, 19).with_amplification(amp);
                        let mut ref_red = base.clone();
                        let (y0, dw0, db0) = reducer_reference(&x, &w, &b, &dy, g, &mut ref_red);
                        for threads in [1, 2] {
                            let what =
                                format!("{g:?} {order:?} lanes={lanes} amp={amp} t={threads}");
                            let mut red = base.clone();
                            let mut ws = Workspace::new();
                            let y = conv2d_forward_ws(&x, &w, &b, g, &mut red, threads, &mut ws)
                                .unwrap();
                            let gr = conv2d_backward_ws(&x, &w, &dy, g, &mut red, threads, &mut ws)
                                .unwrap();
                            same_bits_nan_by_position(&format!("{what} y"), y.as_slice(), &y0);
                            same_bits_nan_by_position(
                                &format!("{what} dw"),
                                gr.dw.as_slice(),
                                &dw0,
                            );
                            same_bits_nan_by_position(
                                &format!("{what} db"),
                                gr.db.as_slice(),
                                &db0,
                            );
                            assert_eq!(red.snapshot(), ref_red.snapshot(), "{what} snapshot");
                        }
                    }
                }
            }
        }
    }

    /// Whether the build runs the 512-bit tile steps, whose FixedTree
    /// fold pins the NaN payload that survives (as in `gemm`'s tests).
    const PINNED_FOLD: bool = cfg!(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512dq"
    ));

    /// dW as the whole batch's one GEMM, before the weight gradient ran in
    /// chunks: `dy` re-laid to `[out_c, N·pixels]` times the batch's
    /// packed im2col.
    fn full_batch_dw(x: &Tensor, dy: &Tensor, g: &ConvGeometry, red: &mut Reducer) -> Vec<f32> {
        let n = x.shape().dim(0);
        let (oc, pl, pixels) = (g.out_c, g.patch_len(), g.out_pixels());
        let np = n * pixels;
        let mut dy_r = vec![0f32; oc * np];
        for (s, block) in dy.as_slice().chunks_exact(oc * pixels).enumerate() {
            for (o, src) in block.chunks_exact(pixels).enumerate() {
                dy_r[o * np + s * pixels..][..pixels].copy_from_slice(src);
            }
        }
        let mut col = vec![0f32; pl.div_ceil(NR) * np * NR];
        let mut planes = vec![0f32; padded_planes_len(g)];
        let gathers = PatchGathers::<tile::Gather>::new(g);
        im2col_patch_panels(x.as_slice(), g, &gathers, n, &mut planes, &mut col);
        let plan = red.plan_dots(oc * pl, np);
        let mut dw = vec![0f32; oc * pl];
        gemm_packed_planned(&dy_r, &col, oc, pl, np, &plan, 1, &mut dw);
        dw
    }

    #[test]
    fn chunked_param_grads_bit_identical_to_one_gemm_and_reference() {
        // dW against the per-element reference (values, and NaN by
        // position) and bit for bit against the batch's one GEMM; db bit
        // for bit against the reference, whose sums fill their lanes with
        // a loop of their own; and the reducer's state after the call.
        // SmallCNN's three layers as the benchmark trains them, a stride-2
        // 3×3 and a 1×1 stride-2 conv, each at a batch of one chunk and at
        // a batch of three `DW_CHUNK_ROWS` chunks and a last chunk of one
        // sample. No chunk's row count is a multiple of 27 or 44 lanes, so
        // chunk boundaries split those lanes mid-walk; at 2, 16 and 64
        // lanes, the single-sample chunk of 9, 16 or 36 pixels does. The
        // workspace is reused throughout, so a carry or bias lane that a
        // call failed to reset shows as a mismatch.
        let geoms = [
            ConvGeometry::new(3, 16, 3, 1, 1, 12, 12),
            ConvGeometry::new(16, 16, 3, 1, 1, 6, 6),
            ConvGeometry::new(16, 16, 3, 1, 1, 3, 3),
            ConvGeometry::new(8, 16, 3, 2, 1, 8, 8),
            ConvGeometry::new(8, 16, 1, 2, 0, 8, 8),
        ];
        let lane_counts = [2, 16, 27, 44, 64];
        let nan = f32::from_bits;
        let mut ws = Workspace::new();
        for g in &geoms {
            let (oc, pixels) = (g.out_c, g.out_pixels());
            let per_chunk = DW_CHUNK_ROWS / pixels;
            let sample = g.in_c * g.in_h * g.in_w;
            for n in [BLOCK_ABOVE / pixels, 3 * per_chunk + 1] {
                for lanes in lane_counts {
                    let chunk = dw_chunk(g, n, lanes);
                    let want = if n * pixels > BLOCK_ABOVE {
                        per_chunk
                    } else {
                        n
                    };
                    assert_eq!(chunk, want, "{g:?} n={n} lanes={lanes}");
                }
                let (mut x, _, _) = setup(g, n);
                let dy_values = (0..(n * oc * pixels) as u64).map(|i| {
                    (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f32 / (1 << 24) as f32 - 0.5
                });
                let dy_shape = Shape::of(&[n, oc, g.out_h(), g.out_w()]);
                let mut dy = Tensor::from_vec(dy_shape, dy_values.collect()).unwrap();
                // NaN payloads of both signs in x (samples 1 and the last)
                // and in dy (samples 0 and n - 2, channels 0 and 1), so no
                // product multiplies two NaNs and no bias sum adds two
                // payloads; infinities of both signs in x and one per
                // channel in dy (channels 2 and 3); zeros of both signs.
                let xv = x.as_mut_slice();
                xv[sample + 5] = nan(0x7fc0_0041);
                xv[(n - 1) * sample + 3] = nan(0xffc0_0042);
                xv[2 * sample + 7] = f32::INFINITY;
                xv[3 * sample + 1] = f32::NEG_INFINITY;
                for (i, v) in xv.iter_mut().enumerate().skip(2).step_by(9) {
                    *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                let dyv = dy.as_mut_slice();
                dyv[3] = nan(0x7fc0_0043);
                dyv[(n - 2) * oc * pixels + pixels + 1] = nan(0xffc0_0044);
                dyv[(oc + 2) * pixels + 5] = f32::INFINITY;
                dyv[(n / 2 * oc + 3) * pixels] = f32::NEG_INFINITY;
                for v in dyv.iter_mut().skip(4).step_by(13) {
                    *v = -0.0;
                }
                let col = batch_im2col(&x, g);
                let arms = [
                    (ReduceOrder::FixedTree, 0.0),
                    (ReduceOrder::Permuted, 0.0),
                    (ReduceOrder::Permuted, 512.0),
                ];
                for (order, amp) in arms {
                    for lanes in lane_counts {
                        let base = Reducer::new(order, lanes, 23).with_amplification(amp);
                        let mut ref_red = base.clone();
                        let (dw0, db0) = param_grads_reference(&col, &dy, g, &mut ref_red);
                        let full = full_batch_dw(&x, &dy, g, &mut base.clone());
                        let probe: Vec<f32> = (0..100).map(|i| i as f32 * 0.37 - 9.0).collect();
                        let next0 = ref_red.clone().sum(&probe);
                        for threads in [1, 2] {
                            let what = format!(
                                "{g:?} n={n} {order:?} amp={amp} lanes={lanes} t={threads}"
                            );
                            let mut red = base.clone();
                            let (dw, db) =
                                conv2d_param_grads_ws(&x, &dy, g, &mut red, threads, &mut ws)
                                    .unwrap();
                            // Where two NaN payloads meet, the reference's
                            // adds keep the one LLVM's operand order picks,
                            // which can change with any edit to the tests;
                            // the engine's 512-bit chain, fold and masked
                            // passes pin theirs, so the one-chunk engine
                            // path pins the payloads. The portable fold
                            // leaves its order to LLVM too.
                            let what_dw = format!("{what} dw");
                            same_bits_nan_by_position(&what_dw, dw.as_slice(), &dw0);
                            if order == ReduceOrder::Permuted || PINNED_FOLD {
                                assert_eq!(bits(dw.as_slice()), bits(&full), "{what_dw}");
                            } else {
                                same_bits_nan_by_position(&what_dw, dw.as_slice(), &full);
                            }
                            assert_eq!(bits(db.as_slice()), bits(&db0), "{what} db");
                            assert_eq!(red.invocations(), ref_red.invocations(), "{what}");
                            assert_eq!(red.snapshot(), ref_red.snapshot(), "{what} snapshot");
                            let next = red.sum(&probe);
                            assert_eq!(next.to_bits(), next0.to_bits(), "{what} next draw");
                        }
                    }
                }
            }
        }
    }

    /// The input gradient as the engine first computed it, kept as the
    /// oracle for the fast path: `dy` re-laid to `[pixels, out_c]` per
    /// sample, every `dcol[p, kk]` a fixed-lane dot over the channels
    /// (channel `o` in lane `o % l`, lanes combined in index order from
    /// 0.0), then the row-form `col2im` scatter, which adds each input
    /// element's contributions in `(oy, ox)` order.
    fn dx_oracle(w: &Tensor, dy: &Tensor, g: &ConvGeometry, lanes: usize) -> Vec<f32> {
        let n = dy.shape().dim(0);
        let (oc, pl, pixels) = (g.out_c, g.patch_len(), g.out_pixels());
        let l = lanes.min(oc);
        let (wv, dyv) = (w.as_slice(), dy.as_slice());
        let sample = g.in_c * g.in_h * g.in_w;
        let mut dx = vec![0f32; n * sample];
        let mut dyt = vec![0f32; oc];
        let mut dcol = vec![0f32; pixels * pl];
        for s in 0..n {
            for p in 0..pixels {
                for (o, d) in dyt.iter_mut().enumerate() {
                    *d = dyv[(s * oc + o) * pixels + p];
                }
                for kk in 0..pl {
                    let mut lane = [0f32; crate::reduce::MAX_LANES];
                    for (o, &d) in dyt.iter().enumerate() {
                        lane[o % l] += d * wv[o * pl + kk];
                    }
                    let mut acc = 0f32;
                    for &v in &lane[..l] {
                        acc += v;
                    }
                    dcol[p * pl + kk] = acc;
                }
            }
            col2im(&dcol, g, &mut dx[s * sample..(s + 1) * sample]);
        }
        dx
    }

    /// Scatters patch-major gradients back into an input-shaped buffer,
    /// one output pixel at a time in `(oy, ox)` order.
    fn col2im(dcol: &[f32], g: &ConvGeometry, out: &mut [f32]) {
        let (oh, ow, pl) = (g.out_h(), g.out_w(), g.patch_len());
        let kk = g.k * g.k;
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (oy * ow + ox) * pl;
                for c in 0..g.in_c {
                    for ky in 0..g.k {
                        let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                        for kx in 0..g.k {
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            if iy >= 0
                                && ix >= 0
                                && (iy as usize) < g.in_h
                                && (ix as usize) < g.in_w
                            {
                                out[c * g.in_h * g.in_w + iy as usize * g.in_w + ix as usize] +=
                                    dcol[row + c * kk + ky * g.k + kx];
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dx_bit_identical_to_row_form_oracle() {
        // The three geometries of the reducer-reference test, a strided
        // 1×1 and a 5×5 with padding 2; the 5×5 also has out_c 32, so
        // lanes 16 leaves two channels per lane. Then an input wider than
        // NR, whose rows the gather covers in two vectors, and stride 3,
        // where a row's columns fall into three phases.
        let geoms = [
            ConvGeometry::new(1, 5, 3, 1, 1, 7, 7),
            ConvGeometry::new(3, 6, 3, 2, 1, 9, 9),
            ConvGeometry::new(8, 4, 3, 1, 0, 6, 5),
            ConvGeometry::new(4, 7, 1, 2, 0, 7, 8),
            ConvGeometry::new(2, 32, 5, 1, 2, 6, 7),
            ConvGeometry::new(2, 5, 3, 1, 1, 18, 20),
            ConvGeometry::new(3, 4, 3, 3, 1, 11, 10),
        ];
        for g in &geoms {
            let (x, mut w, b) = setup(g, 3);
            let mut dy = conv2d_forward(&x, &w, &b, g, &mut Reducer::sequential()).unwrap();
            dy.scale(0.5);
            for special in [false, true] {
                if special {
                    // Products of ±Inf with 0.0 make NaN; -0.0 operands make
                    // -0.0 products, which a lane or a sum starting at 0.0
                    // turns into +0.0.
                    let (dyv, wv) = (dy.as_mut_slice(), w.as_mut_slice());
                    let specials = [f32::INFINITY, -0.0, f32::NAN, f32::NEG_INFINITY, 0.0];
                    for (i, &v) in specials.iter().enumerate() {
                        let at = (i * 37 + 5) % dyv.len();
                        dyv[at] = v;
                        let at = (i * 11 + 3) % wv.len();
                        wv[at] = v;
                    }
                    for v in dyv.iter_mut().skip(1).step_by(7) {
                        *v = -0.0;
                    }
                }
                for lanes in [1, 2, 16, 40, 64] {
                    let oracle = dx_oracle(&w, &dy, g, lanes);
                    for order in [ReduceOrder::FixedTree, ReduceOrder::Permuted] {
                        for threads in [1, 2] {
                            let what = format!(
                                "{g:?} special={special} lanes={lanes} {order:?} t={threads}"
                            );
                            let mut red = Reducer::new(order, lanes, 5);
                            let mut ws = Workspace::new();
                            let gr = conv2d_backward_ws(&x, &w, &dy, g, &mut red, threads, &mut ws)
                                .unwrap();
                            same_bits_nan_by_position(
                                &format!("{what} dx"),
                                gr.dx.as_slice(),
                                &oracle,
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pixel_panels_are_row_form_im2col_in_panel_layout() {
        // Dirty panels, on planes that arrive zeroed: every value the
        // panels hold must be written, the padding taps as +0.0 and the
        // last panel's pad columns as +0.0. Output pixel counts 49, 4 (samples share panels), 400 (rows
        // wider than NR) and 20 (stride 3), at batches that leave a
        // partial last panel.
        let cases = [
            (ConvGeometry::new(2, 1, 3, 1, 1, 7, 7), 3),
            (ConvGeometry::new(3, 1, 3, 1, 1, 2, 2), 7),
            (ConvGeometry::new(1, 1, 5, 1, 2, 20, 20), 2),
            (ConvGeometry::new(2, 1, 3, 3, 1, 11, 13), 3),
            (ConvGeometry::new(2, 1, 1, 2, 0, 5, 6), 5),
        ];
        for (g, n) in cases {
            let (x, _, _) = setup(&g, n);
            let (pl, pixels) = (g.patch_len(), g.out_pixels());
            let np = n * pixels;
            let mut row_form = vec![0f32; np * pl];
            for (xs, rows) in x
                .as_slice()
                .chunks_exact(g.in_c * g.in_h * g.in_w)
                .zip(row_form.chunks_exact_mut(pixels * pl))
            {
                im2col(xs, &g, rows);
            }
            let mut packed = vec![f32::NAN; np.div_ceil(NR) * pl * NR];
            let mut planes = vec![0.0; n * padded_planes_len(&g)];
            im2col_pixel_panels::<tile::Gather>(x.as_slice(), &g, n, &mut planes, &mut packed);
            for (p, panel) in packed.chunks_exact(pl * NR).enumerate() {
                for kk in 0..pl {
                    for j in 0..NR {
                        let q = p * NR + j;
                        let want = if q < np { row_form[q * pl + kk] } else { 0.0 };
                        let got = panel[kk * NR + j];
                        assert_eq!(got.to_bits(), want.to_bits(), "{g:?} pixel {q} tap {kk}");
                    }
                }
            }
        }
    }

    #[test]
    fn patch_panels_are_row_form_im2col_in_panel_layout() {
        // The pixel-panel test's geometries: pad 0 and k < stride (a 1×1
        // stride-2 conv), rows wider than NR, stride 3, samples of 4
        // pixels; and patch lengths 18, 27 and 25 leave the last panel
        // with pad columns. Dirty panels, on planes that arrive zeroed:
        // every value the panels hold must be written, the padding taps and
        // pad columns as +0.0.
        let cases = [
            (ConvGeometry::new(2, 1, 3, 1, 1, 7, 7), 3),
            (ConvGeometry::new(3, 1, 3, 1, 1, 2, 2), 7),
            (ConvGeometry::new(1, 1, 5, 1, 2, 20, 20), 2),
            (ConvGeometry::new(2, 1, 3, 3, 1, 11, 13), 3),
            (ConvGeometry::new(2, 1, 1, 2, 0, 5, 6), 5),
            (ConvGeometry::new(20, 1, 1, 2, 0, 5, 6), 2),
        ];
        for (g, n) in cases {
            let (x, _, _) = setup(&g, n);
            let (pl, pixels) = (g.patch_len(), g.out_pixels());
            let np = n * pixels;
            let mut row_form = vec![0f32; np * pl];
            for (xs, rows) in x
                .as_slice()
                .chunks_exact(g.in_c * g.in_h * g.in_w)
                .zip(row_form.chunks_exact_mut(pixels * pl))
            {
                im2col(xs, &g, rows);
            }
            let mut packed = vec![f32::NAN; pl.div_ceil(NR) * np * NR];
            let mut planes = vec![0.0; padded_planes_len(&g)];
            let gathers = PatchGathers::<tile::Gather>::new(&g);
            im2col_patch_panels(x.as_slice(), &g, &gathers, n, &mut planes, &mut packed);
            for (p, slab) in packed.chunks_exact(np * NR).enumerate() {
                for q in 0..np {
                    for j in 0..NR {
                        let kk = p * NR + j;
                        let want = if kk < pl { row_form[q * pl + kk] } else { 0.0 };
                        let got = slab[q * NR + j];
                        assert_eq!(got.to_bits(), want.to_bits(), "{g:?} pixel {q} tap {kk}");
                    }
                }
            }
        }
    }

    /// `setup`'s input with a special value at every fifth float: NaNs of
    /// both signs with distinct payloads (one signalling), zeros of both
    /// signs and both infinities.
    fn special_input(g: &ConvGeometry, n: usize) -> Tensor {
        let (mut x, _, _) = setup(g, n);
        let specials = [
            f32::from_bits(0x7fc0_0031),
            f32::from_bits(0xffc0_0032),
            f32::from_bits(0x7f80_0033),
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for (i, v) in x.as_mut_slice().iter_mut().step_by(5).enumerate() {
            *v = specials[i % specials.len()];
        }
        x
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn pixel_panels_match_the_portable_gather_bit_for_bit() {
        // The shipped gather (512 bits on an AVX-512 build) against the
        // portable one, into NaN-filled panels, the second lowering on the
        // planes the first left: a chunk of 36-
        // pixel samples, so that sample boundaries split panels; stride-2
        // phase planes; a 1×1 stride-2 conv; 2×2 and 3×3 outputs; and,
        // in all but the 12×12 stem, pad columns in the last panel.
        let cases = [
            (ConvGeometry::new(16, 1, 3, 1, 1, 6, 6), 3),
            (ConvGeometry::new(3, 1, 3, 2, 1, 9, 9), 2),
            (ConvGeometry::new(8, 1, 1, 2, 0, 9, 9), 3),
            (ConvGeometry::new(32, 1, 3, 1, 1, 2, 2), 5),
            (ConvGeometry::new(16, 1, 3, 1, 1, 3, 3), 7),
            (ConvGeometry::new(3, 1, 3, 1, 1, 12, 12), 2),
        ];
        for (g, n) in cases {
            let x = special_input(&g, n);
            let np = n * g.out_pixels();
            let mut shipped = vec![f32::NAN; np.div_ceil(NR) * g.patch_len() * NR];
            let mut portable = shipped.clone();
            let mut planes = vec![0.0; n * padded_planes_len(&g)];
            im2col_pixel_panels::<tile::Gather>(x.as_slice(), &g, n, &mut planes, &mut shipped);
            let xv = x.as_slice();
            im2col_pixel_panels::<tile::portable::Gather>(xv, &g, n, &mut planes, &mut portable);
            assert_eq!(bits(&shipped), bits(&portable), "{g:?}");
        }
    }

    #[test]
    fn patch_panels_match_the_portable_gather_bit_for_bit() {
        // Patch lengths 27, 72 and 144 (one, five and nine panels, the
        // first two with pad columns), at strides 1 and 2, into NaN-filled
        // panels, the second lowering on the planes the first left.
        let cases = [
            (ConvGeometry::new(3, 1, 3, 1, 1, 12, 12), 3),
            (ConvGeometry::new(8, 1, 3, 2, 1, 8, 8), 3),
            (ConvGeometry::new(16, 1, 3, 1, 1, 6, 6), 2),
            (ConvGeometry::new(16, 1, 3, 1, 1, 3, 3), 5),
        ];
        for (g, n) in cases {
            let x = special_input(&g, n);
            let np = n * g.out_pixels();
            let mut shipped = vec![f32::NAN; g.patch_len().div_ceil(NR) * np * NR];
            let mut portable = shipped.clone();
            let mut planes = vec![0.0; padded_planes_len(&g)];
            let xv = x.as_slice();
            let gathers = PatchGathers::<tile::Gather>::new(&g);
            im2col_patch_panels(xv, &g, &gathers, n, &mut planes, &mut shipped);
            let gathers = PatchGathers::<tile::portable::Gather>::new(&g);
            im2col_patch_panels(xv, &g, &gathers, n, &mut planes, &mut portable);
            assert_eq!(bits(&shipped), bits(&portable), "{g:?}");
        }
    }

    #[test]
    fn lowerings_reuse_zeroed_planes_across_chunks_bit_for_bit() {
        // A batch lowered chunk by chunk, as `conv2d_forward_ws` and
        // `conv2d_param_grads_ws` lower it, into one planes buffer zeroed
        // once, against fresh zeroed planes per chunk: a chunk writes only
        // the planes' interior, so nothing an earlier chunk left there,
        // NaN payloads included, reaches a later chunk's panels. Strides 1
        // and 2, a 1×1 stride-2 conv (whose odd columns no tap reads, so
        // no copy writes them), and a last chunk smaller than the rest.
        let cases = [
            (ConvGeometry::new(3, 1, 3, 1, 1, 12, 12), 3, 7),
            (ConvGeometry::new(8, 1, 3, 2, 1, 9, 9), 2, 5),
            (ConvGeometry::new(8, 1, 1, 2, 0, 9, 9), 3, 7),
            (ConvGeometry::new(16, 1, 3, 1, 1, 6, 6), 4, 9),
        ];
        for (g, chunk, n) in cases {
            let x = special_input(&g, n);
            let (pl, pixels) = (g.patch_len(), g.out_pixels());
            let (sample, plen) = (g.in_c * g.in_h * g.in_w, padded_planes_len(&g));
            let mut pixel_planes = vec![0.0; chunk * plen];
            let mut patch_planes = vec![0.0; plen];
            let gathers = PatchGathers::<tile::Gather>::new(&g);
            for (c, xs) in x.as_slice().chunks(chunk * sample).enumerate() {
                let what = format!("{g:?} chunk {c}");
                let samples = xs.len() / sample;
                let cnp = samples * pixels;
                let planes = &mut pixel_planes[..samples * plen];
                let mut reused = vec![f32::NAN; cnp.div_ceil(NR) * pl * NR];
                let mut fresh = reused.clone();
                im2col_pixel_panels::<tile::Gather>(xs, &g, samples, planes, &mut reused);
                let mut planes = vec![0.0; samples * plen];
                im2col_pixel_panels::<tile::Gather>(xs, &g, samples, &mut planes, &mut fresh);
                assert_eq!(bits(&reused), bits(&fresh), "{what} pixel panels");
                let mut reused = vec![f32::NAN; pl.div_ceil(NR) * cnp * NR];
                let mut fresh = reused.clone();
                im2col_patch_panels(xs, &g, &gathers, samples, &mut patch_planes, &mut reused);
                let mut planes = vec![0.0; plen];
                im2col_patch_panels(xs, &g, &gathers, samples, &mut planes, &mut fresh);
                assert_eq!(bits(&reused), bits(&fresh), "{what} patch panels");
            }
        }
    }

    /// Median microseconds of `calls` calls of `f`.
    fn median_us(calls: usize, mut f: impl FnMut()) -> f64 {
        let mut us: Vec<f64> = (0..calls)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&mut us)
    }

    fn median(us: &mut [f64]) -> f64 {
        us.sort_by(f64::total_cmp);
        us[us.len() / 2]
    }

    /// Runs `f`, adding its microseconds to `total`.
    fn timed(total: &mut f64, f: impl FnOnce()) {
        let t = std::time::Instant::now();
        f();
        *total += t.elapsed().as_secs_f64() * 1e6;
    }

    #[test]
    #[ignore = "timing harness; run it alone at --release with --ignored --nocapture"]
    fn split_timings() {
        // The data movement around the conv GEMMs and the GEMMs it feeds:
        // SmallCNN's 3×3 pad-1 layers in det_control's full-batch TPUv2
        // arm (batch 160, FixedTree, 16 lanes) and in impl_noise's V100
        // arms (batch 16, Permuted, 64 lanes, amplified), then
        // MicroResNet18's layers in those V100 arms. One thread, each
        // plan drawn outside the timed calls. Per shape: the forward
        // lowering over the batch's chunks and its GEMMs (the median of
        // `CALLS` calls per chunk, summed); the weight gradient's chunk
        // steps as `conv2d_param_grads_ws` runs them, dy re-lay with the
        // bias lanes, lowering and lane fill (each step summed over a
        // call's chunks, median of `CALLS` calls); the input gradient's
        // steps as `conv2d_input_grad_ws` runs them, `pack_dy_panels`,
        // its GEMM and `col2im_gather` (likewise); and the 2×2 max-pool
        // of the conv's output where SmallCNN pools it.
        //
        // A hot loop over one shape under-reads what a step costs in
        // training, where the other layers evict its buffers: it read the
        // full-batch stem's dW GEMM at 571 µs, against 894 µs measured in
        // training. Claims are decided by end-to-end pairs.
        //
        // cargo test --release -p nstensor split_timings -- --ignored --nocapture
        const CALLS: usize = 101;
        let tpu = ("det_control TPUv2", 160, ReduceOrder::FixedTree, 16, 0.0);
        let v100 = ("impl_noise V100", 16, ReduceOrder::Permuted, 64, 512.0);
        let small_cnn = |in_c, hw| ConvGeometry::new(in_c, 16, 3, 1, 1, hw, hw);
        let resnet = [
            (3, 8, 3, 1, 8),
            (8, 8, 3, 1, 8),
            (8, 16, 3, 2, 8),
            (8, 16, 1, 2, 8),
            (16, 16, 3, 1, 4),
            (16, 32, 3, 2, 4),
            (16, 32, 1, 2, 4),
            (32, 32, 3, 1, 2),
        ]
        .map(|(i, o, k, s, hw)| (v100, ConvGeometry::new(i, o, k, s, k / 2, hw, hw), false));
        let cases = [tpu, v100]
            .into_iter()
            .flat_map(|arm| {
                [(3, 12, true), (16, 6, true), (16, 3, false)]
                    .map(|(in_c, hw, pooled)| (arm, small_cnn(in_c, hw), pooled))
            })
            .chain(resnet);
        println!(
            "shape | fwd lowering | fwd GEMM | dW re-lay | dW lowering | dW GEMM | \
             dX pack | dX GEMM | col2im | max-pool (µs)"
        );
        for ((arm, n, order, lanes, amp), g, pooled) in cases {
            let (x, w, _) = setup(&g, n);
            let (pl, pixels, oc) = (g.patch_len(), g.out_pixels(), g.out_c);
            let sample = g.in_c * g.in_h * g.in_w;
            let mut red = Reducer::new(order, lanes, 3).with_amplification(amp);
            // Forward, as `conv2d_forward_ws` chunks the batch.
            let chunk = fwd_chunk(&g, n);
            let mut packed = vec![0f32; (chunk * pixels).div_ceil(NR) * pl * NR];
            let mut planes = vec![0f32; chunk * padded_planes_len(&g)];
            let mut out = vec![0f32; oc * chunk * pixels];
            let (mut fwd_lower, mut fwd_gemm) = (0.0, 0.0);
            for xs in x.as_slice().chunks(chunk * sample) {
                let samples = xs.len() / sample;
                let cnp = samples * pixels;
                let packed = &mut packed[..cnp.div_ceil(NR) * pl * NR];
                let planes = &mut planes[..samples * padded_planes_len(&g)];
                fwd_lower += median_us(CALLS, || {
                    im2col_pixel_panels::<tile::Gather>(xs, &g, samples, planes, packed);
                });
                let plan = red.plan_dots(oc * cnp, pl).sample_blocks(pixels);
                let out = &mut out[..oc * cnp];
                let wv = w.as_slice();
                fwd_gemm += median_us(CALLS, || {
                    gemm_packed_planned(wv, packed, oc, cnp, pl, &plan, 1, out);
                });
            }
            // Weight gradient, as `conv2d_param_grads_ws` chunks the batch.
            let np = n * pixels;
            let dy: Vec<f32> = (0..oc * np).map(|i| (i % 13) as f32 - 6.0).collect();
            let plan = red.plan_dots(oc * pl, np);
            let l = plan.lanes;
            let chunk = dw_chunk(&g, n, l);
            let chunks = n.div_ceil(chunk);
            let mut dy_r = vec![0f32; oc * chunk * pixels];
            let mut col = vec![0f32; pl.div_ceil(NR) * chunk * pixels * NR];
            let mut planes = vec![0f32; padded_planes_len(&g)];
            let mut carry = vec![
                0f32;
                if chunks > 1 {
                    lane_carry_len(oc, pl, l)
                } else {
                    0
                }
            ];
            let mut bias = vec![0f32; oc * l];
            let mut dw = vec![0f32; oc * pl];
            let mut steps = [(); 3].map(|()| Vec::with_capacity(CALLS));
            for _ in 0..CALLS {
                let mut call = [0.0; 3];
                let mut gathers = None;
                timed(&mut call[1], || {
                    gathers = Some(PatchGathers::<tile::Gather>::new(&g));
                });
                let gathers = gathers.expect("built");
                for c in 0..chunks {
                    let (s0, samples) = (c * chunk, chunk.min(n - c * chunk));
                    let (first, cnp) = (s0 * pixels, samples * pixels);
                    let dy_r = &mut dy_r[..oc * cnp];
                    let dys = &dy[s0 * oc * pixels..(s0 + samples) * oc * pixels];
                    timed(&mut call[0], || {
                        relay_dy_chunk(dys, oc, pixels, first, dy_r, &mut bias);
                    });
                    let col = &mut col[..pl.div_ceil(NR) * cnp * NR];
                    let xs = &x.as_slice()[s0 * sample..(s0 + samples) * sample];
                    timed(&mut call[1], || {
                        im2col_patch_panels(xs, &g, &gathers, samples, &mut planes, col);
                    });
                    let out = (c + 1 == chunks).then_some(&mut dw[..]);
                    timed(&mut call[2], || {
                        gemm_packed_piece(dy_r, col, oc, pl, cnp, first, &plan, 1, &mut carry, out);
                    });
                }
                for (step, us) in steps.iter_mut().zip(call) {
                    step.push(us);
                }
            }
            let [dw_relay, dw_lower, dw_gemm] = steps.map(|mut us| median(&mut us));
            // Input gradient, as `conv2d_input_grad_ws` chunks the batch.
            let mut wt = vec![0f32; pl * oc];
            transpose_into(w.as_slice(), oc, pl, &mut wt);
            let plan = DotPlan::fixed_lanes(lanes.min(oc));
            let chunk = (DX_CHUNK_FLOATS / (pl * pixels)).clamp(1, n);
            let gather = GatherPlan::new(&g);
            let slack = gather.slack;
            let mut dcol = vec![0f32; pl * chunk * pixels + 2 * slack];
            let mut dy_packed = vec![0f32; (chunk * pixels).div_ceil(NR) * oc * NR];
            let mut dx = vec![0f32; n * sample];
            let mut steps = [(); 3].map(|()| Vec::with_capacity(CALLS));
            for _ in 0..CALLS {
                let mut call = [0.0; 3];
                let chunks = dy
                    .chunks(chunk * oc * pixels)
                    .zip(dx.chunks_mut(chunk * sample));
                for (dys, dxs) in chunks {
                    let cnp = dys.len() / oc;
                    let packed = &mut dy_packed[..cnp.div_ceil(NR) * oc * NR];
                    timed(&mut call[0], || pack_dy_panels(dys, oc, pixels, packed));
                    let dcol = &mut dcol[..pl * cnp + 2 * slack];
                    let rows = &mut dcol[slack..slack + pl * cnp];
                    timed(&mut call[1], || {
                        gemm_packed_planned(&wt, packed, pl, cnp, oc, &plan, 1, rows);
                    });
                    timed(&mut call[2], || {
                        col2im_gather(dcol, &g, &gather, cnp / pixels, dxs)
                    });
                }
                for (step, us) in steps.iter_mut().zip(call) {
                    step.push(us);
                }
            }
            let [dx_pack, dx_gemm, col2im] = steps.map(|mut us| median(&mut us));
            let pool = if pooled {
                let (oh, ow) = (g.out_h(), g.out_w());
                let y = Tensor::from_vec(Shape::of(&[n, oc, oh, ow]), dy.clone()).unwrap();
                let mut arg = Vec::new();
                let us = median_us(CALLS, || {
                    std::hint::black_box(
                        crate::pool::maxpool2d_forward(&y, 2, Some(&mut arg)).unwrap(),
                    );
                });
                format!("{us:.1}")
            } else {
                "-".into()
            };
            let (c, o, k, st, hw) = (g.in_c, g.out_c, g.k, g.stride, g.in_h);
            println!(
                "{arm} n{n} c{c}->{o} k{k} s{st} {hw}x{hw} | {fwd_lower:.1} | {fwd_gemm:.1} | \
                 {dw_relay:.1} | {dw_lower:.1} | {dw_gemm:.1} | {dx_pack:.1} | {dx_gemm:.1} | \
                 {col2im:.1} | {pool}"
            );
        }
    }

    #[test]
    fn geometry_dims() {
        let g = ConvGeometry::new(3, 8, 3, 2, 1, 8, 8);
        assert_eq!(g.out_h(), 4);
        assert_eq!(g.out_w(), 4);
        assert_eq!(g.out_pixels(), 16);
        assert!(g.flops(1) > 0);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_filter_panics() {
        ConvGeometry::new(1, 1, 9, 1, 0, 4, 4);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let g = ConvGeometry::new(2, 2, 3, 1, 1, 4, 4);
        let (x, w, b) = setup(&g, 2);
        let n = 2;
        // Scalar loss L = Σ y², so dL/dy = 2y.
        let y = conv2d_forward(&x, &w, &b, &g, &mut Reducer::sequential()).unwrap();
        let mut dy = y.clone();
        dy.scale(2.0);
        let grads = conv2d_backward(&x, &w, &dy, &g, &mut Reducer::sequential()).unwrap();

        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f64 {
            let y = conv2d_forward(x, w, b, &g, &mut Reducer::sequential()).unwrap();
            y.as_slice().iter().map(|&v| (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-2f32;
        // Check a scattering of weight coordinates.
        for idx in [0usize, 3, 7, 11, 17] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps as f64);
            let an = grads.dw.as_slice()[idx] as f64;
            assert!(
                (fd - an).abs() < 0.05 * fd.abs().max(1.0),
                "dw[{idx}]: fd {fd} vs analytic {an}"
            );
        }
        // And input coordinates.
        for idx in [0usize, 5, 13, 30] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps as f64);
            let an = grads.dx.as_slice()[idx] as f64;
            assert!(
                (fd - an).abs() < 0.05 * fd.abs().max(1.0),
                "dx[{idx}]: fd {fd} vs analytic {an}"
            );
        }
        // Bias gradient = Σ dy per channel.
        let pixels = g.out_pixels();
        for o in 0..g.out_c {
            let mut s = 0f64;
            for smp in 0..n {
                for p in 0..pixels {
                    s += dy.as_slice()[(smp * g.out_c + o) * pixels + p] as f64;
                }
            }
            let an = grads.db.as_slice()[o] as f64;
            assert!((s - an).abs() < 1e-3 * s.abs().max(1.0), "db[{o}]");
        }
    }

    #[test]
    fn shape_validation_errors() {
        let g = ConvGeometry::new(2, 3, 3, 1, 1, 4, 4);
        let (x, w, b) = setup(&g, 1);
        let bad_w = Tensor::zeros(Shape::of(&[3, 10]));
        assert!(conv2d_forward(&x, &bad_w, &b, &g, &mut Reducer::sequential()).is_err());
        let bad_b = Tensor::zeros(Shape::of(&[4]));
        assert!(conv2d_forward(&x, &w, &bad_b, &g, &mut Reducer::sequential()).is_err());
        let bad_x = Tensor::zeros(Shape::of(&[1, 1, 4, 4]));
        assert!(conv2d_forward(&bad_x, &w, &b, &g, &mut Reducer::sequential()).is_err());
        let bad_dy = Tensor::zeros(Shape::of(&[1, 3, 9, 9]));
        assert!(conv2d_backward(&x, &w, &bad_dy, &g, &mut Reducer::sequential()).is_err());
        // A backward call that fails leaves the reducer where it was.
        let dy = Tensor::zeros(Shape::of(&[1, 3, 4, 4]));
        let two_samples = Tensor::zeros(Shape::of(&[2, 3, 4, 4]));
        let mut red = Reducer::new(ReduceOrder::Permuted, 8, 3);
        let before = red.snapshot();
        assert!(conv2d_backward(&x, &bad_w, &dy, &g, &mut red).is_err());
        assert!(conv2d_backward(&bad_x, &w, &dy, &g, &mut red).is_err());
        assert!(conv2d_backward(&x, &w, &two_samples, &g, &mut red).is_err());
        let mut ws = Workspace::new();
        assert!(conv2d_param_grads_ws(&x, &two_samples, &g, &mut red, 1, &mut ws).is_err());
        assert!(conv2d_input_grad_ws(&bad_w, &dy, &g, &red, 1, &mut ws).is_err());
        assert_eq!(red.snapshot(), before);
    }
}
