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
//! im2col never materializes in row form: the forward pass and the
//! weight gradient each write it straight into the packed panels their
//! GEMM reads, and both read each sample from the same zero-padded,
//! phase-split copy of it, so neither tests a tap against the border.
//! The forward pass runs in cache-sized chunks of samples, one GEMM per
//! chunk over the chunk's `chunk·pixels` output columns, for every
//! reduction order. The reference draws a Permuted spec per output
//! in sample-major `(s, o, p)` order, so each chunk plans its outputs
//! right after the previous chunk's, and reads its columns as sample
//! blocks (`DotPlan::sample_blocks`) to find each output's place in
//! that order. The forward's buffers do not grow with the batch. Its
//! lowering copies each sample into zero-padded planes, split by column
//! phase at stride > 1, so that every panel row of a tap is a few fixed
//! `NR`-float copies of consecutive plane values, one per output row the
//! panel touches (see `im2col_pixel_panels`). The weight gradient's
//! panels hold patch positions as columns, so each output pixel's `NR`
//! values are loads at one panel's fixed offsets from the pixel's corner
//! in those planes, stored as one row (see `im2col_patch_panels`).
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
use crate::gemm::gemm_packed_planned;
use crate::pack::{transpose_into, NR};
use crate::reduce::{DotPlan, Reducer};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::tile;
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

/// Length of one sample's padded, phase-split input planes plus the `NR`
/// floats of slack that [`im2col_pixel_panels`] reads past the last one.
fn padded_planes_len(g: &ConvGeometry) -> usize {
    g.in_c * g.stride * phase_plane_dims(g).1 + NR
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
fn tap_offsets(g: &ConvGeometry) -> Vec<usize> {
    let (qw, plane) = phase_plane_dims(g);
    (0..g.patch_len())
        .map(|kk| {
            let (c, ky, kx) = (kk / (g.k * g.k), kk / g.k % g.k, kk % g.k);
            (c * g.stride + kx % g.stride) * plane + ky * qw + kx / g.stride
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
                dst.copy_from_slice(&chan[from..from + count]);
            } else {
                for (d, &v) in dst.iter_mut().zip(chan[from..].iter().step_by(g.stride)) {
                    *d = v;
                }
            }
        }
    }
}

/// Lowers a batch of samples *directly into the GEMM engine's packed
/// panel layout* (see [`crate::pack::pack_b_panels`]) with the output
/// pixels as columns: element `[p * pl * NR + kk * NR + j]` is patch
/// position `kk` of global output pixel `p * NR + j`, where global pixels
/// run `(sample, oy, ox)` row-major across the batch. Panel columns past
/// the last pixel are zeroed. The forward pass's B operand.
///
/// Each sample is first copied into zero-padded, phase-split planes
/// ([`pad_sample`]), so every panel row of a tap is a few runs of
/// consecutive plane values, one per output row the panel touches, with
/// no border tests. Each run is written as one fixed `NR`-float copy; the
/// floats past its end are overwritten by the next run or the next panel
/// row, because a sample's runs are written in ascending address order.
/// Two places need more. A sample that starts mid-panel would spill over
/// the earlier samples' columns of the next row, so that row is saved
/// before and restored after each row's runs. The pad columns of the
/// last panel are zeroed after each row. `packed` holds the panels plus
/// `NR` floats of slack, and `planes` is [`padded_planes_len`] long.
///
/// Packing only copies values, so this cannot perturb any accumulation
/// order.
pub(crate) fn im2col_pixel_panels(
    x: &[f32],
    g: &ConvGeometry,
    batch: usize,
    planes: &mut [f32],
    packed: &mut [f32],
) {
    let (ow, pl) = (g.out_w(), g.patch_len());
    let pixels = g.out_pixels();
    let np = batch * pixels;
    let qw = phase_plane_dims(g).0;
    debug_assert_eq!(x.len(), batch * g.in_c * g.in_h * g.in_w);
    assert_eq!(
        packed.len(),
        np.div_ceil(NR) * pl * NR + NR,
        "packed buffer size"
    );
    assert_eq!(planes.len(), padded_planes_len(g), "planes buffer size");
    let taps = tap_offsets(g);
    let copies = pad_copies(g);
    planes.fill(0.0);
    for (s, xs) in x.chunks_exact(g.in_c * g.in_h * g.in_w).enumerate() {
        pad_sample(xs, g, &copies, planes);
        let (first, end) = (s * pixels, (s + 1) * pixels);
        for p in first / NR..end.div_ceil(NR) {
            let g0 = p * NR;
            let (lo, hi) = (first.max(g0), end.min(g0 + NR));
            // This sample's runs in the panel: (plane offset of the run's
            // first pixel, panel column).
            let mut runs = [(0, 0); NR];
            let mut count = 0;
            let (mut oy, mut ox0) = ((lo - first) / ow, (lo - first) % ow);
            let mut gidx = lo;
            while gidx < hi {
                runs[count] = (oy * g.stride * qw + ox0, gidx - g0);
                count += 1;
                gidx += (ow - ox0).min(hi - gidx);
                (oy, ox0) = (oy + 1, 0);
            }
            let runs = &runs[..count];
            let shared = lo > g0;
            let pad_from = if hi == np { hi - g0 } else { NR };
            let panel = &mut packed[p * pl * NR..];
            for (row, &tap) in taps.iter().enumerate() {
                let next = (row + 1) * NR;
                let saved: [f32; NR] = if shared {
                    panel[next..next + NR].try_into().expect("NR floats")
                } else {
                    [0.0; NR]
                };
                for &(off, j) in runs {
                    let at = row * NR + j;
                    panel[at..at + NR].copy_from_slice(&planes[tap + off..][..NR]);
                }
                if shared {
                    panel[next..next + NR].copy_from_slice(&saved);
                }
                if pad_from < NR {
                    panel[row * NR + pad_from..next].fill(0.0);
                }
            }
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
/// pixel's `NR` panel values are `NR` loads at one panel's fixed offsets
/// and one contiguous store, with no border test: a tap on the padding
/// reads a zero of the planes. `planes` is [`padded_planes_len`] long.
///
/// Packing only copies values, so this cannot perturb any accumulation
/// order.
fn im2col_patch_panels(
    x: &[f32],
    g: &ConvGeometry,
    batch: usize,
    planes: &mut [f32],
    packed: &mut [f32],
) {
    let (oh, ow, pl) = (g.out_h(), g.out_w(), g.patch_len());
    let pixels = oh * ow;
    let np = batch * pixels;
    let row_step = g.stride * phase_plane_dims(g).0;
    debug_assert_eq!(x.len(), batch * g.in_c * g.in_h * g.in_w);
    assert_eq!(
        packed.len(),
        pl.div_ceil(NR) * np * NR,
        "packed buffer size"
    );
    assert_eq!(planes.len(), padded_planes_len(g), "planes buffer size");
    let taps = tap_offsets(g);
    // Per panel: its columns' tap offsets, pad columns repeating the last
    // real position (and zeroed after), and the number of real columns.
    let panels: Vec<([usize; NR], usize)> = (0..pl.div_ceil(NR))
        .map(|p| {
            let offsets = core::array::from_fn(|j| taps[(p * NR + j).min(pl - 1)]);
            (offsets, NR.min(pl - p * NR))
        })
        .collect();
    let copies = pad_copies(g);
    planes.fill(0.0);
    for (s, xs) in x.chunks_exact(g.in_c * g.in_h * g.in_w).enumerate() {
        pad_sample(xs, g, &copies, planes);
        for ((offsets, cols), slab) in panels.iter().zip(packed.chunks_exact_mut(np * NR)) {
            let (dst, _) = slab[s * pixels * NR..(s + 1) * pixels * NR].as_chunks_mut::<NR>();
            for (oy, dst) in dst.chunks_exact_mut(ow).enumerate() {
                // Column j of the row's pixels reads `ow` consecutive plane
                // values from the row's first pixel plus its tap offset.
                let row = &planes[oy * row_step..];
                let columns: [&[f32]; NR] = core::array::from_fn(|j| &row[offsets[j]..][..ow]);
                for (ox, px) in dst.iter_mut().enumerate() {
                    for (d, column) in px.iter_mut().zip(&columns) {
                        *d = column[ox];
                    }
                    px[*cols..].fill(0.0);
                }
            }
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
/// `patch_len × chunk·pixels`: a chunk takes as many samples as fit, and
/// at least one.
const FWD_CHUNK_FLOATS: usize = 1 << 15;

/// Float budget (128 KiB) of one chunk's `[patch_len, chunk·pixels]`
/// patch gradients in the input-gradient pass: a chunk takes as many
/// samples as fit, and at least one.
const DX_CHUNK_FLOATS: usize = 1 << 15;

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
/// im2col panels fit `FWD_CHUNK_FLOATS`: one GEMM per chunk, weights
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
    let mut out = Tensor::zeros(Shape::of(&[n, oc, oh, ow]));
    let xin = input.as_slice();
    let wv = weights.as_slice();
    let bv = bias.as_slice();
    let ov = out.as_mut_slice();
    let sample = geom.in_c * geom.in_h * geom.in_w;
    let chunk = (FWD_CHUNK_FLOATS / (pl * pixels)).clamp(1, n.max(1));
    let mut packed = ws.take_scratch((chunk * pixels).div_ceil(NR) * pl * NR + NR);
    let mut planes = ws.take_scratch(padded_planes_len(geom));
    let mut out_r = ws.take_scratch(oc * chunk * pixels);
    for (xs, ys) in xin
        .chunks(chunk * sample)
        .zip(ov.chunks_mut(chunk * oc * pixels))
    {
        let cnp = xs.len() / sample * pixels;
        let panels_len = cnp.div_ceil(NR) * pl * NR;
        let packed = &mut packed[..panels_len + NR];
        im2col_pixel_panels(xs, geom, cnp / pixels, &mut planes, packed);
        // The chunk's outputs come after the previous chunk's in the
        // reference draw order, and within the chunk one sample's
        // `[out_c, pixels]` block follows another.
        let plan = red.plan_dots(oc * cnp, pl).sample_blocks(pixels);
        let out_r = &mut out_r[..oc * cnp];
        let packed = &packed[..panels_len];
        gemm_packed_planned(wv, packed, oc, cnp, pl, &plan, threads, out_r);
        // Scatter [oc, chunk·pixels] back to [chunk, oc, pixels], adding
        // the bias after the dot exactly as the reference computes.
        for (s, yblock) in ys.chunks_exact_mut(oc * pixels).enumerate() {
            for (o, dst) in yblock.chunks_exact_mut(pixels).enumerate() {
                let b = bv[o];
                let src = &out_r[o * cnp + s * pixels..o * cnp + (s + 1) * pixels];
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d = v + b;
                }
            }
        }
    }
    ws.recycle(out_r);
    ws.recycle(planes);
    ws.recycle(packed);
    Ok(out)
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
/// im2col, which is written straight into the engine's packed panels. Its
/// `out_c × patch_len` planned dots over the all-batch inner dimension
/// come first, then `out_c` bias-gradient sums: the reducer call order of
/// the per-element reference path.
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
    let dyv = dy.as_slice();

    // --- dW = dYr [oc, N·pixels] × col [N·pixels, pl] ---
    let mut dy_r = ws.take_scratch(oc * np);
    for s in 0..n {
        for o in 0..oc {
            let src = &dyv[(s * oc + o) * pixels..(s * oc + o + 1) * pixels];
            dy_r[o * np + s * pixels..o * np + (s + 1) * pixels].copy_from_slice(src);
        }
    }
    let mut col_packed = ws.take_scratch(pl.div_ceil(NR) * np * NR);
    let mut planes = ws.take_scratch(padded_planes_len(geom));
    im2col_patch_panels(input.as_slice(), geom, n, &mut planes, &mut col_packed);
    ws.recycle(planes);
    let mut dw = Tensor::zeros(Shape::of(&[oc, pl]));
    let plan = red.plan_dots(oc * pl, np);
    gemm_packed_planned(
        &dy_r,
        &col_packed,
        oc,
        pl,
        np,
        &plan,
        threads,
        dw.as_mut_slice(),
    );
    ws.recycle(col_packed);

    // --- db[o] = Σ_{s,p} dy[s,o,p] (cross-batch reduction) ---
    let mut db = Tensor::zeros(Shape::of(&[oc]));
    for (o, d) in db.as_mut_slice().iter_mut().enumerate() {
        *d = red.sum(&dy_r[o * np..(o + 1) * np]);
    }
    ws.recycle(dy_r);
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
        let sample = g.in_c * g.in_h * g.in_w;
        let mut col = vec![0f32; n * pixels * pl];
        for s in 0..n {
            im2col(
                &x.as_slice()[s * sample..(s + 1) * sample],
                g,
                &mut col[s * pixels * pl..(s + 1) * pixels * pl],
            );
        }
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
        let dyv = dy.as_slice();
        let dy_r: Vec<Vec<f32>> = (0..oc)
            .map(|o| {
                (0..n)
                    .flat_map(|s| dyv[(s * oc + o) * pixels..(s * oc + o + 1) * pixels].to_vec())
                    .collect()
            })
            .collect();
        let mut dw = Vec::new();
        for row in &dy_r {
            for kk in 0..pl {
                let column: Vec<f32> = (0..n * pixels).map(|q| col[q * pl + kk]).collect();
                dw.push(red.dot(row, &column));
            }
        }
        let db = dy_r.iter().map(|row| red.sum(row)).collect();
        (y, dw, db)
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
            let chunk = FWD_CHUNK_FLOATS / (g.patch_len() * g.out_pixels());
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
        assert!(g.out_w() > NR && n > FWD_CHUNK_FLOATS / (g.patch_len() * g.out_pixels()));
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
        // Dirty buffers: every value the panels hold must be written, the
        // padding taps as +0.0 and the last panel's pad columns as +0.0.
        // Output pixel counts 49, 4 (samples share panels), 400 (rows
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
            let mut packed = vec![f32::NAN; np.div_ceil(NR) * pl * NR + NR];
            let mut planes = vec![f32::NAN; padded_planes_len(&g)];
            im2col_pixel_panels(x.as_slice(), &g, n, &mut planes, &mut packed);
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
        // with pad columns. Dirty buffers: every value the panels hold
        // must be written, the padding taps and pad columns as +0.0.
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
            let mut planes = vec![f32::NAN; padded_planes_len(&g)];
            im2col_patch_panels(x.as_slice(), &g, n, &mut planes, &mut packed);
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
