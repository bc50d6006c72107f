//! Pooling operations.
//!
//! Max-pooling selects rather than accumulates, so it introduces no
//! floating-point-order sensitivity of its own; global average pooling does
//! reduce and therefore takes a [`Reducer`]. A 2×2 max-pool runs as
//! `tile::max_pool_2x2`, which has a 512-bit form; every other window
//! runs the scalar loop, `max_pool`, which is also the 2×2 step's
//! portable form.
//!
//! Max-pooling keeps no buffer of its own: the caller owns the argmax
//! indices, which [`maxpool2d_forward`] rewrites in a vector the caller
//! may keep from step to step and skips in inference, and the storage of
//! the input gradient, which [`maxpool2d_backward`] writes into a tensor
//! of the forward input's shape, normally the forward input itself.

use crate::error::ShapeError;
use crate::reduce::Reducer;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::tile;

/// Forward 2-D max pooling with square window `k` and stride `k`
/// (non-overlapping), input `[N, C, H, W]`.
///
/// Returns the pooled tensor. With an `argmax`, it also writes, for each
/// output element, the flat index of its maximum within the sample's
/// channel plane, which the backward pass reads: the vector is resized to
/// the output's length (which writes nothing when the length is
/// unchanged) and every entry is rewritten, so a caller can keep it from
/// step to step without stale entries. Without one, as in inference, no
/// index is written.
///
/// # Errors
///
/// Returns [`ShapeError`] if the input is not rank 4 or not divisible by `k`.
pub fn maxpool2d_forward(
    input: &Tensor,
    k: usize,
    argmax: Option<&mut Vec<u32>>,
) -> Result<Tensor, ShapeError> {
    if input.shape().rank() != 4 {
        return Err(ShapeError::new("maxpool2d", "expected rank-4 input"));
    }
    let (n, c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    );
    if k == 0 || h % k != 0 || w % k != 0 {
        return Err(ShapeError::new(
            "maxpool2d",
            format!("input {h}x{w} not divisible by window {k}"),
        ));
    }
    let (oh, ow) = (h / k, w / k);
    let mut out = Tensor::zeros(Shape::of(&[n, c, oh, ow]));
    let arg = argmax.map(|arg| {
        arg.resize(out.len(), 0);
        arg.as_mut_slice()
    });
    let (xv, ov) = (input.as_slice(), out.as_mut_slice());
    if k == 2 {
        tile::max_pool_2x2(xv, h, w, ov, arg);
    } else {
        max_pool(xv, h, w, k, ov, arg);
    }
    Ok(out)
}

/// Max-pools the `h × w` planes of `x` with window and stride `k` into
/// `out` and, given one, `arg`, one output at a time: each output starts
/// at `-inf` with index 0 of its plane and takes every value of its
/// window greater than the best so far, in `(dy, dx)` order. So a tie
/// keeps the first position, a NaN is never taken, and a window with
/// nothing above `-inf` gives `-inf` at index 0.
pub(crate) fn max_pool(
    x: &[f32],
    h: usize,
    w: usize,
    k: usize,
    out: &mut [f32],
    mut arg: Option<&mut [u32]>,
) {
    let (oh, ow) = (h / k, w / k);
    if out.is_empty() {
        return;
    }
    let pixels = oh * ow;
    for (p, (plane, out)) in x
        .chunks_exact(h * w)
        .zip(out.chunks_exact_mut(pixels))
        .enumerate()
    {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0usize;
                for dy in 0..k {
                    for dx in 0..k {
                        let i = (oy * k + dy) * w + ox * k + dx;
                        if plane[i] > best {
                            best = plane[i];
                            best_i = i;
                        }
                    }
                }
                out[oy * ow + ox] = best;
                if let Some(arg) = arg.as_deref_mut() {
                    arg[p * pixels + oy * ow + ox] = best_i as u32;
                }
            }
        }
    }
}

/// Backward 2-D max pooling: routes each output gradient to its argmax.
///
/// `dx` is the forward's input, or any tensor of its shape: its storage
/// is reused for the input gradient, which is written as a fresh zero
/// tensor would take it, every element set to `+0.0` and then each
/// output's gradient added to its argmax in output order. So an input
/// element that is the argmax of several windows (as index 0 of a plane
/// is for every all-NaN or all-`-inf` window) takes their gradients in
/// output order, and one that is no window's stays `+0.0`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `dx` is not rank 4 or `dy` does not match the
/// pooled shape implied by `dx`'s shape and `k`.
pub fn maxpool2d_backward(
    dx: &mut Tensor,
    k: usize,
    dy: &Tensor,
    argmax: &[u32],
) -> Result<(), ShapeError> {
    let shape = dx.shape();
    if shape.rank() != 4 || k == 0 {
        return Err(ShapeError::new("maxpool2d_backward", "expected rank-4 dx"));
    }
    let (n, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
    let (oh, ow) = (h / k, w / k);
    if dy.shape() != Shape::of(&[n, c, oh, ow]) || argmax.len() != dy.len() {
        return Err(ShapeError::new("maxpool2d_backward", "dy/argmax mismatch"));
    }
    let dxv = dx.as_mut_slice();
    dxv.fill(0.0);
    if dy.is_empty() {
        return Ok(());
    }
    let outputs = dy
        .as_slice()
        .chunks_exact(oh * ow)
        .zip(argmax.chunks_exact(oh * ow));
    for (plane, (dys, args)) in dxv.chunks_exact_mut(h * w).zip(outputs) {
        for (&g, &a) in dys.iter().zip(args) {
            plane[a as usize] += g;
        }
    }
    Ok(())
}

/// Forward global average pooling: `[N, C, H, W]` → `[N, C]`.
///
/// The spatial mean is an accumulation and goes through the reducer.
///
/// # Errors
///
/// Returns [`ShapeError`] if the input is not rank 4.
pub fn global_avg_pool_forward(input: &Tensor, red: &mut Reducer) -> Result<Tensor, ShapeError> {
    if input.shape().rank() != 4 {
        return Err(ShapeError::new("global_avg_pool", "expected rank-4 input"));
    }
    let (n, c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    );
    let hw = h * w;
    let mut out = Tensor::zeros(Shape::of(&[n, c]));
    let xv = input.as_slice();
    let ov = out.as_mut_slice();
    let inv = 1.0 / hw as f32;
    for s in 0..n {
        for ch in 0..c {
            let plane = &xv[(s * c + ch) * hw..(s * c + ch + 1) * hw];
            ov[s * c + ch] = red.sum(plane) * inv;
        }
    }
    Ok(out)
}

/// Backward global average pooling: spreads `dy/[H·W]` uniformly.
///
/// # Errors
///
/// Returns [`ShapeError`] if `dy` is not `[N, C]` for the given input shape.
pub fn global_avg_pool_backward(input_shape: Shape, dy: &Tensor) -> Result<Tensor, ShapeError> {
    let (n, c, h, w) = (
        input_shape.dim(0),
        input_shape.dim(1),
        input_shape.dim(2),
        input_shape.dim(3),
    );
    if dy.shape() != Shape::of(&[n, c]) {
        return Err(ShapeError::new("global_avg_pool_backward", "dy mismatch"));
    }
    let hw = h * w;
    let inv = 1.0 / hw as f32;
    let mut dx = Tensor::zeros(input_shape);
    let dyv = dy.as_slice();
    let dxv = dx.as_mut_slice();
    for s in 0..n {
        for ch in 0..c {
            let g = dyv[s * c + ch] * inv;
            for v in &mut dxv[(s * c + ch) * hw..(s * c + ch + 1) * hw] {
                *v = g;
            }
        }
    }
    Ok(dx)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pooled tensor and its argmax indices.
    fn forward(x: &Tensor, k: usize) -> (Tensor, Vec<u32>) {
        let mut arg = Vec::new();
        let y = maxpool2d_forward(x, k, Some(&mut arg)).unwrap();
        (y, arg)
    }

    #[test]
    fn maxpool_picks_maxima() {
        let x = Tensor::from_vec(
            Shape::of(&[1, 1, 4, 4]),
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let (y, arg) = forward(&x, 2);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    /// One `[1, 1, h, w]` plane.
    fn plane(h: usize, w: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::of(&[1, 1, h, w]), v).unwrap()
    }

    #[test]
    // Exact float equality is the property under test.
    #[allow(clippy::float_cmp)]
    fn maxpool_ties_keep_the_first_position_in_window_order() {
        // Windows (0,0),(0,1),(1,0),(1,1) in that order: a tie of the
        // top two, of the bottom two, of a diagonal and of all four.
        let x = plane(
            2,
            8,
            vec![
                7.0, 7.0, 1.0, 2.0, 1.0, 9.0, 5.0, 5.0, //
                1.0, 2.0, 7.0, 7.0, 9.0, 1.0, 5.0, 5.0,
            ],
        );
        let (y, arg) = forward(&x, 2);
        assert_eq!(y.as_slice(), &[7.0, 7.0, 9.0, 5.0]);
        assert_eq!(arg, vec![0, 10, 5, 6]);
    }

    #[test]
    fn maxpool_signed_zero_tie_keeps_the_first() {
        // -0.0 and +0.0 compare equal, so the first of them stays, sign
        // and all, unless a later value is greater.
        let x = plane(
            2,
            6,
            vec![
                -0.0, 0.0, 0.0, -0.0, -1.0, -0.0, //
                0.0, -0.0, -0.0, 0.0, 0.0, -2.0,
            ],
        );
        let (y, arg) = forward(&x, 2);
        let bits: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = [-0.0f32, 0.0, -0.0].iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);
        assert_eq!(arg, vec![0, 2, 5]);
    }

    #[test]
    fn maxpool_never_selects_nan() {
        // NaN is greater than nothing and nothing is greater than NaN: a
        // NaN first leaves the window's maximum to the values after it,
        // and a NaN later never replaces the maximum.
        let nan = f32::NAN;
        let x = plane(
            2,
            6,
            vec![
                nan, 1.0, 3.0, nan, -5.0, nan, //
                2.0, nan, nan, 4.0, nan, -7.0,
            ],
        );
        let (y, arg) = forward(&x, 2);
        assert_eq!(y.as_slice(), &[2.0, 4.0, -5.0]);
        assert_eq!(arg, vec![6, 9, 4]);
    }

    #[test]
    fn maxpool_all_nan_and_all_neg_infinity_windows_give_neg_infinity_at_index_zero() {
        // No value is greater than the starting -inf, so the output keeps
        // -inf and the starting index 0 of the plane, not the window's.
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let x = plane(
            2,
            6,
            vec![
                1.0, 0.5, nan, nan, ninf, ninf, //
                0.0, 2.0, nan, nan, ninf, ninf,
            ],
        );
        let (y, arg) = forward(&x, 2);
        assert_eq!(y.as_slice(), &[2.0, ninf, ninf]);
        assert_eq!(arg, vec![7, 0, 0]);
    }

    /// The scalar loop the pooled values and argmaxes must equal: per
    /// window, from `(-inf, 0)`, take each value greater than the best so
    /// far in `(dy, dx)` order.
    fn maxpool_reference(x: &[f32], h: usize, w: usize, k: usize) -> (Vec<f32>, Vec<u32>) {
        let (mut y, mut arg) = (Vec::new(), Vec::new());
        for plane in x.chunks_exact(h * w) {
            for oy in 0..h / k {
                for ox in 0..w / k {
                    let mut best = (f32::NEG_INFINITY, 0);
                    for dy in 0..k {
                        for dx in 0..k {
                            let i = (oy * k + dy) * w + ox * k + dx;
                            if plane[i] > best.0 {
                                best = (plane[i], i);
                            }
                        }
                    }
                    y.push(best.0);
                    arg.push(best.1 as u32);
                }
            }
        }
        (y, arg)
    }

    #[test]
    fn maxpool_matches_the_scalar_loop_on_every_window() {
        // Plane sizes whose output counts are below, at and past 16 and
        // no multiple of it, so outputs that share a vector of 16 span
        // planes and samples, down to a 1×1 output per plane; values
        // repeat and take every special value, so ties, NaN and signed
        // zeros land on every window position, the last row and column
        // included.
        let specials = [f32::NAN, -0.0, 0.0, f32::NEG_INFINITY, f32::INFINITY];
        let mut seed = 7u64;
        for (n, c, h, w, k) in [
            (3, 5, 12, 12, 2),
            (2, 7, 6, 6, 2),
            (5, 3, 2, 2, 2),
            (1, 1, 4, 34, 2),
            (2, 16, 8, 8, 2),
            (2, 3, 9, 6, 3),
        ] {
            let x: Vec<f32> = (0..n * c * h * w)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let r = (seed >> 33) as usize;
                    specials
                        .get(r % 16)
                        .copied()
                        .unwrap_or((r % 7) as f32 - 3.0)
                })
                .collect();
            let t = Tensor::from_vec(Shape::of(&[n, c, h, w]), x.clone()).unwrap();
            let (y, arg) = forward(&t, k);
            let (y0, arg0) = maxpool_reference(&x, h, w, k);
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let what = format!("{n}x{c}x{h}x{w} k {k}");
            assert_eq!(bits(y.as_slice()), bits(&y0), "{what}");
            assert_eq!(arg, arg0, "{what}");
        }
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(Shape::of(&[1, 1, 2, 2]), vec![1.0, 9.0, 3.0, 4.0]).unwrap();
        let (_, arg) = forward(&x, 2);
        let dy = Tensor::from_vec(Shape::of(&[1, 1, 1, 1]), vec![5.0]).unwrap();
        let mut dx = x;
        maxpool2d_backward(&mut dx, 2, &dy, &arg).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    /// The backward pass as a fresh zero tensor and a scatter in output
    /// order: the reference the in-place pass must match bit for bit.
    fn backward_reference(shape: Shape, k: usize, dy: &[f32], argmax: &[u32]) -> Vec<f32> {
        let (n, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let (oh, ow) = (h / k, w / k);
        let mut dx = vec![0f32; shape.len()];
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * h * w;
                for o in (s * c + ch) * oh * ow..(s * c + ch + 1) * oh * ow {
                    dx[base + argmax[o] as usize] += dy[o];
                }
            }
        }
        dx
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs the backward pass in the storage of `x` (whatever it holds)
    /// and checks it bit for bit against the reference.
    fn check_backward(x: &Tensor, k: usize, dy: &[f32]) -> Vec<f32> {
        let (y, arg) = forward(x, k);
        let dy = Tensor::from_vec(y.shape(), dy.to_vec()).unwrap();
        let mut dx = x.clone();
        maxpool2d_backward(&mut dx, k, &dy, &arg).unwrap();
        let want = backward_reference(x.shape(), k, dy.as_slice(), &arg);
        assert_eq!(bits(dx.as_slice()), bits(&want));
        want
    }

    #[test]
    fn maxpool_backward_adds_windows_without_a_maximum_into_index_zero() {
        // Windows 1, 2 and 4 are all NaN or all -inf, so their argmax is
        // plane index 0, which is also window 0's maximum: index 0 takes
        // windows 0, 1, 2 and 4 in that order, and the planes' NaN and
        // -inf inputs, never a maximum, come out +0.0.
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let x = plane(
            2,
            10,
            vec![
                9.0, 0.5, nan, nan, ninf, ninf, 1.0, 2.0, nan, ninf, //
                0.0, 2.0, nan, nan, ninf, ninf, 3.0, 4.0, ninf, nan,
            ],
        );
        let (_, arg) = forward(&x, 2);
        assert_eq!(arg, vec![0, 0, 0, 17, 0]);
        // Summed in output order these round differently from any other
        // order: 1 + 2^-24 + 2^-24 = 1, but 2^-24 + 2^-24 + 1 > 1.
        let e = f32::EPSILON / 2.0;
        let dx = check_backward(&x, 2, &[1.0, e, e, 5.0, -0.0]);
        assert_eq!(dx[0].to_bits(), 1f32.to_bits());
        assert_eq!(dx[17].to_bits(), 5f32.to_bits());
        assert_eq!(bits(&dx[1..17]), vec![0; 16]);
        // And with NaN gradients of two payloads meeting in index 0.
        let (p, q) = (f32::from_bits(0x7fc0_0011), f32::from_bits(0xffc0_0022));
        let dx = check_backward(&x, 2, &[1.0, p, q, 5.0, 2.0]);
        assert!(dx[0].is_nan());
    }

    #[test]
    fn maxpool_backward_of_a_negative_zero_gradient_is_positive_zero() {
        // 0.0 + -0.0 = +0.0: a routed -0.0 leaves the fresh +0.0; ties
        // route to the first position of their window, whatever `dx`'s
        // storage held before.
        let x = plane(
            2,
            6,
            vec![
                3.0, 3.0, -1.0, -2.0, 0.0, -0.0, //
                3.0, 3.0, -2.0, -1.0, -0.0, 0.0,
            ],
        );
        let (_, arg) = forward(&x, 2);
        assert_eq!(arg, vec![0, 2, 4]);
        let dx = check_backward(&x, 2, &[-0.0, -0.0, 7.0]);
        assert_eq!(dx[0].to_bits(), 0);
        assert_eq!(dx[2].to_bits(), 0);
        assert_eq!(dx[4].to_bits(), 7f32.to_bits());
        // Over the specials of every window position, both window sizes
        // and gradients of every sign, NaN included.
        let specials = [f32::NAN, -0.0, 0.0, f32::NEG_INFINITY, f32::INFINITY];
        let mut seed = 11u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize
        };
        for (n, c, h, w, k) in [(3, 5, 12, 12, 2), (2, 3, 9, 6, 3), (1, 1, 4, 34, 2)] {
            let value = |r: usize| {
                specials
                    .get(r % 16)
                    .copied()
                    .unwrap_or((r % 7) as f32 - 3.0)
            };
            let x: Vec<f32> = (0..n * c * h * w).map(|_| value(next())).collect();
            let dy: Vec<f32> = (0..n * c * (h / k) * (w / k))
                .map(|_| value(next()))
                .collect();
            let x = Tensor::from_vec(Shape::of(&[n, c, h, w]), x).unwrap();
            check_backward(&x, k, &dy);
        }
    }

    #[test]
    fn maxpool_without_argmax_pools_the_same() {
        let x = plane(2, 4, vec![1.0, 4.0, -0.0, f32::NAN, 2.0, 3.0, 0.0, -1.0]);
        let (y, _) = forward(&x, 2);
        let alone = maxpool2d_forward(&x, 2, None).unwrap();
        assert_eq!(bits(alone.as_slice()), bits(y.as_slice()));
    }

    #[test]
    fn maxpool_of_empty_planes_is_empty() {
        for k in [2, 3] {
            let x = Tensor::zeros(Shape::of(&[2, 3, 0, 6]));
            let (y, arg) = forward(&x, k);
            assert_eq!(y.shape(), Shape::of(&[2, 3, 0, 6 / k]));
            assert!(arg.is_empty());
        }
    }

    #[test]
    fn maxpool_rejects_indivisible() {
        let x = Tensor::zeros(Shape::of(&[1, 1, 5, 4]));
        assert!(maxpool2d_forward(&x, 2, None).is_err());
    }

    #[test]
    fn gap_is_mean() {
        let x = Tensor::from_vec(
            Shape::of(&[1, 2, 2, 2]),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
        )
        .unwrap();
        let y = global_avg_pool_forward(&x, &mut Reducer::sequential()).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
    }

    #[test]
    fn gap_backward_uniform() {
        let shape = Shape::of(&[1, 1, 2, 2]);
        let dy = Tensor::from_vec(Shape::of(&[1, 1]), vec![8.0]).unwrap();
        let dx = global_avg_pool_backward(shape, &dy).unwrap();
        assert_eq!(dx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn gap_gradient_check() {
        // L = Σ gap(x)², dL/dx must match finite differences.
        let x = Tensor::from_vec(Shape::of(&[1, 1, 2, 2]), vec![1.0, -2.0, 0.5, 3.0]).unwrap();
        let loss = |x: &Tensor| -> f64 {
            let y = global_avg_pool_forward(x, &mut Reducer::sequential()).unwrap();
            y.as_slice().iter().map(|&v| (v as f64).powi(2)).sum()
        };
        let y = global_avg_pool_forward(&x, &mut Reducer::sequential()).unwrap();
        let mut dy = y.clone();
        dy.scale(2.0);
        let dx = global_avg_pool_backward(x.shape(), &dy).unwrap();
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps as f64);
            assert!((fd - dx.as_slice()[i] as f64).abs() < 1e-3, "i={i}");
        }
    }
}
