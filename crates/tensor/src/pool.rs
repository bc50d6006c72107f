//! Pooling operations.
//!
//! Max-pooling selects rather than accumulates, so it introduces no
//! floating-point-order sensitivity of its own; global average pooling does
//! reduce and therefore takes a [`Reducer`]. A 2×2 max-pool runs as
//! `tile::max_pool_2x2`, which has a 512-bit form; every other window
//! runs the scalar loop, `max_pool`, which is also the 2×2 step's
//! portable form.

use crate::error::ShapeError;
use crate::reduce::Reducer;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::tile;

/// Forward 2-D max pooling with square window `k` and stride `k`
/// (non-overlapping), input `[N, C, H, W]`.
///
/// Returns the pooled tensor and the flat argmax index (within the sample's
/// channel plane) for each output element, needed by the backward pass.
///
/// # Errors
///
/// Returns [`ShapeError`] if the input is not rank 4 or not divisible by `k`.
pub fn maxpool2d_forward(input: &Tensor, k: usize) -> Result<(Tensor, Vec<u32>), ShapeError> {
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
    let mut arg = vec![0u32; n * c * oh * ow];
    let (xv, ov) = (input.as_slice(), out.as_mut_slice());
    if k == 2 {
        tile::max_pool_2x2(xv, h, w, ov, &mut arg);
    } else {
        max_pool(xv, h, w, k, ov, &mut arg);
    }
    Ok((out, arg))
}

/// Max-pools the `h × w` planes of `x` with window and stride `k` into
/// `out` and `arg`, one output at a time: each output starts at `-inf`
/// with index 0 of its plane and takes every value of its window greater
/// than the best so far, in `(dy, dx)` order. So a tie keeps the first
/// position, a NaN is never taken, and a window with nothing above
/// `-inf` gives `-inf` at index 0.
pub(crate) fn max_pool(x: &[f32], h: usize, w: usize, k: usize, out: &mut [f32], arg: &mut [u32]) {
    let (oh, ow) = (h / k, w / k);
    if out.is_empty() {
        return;
    }
    let outputs = out
        .chunks_exact_mut(oh * ow)
        .zip(arg.chunks_exact_mut(oh * ow));
    for (plane, (out, arg)) in x.chunks_exact(h * w).zip(outputs) {
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
                arg[oy * ow + ox] = best_i as u32;
            }
        }
    }
}

/// Backward 2-D max pooling: routes each output gradient to its argmax.
///
/// # Errors
///
/// Returns [`ShapeError`] if `dy` does not match the pooled shape implied by
/// `input_shape` and `k`.
pub fn maxpool2d_backward(
    input_shape: Shape,
    k: usize,
    dy: &Tensor,
    argmax: &[u32],
) -> Result<Tensor, ShapeError> {
    let (n, c, h, w) = (
        input_shape.dim(0),
        input_shape.dim(1),
        input_shape.dim(2),
        input_shape.dim(3),
    );
    let (oh, ow) = (h / k, w / k);
    if dy.shape() != Shape::of(&[n, c, oh, ow]) || argmax.len() != dy.len() {
        return Err(ShapeError::new("maxpool2d_backward", "dy/argmax mismatch"));
    }
    let mut dx = Tensor::zeros(input_shape);
    let dyv = dy.as_slice();
    let dxv = dx.as_mut_slice();
    for s in 0..n {
        for ch in 0..c {
            let base = (s * c + ch) * h * w;
            for o in (s * c + ch) * oh * ow..(s * c + ch + 1) * oh * ow {
                dxv[base + argmax[o] as usize] += dyv[o];
            }
        }
    }
    Ok(dx)
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
        let (y, arg) = maxpool2d_forward(&x, 2).unwrap();
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
        let (y, arg) = maxpool2d_forward(&x, 2).unwrap();
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
        let (y, arg) = maxpool2d_forward(&x, 2).unwrap();
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
        let (y, arg) = maxpool2d_forward(&x, 2).unwrap();
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
        let (y, arg) = maxpool2d_forward(&x, 2).unwrap();
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
            let (y, arg) = maxpool2d_forward(&t, k).unwrap();
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
        let (_, arg) = maxpool2d_forward(&x, 2).unwrap();
        let dy = Tensor::from_vec(Shape::of(&[1, 1, 1, 1]), vec![5.0]).unwrap();
        let dx = maxpool2d_backward(x.shape(), 2, &dy, &arg).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_of_empty_planes_is_empty() {
        for k in [2, 3] {
            let x = Tensor::zeros(Shape::of(&[2, 3, 0, 6]));
            let (y, arg) = maxpool2d_forward(&x, k).unwrap();
            assert_eq!(y.shape(), Shape::of(&[2, 3, 0, 6 / k]));
            assert!(arg.is_empty());
        }
    }

    #[test]
    fn maxpool_rejects_indivisible() {
        let x = Tensor::zeros(Shape::of(&[1, 1, 5, 4]));
        assert!(maxpool2d_forward(&x, 2).is_err());
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
