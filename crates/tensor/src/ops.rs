//! Elementwise operations and axis reductions.
//!
//! Elementwise maps are order-insensitive and never touch the reducer; any
//! function here that *accumulates* takes a [`Reducer`].
//!
//! The ReLU works in place on the activation and writes its mask, one
//! byte per element, into a vector the caller owns and may keep from
//! step to step ([`relu_forward`]); its backward multiplies the gradient
//! by that byte as an `f32`, in place ([`relu_backward`]).

use crate::error::ShapeError;
use crate::reduce::Reducer;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// In-place ReLU, and the mask its backward pass reads.
///
/// Each element becomes itself where it is greater than zero and `+0.0`
/// everywhere else (NaN, `-0.0` and every negative included), in one
/// branch-free pass. With a `mask`, the same pass writes one byte per
/// element, 1 where the element was kept and 0 where it was zeroed,
/// after resizing the vector to `x.len()` (which writes nothing when the
/// length is unchanged): a caller that keeps the vector from step to
/// step keeps its storage, and every byte is rewritten each call, so no
/// stale byte survives. Without one, as in
/// inference, nothing but `x` is written.
pub fn relu_forward(x: &mut Tensor, mask: Option<&mut Vec<u8>>) {
    let xv = x.as_mut_slice();
    match mask {
        Some(mask) => {
            mask.resize(xv.len(), 0);
            for (v, m) in xv.iter_mut().zip(mask.iter_mut()) {
                let keep = *v > 0.0;
                *v = if keep { *v } else { 0.0 };
                *m = u8::from(keep);
            }
        }
        None => {
            for v in xv {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
    }
}

/// Backward ReLU: `dx = dy ⊙ mask` in place on `dy`, as `g * 1.0` or
/// `g * 0.0` per element, so a NaN gradient stays NaN, payload and all,
/// an infinite one under a zero mask becomes NaN, and `-0.0` keeps its
/// sign under a one.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn relu_backward(dy: &mut Tensor, mask: &[u8]) {
    assert_eq!(dy.len(), mask.len(), "relu mask length mismatch");
    for (g, &m) in dy.as_mut_slice().iter_mut().zip(mask) {
        *g *= f32::from(m);
    }
}

/// Adds a row vector `bias` (`[C]`) to every row of a `[N, C]` tensor.
///
/// # Errors
///
/// Returns [`ShapeError`] on mismatch.
pub fn add_row_bias(x: &mut Tensor, bias: &Tensor) -> Result<(), ShapeError> {
    if x.shape().rank() != 2 || bias.shape() != Shape::of(&[x.shape().dim(1)]) {
        return Err(ShapeError::mismatch(
            "add_row_bias",
            &x.shape(),
            &bias.shape(),
        ));
    }
    let c = x.shape().dim(1);
    let bv = bias.as_slice().to_vec();
    for row in x.as_mut_slice().chunks_mut(c) {
        for (v, b) in row.iter_mut().zip(&bv) {
            *v += b;
        }
    }
    Ok(())
}

/// Sums a `[N, C]` tensor over rows, producing `[C]`. The per-column sum is
/// a cross-data-point reduction and goes through the reducer.
///
/// # Errors
///
/// Returns [`ShapeError`] if the input is not rank 2.
pub fn sum_rows(x: &Tensor, red: &mut Reducer) -> Result<Tensor, ShapeError> {
    if x.shape().rank() != 2 {
        return Err(ShapeError::new("sum_rows", "expected rank-2 input"));
    }
    let (n, c) = (x.shape().dim(0), x.shape().dim(1));
    let mut out = Tensor::zeros(Shape::of(&[c]));
    let xv = x.as_slice();
    for (j, o) in out.as_mut_slice().iter_mut().enumerate() {
        *o = red.sum_strided(xv, j, c, n);
    }
    Ok(out)
}

/// Per-channel mean and (biased) variance of a `[N, C, H, W]` tensor —
/// batch-norm statistics. Both accumulations go through the reducer, which
/// is precisely why batch-norm interacts with implementation noise.
///
/// # Errors
///
/// Returns [`ShapeError`] if the input is not rank 4.
pub fn channel_mean_var(x: &Tensor, red: &mut Reducer) -> Result<(Vec<f32>, Vec<f32>), ShapeError> {
    if x.shape().rank() != 4 {
        return Err(ShapeError::new("channel_mean_var", "expected rank-4 input"));
    }
    let (n, c, h, w) = (
        x.shape().dim(0),
        x.shape().dim(1),
        x.shape().dim(2),
        x.shape().dim(3),
    );
    let hw = h * w;
    let count = (n * hw) as f32;
    let xv = x.as_slice();
    let mut means = vec![0f32; c];
    let mut vars = vec![0f32; c];
    let mut scratch = vec![0f32; n * hw];
    for ch in 0..c {
        // Gather the channel across the batch so the reduction spans data
        // points (the cross-sample accumulation order matters).
        for s in 0..n {
            let src = &xv[(s * c + ch) * hw..(s * c + ch + 1) * hw];
            scratch[s * hw..(s + 1) * hw].copy_from_slice(src);
        }
        let mean = red.sum(&scratch) / count;
        let mut sq = vec![0f32; n * hw];
        for (d, &v) in sq.iter_mut().zip(scratch.iter()) {
            let dv = v - mean;
            *d = dv * dv;
        }
        let var = red.sum(&sq) / count;
        means[ch] = mean;
        vars[ch] = var;
    }
    Ok((means, vars))
}

/// Numerically stable row-wise softmax of a `[N, C]` tensor, in place.
///
/// # Errors
///
/// Returns [`ShapeError`] if the input is not rank 2.
pub fn softmax_rows(x: &mut Tensor) -> Result<(), ShapeError> {
    if x.shape().rank() != 2 {
        return Err(ShapeError::new("softmax_rows", "expected rank-2 input"));
    }
    let c = x.shape().dim(1);
    for row in x.as_mut_slice().chunks_mut(c) {
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0f32;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            z += *v;
        }
        let inv = 1.0 / z;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_round_trip() {
        let mut x = Tensor::from_vec(Shape::of(&[4]), vec![-1.0, 2.0, 0.0, 3.0]).unwrap();
        let mut mask = Vec::new();
        relu_forward(&mut x, Some(&mut mask));
        assert_eq!(x.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
        assert_eq!(mask, vec![0, 1, 0, 1]);
        let mut dy = Tensor::from_vec(Shape::of(&[4]), vec![1.0; 4]).unwrap();
        relu_backward(&mut dy, &mask);
        assert_eq!(dy.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    /// The ReLU forward with an `f32` mask, kept as the reference the
    /// byte-mask pass must match bit for bit.
    fn relu_forward_reference(x: &mut [f32]) -> Vec<f32> {
        let mut mask = vec![0f32; x.len()];
        for (v, m) in x.iter_mut().zip(&mut mask) {
            if *v > 0.0 {
                *m = 1.0;
            } else {
                *v = 0.0;
            }
        }
        mask
    }

    /// The values whose bits a ReLU must keep or zero exactly: NaN
    /// payloads of both signs, both zeros, both infinities, subnormals
    /// and normal values of both signs.
    fn relu_specials() -> Vec<f32> {
        [
            0x7fc0_0000u32,
            0x7fc0_0001,
            0x7f80_0001,
            0xffc0_0000,
            0xffc0_0007,
            0xff80_0003,
            0x0000_0000,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x0000_0001,
            0x8000_0001,
            0x007f_ffff,
            0x807f_ffff,
            0x3f80_0000,
            0xbf80_0000,
            0x4049_0fdb,
            0xc049_0fdb,
        ]
        .map(f32::from_bits)
        .to_vec()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn relu_matches_the_f32_mask_reference_bit_for_bit() {
        let sp = relu_specials();
        // Every special as x against every special as dy, and a kept
        // mask that starts longer, then shorter, than x.
        let x: Vec<f32> = sp.iter().flat_map(|&v| sp.iter().map(move |_| v)).collect();
        let dy: Vec<f32> = sp.iter().flat_map(|_| sp.iter().copied()).collect();
        let shape = Shape::of(&[x.len()]);
        for kept in [vec![7u8; x.len() + 5], vec![9u8; 3]] {
            let mut mask = kept;
            let mut y = Tensor::from_vec(shape, x.clone()).unwrap();
            relu_forward(&mut y, Some(&mut mask));
            let mut y0 = x.clone();
            let mask0 = relu_forward_reference(&mut y0);
            assert_eq!(bits(y.as_slice()), bits(&y0));
            assert_eq!(
                mask.iter().map(|&m| f32::from(m)).collect::<Vec<_>>(),
                mask0
            );
            let mut dx = Tensor::from_vec(shape, dy.clone()).unwrap();
            relu_backward(&mut dx, &mask);
            let dx0: Vec<f32> = dy.iter().zip(&mask0).map(|(&g, &m)| g * m).collect();
            assert_eq!(bits(dx.as_slice()), bits(&dx0));
            // Inference writes the same output and no mask.
            let mut z = Tensor::from_vec(shape, x.clone()).unwrap();
            relu_forward(&mut z, None);
            assert_eq!(bits(z.as_slice()), bits(&y0));
        }
    }

    #[test]
    fn bias_broadcasts_over_rows() {
        let mut x = Tensor::zeros(Shape::of(&[2, 3]));
        let b = Tensor::from_vec(Shape::of(&[3]), vec![1.0, 2.0, 3.0]).unwrap();
        add_row_bias(&mut x, &b).unwrap();
        assert_eq!(x.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let bad = Tensor::zeros(Shape::of(&[4]));
        assert!(add_row_bias(&mut x, &bad).is_err());
    }

    #[test]
    fn sum_rows_reference() {
        let x =
            Tensor::from_vec(Shape::of(&[3, 2]), vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0]).unwrap();
        let s = sum_rows(&x, &mut Reducer::sequential()).unwrap();
        assert_eq!(s.as_slice(), &[6.0, 60.0]);
    }

    #[test]
    fn channel_stats_reference() {
        // Channel 0: values 1..4 → mean 2.5, var 1.25. Channel 1: constant.
        let x = Tensor::from_vec(
            Shape::of(&[2, 2, 1, 2]),
            vec![1.0, 2.0, 7.0, 7.0, 3.0, 4.0, 7.0, 7.0],
        )
        .unwrap();
        let (m, v) = channel_mean_var(&x, &mut Reducer::sequential()).unwrap();
        assert!((m[0] - 2.5).abs() < 1e-6);
        assert!((v[0] - 1.25).abs() < 1e-6);
        assert!((m[1] - 7.0).abs() < 1e-6);
        assert!(v[1].abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let mut x = Tensor::from_vec(
            Shape::of(&[2, 3]),
            vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0],
        )
        .unwrap();
        softmax_rows(&mut x).unwrap();
        for row in x.as_slice().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p.is_finite() && p >= 0.0));
        }
        // Monotonicity within the first row.
        assert!(x.get2(0, 0) < x.get2(0, 1));
        assert!(x.get2(0, 1) < x.get2(0, 2));
    }
}
