//! Matrix multiplication with explicit accumulation order.
//!
//! The inner `k`-dimension reduction of every output element flows through
//! the [`Reducer`], so a nondeterministic device genuinely changes the
//! floating-point accumulation order of the matmul — the dominant source of
//! implementation noise on GPUs (split-K and atomic-accumulation kernels).
//!
//! Since the blocked engine landed, [`matmul`] is a thin wrapper over
//! [`crate::gemm`]: same signature, same bits, much faster.
//! The original per-element `*_reference` implementations are kept as the
//! oracle the engine is property-tested against (see `crate::gemm` tests
//! and `tests/proptests.rs`).

use crate::error::ShapeError;
use crate::gemm;
use crate::reduce::Reducer;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Computes `C = A × B` for row-major rank-2 tensors.
///
/// Runs on the blocked engine ([`crate::gemm::matmul_ws`]) with a private
/// single-threaded workspace; hot paths that call repeatedly should use
/// the `_ws` variant directly to reuse scratch buffers.
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not rank 2 or the inner
/// dimensions disagree.
///
/// # Example
///
/// ```
/// use nstensor::{matmul, Reducer, Shape, Tensor};
/// let a = Tensor::from_vec(Shape::of(&[2, 2]), vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::from_vec(Shape::of(&[2, 2]), vec![5.0, 6.0, 7.0, 8.0])?;
/// let c = matmul(&a, &b, &mut Reducer::sequential())?;
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok::<(), nstensor::ShapeError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor, red: &mut Reducer) -> Result<Tensor, ShapeError> {
    gemm::matmul_ws(a, b, red, 1, &mut Workspace::new())
}

/// Per-element reference `C = A × B`: one [`Reducer::dot`] per output, in
/// row-major order. The bit-identity oracle for the blocked engine.
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not rank 2 or the inner
/// dimensions disagree.
pub fn matmul_reference(a: &Tensor, b: &Tensor, red: &mut Reducer) -> Result<Tensor, ShapeError> {
    check_rank2("matmul", a, b)?;
    let (m, ka) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(ShapeError::mismatch("matmul", &a.shape(), &b.shape()));
    }
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    // Transpose B once so each dot runs over two contiguous slices.
    let bt = transpose_data(b);
    let av = a.as_slice();
    let ov = out.as_mut_slice();
    for i in 0..m {
        let arow = &av[i * ka..(i + 1) * ka];
        for j in 0..n {
            let bcol = &bt[j * kb..(j + 1) * kb];
            ov[i * n + j] = red.dot(arow, bcol);
        }
    }
    Ok(out)
}

/// Per-element reference `C = Aᵀ × B`. See [`matmul_reference`].
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not rank 2 or `A`'s rows do
/// not match `B`'s rows.
pub fn matmul_at_b_reference(
    a: &Tensor,
    b: &Tensor,
    red: &mut Reducer,
) -> Result<Tensor, ShapeError> {
    check_rank2("matmul_at_b", a, b)?;
    let (ka, m) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(ShapeError::mismatch("matmul_at_b", &a.shape(), &b.shape()));
    }
    // Materialize Aᵀ rows contiguously (columns of A).
    let at = transpose_data(a);
    let bt = transpose_data(b);
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    let ov = out.as_mut_slice();
    for i in 0..m {
        let arow = &at[i * ka..(i + 1) * ka];
        for j in 0..n {
            let bcol = &bt[j * kb..(j + 1) * kb];
            ov[i * n + j] = red.dot(arow, bcol);
        }
    }
    Ok(out)
}

/// Per-element reference `C = A × Bᵀ`. See [`matmul_reference`].
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not rank 2 or the column
/// counts disagree.
pub fn matmul_a_bt_reference(
    a: &Tensor,
    b: &Tensor,
    red: &mut Reducer,
) -> Result<Tensor, ShapeError> {
    check_rank2("matmul_a_bt", a, b)?;
    let (m, ka) = (a.shape().dim(0), a.shape().dim(1));
    let (n, kb) = (b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(ShapeError::mismatch("matmul_a_bt", &a.shape(), &b.shape()));
    }
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    let av = a.as_slice();
    let bv = b.as_slice();
    let ov = out.as_mut_slice();
    for i in 0..m {
        let arow = &av[i * ka..(i + 1) * ka];
        for j in 0..n {
            let brow = &bv[j * kb..(j + 1) * kb];
            ov[i * n + j] = red.dot(arow, brow);
        }
    }
    Ok(out)
}

pub(crate) fn check_rank2(op: &'static str, a: &Tensor, b: &Tensor) -> Result<(), ShapeError> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(ShapeError::new(
            op,
            format!(
                "expected rank-2 operands, got {} and {}",
                a.shape(),
                b.shape()
            ),
        ));
    }
    Ok(())
}

/// Returns the row-major data of the transpose of a rank-2 tensor.
fn transpose_data(t: &Tensor) -> Vec<f32> {
    let (r, c) = (t.shape().dim(0), t.shape().dim(1));
    let src = t.as_slice();
    let mut out = vec![0f32; r * c];
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = src[i * c + j];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReduceOrder;

    fn t(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::of(&[rows, cols]), data).unwrap()
    }

    #[test]
    fn small_matmul_reference() {
        let a = t(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b, &mut Reducer::sequential()).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = t(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let c = matmul(&a, &i, &mut Reducer::sequential()).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn inner_dim_mismatch_is_error() {
        let a = t(2, 3, vec![0.0; 6]);
        let b = t(2, 2, vec![0.0; 4]);
        assert!(matmul(&a, &b, &mut Reducer::sequential()).is_err());
        assert!(matmul_reference(&a, &b, &mut Reducer::sequential()).is_err());
    }

    #[test]
    fn rank_check() {
        let a = Tensor::zeros(Shape::of(&[2, 2, 1, 1]));
        let b = Tensor::zeros(Shape::of(&[2, 2]));
        assert!(matmul(&a, &b, &mut Reducer::sequential()).is_err());
        assert!(matmul_reference(&a, &b, &mut Reducer::sequential()).is_err());
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = t(3, 2, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]); // Aᵀ is 2x3 [1,2,3;4,5,6]
        let b = t(3, 2, vec![7.0, 10.0, 8.0, 11.0, 9.0, 12.0]);
        let c = gemm::matmul_at_b_ws(&a, &b, &mut Reducer::sequential(), 1, &mut Workspace::new())
            .unwrap();
        // Aᵀ·B = [[1,2,3],[4,5,6]] × [[7,10],[8,11],[9,12]]
        assert_eq!(c.as_slice(), &[50.0, 68.0, 122.0, 167.0]);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = t(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(2, 3, vec![7.0, 9.0, 11.0, 8.0, 10.0, 12.0]); // Bᵀ = [[7,8],[9,10],[11,12]]
        let c = gemm::matmul_a_bt_ws(&a, &b, &mut Reducer::sequential(), 1, &mut Workspace::new())
            .unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn permuted_order_stays_close_to_reference() {
        let n = 24;
        let a = t(
            n,
            n,
            (0..n * n).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect(),
        );
        let b = t(
            n,
            n,
            (0..n * n).map(|i| ((i % 7) as f32 - 3.0) * 0.2).collect(),
        );
        let reference = matmul(&a, &b, &mut Reducer::sequential()).unwrap();
        let mut red = Reducer::new(ReduceOrder::Permuted, 32, 77);
        let c = matmul(&a, &b, &mut red).unwrap();
        for (x, y) in c.as_slice().iter().zip(reference.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn fixed_tree_matmul_is_bitwise_stable() {
        let n = 16;
        let a = t(n, n, (0..n * n).map(|i| (i as f32).sin()).collect());
        let b = t(n, n, (0..n * n).map(|i| (i as f32).cos()).collect());
        let mut r1 = Reducer::new(ReduceOrder::FixedTree, 32, 1);
        let mut r2 = Reducer::new(ReduceOrder::FixedTree, 32, 2);
        let c1 = matmul(&a, &b, &mut r1).unwrap();
        let c2 = matmul(&a, &b, &mut r2).unwrap();
        assert_eq!(c1.as_slice(), c2.as_slice());
    }
}
