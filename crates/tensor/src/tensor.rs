//! The dense `f32` tensor container.

use crate::error::ShapeError;
use crate::shape::Shape;
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is a plain data container; all numerically interesting
/// operations (matmul, conv, pooling, reductions) live in free functions
/// that take a [`crate::Reducer`], so that *every* reduction's accumulation
/// order is explicit.
///
/// # Example
///
/// ```
/// use nstensor::{Shape, Tensor};
/// let t = Tensor::zeros(Shape::of(&[2, 3]));
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.get2(1, 2), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape) -> Self {
        Self {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        Self {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != shape.len() {
            return Err(ShapeError::new(
                "from_vec",
                format!("data length {} != shape volume {}", data.len(), shape.len()),
            ));
        }
        Ok(Self { shape, data })
    }

    /// The shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the tensor is not rank 2 or the index is
    /// out of bounds.
    #[inline]
    pub fn get2(&self, i: usize, j: usize) -> f32 {
        self.data[self.shape.offset2(i, j)]
    }

    /// Reinterprets the tensor with a new shape of identical volume.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the volumes differ.
    pub fn reshape(mut self, shape: Shape) -> Result<Self, ShapeError> {
        if shape.len() != self.data.len() {
            return Err(ShapeError::new(
                "reshape",
                format!("cannot reshape {} elements into {shape}", self.data.len()),
            ));
        }
        self.shape = shape;
        Ok(self)
    }

    /// Adds `other` element-wise in place.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::mismatch(
                "add_assign",
                &self.shape,
                &other.shape,
            ));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Scales every element in place.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// The Euclidean norm of the flattened tensor (accumulated in f64 for
    /// metric stability; this is *measurement*, not simulated computation).
    pub fn norm(&self) -> f64 {
        crate::reduce::sum_ordered_f64(self.data.iter().map(|&x| (x as f64) * (x as f64))).sqrt()
    }
}

#[cfg(test)]
// Tests assert exact float values: bit-identical replay is the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(Shape::of(&[4]));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Tensor::full(Shape::of(&[4]), 2.5);
        assert!(f.as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::of(&[2, 2]), vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(Shape::of(&[2, 2]), vec![1.0; 5]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape::of(&[2, 3]), (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshape(Shape::of(&[3, 2])).unwrap();
        assert_eq!(r.get2(2, 1), 5.0);
        assert!(r.clone().reshape(Shape::of(&[7])).is_err());
    }

    #[test]
    fn add_assign_checks_shape() {
        let mut a = Tensor::full(Shape::of(&[2]), 1.0);
        let b = Tensor::full(Shape::of(&[2]), 2.0);
        a.add_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[3.0, 3.0]);
        let c = Tensor::zeros(Shape::of(&[3]));
        assert!(a.add_assign(&c).is_err());
    }

    #[test]
    fn norm_matches_hand_value() {
        let t = Tensor::from_vec(Shape::of(&[2]), vec![3.0, 4.0]).unwrap();
        assert!((t.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn scale_multiplies_every_element() {
        let mut t = Tensor::from_vec(Shape::of(&[3]), vec![1.0, -2.0, 3.0]).unwrap();
        t.scale(2.0);
        assert_eq!(t.as_slice(), &[2.0, -4.0, 6.0]);
    }
}
