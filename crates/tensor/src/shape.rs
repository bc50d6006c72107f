//! Tensor shapes: up to four dimensions (`[N, C, H, W]` convention).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum supported rank.
pub const MAX_RANK: usize = 4;

/// A tensor shape of rank 0..=4.
///
/// # Example
///
/// ```
/// use nstensor::Shape;
/// let s = Shape::of(&[2, 3, 4, 4]);
/// assert_eq!(s.rank(), 4);
/// assert_eq!(s.len(), 96);
/// assert_eq!(s.dim(1), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Creates a shape from a dimension list.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_RANK`] dimensions are given.
    pub fn of(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds MAX_RANK {MAX_RANK}",
            dims.len()
        );
        let mut d = [1usize; MAX_RANK];
        d[..dims.len()].copy_from_slice(dims);
        Self {
            dims: d,
            rank: dims.len(),
        }
    }

    /// A scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Self::of(&[])
    }

    /// The rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank`.
    pub fn dim(&self, i: usize) -> usize {
        assert!(i < self.rank, "dim {i} out of range for rank {}", self.rank);
        self.dims[i]
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.dims[..self.rank].iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat offset of a 2-D index (row-major).
    #[inline]
    pub fn offset2(&self, i: usize, j: usize) -> usize {
        debug_assert_eq!(self.rank, 2);
        i * self.dims[1] + j
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<(usize, usize)> for Shape {
    fn from((a, b): (usize, usize)) -> Self {
        Shape::of(&[a, b])
    }
}

impl From<(usize, usize, usize, usize)> for Shape {
    fn from((a, b, c, d): (usize, usize, usize, usize)) -> Self {
        Shape::of(&[a, b, c, d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn len_is_product() {
        assert_eq!(Shape::of(&[3, 4, 5]).len(), 60);
        assert_eq!(Shape::of(&[7]).len(), 7);
    }

    #[test]
    fn zero_dim_is_empty() {
        assert!(Shape::of(&[3, 0, 5]).is_empty());
    }

    #[test]
    fn offsets_are_row_major() {
        let s2 = Shape::of(&[3, 4]);
        assert_eq!(s2.offset2(0, 0), 0);
        assert_eq!(s2.offset2(1, 0), 4);
        assert_eq!(s2.offset2(2, 3), 11);
    }

    #[test]
    fn display_lists_dims() {
        assert_eq!(Shape::of(&[2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn rank_five_panics() {
        Shape::of(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn tuple_conversions() {
        assert_eq!(Shape::from((2, 3)), Shape::of(&[2, 3]));
        assert_eq!(Shape::from((1, 2, 3, 4)), Shape::of(&[1, 2, 3, 4]));
    }
}
