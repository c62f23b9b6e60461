//! 4-D `f32` tensor in NCHW layout.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::Shape4;

/// A dense 4-D tensor of `f32` values in row-major NCHW order.
///
/// `Tensor4` is the storage for feature maps, weights and gradients in the
/// functional (numerically executed) part of the reproduction. It favours
/// simplicity and determinism over raw speed: everything the paper's
/// evaluation needs runs in seconds at the layer sizes used in tests.
///
/// # Examples
///
/// ```
/// use wmpt_tensor::{Shape4, Tensor4};
///
/// let mut t = Tensor4::zeros(Shape4::new(1, 1, 2, 2));
/// t[(0, 0, 0, 0)] = 1.0;
/// t[(0, 0, 1, 1)] = 2.0;
/// assert_eq!(t.as_slice(), &[1.0, 0.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor4 {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape4) -> Self {
        Self {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape4, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Immutable view of the underlying storage in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(n, c, h, w)`, or `0.0` when `(h, w)` falls outside the
    /// spatial extent (used for implicit zero padding during convolution
    /// and tiling).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `n` or `c` is out of bounds.
    #[inline]
    pub fn get_padded(&self, n: usize, c: usize, h: isize, w: isize) -> f32 {
        if h < 0 || w < 0 || h as usize >= self.shape.h || w as usize >= self.shape.w {
            0.0
        } else {
            self[(n, c, h as usize, w as usize)]
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// [`Self::map_inplace`] for a `Sync` map, over a
    /// [`wmpt_par::ParPool`]; the same bits for any job count (see
    /// [`crate::ops::par_map_slice`]).
    pub fn par_map_inplace<F>(&mut self, pool: &wmpt_par::ParPool, f: F)
    where
        F: Fn(f32) -> f32 + Sync,
    {
        crate::ops::par_map_slice(pool, &mut self.data, f);
    }

    /// Element-wise sum with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor4) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Largest absolute difference to another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor4) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Largest absolute element value.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).fold(0.0, f32::max)
    }

    /// Fraction of elements equal to zero (used by the zero-skipping
    /// traffic model).
    pub fn zero_fraction(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|v| **v == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }
}

impl Index<(usize, usize, usize, usize)> for Tensor4 {
    type Output = f32;

    #[inline]
    fn index(&self, (n, c, h, w): (usize, usize, usize, usize)) -> &f32 {
        &self.data[self.shape.index(n, c, h, w)]
    }
}

impl IndexMut<(usize, usize, usize, usize)> for Tensor4 {
    #[inline]
    fn index_mut(&mut self, (n, c, h, w): (usize, usize, usize, usize)) -> &mut f32 {
        let i = self.shape.index(n, c, h, w);
        &mut self.data[i]
    }
}

impl fmt::Display for Tensor4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor4{} ({} elements)", self.shape, self.shape.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tensor4 {
        Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0])
    }

    #[test]
    fn zeros_is_all_zero() {
        let t = Tensor4::zeros(Shape4::new(2, 2, 2, 2));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(t.zero_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_wrong_length() {
        let _ = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![0.0; 3]);
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor4::zeros(Shape4::new(2, 3, 4, 5));
        t[(1, 2, 3, 4)] = 7.0;
        assert_eq!(t[(1, 2, 3, 4)], 7.0);
        assert_eq!(t.as_slice()[t.shape().index(1, 2, 3, 4)], 7.0);
    }

    #[test]
    fn padded_access_returns_zero_outside() {
        let t = small();
        assert_eq!(t.get_padded(0, 0, -1, 0), 0.0);
        assert_eq!(t.get_padded(0, 0, 0, 2), 0.0);
        assert_eq!(t.get_padded(0, 0, 1, 1), 4.0);
    }

    #[test]
    fn map_scale_add() {
        let mut t = small();
        t.map_inplace(|v| v + 1.0);
        assert_eq!(t.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        t.scale(2.0);
        assert_eq!(t.as_slice(), &[4.0, 6.0, 8.0, 10.0]);
        let u = small();
        t.add_assign(&u);
        assert_eq!(t.as_slice(), &[5.0, 8.0, 11.0, 14.0]);
    }

    #[test]
    fn diff_and_zero_fraction() {
        let t = small();
        let mut u = small();
        u[(0, 0, 1, 0)] = 0.0;
        assert_eq!(t.max_abs_diff(&u), 3.0);
        assert_eq!(u.zero_fraction(), 0.25);
        assert_eq!(t.max_abs(), 4.0);
    }
}
