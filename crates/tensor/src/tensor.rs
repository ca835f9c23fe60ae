use std::fmt;
use std::ops::{Index, IndexMut, Range};

use crate::alloc::note_alloc;

/// Unroll width of the element-wise kernels. Eight `f32` lanes fill one
/// 256-bit vector register, and the fixed-size inner loops below are written
/// so the autovectorizer can turn them into straight-line SIMD without any
/// `unsafe` or platform intrinsics.
pub(crate) const LANES: usize = 8;

/// Applies `a[i] = f(a[i], b[i])` over two equal-length slices with an
/// 8-wide unrolled main loop. All element-wise binary kernels funnel through
/// this helper, so they share one autovectorizer-friendly shape.
#[inline]
pub(crate) fn zip_apply(a: &mut [f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(a.len(), b.len());
    let mut ac = a.chunks_exact_mut(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ac).zip(&mut bc) {
        for l in 0..LANES {
            xa[l] = f(xa[l], xb[l]);
        }
    }
    for (x, y) in ac.into_remainder().iter_mut().zip(bc.remainder()) {
        *x = f(*x, *y);
    }
}

/// Applies `a[i] = f(a[i])` with an 8-wide unrolled main loop.
#[inline]
pub(crate) fn map_apply(a: &mut [f32], f: impl Fn(f32) -> f32) {
    let mut ac = a.chunks_exact_mut(LANES);
    for xa in &mut ac {
        for x in xa.iter_mut() {
            *x = f(*x);
        }
    }
    for x in ac.into_remainder() {
        *x = f(*x);
    }
}

/// A flat, heap-allocated buffer of `f32` values.
///
/// `Tensor` is the payload type exchanged by every collective in this
/// workspace. It deliberately has no shape information: gradients and model
/// parameters are always flattened before synchronization, which is exactly
/// what Horovod-style AllReduce implementations do ("tensor fusion").
///
/// All arithmetic is in-place where possible so that the simulator never
/// allocates in its hot loop; fresh-buffer constructors feed the debug
/// [`alloc`](crate::alloc) counter so the zero-allocation claim is testable.
///
/// # Examples
///
/// ```
/// use rna_tensor::Tensor;
///
/// let mut g = Tensor::zeros(4);
/// g.axpy(2.0, &Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0]));
/// assert_eq!(g.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
/// ```
#[derive(PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of `len` zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// let t = rna_tensor::Tensor::zeros(3);
    /// assert_eq!(t.as_slice(), &[0.0, 0.0, 0.0]);
    /// ```
    pub fn zeros(len: usize) -> Self {
        note_alloc();
        Tensor {
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(len: usize, value: f32) -> Self {
        note_alloc();
        Tensor {
            data: vec![value; len],
        }
    }

    /// Wraps an existing vector without copying.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Tensor { data }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the tensor payload in bytes when serialized on the wire
    /// (4 bytes per `f32`).
    pub fn byte_len(&self) -> u64 {
        self.data.len() as u64 * 4
    }

    /// Borrows the underlying data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Element-wise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.len(), other.len(), "tensor length mismatch in add");
        zip_apply(&mut self.data, &other.data, |a, b| a + b);
    }

    /// Element-wise `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn sub_assign(&mut self, other: &Tensor) {
        assert_eq!(self.len(), other.len(), "tensor length mismatch in sub");
        zip_apply(&mut self.data, &other.data, |a, b| a - b);
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        map_apply(&mut self.data, |a| a * s);
    }

    /// `self += alpha * other` (the BLAS `axpy` primitive).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.len(), other.len(), "tensor length mismatch in axpy");
        zip_apply(&mut self.data, &other.data, |a, b| a + alpha * b);
    }

    /// Fused `self = (self + alpha * other) * s` in one pass.
    ///
    /// Equivalent to `axpy(alpha, other)` followed by `scale(s)` (the scale
    /// distributes over the sum only in exact arithmetic, so this computes
    /// the same expression element-wise, not the algebraic rearrangement)
    /// but touches memory once instead of twice.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy_scale(&mut self, alpha: f32, other: &Tensor, s: f32) {
        assert_eq!(self.len(), other.len(), "tensor length mismatch in axpy");
        zip_apply(&mut self.data, &other.data, |a, b| (a + alpha * b) * s);
    }

    /// Linear interpolation toward `other`: `self = (1 - t) * self + t * other`.
    ///
    /// AD-PSGD pairwise model averaging is `lerp` with `t = 0.5`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn lerp(&mut self, other: &Tensor, t: f32) {
        assert_eq!(self.len(), other.len(), "tensor length mismatch in lerp");
        zip_apply(&mut self.data, &other.data, |a, b| (1.0 - t) * a + t * b);
    }

    /// Euclidean (L2) norm: the square root of [`crate::simd::sum_squares`].
    pub fn norm_l2(&self) -> f32 {
        crate::simd::sum_squares(&self.data).sqrt()
    }

    /// Maximum absolute element, or 0.0 for an empty tensor.
    pub fn norm_inf(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Copies `other` into `self` (keeping `self`'s allocation when lengths
    /// match).
    pub fn copy_from(&mut self, other: &Tensor) {
        if self.len() == other.len() {
            self.data.copy_from_slice(&other.data);
        } else {
            note_alloc();
            self.data = other.data.clone();
        }
    }

    /// Returns a sub-tensor covering `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Tensor {
        note_alloc();
        Tensor {
            data: self.data[range].to_vec(),
        }
    }

    /// Writes `chunk` into `self` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + chunk.len()` exceeds the tensor length.
    pub fn write_chunk(&mut self, offset: usize, chunk: &Tensor) {
        self.data[offset..offset + chunk.len()].copy_from_slice(&chunk.data);
    }

    /// Element-wise `self[range] += chunk`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + chunk.len()` exceeds the tensor length.
    pub fn add_chunk(&mut self, offset: usize, chunk: &Tensor) {
        zip_apply(
            &mut self.data[offset..offset + chunk.len()],
            &chunk.data,
            |a, b| a + b,
        );
    }

    /// Whether all elements are within `tol` of the corresponding element of
    /// `other`. Returns `false` if lengths differ.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.len() == other.len()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Clips every element into `[-bound, bound]`. Used for gradient
    /// clipping in the training substrate.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is negative or NaN.
    pub fn clip(&mut self, bound: f32) {
        assert!(bound >= 0.0, "clip bound must be non-negative");
        map_apply(&mut self.data, |v| v.clamp(-bound, bound));
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        note_alloc();
        Tensor {
            data: self.data.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Reuses the existing buffer when lengths match (and is then not a
        // fresh allocation for the debug counter).
        self.copy_from(source);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 8 {
            write!(f, "Tensor{:?}", self.data)
        } else {
            write!(
                f,
                "Tensor[len={}, l2={:.4}, head={:?}...]",
                self.len(),
                self.norm_l2(),
                &self.data[..4]
            )
        }
    }
}

impl Index<usize> for Tensor {
    type Output = f32;

    fn index(&self, index: usize) -> &f32 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Tensor {
    fn index_mut(&mut self, index: usize) -> &mut f32 {
        &mut self.data[index]
    }
}

impl From<Vec<f32>> for Tensor {
    fn from(data: Vec<f32>) -> Self {
        Tensor { data }
    }
}

impl FromIterator<f32> for Tensor {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        note_alloc();
        Tensor {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f32> for Tensor {
    fn extend<I: IntoIterator<Item = f32>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Tensor {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let t = Tensor::zeros(5);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        assert!(Tensor::zeros(0).is_empty());
    }

    #[test]
    fn byte_len_is_four_per_element() {
        assert_eq!(Tensor::zeros(10).byte_len(), 40);
        assert_eq!(Tensor::zeros(0).byte_len(), 0);
    }

    #[test]
    fn add_sub_scale() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![3.0, 4.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[4.0, 6.0]);
        a.sub_assign(&b);
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn kernels_cover_unrolled_body_and_remainder() {
        // 19 = 2 full 8-lane blocks + a 3-element tail: exercises both paths.
        let n = 19;
        let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 3.0).collect();
        let y: Vec<f32> = (0..n).map(|i| (i * i) as f32 * 0.25).collect();
        let mut a = Tensor::from_vec(x.clone());
        a.axpy(-0.75, &Tensor::from_vec(y.clone()));
        for i in 0..n {
            assert_eq!(a.as_slice()[i], x[i] + -0.75 * y[i], "lane {i}");
        }
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0]);
        a.axpy(-0.5, &Tensor::from_vec(vec![2.0, 4.0]));
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn axpy_scale_fuses_bit_exactly() {
        let n = 21;
        let x: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let y: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
        let mut fused = Tensor::from_vec(x.clone());
        fused.axpy_scale(1.25, &Tensor::from_vec(y.clone()), 0.1);
        let mut twopass = Tensor::from_vec(x);
        twopass.axpy(1.25, &Tensor::from_vec(y));
        twopass.scale(0.1);
        assert_eq!(fused, twopass);
    }

    #[test]
    fn lerp_half_is_average() {
        let mut a = Tensor::from_vec(vec![0.0, 2.0]);
        a.lerp(&Tensor::from_vec(vec![2.0, 0.0]), 0.5);
        assert_eq!(a.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn dot_and_norms() {
        let a = Tensor::from_vec(vec![3.0, 4.0]);
        assert_eq!(a.norm_l2(), 5.0);
        assert_eq!(a.norm_inf(), 4.0);
    }

    #[test]
    fn norm_inf_of_negative_values() {
        let a = Tensor::from_vec(vec![-9.0, 4.0]);
        assert_eq!(a.norm_inf(), 9.0);
    }

    #[test]
    fn slice_and_chunk_roundtrip() {
        let a = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0]);
        let s = a.slice(1..3);
        assert_eq!(s.as_slice(), &[1.0, 2.0]);
        let mut b = Tensor::zeros(4);
        b.write_chunk(1, &s);
        assert_eq!(b.as_slice(), &[0.0, 1.0, 2.0, 0.0]);
        b.add_chunk(1, &s);
        assert_eq!(b.as_slice(), &[0.0, 2.0, 4.0, 0.0]);
    }

    #[test]
    fn copy_from_handles_length_change() {
        let mut a = Tensor::zeros(2);
        a.copy_from(&Tensor::from_vec(vec![1.0, 2.0, 3.0]));
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn clone_from_reuses_buffer() {
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
        let mut dst = Tensor::zeros(3);
        dst.clone_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = Tensor::from_vec(vec![1.0]);
        let b = Tensor::from_vec(vec![1.0005]);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-4));
        assert!(!a.approx_eq(&Tensor::zeros(2), 1.0));
    }

    #[test]
    fn clip_bounds_elements() {
        let mut a = Tensor::from_vec(vec![-5.0, 0.5, 5.0]);
        a.clip(1.0);
        assert_eq!(a.as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn has_non_finite_detects_nan_and_inf() {
        assert!(!Tensor::from_vec(vec![1.0]).has_non_finite());
        assert!(Tensor::from_vec(vec![f32::NAN]).has_non_finite());
        assert!(Tensor::from_vec(vec![f32::INFINITY]).has_non_finite());
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Tensor = (0..3).map(|i| i as f32).collect();
        t.extend([3.0]);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", Tensor::zeros(0)).is_empty());
        assert!(!format!("{:?}", Tensor::zeros(100)).is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_length_mismatch_panics() {
        Tensor::zeros(2).add_assign(&Tensor::zeros(3));
    }

    #[test]
    fn fill_zero_resets() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn index_access() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0]);
        a[0] = 7.0;
        assert_eq!(a[0], 7.0);
        assert_eq!(a[1], 2.0);
    }
}
