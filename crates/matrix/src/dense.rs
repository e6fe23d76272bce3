//! Row-major dense `f64` matrix.
//!
//! [`Matrix`] is deliberately small: the distributed algorithms need
//! construction, indexing, panel (block) extraction/insertion and a couple
//! of norms for verification. Arithmetic beyond that lives in
//! [`mod@crate::gemm`].

use std::fmt;

/// A dense row-major matrix of `f64`.
///
/// Invariant: `data.len() == rows * cols`. Element `(i, j)` lives at
/// `data[i * cols + j]`.
///
/// ```
/// use hsumma_matrix::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m.get(1, 2), 12.0);
/// assert_eq!(m.block(0, 1, 2, 2).as_slice(), &[1.0, 2.0, 11.0, 12.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// A dense tile's wire size is a pure function of shape.
impl hsumma_trace::WirePayload for Matrix {
    fn payload_bytes(&self) -> u64 {
        (self.rows * self.cols * 8) as u64
    }
}

impl Matrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a function of the (row, column) index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Matrix { rows, cols, data }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies the `h × w` block whose top-left corner is `(r0, c0)` into a
    /// new matrix.
    ///
    /// This is the *panel extraction* primitive: SUMMA's pivot column of
    /// width `b` is `block(0, k*b, local_rows, b)` of the local tile of `A`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Matrix {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of bounds"
        );
        let mut out = Vec::with_capacity(h * w);
        for i in 0..h {
            let src = (r0 + i) * self.cols + c0;
            out.extend_from_slice(&self.data[src..src + w]);
        }
        Matrix {
            rows: h,
            cols: w,
            data: out,
        }
    }

    /// Overwrites the block with top-left corner `(r0, c0)` with `src`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Matrix) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "block out of bounds"
        );
        if src.cols == self.cols {
            // Whole rows: one contiguous copy.
            let dst = r0 * self.cols;
            self.data[dst..dst + src.data.len()].copy_from_slice(&src.data);
            return;
        }
        for i in 0..src.rows {
            let dst = (r0 + i) * self.cols + c0;
            self.data[dst..dst + src.cols].copy_from_slice(src.row(i));
        }
    }

    /// `self += other`, element-wise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self *= s`, element-wise.
    pub fn scale(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Frobenius norm `sqrt(Σ a_ij²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute element-wise difference to `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in max_abs_diff"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether every element differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        // Clamp the printed size: debug output for huge matrices is useless.
        let max = 8;
        for i in 0..self.rows.min(max) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(max) {
                write!(f, "{:10.4} ", self.get(i, j))?;
            }
            if self.cols > max {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > max {
            writeln!(f, "  ⋮")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(m.get(1, 2), 5.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_wrong_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn identity_multiplicative_unit_elements() {
        let id = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn block_extracts_panel() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b = m.block(1, 2, 2, 2);
        assert_eq!(b.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
    }

    #[test]
    fn set_block_roundtrips_with_block() {
        let src = Matrix::from_fn(6, 6, |i, j| (i + j) as f64);
        let panel = src.block(2, 3, 3, 2);
        let mut dst = Matrix::zeros(6, 6);
        dst.set_block(2, 3, &panel);
        assert_eq!(dst.block(2, 3, 3, 2), panel);
        // Everything outside the block stays zero.
        assert_eq!(dst.get(0, 0), 0.0);
        assert_eq!(dst.get(5, 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn block_out_of_bounds_panics() {
        let m = Matrix::zeros(3, 3);
        let _ = m.block(2, 2, 2, 2);
    }

    #[test]
    fn add_assign_adds_elementwise() {
        let mut a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::identity(2);
        a.add_assign(&b);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 1), 3.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn frobenius_norm_of_unit_vectors() {
        let id = Matrix::identity(9);
        assert!((id.frobenius_norm() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_detects_single_perturbation() {
        let a = Matrix::zeros(3, 3);
        let mut b = Matrix::zeros(3, 3);
        b.set(2, 1, -0.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!(!a.approx_eq(&b, 0.4));
        assert!(a.approx_eq(&b, 0.5));
    }

    #[test]
    fn scale_multiplies_all_elements() {
        let mut m = Matrix::from_fn(2, 2, |_, _| 2.0);
        m.scale(1.5);
        assert!(m.as_slice().iter().all(|&x| x == 3.0));
    }

    #[test]
    fn row_views_are_contiguous() {
        let mut m = Matrix::from_fn(3, 4, |i, j| (10 * i + j) as f64);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
        m.row_mut(2)[0] = -1.0;
        assert_eq!(m.get(2, 0), -1.0);
    }
}
