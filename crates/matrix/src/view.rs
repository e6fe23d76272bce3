//! Borrowed, possibly strided matrix views.
//!
//! A [`MatrixView`] lets callers multiply *sub*matrices without copying
//! them out first: the view borrows the parent's buffer with a row
//! stride. Rows remain contiguous, so the packed kernel's microkernel
//! reads them in place ([`gemm_view`]).

use crate::dense::Matrix;
use crate::gemm::gemm_in_place;

/// An immutable view of an `rows × cols` region whose consecutive rows
/// are `stride` elements apart in the underlying buffer.
#[derive(Clone, Copy)]
pub struct MatrixView<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> MatrixView<'a> {
    /// Wraps a raw buffer. `data` must hold at least
    /// `(rows-1)*stride + cols` elements.
    ///
    /// # Panics
    /// Panics if the buffer is too short or `stride < cols`.
    pub fn new(data: &'a [f64], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(stride >= cols, "row stride must cover the row");
        if rows > 0 {
            assert!(
                data.len() >= (rows - 1) * stride + cols,
                "buffer too short for the view"
            );
        }
        MatrixView {
            data,
            rows,
            cols,
            stride,
        }
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

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.stride + j]
    }

    /// Distance between the starts of consecutive rows (the leading
    /// dimension).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The buffer from the view's first element on.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// A sub-view of this view.
    ///
    /// # Panics
    /// Panics if the region exceeds the view.
    pub fn subview(&self, r0: usize, c0: usize, h: usize, w: usize) -> MatrixView<'a> {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "subview out of bounds"
        );
        MatrixView {
            data: &self.data[r0 * self.stride + c0..],
            rows: h,
            cols: w,
            stride: self.stride,
        }
    }

    /// Copies the view into an owned matrix.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }
}

impl Matrix {
    /// A view of the whole matrix.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::new(self.as_slice(), self.rows(), self.cols(), self.cols())
    }

    /// A zero-copy view of the `h × w` block at `(r0, c0)` — the borrow
    /// counterpart of [`Matrix::block`].
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn block_view(&self, r0: usize, c0: usize, h: usize, w: usize) -> MatrixView<'_> {
        self.view().subview(r0, c0, h, w)
    }
}

/// `c += a · b` over views: the packed kernel's microkernel run on the
/// operands where they lie, reading each tile's rows through the views'
/// strides and packing nothing. Bit for bit what
/// [`gemm_packed`](crate::gemm::gemm_packed) gives on copies of the same
/// blocks, whatever the shape. `c` must be an owned matrix (it is written
/// densely).
///
/// # Panics
/// Panics on non-conformant shapes.
pub fn gemm_view(a: &MatrixView<'_>, b: &MatrixView<'_>, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(a.rows(), c.rows(), "C row count must match A");
    assert_eq!(b.cols(), c.cols(), "C column count must match B");
    gemm_in_place(1.0, a, b, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, gemm_packed, GemmKernel};
    use crate::generate::seeded_uniform;
    use proptest::prelude::*;

    #[test]
    fn whole_matrix_view_reads_every_element() {
        let m = seeded_uniform(5, 7, 3);
        let v = m.view();
        for i in 0..5 {
            for j in 0..7 {
                assert_eq!(v.get(i, j), m.get(i, j));
            }
        }
    }

    #[test]
    fn block_view_matches_copied_block() {
        let m = seeded_uniform(8, 8, 4);
        let v = m.block_view(2, 3, 4, 5);
        assert_eq!(v.to_matrix(), m.block(2, 3, 4, 5));
    }

    #[test]
    fn nested_subviews_compose() {
        let m = seeded_uniform(10, 10, 5);
        let outer = m.block_view(1, 1, 8, 8);
        let inner = outer.subview(2, 3, 4, 4);
        assert_eq!(inner.to_matrix(), m.block(3, 4, 4, 4));
    }

    #[test]
    #[should_panic(expected = "subview out of bounds")]
    fn oversized_subview_panics() {
        let m = Matrix::zeros(4, 4);
        let _ = m.block_view(2, 2, 3, 3);
    }

    #[test]
    fn gemm_view_on_whole_matrices_matches_gemm() {
        let a = seeded_uniform(6, 7, 10);
        let b = seeded_uniform(7, 5, 11);
        let mut want = Matrix::zeros(6, 5);
        gemm(GemmKernel::Naive, &a, &b, &mut want);
        let mut got = Matrix::zeros(6, 5);
        gemm_view(&a.view(), &b.view(), &mut got);
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn gemm_view_accumulates() {
        let a = Matrix::identity(3);
        let mut c = Matrix::from_fn(3, 3, |_, _| 2.0);
        gemm_view(&a.view(), &a.view(), &mut c);
        assert_eq!(c.get(0, 0), 3.0);
        assert_eq!(c.get(0, 1), 2.0);
    }

    proptest! {
        #[test]
        fn gemm_on_views_equals_gemm_on_copies(
            m in 1usize..10, k in 1usize..10, n in 1usize..10,
            ro in 0usize..4, co in 0usize..4, seed in 0u64..500,
        ) {
            // Build padded parents and compare multiplying the embedded
            // blocks via views vs via copies.
            let pa = seeded_uniform(m + ro + 2, k + co + 2, seed);
            let pb = seeded_uniform(k + ro + 2, n + co + 2, seed.wrapping_add(1));
            let av = pa.block_view(ro, co, m, k);
            let bv = pb.block_view(ro, co, k, n);

            let mut via_views = Matrix::zeros(m, n);
            gemm_view(&av, &bv, &mut via_views);

            // The strided path reads the same elements the packed one
            // copies, in the same order: the same bits.
            let mut via_copies = Matrix::zeros(m, n);
            gemm_packed(1.0, &pa.block(ro, co, m, k), &pb.block(ro, co, k, n), &mut via_copies);
            let bits = |c: &Matrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert!(bits(&via_views) == bits(&via_copies));
        }
    }
}
