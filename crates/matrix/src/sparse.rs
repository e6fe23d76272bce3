//! Compressed sparse row (CSR) matrices and serial sparse kernels.
//!
//! [`CsrMatrix`] is the local sparse format the distributed SpGEMM/SDDMM
//! schedules move around: construction from (possibly duplicated)
//! triplets, dense⇄sparse conversion, transpose, column-range panel
//! extraction, and the serial reference kernels ([`spgemm`], [`sddmm`])
//! the distributed results are validated against.
//!
//! # Wire format
//!
//! A CSR payload's wire size is [`csr_wire_bytes`]`(rows, nnz)`: a fixed
//! header, one 8-byte offset per row boundary, and 12 bytes per stored
//! entry (4-byte column index + 8-byte value). Two properties matter to
//! the rest of the stack:
//!
//! * for a fixed row count it is *strictly monotone in `nnz`* — equal
//!   shapes with different fill ship different byte counts, which is what
//!   exercises the Hockney model with non-uniform message sizes;
//! * it is *invertible*: a receiver that knows `rows` (panel shapes are
//!   globally known in the 2-D schedules) recovers `nnz` exactly from the
//!   byte count via [`csr_nnz_from_wire`]. The simulator's phantom sparse
//!   payloads rely on this to relay panels they only saw as byte counts.

use crate::dense::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fixed per-message header: rows, cols, nnz, flags (4 × u32).
pub const CSR_HEADER_BYTES: u64 = 16;
/// One `u64` row-pointer entry per row boundary (`rows + 1` of them).
pub const CSR_ROW_PTR_BYTES: u64 = 8;
/// One stored entry: `u32` column index + `f64` value.
pub const CSR_ENTRY_BYTES: u64 = 12;

/// Serialized size in bytes of a CSR payload with `rows` rows and `nnz`
/// stored entries. Strictly monotone in `nnz` for fixed `rows`.
pub fn csr_wire_bytes(rows: usize, nnz: usize) -> u64 {
    CSR_HEADER_BYTES + (rows as u64 + 1) * CSR_ROW_PTR_BYTES + nnz as u64 * CSR_ENTRY_BYTES
}

/// Inverts [`csr_wire_bytes`]: recovers `nnz` from a wire byte count and
/// the (globally known) row count.
///
/// # Panics
/// Panics if `bytes` is not a valid CSR wire size for `rows` rows.
pub fn csr_nnz_from_wire(rows: usize, bytes: u64) -> usize {
    let fixed = CSR_HEADER_BYTES + (rows as u64 + 1) * CSR_ROW_PTR_BYTES;
    assert!(
        bytes >= fixed && (bytes - fixed).is_multiple_of(CSR_ENTRY_BYTES),
        "{bytes} bytes is not a CSR wire size for {rows} rows"
    );
    ((bytes - fixed) / CSR_ENTRY_BYTES) as usize
}

/// A sparse `f64` matrix in compressed sparse row form.
///
/// Canonical invariants, maintained by every constructor:
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`, non-decreasing;
/// * within each row, column indices are strictly increasing (sorted, no
///   duplicates);
/// * no explicitly stored zeros (entries that sum or multiply to exactly
///   `0.0` are dropped), so `nnz` is meaningful and dense⇄sparse
///   round-trips are identity.
///
/// ```
/// use hsumma_matrix::sparse::CsrMatrix;
///
/// let s = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.5), (1, 0, -2.0), (0, 2, 0.5)]);
/// assert_eq!(s.nnz(), 2); // duplicates summed
/// assert_eq!(s.to_dense().get(0, 2), 2.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

/// A CSR payload's wire size depends on `nnz`, not just shape — the
/// reason byte accounting asks the payload instead of recomputing from
/// dimensions.
impl hsumma_trace::WirePayload for CsrMatrix {
    fn payload_bytes(&self) -> u64 {
        csr_wire_bytes(self.rows, self.nnz())
    }
}

impl CsrMatrix {
    /// An empty (all-zero) `rows × cols` sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(cols <= u32::MAX as usize, "column count exceeds u32 index");
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from raw parts; validates all the canonical invariants
    /// except strict column ordering (callers must pre-sort).
    fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        debug_assert_eq!(col_idx.len(), values.len());
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds from `(row, col, value)` triplets in any order. Duplicate
    /// coordinates are *summed*; entries that sum to exactly zero are
    /// dropped (canonical form).
    ///
    /// # Panics
    /// Panics on an out-of-range coordinate.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        assert!(cols <= u32::MAX as usize, "column count exceeds u32 index");
        let mut per_row: Vec<Vec<(u32, f64)>> = vec![Vec::new(); rows];
        for &(i, j, v) in triplets {
            assert!(i < rows && j < cols, "triplet ({i}, {j}) out of range");
            per_row[i].push((j as u32, v));
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for entries in &mut per_row {
            entries.sort_by_key(|&(j, _)| j);
            let mut k = 0;
            while k < entries.len() {
                let j = entries[k].0;
                let mut sum = 0.0;
                while k < entries.len() && entries[k].0 == j {
                    sum += entries[k].1;
                    k += 1;
                }
                if sum != 0.0 {
                    col_idx.push(j);
                    values.push(sum);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self::from_parts(rows, cols, row_ptr, col_idx, values)
    }

    /// Converts a dense matrix, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        assert!(cols <= u32::MAX as usize, "column count exceeds u32 index");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..rows {
            for j in 0..cols {
                let v = m.get(i, j);
                if v != 0.0 {
                    col_idx.push(j as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self::from_parts(rows, cols, row_ptr, col_idx, values)
    }

    /// Materializes the dense form.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m.set(i, self.col_idx[k] as usize, self.values[k]);
            }
        }
        m
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }
    /// Row-boundary offsets (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }
    /// Column indices, row-major, sorted within each row.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }
    /// Stored values, parallel to [`CsrMatrix::col_idx`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }
    /// Stored entries of row `i` as `(col_indices, values)` slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }
    /// Stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// The transpose, in canonical CSR form.
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.cols + 1];
        for &j in &self.col_idx {
            counts[j as usize + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k] as usize;
                let pos = next[j];
                next[j] += 1;
                // Walking rows in order keeps each transposed row sorted.
                col_idx[pos] = i as u32;
                values[pos] = self.values[k];
            }
        }
        Self::from_parts(self.cols, self.rows, row_ptr, col_idx, values)
    }

    /// A freshly allocated copy of the `h × w` block at `(r0, c0)` —
    /// the sparse analogue of `Matrix::block`, used to slice pivot
    /// panels out of local tiles.
    pub fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of bounds"
        );
        let (c_lo, c_hi) = (c0 as u32, (c0 + w) as u32);
        let mut row_ptr = Vec::with_capacity(h + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in r0..r0 + h {
            let (cols_i, vals_i) = self.row(i);
            // Columns are sorted: binary-search the panel's range.
            let lo = cols_i.partition_point(|&j| j < c_lo);
            let hi = cols_i.partition_point(|&j| j < c_hi);
            for k in lo..hi {
                col_idx.push(cols_i[k] - c_lo);
                values.push(vals_i[k]);
            }
            row_ptr.push(col_idx.len());
        }
        Self::from_parts(h, w, row_ptr, col_idx, values)
    }

    /// Overwrites the block at `(r0, c0)` conceptually — used by tile
    /// gathering. Builds a *new* canonical matrix by merging `src` into
    /// the zero region (the target block must be structurally empty,
    /// which tile assembly guarantees).
    pub fn set_block_into_zero(&mut self, r0: usize, c0: usize, src: &Self) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "block out of bounds"
        );
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(self.nnz() + src.nnz());
        for i in 0..self.rows {
            let (cols_i, vals_i) = self.row(i);
            for (k, &j) in cols_i.iter().enumerate() {
                triplets.push((i, j as usize, vals_i[k]));
            }
        }
        for i in 0..src.rows {
            let (cols_i, vals_i) = src.row(i);
            for (k, &j) in cols_i.iter().enumerate() {
                triplets.push((r0 + i, c0 + j as usize, vals_i[k]));
            }
        }
        *self = Self::from_triplets(self.rows, self.cols, &triplets);
    }

    /// A matrix sharing `self`'s exact pattern with new `values`
    /// (parallel to [`CsrMatrix::values`]). Zeros in `values` are kept —
    /// the pattern is the contract (SDDMM's "samples stay sampled").
    ///
    /// # Panics
    /// Panics unless `values.len() == self.nnz()`.
    pub fn with_values(&self, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), self.nnz(), "values length must equal nnz");
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values,
        }
    }

    /// Largest absolute element-wise difference against another sparse
    /// matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        let a = self.to_dense();
        let b = other.to_dense();
        a.max_abs_diff(&b)
    }
}

/// Serial sparse × sparse product `C = A·B` (Gustavson's algorithm with
/// a dense workspace row) — the reference the distributed SpGEMM is
/// validated against, and the local kernel it runs per pivot step.
pub fn spgemm(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    let mut acc = SpGemmAcc::new(a.rows, b.cols);
    acc.accumulate(a, b);
    acc.finalize()
}

/// An accumulating `C += A·B` workspace for sparse products: the 2-D
/// schedule calls [`SpGemmAcc::accumulate`] once per pivot step and
/// [`SpGemmAcc::finalize`]s after the last. Accumulation order is program
/// order, so distributed results are bit-identical to a serial replay of
/// the same panel sequence.
#[derive(Debug)]
pub struct SpGemmAcc {
    rows: usize,
    cols: usize,
    /// Dense accumulation rows (`rows × cols` values + occupancy marks);
    /// fine at tile scale, where `cols` is a local tile extent.
    vals: Vec<f64>,
    occupied: Vec<bool>,
}

impl SpGemmAcc {
    /// A zeroed `rows × cols` accumulator.
    pub fn new(rows: usize, cols: usize) -> Self {
        SpGemmAcc {
            rows,
            cols,
            vals: vec![0.0; rows * cols],
            occupied: vec![false; rows * cols],
        }
    }

    /// `C += A·B`.
    pub fn accumulate(&mut self, a: &CsrMatrix, b: &CsrMatrix) {
        assert_eq!(a.cols, b.rows, "inner dimensions must agree");
        assert_eq!((a.rows, b.cols), (self.rows, self.cols), "output mismatch");
        for i in 0..a.rows {
            let (a_cols, a_vals) = a.row(i);
            let out = i * self.cols;
            for (t, &k) in a_cols.iter().enumerate() {
                let av = a_vals[t];
                let (b_cols, b_vals) = b.row(k as usize);
                for (u, &j) in b_cols.iter().enumerate() {
                    let idx = out + j as usize;
                    self.vals[idx] += av * b_vals[u];
                    self.occupied[idx] = true;
                }
            }
        }
    }

    /// The accumulated product in canonical CSR form. Entries that
    /// cancel to exactly zero are dropped (canonical form, matching
    /// `from_dense`).
    pub fn finalize(self) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let v = self.vals[i * self.cols + j];
                if self.occupied[i * self.cols + j] && v != 0.0 {
                    col_idx.push(j as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts(self.rows, self.cols, row_ptr, col_idx, values)
    }
}

/// Multiply-add pairs of the sparse product `A·B`: `Σ_{(i,k)∈A}
/// nnz_row(B, k)`. Exact (pattern-driven), `O(nnz(A))`.
pub fn spgemm_pairs(a: &CsrMatrix, b: &CsrMatrix) -> u64 {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    let mut pairs = 0u64;
    for &k in &a.col_idx {
        pairs += b.row_nnz(k as usize) as u64;
    }
    pairs
}

/// Calls `emit(t, dot)` for every stored entry `t` of `s`, in storage
/// order, with `dot = Σ_k A(i, k)·B(k, j)` over the entry's `(i, j)`. Each
/// sum starts at zero and adds its products in ascending `k`, one multiply
/// and one add apiece, never fused: the bits of the textbook loop. The
/// dots of up to eight samples of a row run side by side, so their add
/// chains overlap instead of each waiting on its own; a row's last few
/// samples run in the narrowest group of 1, 2, 4 or 8 that holds them.
/// `A` is `rows(S) × d`, `B` is `d × cols(S)`.
///
/// # Panics
/// Panics on non-conformant shapes.
pub fn sampled_dots(s: &CsrMatrix, a: &Matrix, b: &Matrix, mut emit: impl FnMut(usize, f64)) {
    assert_eq!(a.rows(), s.rows, "A row count must match S");
    assert_eq!(b.cols(), s.cols, "B column count must match S");
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    for i in 0..s.rows {
        let a_row = a.row(i);
        let mut t = s.row_ptr[i];
        while t < s.row_ptr[i + 1] {
            let left = s.row_ptr[i + 1] - t;
            let group = &s.col_idx[t..t + left.min(8)];
            match left {
                1 => dots::<1>(a_row, b, group, t, &mut emit),
                2 => dots::<2>(a_row, b, group, t, &mut emit),
                3 | 4 => dots::<4>(a_row, b, group, t, &mut emit),
                _ => dots::<8>(a_row, b, group, t, &mut emit),
            }
            t += group.len();
        }
    }
}

/// The dots of one row `a_row` of `A` against the columns `cols` of `B`
/// (at most `W`; the group is padded with its first column, whose copies
/// are not emitted), emitted as entries `first ..`.
#[inline(always)]
fn dots<const W: usize>(
    a_row: &[f64],
    b: &Matrix,
    cols: &[u32],
    first: usize,
    emit: &mut impl FnMut(usize, f64),
) {
    let j: [usize; W] = std::array::from_fn(|w| cols.get(w).copied().unwrap_or(cols[0]) as usize);
    let mut dot = [0.0f64; W];
    for (k, &aik) in a_row.iter().enumerate() {
        let b_row = b.row(k);
        for (sum, &jw) in dot.iter_mut().zip(&j) {
            *sum += aik * b_row[jw];
        }
    }
    for (w, &sum) in dot.iter().enumerate().take(cols.len()) {
        emit(first + w, sum);
    }
}

/// Serial SDDMM reference: `C_ij = S_ij · (A·B)_ij` over `pattern(S)`.
/// `A` is `rows(S) × d`, `B` is `d × cols(S)`.
pub fn sddmm(s: &CsrMatrix, a: &Matrix, b: &Matrix) -> CsrMatrix {
    let mut values = vec![0.0; s.nnz()];
    sampled_dots(s, a, b, |t, dot| values[t] = s.values[t] * dot);
    // The result keeps S's pattern verbatim (an SDDMM contract: samples
    // stay sampled even when a dot product is zero).
    CsrMatrix::from_parts(s.rows, s.cols, s.row_ptr.clone(), s.col_idx.clone(), values)
}

/// A reproducible uniform-random sparse matrix: each coordinate is
/// stored with probability `density`, values uniform in `[-1, 1)`.
pub fn seeded_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for _ in 0..rows {
        for j in 0..cols {
            if rng.gen_range(0.0..1.0) < density {
                col_idx.push(j as u32);
                values.push(rng.gen_range(-1.0f64..1.0));
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(rows, cols, row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, GemmKernel};
    use crate::generate::seeded_uniform;
    use hsumma_trace::WirePayload;

    fn dense_product(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        gemm(GemmKernel::Naive, a, b, &mut c);
        c
    }

    #[test]
    fn wire_bytes_invert_and_distinguish_nnz() {
        for rows in [1usize, 4, 33] {
            for nnz in [0usize, 1, 17, 256] {
                assert_eq!(csr_nnz_from_wire(rows, csr_wire_bytes(rows, nnz)), nnz);
            }
        }
        // Equal shape, different nnz ⇒ different wire bytes.
        assert_ne!(csr_wire_bytes(8, 10), csr_wire_bytes(8, 11));
    }

    #[test]
    fn triplets_sum_duplicates_and_drop_zeros() {
        let s = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 1, 2.0),
                (0, 1, 3.0),
                (2, 2, 1.0),
                (2, 2, -1.0),
                (1, 0, 4.0),
            ],
        );
        assert_eq!(s.nnz(), 2); // (0,1)=5.0 and (1,0)=4.0; (2,2) cancelled
        assert_eq!(s.to_dense().get(0, 1), 5.0);
        assert_eq!(s.row_nnz(2), 0);
    }

    #[test]
    fn dense_roundtrip_is_identity() {
        let mut m = seeded_uniform(6, 5, 9);
        // Punch some explicit zeros.
        m.set(0, 0, 0.0);
        m.set(3, 4, 0.0);
        let s = CsrMatrix::from_dense(&m);
        assert_eq!(s.to_dense(), m);
        assert_eq!(CsrMatrix::from_dense(&s.to_dense()), s);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let s = seeded_sparse(7, 4, 0.4, 11);
        let t = s.transpose();
        assert_eq!(t.shape(), (4, 7));
        for i in 0..7 {
            for j in 0..4 {
                assert_eq!(s.to_dense().get(i, j), t.to_dense().get(j, i));
            }
        }
        // Canonical: transpose twice is identity.
        assert_eq!(t.transpose(), s);
    }

    #[test]
    fn block_matches_dense_block() {
        let s = seeded_sparse(8, 8, 0.3, 5);
        let blk = s.block(2, 3, 4, 5);
        assert_eq!(blk.to_dense(), s.to_dense().block(2, 3, 4, 5));
    }

    #[test]
    fn spgemm_matches_dense_reference() {
        for (da, db, seed) in [(0.2, 0.3, 1), (0.0, 0.5, 2), (1.0, 1.0, 3)] {
            let a = seeded_sparse(6, 8, da, seed);
            let b = seeded_sparse(8, 5, db, seed + 100);
            let c = spgemm(&a, &b);
            let want = dense_product(&a.to_dense(), &b.to_dense());
            assert!(
                c.to_dense().approx_eq(&want, 1e-12),
                "density ({da}, {db}) diverged"
            );
        }
    }

    #[test]
    fn spgemm_pairs_counts_exact_flops() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 1.0), (1, 1, 1.0)]);
        let b = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (0, 1, 1.0), (2, 1, 1.0)]);
        // Row 0 of A hits B rows 0 (2 entries) and 2 (1 entry); row 1
        // hits B row 1 (0 entries).
        assert_eq!(spgemm_pairs(&a, &b), 3);
    }

    #[test]
    fn sampled_dots_keep_the_bits_of_one_add_chain_per_sample() {
        // Rows with no sample, fewer than a group, several groups and a
        // ragged last one, against the loop that sums one dot at a time.
        for (rows, cols, d, density, seed) in [
            (9, 40, 13, 0.3, 1),
            (5, 19, 1, 1.0, 2),
            (4, 4, 6, 0.0, 3),
            (24, 64, 33, 0.15, 4),
        ] {
            let s = seeded_sparse(rows, cols, density, seed);
            let a = seeded_uniform(rows, d, seed + 10);
            let b = seeded_uniform(d, cols, seed + 20);
            let mut want = Vec::new();
            for i in 0..rows {
                for &j in s.row(i).0 {
                    let mut dot = 0.0;
                    for k in 0..d {
                        dot += a.get(i, k) * b.get(k, j as usize);
                    }
                    want.push(dot.to_bits());
                }
            }
            let mut got = vec![None; s.nnz()];
            sampled_dots(&s, &a, &b, |t, dot| {
                assert!(
                    got[t].replace(dot.to_bits()).is_none(),
                    "entry {t} emitted twice"
                );
            });
            let got: Vec<u64> = got
                .into_iter()
                .map(|x| x.expect("every entry emitted"))
                .collect();
            assert_eq!(got, want, "{rows}x{cols}, d {d}, density {density}");
        }
    }

    #[test]
    fn sddmm_matches_dense_reference() {
        let s = seeded_sparse(6, 7, 0.35, 21);
        let a = seeded_uniform(6, 4, 22);
        let b = seeded_uniform(4, 7, 23);
        let c = sddmm(&s, &a, &b);
        assert_eq!(c.row_ptr(), s.row_ptr());
        assert_eq!(c.col_idx(), s.col_idx());
        let ab = dense_product(&a, &b);
        for i in 0..6 {
            let (cols_i, vals_i) = c.row(i);
            for (t, &j) in cols_i.iter().enumerate() {
                let want = s.to_dense().get(i, j as usize) * ab.get(i, j as usize);
                assert!((vals_i[t] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn payload_bytes_depend_on_nnz() {
        let sparse = seeded_sparse(16, 16, 0.1, 1);
        let denser = seeded_sparse(16, 16, 0.5, 1);
        assert_eq!(sparse.shape(), denser.shape());
        assert!(denser.nnz() > sparse.nnz());
        assert!(denser.payload_bytes() > sparse.payload_bytes());
        assert_eq!(sparse.payload_bytes(), csr_wire_bytes(16, sparse.nnz()));
    }

    #[test]
    fn set_block_into_zero_assembles_tiles() {
        let full = seeded_sparse(6, 6, 0.4, 31);
        let mut assembled = CsrMatrix::zeros(6, 6);
        for (r0, c0) in [(0, 0), (0, 3), (3, 0), (3, 3)] {
            assembled.set_block_into_zero(r0, c0, &full.block(r0, c0, 3, 3));
        }
        assert_eq!(assembled, full);
    }

    use proptest::prelude::*;

    proptest! {
        // Triplets → CSR → dense → CSR is the identity on canonical
        // form: duplicates sum, exact-zero sums drop, and both
        // constructors agree on what remains. Integer-valued triplets
        // make cancellation (sum == 0.0) actually reachable.
        #[test]
        fn triplets_csr_dense_csr_roundtrip(
            rows in 1usize..8, cols in 1usize..8,
            triplets in prop::collection::vec(
                (0usize..64, 0usize..64, -3i8..=3), 0..40
            )
        ) {
            let t: Vec<(usize, usize, f64)> = triplets
                .iter()
                .map(|&(i, j, v)| (i % rows, j % cols, v as f64))
                .collect();
            let m = CsrMatrix::from_triplets(rows, cols, &t);
            prop_assert_eq!(CsrMatrix::from_dense(&m.to_dense()), m);
        }

        #[test]
        fn transpose_is_an_involution(
            rows in 1usize..12, cols in 1usize..12,
            density in 0.0f64..1.0, seed in 0u64..100
        ) {
            let m = seeded_sparse(rows, cols, density, seed);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        // The wire format stays invertible for every (rows, nnz): the
        // simulator's PhantomSparse reconstruction depends on it.
        #[test]
        fn wire_bytes_invert_to_nnz(rows in 1usize..4096, nnz in 0usize..100_000) {
            prop_assert_eq!(
                csr_nnz_from_wire(rows, csr_wire_bytes(rows, nnz)),
                nnz
            );
        }

        // Any block partition reassembles exactly — the contract
        // scatter_csr/gather_csr build on.
        #[test]
        fn block_partition_reassembles(
            s in 1usize..4, t in 1usize..4, th in 1usize..4, tw in 1usize..4,
            density in 0.0f64..1.0, seed in 0u64..100
        ) {
            let (rows, cols) = (s * th, t * tw);
            let full = seeded_sparse(rows, cols, density, seed);
            let mut assembled = CsrMatrix::zeros(rows, cols);
            for bi in 0..s {
                for bj in 0..t {
                    let tile = full.block(bi * th, bj * tw, th, tw);
                    assembled.set_block_into_zero(bi * th, bj * tw, &tile);
                }
            }
            prop_assert_eq!(assembled, full);
        }

        #[test]
        fn spgemm_agrees_with_dense_gemm(
            m in 1usize..8, l in 1usize..8, n in 1usize..8,
            da in 0.0f64..1.0, db in 0.0f64..1.0, seed in 0u64..50
        ) {
            let a = seeded_sparse(m, l, da, seed);
            let b = seeded_sparse(l, n, db, seed + 1);
            let mut want = Matrix::zeros(m, n);
            gemm(GemmKernel::Naive, &a.to_dense(), &b.to_dense(), &mut want);
            prop_assert!(
                spgemm(&a, &b).max_abs_diff(&CsrMatrix::from_dense(&want)) < 1e-12
            );
        }
    }
}
