//! Local matrix-multiply kernels: `C += A · B`.
//!
//! The distributed algorithms in `hsumma-core` treat the local multiply as a
//! black box, exactly as the paper treats ESSL/MKL `DGEMM`. Four kernels are
//! provided:
//!
//! | kernel | strategy | role |
//! |---|---|---|
//! | [`GemmKernel::Naive`] | textbook `i j k` triple loop | correctness oracle |
//! | [`GemmKernel::Blocked`] | cache-tiled `i k j` loop order | simple cache-aware baseline |
//! | [`GemmKernel::Parallel`] | `Blocked` with row stripes fanned out to threads | multi-core baseline |
//! | [`GemmKernel::Packed`] | three-level blocked (`MC/KC/NC`) BLIS-style driver over packed micro-panels and a register-blocked `MR×NR` microkernel, parallel over `MC` row blocks | default; the stand-in for a tuned vendor DGEMM |
//!
//! `Packed` follows the Goto/BLIS decomposition: `B` blocks are packed into
//! row-major micro-panels of [`NR`] columns (streamed from L1 by the
//! microkernel), `A` blocks into column-major micro-panels of [`MR`] rows
//! (resident in L2), and the microkernel keeps an `MR×NR` accumulator block
//! in registers while marching down the shared `KC` dimension. Packing
//! scratch lives in thread-local buffers, so a long-lived rank thread that
//! calls `gemm` once per SUMMA pivot step allocates on the first step only.
//! The microkernel is chosen at compile time: explicit AVX-512 FMA
//! intrinsics where the build targets `avx512f`, an autovectorized loop
//! everywhere else.
//!
//! Packing costs a copy of every operand element, which a thin or small
//! product (SUMMA's rank-local update at a narrow panel) feeds to only a
//! few multiply-adds. On the shapes [`in_place_pays`] admits, `Packed`
//! therefore runs the same microkernel straight off `A`'s and `B`'s rows
//! through their leading dimensions, tile by tile in the packed order,
//! and gives the same bits; [`crate::gemm_view`] is that path on strided
//! views, and [`gemm_packed`] the packed path on any shape.
//!
//! All kernels *accumulate* (`C += A·B`), which is the operation SUMMA's
//! inner step needs (`c_ij = c_ij + a_ik · b_kj`).

use crate::dense::Matrix;
use crate::view::MatrixView;
use rayon::prelude::*;
use std::cell::RefCell;

/// Tile edge used by the `Blocked`/`Parallel` kernels. 64 `f64`s = 512
/// bytes per row segment, so a 64×64 tile (32 KiB) of each operand fits
/// comfortably in L1/L2.
const TILE: usize = 64;

/// Microkernel register-block height: rows of `C` updated per microkernel
/// call. 8 where the build targets AVX-512 (8×16 doubles are 16 of the 32
/// `zmm` registers; 12 and 14 rows measured no faster), 4 for the
/// autovectorized body (`update_tile` says what each compiles to).
pub const MR: usize = if cfg!(target_feature = "avx512f") {
    8
} else {
    4
};

/// Microkernel register-block width: columns of `C` updated per call,
/// two 512-bit or four 256-bit vectors of doubles.
pub const NR: usize = 16;

/// Rows of `C` per macro-block: the packed `MC×KC` block of `A` (128 KiB)
/// stays in the 2 MiB L2 while `B` micro-panels stream past it. DESIGN.md
/// ("Local kernel hierarchy") records the sweep behind all three sizes.
pub const MC: usize = 64;
/// Depth of one packed slice of the shared dimension: a `KC×NR` micro-panel
/// of `B` (32 KiB) stays in L1 while the `A` micro-panels stream past it.
pub const KC: usize = 256;
/// Columns of `C` per macro-block (the packed `KC×NC` block of `B`, up to
/// 8 MiB): wider than any operand the workloads multiply, so `A` is packed
/// once per `KC` slice.
pub const NC: usize = 4096;

/// Widest `m` and `n` the in-place path takes: a row of `B` at most 1 KiB,
/// so a tile's strided `B` rows spread over L1's sets instead of piling
/// into a few, and `C` at most 128 KiB.
const IN_PLACE_EDGE: usize = 128;

/// Flop pairs from which the packed driver fans a multiply out over `MC`
/// row blocks (when it has threads to fan out to).
const FAN_OUT_PAIRS: u64 = 4 * (TILE * TILE * TILE) as u64;

/// Whether [`GemmKernel::Packed`] multiplies an `m×k · k×n` product in
/// place, running the microkernel straight off the operands' rows,
/// instead of packing them first. Decided by shape alone: both of `C`'s
/// extents at most 128, and fewer flop pairs than the packed driver would
/// fan out over threads. Packing pays where it is amortized:
/// its copy is `m·k + k·n` elements against `m·k·n` multiply-adds, so thin
/// and small products spend much of their time in it. DESIGN.md ("Local
/// kernel hierarchy") records the sweep behind the cut. Either path gives
/// the same bits.
pub fn in_place_pays(m: usize, k: usize, n: usize) -> bool {
    m <= IN_PLACE_EDGE && n <= IN_PLACE_EDGE && flop_pairs(m, k, n) < FAN_OUT_PAIRS
}

/// Which local multiply implementation to use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GemmKernel {
    /// Reference triple loop (`i j k`); slow but obviously correct.
    Naive,
    /// Cache-tiled sequential kernel.
    Blocked,
    /// Cache-tiled kernel parallelized over row tiles.
    Parallel,
    /// Packed three-level cache-blocked kernel with a register-blocked
    /// microkernel — the fastest kernel and the workspace default.
    #[default]
    Packed,
}

/// `c += a · b` using the selected kernel.
///
/// ```
/// use hsumma_matrix::{gemm, GemmKernel, Matrix};
///
/// let a = Matrix::identity(3);
/// let b = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
/// let mut c = Matrix::zeros(3, 3);
/// gemm(GemmKernel::Packed, &a, &b, &mut c);
/// assert!(c.approx_eq(&b, 1e-12));
/// ```
///
/// # Panics
/// Panics if the shapes are not conformant: `a` is `m × k`, `b` is `k × n`,
/// `c` is `m × n`.
pub fn gemm(kernel: GemmKernel, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    gemm_scaled(kernel, 1.0, a, b, c);
}

/// `c += alpha · a · b` — the scaled accumulate (`alpha = -1` gives the
/// trailing-update subtraction block LU needs).
///
/// # Panics
/// Panics on non-conformant shapes (see [`gemm`]).
pub fn gemm_scaled(kernel: GemmKernel, alpha: f64, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(a.rows(), c.rows(), "C row count must match A");
    assert_eq!(b.cols(), c.cols(), "C column count must match B");
    match kernel {
        GemmKernel::Naive => gemm_naive(alpha, a, b, c),
        GemmKernel::Blocked => gemm_blocked(alpha, a, b, c),
        GemmKernel::Parallel => gemm_parallel(alpha, a, b, c),
        GemmKernel::Packed if in_place_pays(a.rows(), a.cols(), b.cols()) => {
            gemm_in_place(alpha, &a.view(), &b.view(), c)
        }
        GemmKernel::Packed => packed(alpha, a, b, c),
    }
}

/// The packed path alone, whatever the shape: what [`GemmKernel::Packed`]
/// runs on the shapes [`in_place_pays`] leaves to it, and the baseline the
/// in-place path is measured and bit-compared against.
///
/// # Panics
/// Panics on non-conformant shapes (see [`gemm`]).
pub fn gemm_packed(alpha: f64, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(a.rows(), c.rows(), "C row count must match A");
    assert_eq!(b.cols(), c.cols(), "C column count must match B");
    packed(alpha, a, b, c)
}

/// Number of floating-point operations a `m×k · k×n` multiply-accumulate
/// performs, counting one addition and one multiplication per update (the
/// paper's `γ` is the time for such a combined flop pair, §IV).
pub fn flop_pairs(m: usize, k: usize, n: usize) -> u64 {
    m as u64 * k as u64 * n as u64
}

fn gemm_naive(alpha: f64, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.cols();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a.get(i, l) * b.get(l, j);
            }
            let cur = c.get(i, j);
            c.set(i, j, cur + alpha * acc);
        }
    }
}

/// Multiplies the row stripe `rows` of `a` into the matching stripe of `c`.
///
/// Inner loop order is `i k j`: for each `a[i][l]` we stream row `l` of `b`
/// against row `i` of `c`, which is unit-stride for both and lets LLVM
/// vectorize the update.
fn gemm_rows(alpha: f64, a: &Matrix, b: &Matrix, c_rows: &mut [f64], rows: std::ops::Range<usize>) {
    let k = a.cols();
    let n = b.cols();
    for (ci, i) in rows.enumerate() {
        let c_row = &mut c_rows[ci * n..(ci + 1) * n];
        for l0 in (0..k).step_by(TILE) {
            let l1 = (l0 + TILE).min(k);
            for l in l0..l1 {
                let aval = alpha * a.get(i, l);
                if aval == 0.0 {
                    continue;
                }
                let b_row = b.row(l);
                for (cj, bv) in c_row.iter_mut().zip(b_row) {
                    *cj += aval * bv;
                }
            }
        }
    }
}

fn gemm_blocked(alpha: f64, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let m = a.rows();
    let n = b.cols();
    gemm_rows(alpha, a, b, &mut c.as_mut_slice()[..m * n], 0..m);
}

fn gemm_parallel(alpha: f64, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    let threads = rayon::current_num_threads();
    // The fork/join is only worth paying when there is more than one row
    // stripe to hand out AND every worker gets a meaningful share of the
    // arithmetic. The volume test uses m·k·n (not m·n) so tall-skinny
    // multiplies with a heavy k dimension still parallelize.
    if threads <= 1 || m <= TILE || flop_pairs(m, k, n) < (threads * TILE * TILE * TILE) as u64 {
        return gemm_blocked(alpha, a, b, c);
    }
    c.as_mut_slice()
        .par_chunks_mut(TILE * n)
        .enumerate()
        .for_each(|(chunk, c_rows)| {
            let r0 = chunk * TILE;
            let r1 = (r0 + TILE).min(m);
            gemm_rows(alpha, a, b, c_rows, r0..r1);
        });
}

// --- Packed (BLIS-style) kernel ---------------------------------------------

thread_local! {
    /// Per-thread packing scratch for `A` (column micro-panels) and `B`
    /// (row micro-panels). Reused across `gemm` calls, so a rank thread
    /// running hundreds of SUMMA pivot steps allocates only on the first.
    static PACK_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The first `len` elements of `buf`, grown if needed. Stale contents are
/// left in place: the packers overwrite every element they hand out.
fn scratch(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Packs the `mc×kc` block of `a` at `(ic, pc)` into column-major
/// micro-panels of [`MR`] rows: panel `p` holds rows `ic+p·MR ..` laid out
/// `kc` columns deep with stride `MR`, zero-padded to a full `MR` rows so
/// the microkernel never branches on the row edge. Output is written
/// front to back, one `MR`-group (one cache line at `MR = 8`) at a time.
fn pack_a<'s>(
    a: &Matrix,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    buf: &'s mut Vec<f64>,
) -> &'s [f64] {
    let out = scratch(buf, mc.div_ceil(MR) * MR * kc);
    let lda = a.cols();
    let src = a.as_slice();
    for (p, panel) in out.chunks_exact_mut(MR * kc).enumerate() {
        let i0 = ic + p * MR;
        let rows = MR.min(ic + mc - i0);
        // Row `i` of the panel's source; rows past the ragged edge alias
        // the last real one and are masked to zero below.
        let row: [&[f64]; MR] =
            std::array::from_fn(|i| &src[(i0 + i.min(rows - 1)) * lda + pc..][..kc]);
        for (l, group) in panel.chunks_exact_mut(MR).enumerate() {
            for i in 0..MR {
                group[i] = if i < rows { row[i][l] } else { 0.0 };
            }
        }
    }
    out
}

/// Packs the `kc×nc` block of `b` at `(pc, jc)` into row-major
/// micro-panels of [`NR`] columns: panel `q` holds columns `jc+q·NR ..`
/// laid out `kc` rows deep with stride `NR`, zero-padded to full `NR`
/// columns.
fn pack_b<'s>(
    b: &Matrix,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    buf: &'s mut Vec<f64>,
) -> &'s [f64] {
    let out = scratch(buf, nc.div_ceil(NR) * NR * kc);
    let ldb = b.cols();
    let src = b.as_slice();
    for (q, panel) in out.chunks_exact_mut(NR * kc).enumerate() {
        let j0 = q * NR;
        let cols = NR.min(nc - j0);
        for (l, group) in panel.chunks_exact_mut(NR).enumerate() {
            let row = &src[(pc + l) * ldb + jc + j0..][..cols];
            group[..cols].copy_from_slice(row);
            group[cols..].fill(0.0);
        }
    }
    out
}

/// Where the operands of one `MR×NR` tile sit: element `(i, l)` of the
/// tile's `A` rows at `a[a_row[i] + l·a_step]`, row `l` of its `B` columns
/// at `b[l·ldb..]`, of which the first `b_cols` are read (the rest count
/// as zero). The packed micro-panels and the operands in place are two
/// settings of these numbers, so both run the one microkernel.
#[derive(Clone, Copy)]
struct TileOperands<'s> {
    a: &'s [f64],
    a_row: [usize; MR],
    a_step: usize,
    b: &'s [f64],
    ldb: usize,
    b_cols: usize,
}

impl<'s> TileOperands<'s> {
    /// One packed `A` micro-panel against one packed `B` micro-panel, both
    /// zero-padded to full `MR` rows and `NR` columns.
    #[inline(always)]
    fn packed(a_panel: &'s [f64], b_panel: &'s [f64]) -> Self {
        TileOperands {
            a: a_panel,
            a_row: std::array::from_fn(|i| i),
            a_step: MR,
            b: b_panel,
            ldb: NR,
            b_cols: NR,
        }
    }

    /// The operands where they lie: `a` starts at the tile's first `A`
    /// element, its rows `lda` apart, and `b` at the tile's first `B`
    /// element, its rows `ldb` apart. Rows of `A` past `rows` alias the
    /// last real one (their sums are dropped at write-back) and columns of
    /// `B` past `cols` are not read, so nothing outside the tile's own
    /// rows and columns is touched.
    #[inline(always)]
    fn in_place(
        a: &'s [f64],
        lda: usize,
        rows: usize,
        b: &'s [f64],
        ldb: usize,
        cols: usize,
    ) -> Self {
        TileOperands {
            a,
            a_row: std::array::from_fn(|i| i.min(rows - 1) * lda),
            a_step: 1,
            b,
            ldb,
            b_cols: cols,
        }
    }

    /// Whether `kc` steps read only inside `a` and `b`.
    #[inline(always)]
    fn reads_within(&self, kc: usize) -> bool {
        let last_row = self.a_row.iter().max().copied().unwrap_or(0);
        (1..=NR).contains(&self.b_cols)
            && (kc == 0
                || (last_row + (kc - 1) * self.a_step < self.a.len()
                    && (kc - 1) * self.ldb + self.b_cols <= self.b.len()))
    }
}

/// The portable register-blocked microkernel: returns the `MR×NR` product
/// block of one tile's operands, `kc` deep. The `j` loop is the
/// autovectorized dimension.
#[cfg(not(target_feature = "avx512f"))]
#[inline(always)]
fn microkernel(kc: usize, ops: &TileOperands<'_>) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    for l in 0..kc {
        let mut bv = [0.0f64; NR];
        bv[..ops.b_cols].copy_from_slice(&ops.b[l * ops.ldb..][..ops.b_cols]);
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let ai = ops.a[ops.a_row[i] + l * ops.a_step];
            for j in 0..NR {
                acc_row[j] += ai * bv[j];
            }
        }
    }
    acc
}

/// `c_tile[i·ldc + j] += alpha · Σ_l A(i, l) · B(l, j)` for `i < mr_eff`,
/// `j < nr_eff`, with `A` and `B` read through `ops`, `kc` deep, `l`
/// ascending. `c_tile` starts at the tile's top-left element; rows and
/// columns past the ragged edge are computed (from zero padding or
/// aliased rows) and dropped at write-back.
///
/// Portable body: the 4×16 [`microkernel`] above, which LLVM vectorizes
/// as separate `vmulpd`/`vaddpd` at the target's preferred vector width
/// (256-bit `ymm` even on this AVX-512 host) and never as FMA: Rust does
/// not contract `acc += a * b`.
#[cfg(not(target_feature = "avx512f"))]
#[inline(always)]
fn update_tile(
    kc: usize,
    ops: &TileOperands<'_>,
    alpha: f64,
    c_tile: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    // Safe code, so the slices bound every read; this names the contract.
    debug_assert!(ops.reads_within(kc));
    let acc = microkernel(kc, ops);
    for (i, acc_row) in acc.iter().enumerate().take(mr_eff) {
        let c_row = &mut c_tile[i * ldc..][..nr_eff];
        for (cv, &av) in c_row.iter_mut().zip(acc_row) {
            *cv += alpha * av;
        }
    }
}

/// The AVX-512 body of `update_tile`, same contract as the portable one.
/// In the release build the 8×16 tile is sixteen `zmm` accumulators and a
/// `k` step is two 512-bit loads of `B` (under a lane mask, so an edge
/// tile read in place stops at its last column), eight `vbroadcastsd` of
/// `A` from memory and sixteen `vfmadd231pd`. `C` is read, updated with
/// one more FMA per vector and written back under a lane mask (a vector
/// with no column inside the tile is skipped), so every entry sees the
/// same operations in the same order wherever it sits and wherever its
/// operands lie, and nothing depends on the operands' addresses.
#[cfg(target_feature = "avx512f")]
#[inline(always)]
fn update_tile(
    kc: usize,
    ops: &TileOperands<'_>,
    alpha: f64,
    c_tile: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::{
        _mm512_fmadd_pd, _mm512_mask_loadu_pd, _mm512_mask_storeu_pd, _mm512_maskz_loadu_pd,
        _mm512_set1_pd, _mm512_setzero_pd,
    };
    // These stay on in release: they are what bounds every pointer below.
    assert!(ops.reads_within(kc));
    assert!((1..=MR).contains(&mr_eff) && (1..=NR).contains(&nr_eff));
    assert!((mr_eff - 1) * ldc + nr_eff <= c_tile.len());
    // Lane masks of the two vectors of a row of `cols` columns.
    let lanes = |cols: usize| {
        let bits = (1u32 << cols) - 1;
        [bits as u8, (bits >> 8) as u8]
    };
    let (mask, b_mask) = (lanes(nr_eff), lanes(ops.b_cols));
    // How many of `C`'s two vectors hold a column at all; and where the
    // second `B` vector loads from (a row of eight columns or fewer loads
    // nothing there, so its address stays on the first).
    let vectors = nr_eff.div_ceil(8);
    let b_hi = if ops.b_cols > 8 { 8 } else { 0 };
    // SAFETY: for `l < kc`, `B` row `l` starts at `l·ldb ≤ (kc−1)·ldb`
    // and its masked loads touch columns `< b_cols` only (`b_hi < b_cols`
    // when it is 8), so every element read is below
    // `(kc−1)·ldb + b_cols`; `A` element `(i, l)` sits at
    // `a_row[i] + l·a_step ≤ max(a_row) + (kc−1)·a_step`. The first
    // assert (`reads_within`) puts both bounds inside the slices. In `C`,
    // `at` is formed only for `i < mr_eff` and `8·h < nr_eff`, so it
    // points at offset `i·ldc + 8·h ≤ (mr_eff−1)·ldc + nr_eff − 1`, and
    // the masked load and store touch only the lanes their mask enables,
    // columns `j < nr_eff` of that row, offsets with the same bound, which
    // the third assert puts below `c_tile.len()`. `avx512f` is enabled for
    // the whole compilation (this function only exists under that `cfg`).
    unsafe {
        let mut acc = [[_mm512_setzero_pd(); 2]; MR];
        let (a, b) = (ops.a.as_ptr(), ops.b.as_ptr());
        for l in 0..kc {
            let bp = b.add(l * ops.ldb);
            let b0 = _mm512_maskz_loadu_pd(b_mask[0], bp);
            let b1 = _mm512_maskz_loadu_pd(b_mask[1], bp.add(b_hi));
            let ap = a.add(l * ops.a_step);
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm512_set1_pd(*ap.add(ops.a_row[i]));
                row[0] = _mm512_fmadd_pd(ai, b0, row[0]);
                row[1] = _mm512_fmadd_pd(ai, b1, row[1]);
            }
        }
        let alpha = _mm512_set1_pd(alpha);
        let cp = c_tile.as_mut_ptr();
        for (i, row) in acc.iter().enumerate().take(mr_eff) {
            for (h, &sum) in row.iter().enumerate().take(vectors) {
                let at = cp.add(i * ldc + 8 * h);
                let old = _mm512_mask_loadu_pd(_mm512_setzero_pd(), mask[h], at);
                _mm512_mask_storeu_pd(at, mask[h], _mm512_fmadd_pd(alpha, sum, old));
            }
        }
    }
}

/// Applies one packed `A` block against one packed `B` block, updating the
/// `mc×nc` region of `C` that starts at column `jc` inside `c_rows`
/// (`c_rows` is the row-major stripe of `C` holding the block's rows;
/// `ldc` is the full row stride).
#[allow(clippy::too_many_arguments)]
fn packed_block_update(
    alpha: f64,
    a_pack: &[f64],
    b_pack: &[f64],
    c_rows: &mut [f64],
    ldc: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
) {
    for (b_panel, jr) in b_pack.chunks_exact(NR * kc).zip((0..nc).step_by(NR)) {
        let nr_eff = NR.min(nc - jr);
        for (a_panel, ir) in a_pack.chunks_exact(MR * kc).zip((0..mc).step_by(MR)) {
            let mr_eff = MR.min(mc - ir);
            let c_tile = &mut c_rows[ir * ldc + jc + jr..];
            let ops = TileOperands::packed(a_panel, b_panel);
            update_tile(kc, &ops, alpha, c_tile, ldc, mr_eff, nr_eff);
        }
    }
}

/// `c += alpha · a · b` straight off the operands' rows, packing nothing:
/// the packed path's microkernel, tile by tile, with each tile's `A` rows
/// and `B` columns read where they lie (their leading dimensions are the
/// views' strides). `KC` slices run outermost, in ascending order, as in
/// the packed drivers, so every entry of `C` sees the same operations in
/// the same order as there and the two paths agree bit for bit on every
/// shape. What `GemmKernel::Packed` runs on the shapes [`in_place_pays`]
/// admits, and what [`crate::gemm_view`] runs on any shape.
pub(crate) fn gemm_in_place(alpha: f64, a: &MatrixView<'_>, b: &MatrixView<'_>, c: &mut Matrix) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let (lda, ldb) = (a.stride(), b.stride());
    let (a_all, b_all) = (a.as_slice(), b.as_slice());
    let c_all = c.as_mut_slice();
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for jr in (0..n).step_by(NR) {
            let nr_eff = NR.min(n - jr);
            let b_tile = &b_all[pc * ldb + jr..];
            for ir in (0..m).step_by(MR) {
                let mr_eff = MR.min(m - ir);
                let ops = TileOperands::in_place(
                    &a_all[ir * lda + pc..],
                    lda,
                    mr_eff,
                    b_tile,
                    ldb,
                    nr_eff,
                );
                update_tile(
                    kc,
                    &ops,
                    alpha,
                    &mut c_all[ir * n + jr..],
                    n,
                    mr_eff,
                    nr_eff,
                );
            }
        }
    }
}

fn packed(alpha: f64, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.cols();
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let threads = rayon::current_num_threads();
    // Fan out over MC row blocks only when more than one exists and the
    // arithmetic amortizes the scoped-thread dispatch.
    if threads > 1 && m > MC && flop_pairs(m, k, n) >= FAN_OUT_PAIRS {
        gemm_packed_parallel(alpha, a, b, c, threads);
    } else {
        gemm_packed_st(alpha, a, b, c);
    }
}

/// Single-threaded packed driver; packing scratch comes from the calling
/// thread's reusable buffers.
fn gemm_packed_st(alpha: f64, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.cols();
    PACK_SCRATCH.with(|scratch| {
        let (a_buf, b_buf) = &mut *scratch.borrow_mut();
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let b_pack = pack_b(b, pc, jc, kc, nc, b_buf);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    let a_pack = pack_a(a, ic, pc, mc, kc, a_buf);
                    let c_rows = &mut c.as_mut_slice()[ic * n..(ic + mc) * n];
                    packed_block_update(alpha, a_pack, b_pack, c_rows, n, jc, mc, nc, kc);
                }
            }
        }
    });
}

/// Parallel packed driver: `B` blocks are packed once by the caller and
/// shared read-only; `MC` row blocks of `C` are dealt round-robin to
/// scoped worker threads, each with its own persistent `A`-packing buffer.
fn gemm_packed_parallel(alpha: f64, a: &Matrix, b: &Matrix, c: &mut Matrix, threads: usize) {
    let (m, k) = a.shape();
    let n = b.cols();
    let workers = threads.min(m.div_ceil(MC));
    // One A-pack scratch per worker, allocated once per call (workers are
    // scoped threads, so the caller's thread-locals are not theirs).
    let mut a_bufs: Vec<Vec<f64>> = (0..workers).map(|_| Vec::new()).collect();
    PACK_SCRATCH.with(|scratch| {
        let (_, b_buf) = &mut *scratch.borrow_mut();
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let b_pack = pack_b(b, pc, jc, kc, nc, b_buf);
                let mut assignments: Vec<Vec<(usize, &mut [f64])>> =
                    (0..workers).map(|_| Vec::new()).collect();
                for (idx, c_rows) in c.as_mut_slice().chunks_mut(MC * n).enumerate() {
                    assignments[idx % workers].push((idx, c_rows));
                }
                std::thread::scope(|s| {
                    for (queue, a_buf) in assignments.into_iter().zip(a_bufs.iter_mut()) {
                        s.spawn(move || {
                            for (idx, c_rows) in queue {
                                let ic = idx * MC;
                                let mc = MC.min(m - ic);
                                let a_pack = pack_a(a, ic, pc, mc, kc, a_buf);
                                packed_block_update(
                                    alpha, a_pack, b_pack, c_rows, n, jc, mc, nc, kc,
                                );
                            }
                        });
                    }
                });
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::seeded_uniform;
    use proptest::prelude::*;

    const ALL_KERNELS: [GemmKernel; 4] = [
        GemmKernel::Naive,
        GemmKernel::Blocked,
        GemmKernel::Parallel,
        GemmKernel::Packed,
    ];

    fn reference_product(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        gemm_naive(1.0, a, b, &mut c);
        c
    }

    #[test]
    fn default_kernel_is_packed() {
        assert_eq!(GemmKernel::default(), GemmKernel::Packed);
    }

    #[test]
    fn identity_is_neutral_for_all_kernels() {
        let a = seeded_uniform(7, 7, 42);
        let id = Matrix::identity(7);
        for kernel in ALL_KERNELS {
            let mut c = Matrix::zeros(7, 7);
            gemm(kernel, &a, &id, &mut c);
            assert!(c.approx_eq(&a, 1e-12), "kernel {kernel:?} failed");
        }
    }

    #[test]
    fn gemm_accumulates_instead_of_overwriting() {
        for kernel in [GemmKernel::Blocked, GemmKernel::Packed] {
            let a = Matrix::identity(3);
            let b = Matrix::identity(3);
            let mut c = Matrix::from_fn(3, 3, |_, _| 1.0);
            gemm(kernel, &a, &b, &mut c);
            // C = ones + I
            assert_eq!(c.get(0, 0), 2.0, "{kernel:?}");
            assert_eq!(c.get(0, 1), 1.0, "{kernel:?}");
        }
    }

    #[test]
    fn rectangular_shapes_are_supported() {
        let a = seeded_uniform(5, 9, 1);
        let b = seeded_uniform(9, 3, 2);
        let want = reference_product(&a, &b);
        for kernel in [
            GemmKernel::Blocked,
            GemmKernel::Parallel,
            GemmKernel::Packed,
        ] {
            let mut c = Matrix::zeros(5, 3);
            gemm(kernel, &a, &b, &mut c);
            assert!(c.approx_eq(&want, 1e-10), "kernel {kernel:?} failed");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_inner_dimensions_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        gemm(GemmKernel::Naive, &a, &b, &mut c);
    }

    #[test]
    fn large_enough_to_cross_tile_boundaries() {
        let n = TILE + 17; // force partial tiles on every edge
        let a = seeded_uniform(n, n, 7);
        let b = seeded_uniform(n, n, 8);
        let want = reference_product(&a, &b);
        for kernel in [GemmKernel::Parallel, GemmKernel::Packed] {
            let mut c = Matrix::zeros(n, n);
            gemm(kernel, &a, &b, &mut c);
            assert!(c.approx_eq(&want, 1e-8), "{kernel:?}");
        }
    }

    #[test]
    fn packed_crosses_cache_block_boundaries() {
        // Exceed KC and MC so the pc/ic loops run more than once, with
        // ragged edges on every dimension.
        let m = MC + MR + 1;
        let k = KC + 3;
        let n = 2 * NR + 5;
        let a = seeded_uniform(m, k, 11);
        let b = seeded_uniform(k, n, 12);
        let want = reference_product(&a, &b);
        let mut c = Matrix::zeros(m, n);
        gemm(GemmKernel::Packed, &a, &b, &mut c);
        assert!(
            c.approx_eq(&want, 1e-8),
            "max diff {}",
            c.max_abs_diff(&want)
        );
    }

    #[test]
    fn gemm_scaled_negative_alpha_subtracts() {
        let a = seeded_uniform(4, 4, 9);
        let b = seeded_uniform(4, 4, 10);
        for kernel in ALL_KERNELS {
            let mut c = Matrix::zeros(4, 4);
            gemm(kernel, &a, &b, &mut c);
            gemm_scaled(kernel, -1.0, &a, &b, &mut c);
            assert!(c.approx_eq(&Matrix::zeros(4, 4), 1e-10), "{kernel:?}");
        }
    }

    #[test]
    fn flop_pairs_counts_mk_n() {
        assert_eq!(flop_pairs(2, 3, 4), 24);
        assert_eq!(flop_pairs(0, 3, 4), 0);
    }

    #[test]
    fn packed_params_env_is_sane() {
        const { assert!(MC >= MR && MC.is_multiple_of(MR)) };
        const { assert!(NC >= NR && NC.is_multiple_of(NR)) };
        const { assert!(KC >= 1) };
    }

    #[test]
    fn update_tile_matches_a_scalar_loop_over_the_same_panels() {
        // Whichever body this build compiled, against the textbook loop on
        // the same packed operands; `C` starts at zero inside the tile so
        // the only rounding is the dot product's, and holds a sentinel
        // everywhere else so a write past the ragged edge shows. The slice
        // handed in ends with the tile's last entry, the shortest the
        // asserts admit and what the last tile of a matrix gets.
        const SENTINEL: f64 = -7.5;
        let ldc = NR + 3;
        for kc in [0usize, 1, 7, 8, 128, 257] {
            let a_panel = seeded_uniform(kc + 1, MR, 21);
            let b_panel = seeded_uniform(kc + 1, NR, 22);
            let (ap, bp) = (
                &a_panel.as_slice()[..kc * MR],
                &b_panel.as_slice()[..kc * NR],
            );
            for (mr_eff, nr_eff) in [(MR, NR), (MR - 1, NR - 3), (1, 1), (MR, 9), (2, 8)] {
                let inside = |i: usize, j: usize| i < mr_eff && j < nr_eff;
                let mut c =
                    Matrix::from_fn(MR, ldc, |i, j| if inside(i, j) { 0.0 } else { SENTINEL });
                let c_tile = &mut c.as_mut_slice()[..(mr_eff - 1) * ldc + nr_eff];
                let ops = TileOperands::packed(ap, bp);
                update_tile(kc, &ops, 1.0, c_tile, ldc, mr_eff, nr_eff);
                // The same tile read in place: `A` rows `lda` apart and `B`
                // rows `ldb` apart, each slice ending at the last element
                // the tile reads. Same bits as from the packed panels.
                if kc > 0 {
                    let (lda, ldb) = (kc + 2, nr_eff + 3);
                    let a_rows = Matrix::from_fn(mr_eff, lda, |i, l| {
                        if l < kc {
                            ap[l * MR + i]
                        } else {
                            SENTINEL
                        }
                    });
                    let b_rows = Matrix::from_fn(kc, ldb, |l, j| {
                        if j < nr_eff {
                            bp[l * NR + j]
                        } else {
                            SENTINEL
                        }
                    });
                    let a_in = &a_rows.as_slice()[..(mr_eff - 1) * lda + kc];
                    let b_in = &b_rows.as_slice()[..(kc - 1) * ldb + nr_eff];
                    let ops = TileOperands::in_place(a_in, lda, mr_eff, b_in, ldb, nr_eff);
                    let mut again =
                        Matrix::from_fn(MR, ldc, |i, j| if inside(i, j) { 0.0 } else { SENTINEL });
                    let tile = &mut again.as_mut_slice()[..(mr_eff - 1) * ldc + nr_eff];
                    update_tile(kc, &ops, 1.0, tile, ldc, mr_eff, nr_eff);
                    let bits =
                        |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&again),
                        bits(&c),
                        "kc {kc} ({mr_eff}, {nr_eff}): in place"
                    );
                }
                for i in 0..MR {
                    for j in 0..ldc {
                        if !inside(i, j) {
                            assert_eq!(c.get(i, j), SENTINEL, "kc {kc}: wrote ({i}, {j})");
                            continue;
                        }
                        let (mut want, mut mag) = (0.0, 0.0);
                        for l in 0..kc {
                            want += ap[l * MR + i] * bp[l * NR + j];
                            mag += (ap[l * MR + i] * bp[l * NR + j]).abs();
                        }
                        let err = (c.get(i, j) - want).abs();
                        let bound = kc as f64 * f64::EPSILON * mag;
                        assert!(err <= bound, "kc {kc} ({i}, {j}): {err:e} > {bound:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_results_do_not_depend_on_where_an_entry_sits() {
        // What every schedule-vs-schedule `to_bits` suite assumes: a dot
        // product comes out the same whichever lane, micro-panel, edge
        // tile or cache block computes it. `A·[B B]` repeats each one
        // `n` columns apart and `[A; A]·B` `m` rows apart, with `m` and
        // `n` multiples of neither `MR` nor `NR`.
        for (m, k, n) in [(13, 50, 21), (MC + 5, KC + 5, 21)] {
            let a = seeded_uniform(m, k, 31);
            let b = seeded_uniform(k, n, 32);
            let bb = Matrix::from_fn(k, 2 * n, |l, j| b.get(l, j % n));
            let aa = Matrix::from_fn(2 * m, k, |i, l| a.get(i % m, l));
            let mut wide = Matrix::zeros(m, 2 * n);
            gemm_scaled(GemmKernel::Packed, -1.0, &a, &bb, &mut wide);
            let mut tall = Matrix::zeros(2 * m, n);
            gemm_scaled(GemmKernel::Packed, -1.0, &aa, &b, &mut tall);
            for i in 0..m {
                for j in 0..n {
                    let bits = wide.get(i, j).to_bits();
                    assert_eq!(bits, wide.get(i, j + n).to_bits(), "({i}, {j}) left/right");
                    assert_eq!(bits, tall.get(i, j).to_bits(), "({i}, {j}) wide/tall");
                    assert_eq!(bits, tall.get(i + m, j).to_bits(), "({i}, {j}) top/bottom");
                }
            }
        }
    }

    #[test]
    fn the_rank_local_updates_take_the_path_their_sweep_chose() {
        // gemm-comm's 64×8×64 and the small squares run in place; the
        // wide thin products, gemm-compute's 512×128×512 update and its
        // 1024³ reference, and anything the packed driver fans out, pack.
        for (m, k, n) in [
            (64, 8, 64),
            (32, 32, 32),
            (64, 64, 64),
            (96, 96, 96),
            (1, 1, 1),
        ] {
            assert!(in_place_pays(m, k, n), "{m}x{k}x{n}");
        }
        for (m, k, n) in [
            (256, 32, 256),
            (512, 8, 512),
            (512, 32, 512),
            (512, 128, 512),
            (1024, 1024, 1024),
            (128, 128, 128),
        ] {
            assert!(!in_place_pays(m, k, n), "{m}x{k}x{n}");
        }
    }

    proptest! {
        #[test]
        fn in_place_matches_packed_bit_for_bit(
            m in 1usize..=96, k in 1usize..=KC + 1, n in 1usize..=96,
            negate in 0usize..2, seed in 0u64..500
        ) {
            // Whichever microkernel body this build compiled, on ragged
            // tiles at every edge, on both sides of the in-place cut and
            // past one `KC` slice, into a `C` that does not start at zero.
            let alpha = if negate == 1 { -1.0 } else { 1.0 };
            let a = seeded_uniform(m, k, seed);
            let b = seeded_uniform(k, n, seed.wrapping_add(1));
            let start = seeded_uniform(m, n, seed.wrapping_add(2));
            let (mut packed_c, mut in_place_c, mut auto_c) = (start.clone(), start.clone(), start);
            gemm_packed(alpha, &a, &b, &mut packed_c);
            gemm_in_place(alpha, &a.view(), &b.view(), &mut in_place_c);
            gemm_scaled(GemmKernel::Packed, alpha, &a, &b, &mut auto_c);
            let bits = |c: &Matrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert!(bits(&in_place_c) == bits(&packed_c), "{}x{}x{} in place", m, k, n);
            prop_assert!(bits(&auto_c) == bits(&packed_c), "{}x{}x{} auto", m, k, n);
        }

        #[test]
        fn blocked_matches_naive(
            m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000
        ) {
            let a = seeded_uniform(m, k, seed);
            let b = seeded_uniform(k, n, seed.wrapping_add(1));
            let want = reference_product(&a, &b);
            let mut c = Matrix::zeros(m, n);
            gemm(GemmKernel::Blocked, &a, &b, &mut c);
            prop_assert!(c.approx_eq(&want, 1e-10));
        }

        #[test]
        fn parallel_matches_naive(
            m in 1usize..32, k in 1usize..32, n in 1usize..32, seed in 0u64..1000
        ) {
            let a = seeded_uniform(m, k, seed);
            let b = seeded_uniform(k, n, seed.wrapping_add(1));
            let want = reference_product(&a, &b);
            let mut c = Matrix::zeros(m, n);
            gemm(GemmKernel::Parallel, &a, &b, &mut c);
            prop_assert!(c.approx_eq(&want, 1e-10));
        }

        #[test]
        fn packed_matches_naive_rectangular(
            m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000
        ) {
            // Shapes deliberately not multiples of MR/NR: every ragged
            // edge path must agree with the oracle.
            let a = seeded_uniform(m, k, seed);
            let b = seeded_uniform(k, n, seed.wrapping_add(1));
            let want = reference_product(&a, &b);
            let mut c = Matrix::zeros(m, n);
            gemm(GemmKernel::Packed, &a, &b, &mut c);
            prop_assert!(c.approx_eq(&want, 1e-10));
        }

        #[test]
        fn packed_unit_extent_edges(
            axis in 0usize..3, other in 1usize..20, seed in 0u64..500
        ) {
            // One of m/k/n pinned to 1 (vector × matrix, outer products,
            // dot-like shapes).
            let (m, k, n) = match axis {
                0 => (1, other, other + 1),
                1 => (other, 1, other + 2),
                _ => (other + 1, other, 1),
            };
            let a = seeded_uniform(m, k, seed);
            let b = seeded_uniform(k, n, seed.wrapping_add(1));
            let want = reference_product(&a, &b);
            let mut c = Matrix::zeros(m, n);
            gemm(GemmKernel::Packed, &a, &b, &mut c);
            prop_assert!(c.approx_eq(&want, 1e-10));
        }

        #[test]
        fn packed_negative_alpha_accumulates(
            m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..500
        ) {
            // C starts random, then C += A·B followed by C += (−1)·A·B
            // must restore it exactly within tolerance.
            let a = seeded_uniform(m, k, seed);
            let b = seeded_uniform(k, n, seed.wrapping_add(1));
            let start = seeded_uniform(m, n, seed.wrapping_add(2));
            let mut c = start.clone();
            gemm_scaled(GemmKernel::Packed, 1.0, &a, &b, &mut c);
            gemm_scaled(GemmKernel::Packed, -1.0, &a, &b, &mut c);
            prop_assert!(c.approx_eq(&start, 1e-10));
        }

        #[test]
        fn packed_meets_its_forward_error_bound(
            m in 1usize..24, k in 1usize..KC + 4, n in 1usize..24,
            negate in 0usize..2, seed in 0u64..500
        ) {
            // The stated bound: |C − Ĉ| ≤ (k + 2)·u·(|A|·|B|) entry by
            // entry, Ĉ a compensated (dot2: two-sum of the sums, `mul_add`
            // residual of the products) evaluation. `k` rounding errors
            // in the dot product, one where a second `KC` slice is added
            // into `C`, one in the reference itself.
            let u = f64::EPSILON / 2.0;
            let alpha = if negate == 1 { -1.0 } else { 1.0 };
            let a = seeded_uniform(m, k, seed);
            let b = seeded_uniform(k, n, seed.wrapping_add(1));
            let mut c = Matrix::zeros(m, n);
            gemm_scaled(GemmKernel::Packed, alpha, &a, &b, &mut c);
            for i in 0..m {
                for j in 0..n {
                    let (mut sum, mut comp, mut mag) = (0.0f64, 0.0f64, 0.0f64);
                    for l in 0..k {
                        let (x, y) = (a.get(i, l), b.get(l, j));
                        let p = x * y;
                        let t = sum + p;
                        let z = t - sum;
                        comp += x.mul_add(y, -p) + ((sum - (t - z)) + (p - z));
                        sum = t;
                        mag += p.abs();
                    }
                    let err = (c.get(i, j) - alpha * (sum + comp)).abs();
                    let bound = (k + 2) as f64 * u * mag;
                    prop_assert!(err <= bound, "({}, {}): {:e} > {:e}", i, j, err, bound);
                }
            }
        }

        #[test]
        fn gemm_is_linear_in_a(
            m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..500
        ) {
            // (A1 + A2)·B == A1·B + A2·B
            let a1 = seeded_uniform(m, k, seed);
            let a2 = seeded_uniform(m, k, seed.wrapping_add(10));
            let b = seeded_uniform(k, n, seed.wrapping_add(20));
            let mut a_sum = a1.clone();
            a_sum.add_assign(&a2);

            let mut lhs = Matrix::zeros(m, n);
            gemm(GemmKernel::Packed, &a_sum, &b, &mut lhs);

            let mut rhs = Matrix::zeros(m, n);
            gemm(GemmKernel::Packed, &a1, &b, &mut rhs);
            gemm(GemmKernel::Packed, &a2, &b, &mut rhs);

            prop_assert!(lhs.approx_eq(&rhs, 1e-9));
        }
    }
}
