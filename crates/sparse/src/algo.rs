//! 2-D SUMMA-style sparse schedules, generic over the substrate.
//!
//! Both algorithms follow the dense `summa()` schedule shape exactly —
//! same split colors for the row/column communicators, same pivot
//! steps (`pivot_steps`), same per-step `trace_step`/`compute`/
//! `maybe_step_sync` structure — so everything the dense stack already
//! guarantees (fault replay cursors, deadline propagation, per-step
//! traces, real-vs-sim schedule identity) carries over to sparse jobs
//! unchanged.
//!
//! * [`spgemm_2d`] — `C = A·B` with *sparse* `A`, `B`, `C`: pivot CSR
//!   panels broadcast down [`bcast_sp`]'s binomial tree, with per-message
//!   wire sizes proportional to each panel's own `nnz`;
//! * [`sddmm_2d`] — `C = S ⊙ (A·B)` with sparse `S` and dense `A`, `B`:
//!   the dense pivot panels ride the shared-panel `bcast_shared`
//!   collectives, cut once by their owner, while `S` (and the output
//!   pattern) never leaves its tile.

use crate::comm::{bcast_sp, SparseComm, SparseLike};
use hsumma_core::{grid_lines, pivot_steps, MatLike};
use hsumma_matrix::{BlockDist, GridShape};
use hsumma_runtime::{BcastAlgorithm, CommError};

/// Parameters of a 2-D sparse multiply.
#[derive(Clone, Copy, Debug)]
pub struct SparseConfig {
    /// Pivot panel width `b`. Must divide both local tile extents.
    pub block: usize,
    /// Broadcast algorithm for SDDMM's *dense* pivot panels (sparse
    /// panels always use the binomial tree of [`bcast_sp`]).
    pub bcast: BcastAlgorithm,
}

impl Default for SparseConfig {
    fn default() -> Self {
        SparseConfig {
            block: 32,
            bcast: BcastAlgorithm::Binomial,
        }
    }
}

fn check_sparse_tiles<S: SparseLike>(
    grid: GridShape,
    n: usize,
    a: &S,
    b: &S,
    comm_size: usize,
    bs: usize,
) -> (usize, usize) {
    assert_eq!(
        comm_size,
        grid.size(),
        "communicator must span the whole grid"
    );
    let (th, tw) = BlockDist::new(grid, n, n).tile_shape();
    assert_eq!((a.rows(), a.cols()), (th, tw), "A tile has wrong shape");
    assert_eq!((b.rows(), b.cols()), (th, tw), "B tile has wrong shape");
    assert!(bs > 0, "block size must be positive");
    assert_eq!(tw % bs, 0, "block must divide the tile width");
    assert_eq!(th % bs, 0, "block must divide the tile height");
    (th, tw)
}

/// Distributed sparse × sparse product `C = A·B` on the calling rank.
/// SPMD: every rank of `comm` must call this with its local CSR tiles
/// (block-checkerboard distribution over `grid`, square `n × n` global
/// operands). Returns the local tile of `C` in the substrate's sparse
/// payload.
///
/// At step `k` the owners of pivot column panel `k` of `A` slice it out
/// of their tile and broadcast it along their grid row; likewise `B`'s
/// pivot row panel down the grid column; every rank accumulates
/// `C_tile += A_panel · B_panel` with the local Gustavson kernel. Panel
/// broadcasts travel under the step index as a user-level tag, so a
/// `FaultPlan` App-class rule can drop a specific in-flight sparse panel
/// on either substrate.
///
/// # Panics
/// Panics if the grid, tile shapes or block size are inconsistent.
pub fn spgemm_2d<C: SparseComm>(
    comm: &C,
    grid: GridShape,
    n: usize,
    a: &C::Sp,
    b: &C::Sp,
    cfg: &SparseConfig,
) -> Result<C::Sp, CommError> {
    let bs = cfg.block;
    let (th, tw) = check_sparse_tiles(grid, n, a, b, comm.size(), bs);

    let (gi, gj) = grid.coords(comm.rank());
    let (row_comm, col_comm) = grid_lines(comm, grid);

    let mut acc = C::spgemm_acc(th, tw);
    for (k, (col, row)) in pivot_steps(n, grid, bs).into_iter().enumerate() {
        comm.trace_step(k, bs, bs, || -> Result<(), CommError> {
            // --- pivot column panel of A, broadcast along the grid row ---
            let mine = (gj == col.owner).then(|| a.block(0, col.offset, th, bs));
            let a_panel = bcast_sp(&row_comm, col.owner, k as u64, th, bs, mine)?;

            // --- pivot row panel of B, broadcast along the grid column ---
            let mine = (gi == row.owner).then(|| b.block(row.offset, 0, bs, tw));
            let b_panel = bcast_sp(&col_comm, row.owner, k as u64, bs, tw, mine)?;

            // --- local update: C += A_panel · B_panel --------------------
            let pairs = C::spgemm_pairs(&a_panel, &b_panel);
            comm.compute(pairs, (2.0 * pairs) as u64, || {
                C::spgemm_step(&mut acc, &a_panel, &b_panel)
            });
            Ok(())
        })?;
        comm.maybe_step_sync()?;
    }
    Ok(C::spgemm_finalize(acc))
}

/// Distributed sampled dense-dense matrix multiplication
/// `C = S ⊙ (A·B)` on the calling rank: sparse `n × n` sample matrix
/// `S`, dense `n × n` operands `A` and `B`, all block-checkerboard over
/// `grid`. Returns the local `C` tile — `S`'s pattern with each sampled
/// entry scaled by the corresponding dot product.
///
/// The schedule is exactly SUMMA's: dense pivot panels of `A` and `B`
/// broadcast with `cfg.bcast` each step; only the sampled dot products
/// are accumulated (`nnz(S_tile) · b` pairs per step instead of the
/// dense `th·tw·b`). `S` itself never travels.
///
/// # Panics
/// Panics if the grid, tile shapes or block size are inconsistent.
pub fn sddmm_2d<C: SparseComm>(
    comm: &C,
    grid: GridShape,
    n: usize,
    s: &C::Sp,
    a: &C::Mat,
    b: &C::Mat,
    cfg: &SparseConfig,
) -> Result<C::Sp, CommError> {
    let bs = cfg.block;
    let (th, tw) = BlockDist::new(grid, n, n).tile_shape();
    assert_eq!(
        comm.size(),
        grid.size(),
        "communicator must span the whole grid"
    );
    assert_eq!((s.rows(), s.cols()), (th, tw), "S tile has wrong shape");
    assert_eq!((a.rows(), a.cols()), (th, tw), "A tile has wrong shape");
    assert_eq!((b.rows(), b.cols()), (th, tw), "B tile has wrong shape");
    assert!(bs > 0, "block size must be positive");
    assert_eq!(tw % bs, 0, "block must divide the tile width");
    assert_eq!(th % bs, 0, "block must divide the tile height");

    let (gi, gj) = grid.coords(comm.rank());
    let (row_comm, col_comm) = grid_lines(comm, grid);

    let mut acc = C::sddmm_acc(s);
    let step_pairs = s.nnz() * bs;
    for (k, (col, row)) in pivot_steps(n, grid, bs).into_iter().enumerate() {
        comm.trace_step(k, bs, bs, || -> Result<(), CommError> {
            // Each panel moves once: its owner cuts it into a shared
            // matrix and every rank multiplies from the root's copy.
            let mine = (gj == col.owner).then(|| row_comm.cut(a, 0, col.offset, th, bs));
            let a_panel = row_comm.bcast_shared(cfg.bcast, col.owner, th, bs, mine)?;

            let mine = (gi == row.owner).then(|| col_comm.cut(b, row.offset, 0, bs, tw));
            let b_panel = col_comm.bcast_shared(cfg.bcast, row.owner, bs, tw, mine)?;

            comm.compute(step_pairs as f64, 2 * step_pairs as u64, || {
                C::sddmm_step(
                    &mut acc,
                    s,
                    C::shared_ref(&a_panel),
                    C::shared_ref(&b_panel),
                )
            });
            Ok(())
        })?;
        comm.maybe_step_sync()?;
    }
    Ok(C::sddmm_finalize(s, acc))
}
