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
use hsumma_core::{grid_lines, pivot_steps, tile_of, Communicator, MatLike};
use hsumma_matrix::GridShape;
use hsumma_runtime::{BcastAlgorithm, CommError};

/// Parameters of a 2-D sparse multiply.
#[derive(Clone, Copy, Debug)]
pub struct SparseConfig {
    /// Pivot panel width `b`: each tile is cut into panels this wide,
    /// the last one narrower.
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

/// Checks the communicator against the grid and each named tile's
/// `(rows, cols)` against this rank's [`tile_of`] share of an `n × n`
/// operand; returns that share.
fn check_tiles<C: Communicator>(
    comm: &C,
    grid: GridShape,
    n: usize,
    tiles: &[(&str, (usize, usize))],
) -> (usize, usize) {
    assert_eq!(
        comm.size(),
        grid.size(),
        "communicator must span the whole grid"
    );
    let share = tile_of(grid, comm.rank(), n, n);
    for &(name, shape) in tiles {
        assert_eq!(shape, share, "{name} tile has wrong shape");
    }
    share
}

/// Distributed sparse × sparse product `C = A·B` on the calling rank.
/// SPMD: every rank of `comm` must call this with its local CSR tiles,
/// its [`tile_of`] shares of square `n × n` global operands (as
/// [`crate::scatter_csr`] deals them; nothing need divide `n`). Returns
/// the local tile of `C` in the substrate's sparse payload.
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
    let shapes = [("A", (a.rows(), a.cols())), ("B", (b.rows(), b.cols()))];
    let (th, tw) = check_tiles(comm, grid, n, &shapes);

    let (gi, gj) = grid.coords(comm.rank());
    let (row_comm, col_comm) = grid_lines(comm, grid);

    let mut acc = C::spgemm_acc(th, tw);
    for (k, (col, row)) in pivot_steps(n, grid, cfg.block).into_iter().enumerate() {
        let w = col.width;
        comm.trace_step(k, w, w, || -> Result<(), CommError> {
            // --- pivot column panel of A, broadcast along the grid row ---
            let mine = (gj == col.owner).then(|| a.block(0, col.offset, th, w));
            let a_panel = bcast_sp(&row_comm, col.owner, k as u64, th, w, mine)?;

            // --- pivot row panel of B, broadcast along the grid column ---
            let mine = (gi == row.owner).then(|| b.block(row.offset, 0, w, tw));
            let b_panel = bcast_sp(&col_comm, row.owner, k as u64, w, tw, mine)?;

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
/// `S`, dense `n × n` operands `A` and `B`, each rank holding its
/// [`tile_of`] shares. Returns the local `C` tile — `S`'s pattern with
/// each sampled entry scaled by the corresponding dot product.
///
/// The schedule is exactly SUMMA's: dense pivot panels of `A` and `B`
/// broadcast with `cfg.bcast` each step; only the sampled dot products
/// are accumulated (`nnz(S_tile) · w` pairs for a step of width `w`
/// instead of the dense `th·tw·w`). `S` itself never travels.
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
    let shapes = [
        ("S", (s.rows(), s.cols())),
        ("A", (a.rows(), a.cols())),
        ("B", (b.rows(), b.cols())),
    ];
    let (th, tw) = check_tiles(comm, grid, n, &shapes);

    let (gi, gj) = grid.coords(comm.rank());
    let (row_comm, col_comm) = grid_lines(comm, grid);

    let mut acc = C::sddmm_acc(s);
    for (k, (col, row)) in pivot_steps(n, grid, cfg.block).into_iter().enumerate() {
        let w = col.width;
        let step_pairs = s.nnz() * w;
        comm.trace_step(k, w, w, || -> Result<(), CommError> {
            // Each panel moves once: its owner cuts it into a shared
            // matrix and every rank multiplies from the root's copy.
            let mine = (gj == col.owner).then(|| row_comm.cut(a, 0, col.offset, th, w));
            let a_panel = row_comm.bcast_shared(cfg.bcast, col.owner, th, w, mine)?;

            let mine = (gi == row.owner).then(|| col_comm.cut(b, row.offset, 0, w, tw));
            let b_panel = col_comm.bcast_shared(cfg.bcast, row.owner, w, tw, mine)?;

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
