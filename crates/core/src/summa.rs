//! Executable SUMMA over the threaded runtime.
//!
//! SUMMA (van de Geijn & Watts 1997; §II-A of the paper) multiplies
//! `C = A·B` on an `s × t` grid: at step `k`, the owners of pivot column
//! panel `k` of `A` broadcast it along their grid rows, the owners of
//! pivot row panel `k` of `B` broadcast it along their grid columns, and
//! every processor accumulates `C_tile += A_panel · B_panel`. The loop
//! itself is the pivot engine's blocking loop over one group (HSUMMA at
//! `G = 1` with `B = b`).

use crate::comm::Communicator;
use crate::partition::MatMulDims;
use crate::pivot::{self, Spec};
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_runtime::{BcastAlgorithm, CommError};

/// Parameters of a SUMMA run.
#[derive(Clone, Copy, Debug)]
pub struct SummaConfig {
    /// Panel width `b`; a tile's last panel may be narrower.
    pub block: usize,
    /// Broadcast algorithm for the pivot panels.
    pub bcast: BcastAlgorithm,
    /// Local multiply kernel.
    pub kernel: GemmKernel,
}

impl Default for SummaConfig {
    fn default() -> Self {
        SummaConfig {
            block: 32,
            bcast: BcastAlgorithm::Binomial,
            kernel: GemmKernel::Packed,
        }
    }
}

/// Runs SUMMA on the calling rank. SPMD: every rank of `comm` must call
/// this with its local tiles of `A` and `B` (the block checkerboard of
/// [`crate::Distribution::grid2d`] over `grid`; neither the grid nor the
/// block needs to divide `n`). This entry point is the square `n × n`
/// special case — [`crate::run_planned_gemm`] takes general `(M, L, N)`
/// extents. Returns the local tile of `C`.
///
/// Generic over the [`Communicator`] substrate: with the runtime's `Comm`
/// it multiplies real matrices; with the simulator's `SimComm` the same
/// schedule advances virtual clocks over phantom payloads.
///
/// # Panics
/// Panics if `block` is zero or a tile is not this rank's share of the
/// grid.
pub fn summa<C: Communicator>(
    comm: &C,
    grid: GridShape,
    n: usize,
    a: &C::Mat,
    b: &C::Mat,
    cfg: &SummaConfig,
) -> Result<C::Mat, CommError> {
    let spec = Spec::summa(grid, MatMulDims::square(n), cfg);
    pivot::blocking(comm, &spec, a, b, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{distributed_product, reference_product};
    use hsumma_matrix::{seeded_uniform, BlockDist};
    use hsumma_runtime::Runtime;

    /// Runs SUMMA end-to-end: scatter, multiply, gather, compare.
    fn run_summa_case(grid: GridShape, n: usize, cfg: SummaConfig) {
        let a = seeded_uniform(n, n, 100);
        let b = seeded_uniform(n, n, 200);
        let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            summa(comm, grid, n, &at, &bt, &cfg).unwrap()
        });
        let want = reference_product(&a, &b);
        assert!(
            got.approx_eq(&want, 1e-9),
            "grid {grid:?} n={n} cfg={cfg:?}: max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn summa_square_grid_matches_serial() {
        run_summa_case(
            GridShape::new(2, 2),
            8,
            SummaConfig {
                block: 2,
                ..Default::default()
            },
        );
    }

    #[test]
    fn summa_rectangular_grid_matches_serial() {
        run_summa_case(
            GridShape::new(2, 4),
            16,
            SummaConfig {
                block: 2,
                ..Default::default()
            },
        );
        run_summa_case(
            GridShape::new(4, 2),
            16,
            SummaConfig {
                block: 2,
                ..Default::default()
            },
        );
    }

    #[test]
    fn summa_single_rank_degenerates_to_local_gemm() {
        run_summa_case(
            GridShape::new(1, 1),
            8,
            SummaConfig {
                block: 4,
                ..Default::default()
            },
        );
    }

    #[test]
    fn summa_block_size_one() {
        run_summa_case(
            GridShape::new(2, 2),
            6,
            SummaConfig {
                block: 1,
                ..Default::default()
            },
        );
    }

    #[test]
    fn summa_block_equal_to_tile() {
        // b = n/s: a single step per tile boundary.
        run_summa_case(
            GridShape::new(2, 2),
            8,
            SummaConfig {
                block: 4,
                ..Default::default()
            },
        );
    }

    #[test]
    fn summa_all_broadcast_algorithms_agree() {
        let grid = GridShape::new(2, 2);
        let n = 8;
        for bcast in [
            BcastAlgorithm::Flat,
            BcastAlgorithm::Binomial,
            BcastAlgorithm::Binary,
            BcastAlgorithm::Ring,
            BcastAlgorithm::Pipelined { segments: 3 },
            BcastAlgorithm::ScatterAllgather,
        ] {
            run_summa_case(
                grid,
                n,
                SummaConfig {
                    block: 2,
                    bcast,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn summa_counts_communication_and_computation() {
        let grid = GridShape::new(2, 2);
        let n = 16;
        let a = seeded_uniform(n, n, 1);
        let b = seeded_uniform(n, n, 2);
        let dist = BlockDist::new(grid, n, n);
        let a_tiles = dist.scatter(&a);
        let b_tiles = dist.scatter(&b);
        let stats = Runtime::run(grid.size(), |comm| {
            let at = a_tiles[comm.rank()].clone();
            let bt = b_tiles[comm.rank()].clone();
            comm.reset_stats();
            let _ = summa(
                comm,
                grid,
                n,
                &at,
                &bt,
                &SummaConfig {
                    block: 4,
                    ..Default::default()
                },
            )
            .unwrap();
            comm.stats()
        });
        for s in &stats {
            assert!(s.comp_seconds > 0.0, "compute time should be recorded");
            assert!(s.msgs_sent > 0, "every rank participates in broadcasts");
        }
    }

    #[test]
    fn summa_block_need_not_divide_the_tile() {
        // n = 9 on 2×2 deals tiles of 5 and 4; blocks of 3 cut them into
        // panels 3, 2 | 3, 1, and the steps refine both axes.
        run_summa_case(
            GridShape::new(2, 2),
            9,
            SummaConfig {
                block: 3,
                ..Default::default()
            },
        );
    }
}
