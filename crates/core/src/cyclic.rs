//! SUMMA over a block-cyclic distribution — the paper's future work.
//!
//! §VI: "we believe that by using block-cyclic distribution the
//! communication can be better overlapped and parallelized and thus the
//! communication cost can be reduced even further."
//!
//! With dealing blocks of edge `b` (the SUMMA panel width), pivot panel
//! `k` is owned by grid column `k mod t` (for `A`) and grid row
//! `k mod s` (for `B`) — the ScaLAPACK convention, which is the pivot
//! engine run over the cyclic list of steps. Two consequences:
//!
//! * the broadcast *roots rotate every step* instead of every `n/(t·b)`
//!   steps, which spreads the root's serialized sends over all ranks and
//!   lets consecutive steps overlap (quantified by simulating
//!   `Schedule::Cyclic` against `Schedule::summa` without per-step
//!   synchronization);
//! * correctness is unchanged: each rank's local rows/columns of the
//!   pivot panels line up with its local `C` tile rows/columns under the
//!   same cyclic dealing.

use crate::comm::Communicator;
use crate::partition::{cyclic_steps, MatMulDims};
use crate::pivot::{self, Spec};
use crate::summa::SummaConfig;
use hsumma_matrix::GridShape;
use hsumma_runtime::CommError;

/// Runs SUMMA on operands distributed block-cyclically with dealing
/// block equal to `cfg.block`. SPMD over `comm`; tiles must come from a
/// [`hsumma_matrix::BlockCyclicDist`] with the same grid, extents and
/// block size. Returns the local (cyclic) tile of `C`.
///
/// # Panics
/// Panics if grid, tile shapes or block size are inconsistent (the
/// global block grid `n/b × n/b` must be divisible by the processor
/// grid, as `BlockCyclicDist` requires).
pub fn summa_cyclic<C: Communicator>(
    comm: &C,
    grid: GridShape,
    n: usize,
    a: &C::Mat,
    b: &C::Mat,
    cfg: &SummaConfig,
) -> Result<C::Mat, CommError> {
    let spec = Spec {
        steps: cyclic_steps,
        ..Spec::summa(grid, MatMulDims::square(n), cfg)
    };
    pivot::blocking(comm, &spec, a, b, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simdrive::{simulate, Schedule};
    use crate::testutil::reference_product;
    use hsumma_matrix::{seeded_uniform, BlockCyclicDist};
    use hsumma_netsim::{Platform, SimBcast, SimReport};
    use hsumma_runtime::Runtime;

    /// Simulated (block, cyclic) SUMMA reports for one configuration.
    fn block_and_cyclic(
        plat: &Platform,
        (n, b): (usize, usize),
        bcast: SimBcast,
        step_sync: bool,
    ) -> (SimReport, SimReport) {
        let grid = GridShape::new(4, 4);
        let cfg = SummaConfig {
            block: b,
            bcast,
            ..Default::default()
        };
        let sim = |sched| simulate(&sched, plat, step_sync);
        (
            sim(Schedule::summa(grid, n, b, bcast)),
            sim(Schedule::Cyclic { grid, n, cfg }),
        )
    }

    fn run_cyclic_case(grid: GridShape, n: usize, block: usize) {
        let a = seeded_uniform(n, n, 900);
        let b = seeded_uniform(n, n, 901);
        let dist = BlockCyclicDist::new(grid, n, n, block);
        let at = dist.scatter(&a);
        let bt = dist.scatter(&b);
        let cfg = SummaConfig {
            block,
            ..Default::default()
        };
        let ct = Runtime::run(grid.size(), |comm| {
            summa_cyclic(
                comm,
                grid,
                n,
                &at[comm.rank()].clone(),
                &bt[comm.rank()].clone(),
                &cfg,
            )
            .unwrap()
        });
        let got = dist.gather(&ct);
        let want = reference_product(&a, &b);
        assert!(
            got.approx_eq(&want, 1e-9),
            "grid {grid:?} n={n} block={block}: err {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn cyclic_summa_square_grid() {
        run_cyclic_case(GridShape::new(2, 2), 8, 2);
    }

    #[test]
    fn cyclic_summa_rectangular_grid() {
        run_cyclic_case(GridShape::new(2, 4), 16, 2);
    }

    #[test]
    fn cyclic_summa_multiple_rounds_of_dealing() {
        // 4 block-columns per grid column: ownership wraps 4 times.
        run_cyclic_case(GridShape::new(2, 2), 16, 2);
    }

    #[test]
    fn cyclic_summa_single_rank() {
        run_cyclic_case(GridShape::new(1, 1), 8, 2);
    }

    #[test]
    fn cyclic_and_block_summa_same_product() {
        use crate::summa::summa;
        use crate::testutil::distributed_product;
        let grid = GridShape::new(2, 2);
        let n = 16;
        let a = seeded_uniform(n, n, 31);
        let b = seeded_uniform(n, n, 32);
        let cfg = SummaConfig {
            block: 2,
            ..Default::default()
        };

        let by_block = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            summa(comm, grid, n, &at, &bt, &cfg).unwrap()
        });

        let dist = BlockCyclicDist::new(grid, n, n, 2);
        let at = dist.scatter(&a);
        let bt = dist.scatter(&b);
        let ct = Runtime::run(grid.size(), |comm| {
            summa_cyclic(
                comm,
                grid,
                n,
                &at[comm.rank()].clone(),
                &bt[comm.rank()].clone(),
                &cfg,
            )
            .unwrap()
        });
        let by_cyclic = dist.gather(&ct);

        assert!(by_block.approx_eq(&by_cyclic, 1e-9));
    }

    #[test]
    fn rotating_roots_move_same_data() {
        let (block, cyclic) =
            block_and_cyclic(&Platform::grid5000(), (64, 8), SimBcast::Flat, false);
        assert_eq!(block.msgs, cyclic.msgs);
        assert_eq!(block.bytes, cyclic.bytes);
    }

    #[test]
    fn rotating_roots_overlap_better_without_sync() {
        // §VI's intuition: under a root-serialized (flat) broadcast with
        // no artificial step barrier, rotating ownership spreads the
        // serialization across ranks, so the cyclic schedule's makespan
        // is at most the block schedule's — and strictly better when the
        // root is the bottleneck.
        let plat = Platform {
            name: "root-bound",
            net: hsumma_netsim::Hockney::new(1e-3, 1e-9),
            gamma: 0.0,
        };
        let (block, cyclic) = block_and_cyclic(&plat, (256, 8), SimBcast::Flat, false);
        assert!(
            cyclic.total_time < block.total_time,
            "cyclic {} should beat block {} when roots serialize",
            cyclic.total_time,
            block.total_time
        );
    }

    #[test]
    fn with_step_sync_cyclic_equals_block_cost() {
        // Under blocking-collective semantics each step costs the same
        // regardless of which column owns the pivot.
        let (block, cyclic) =
            block_and_cyclic(&Platform::grid5000(), (64, 8), SimBcast::Binomial, true);
        let rel = (block.total_time - cyclic.total_time).abs() / block.total_time;
        assert!(
            rel < 1e-9,
            "block {} vs cyclic {}",
            block.total_time,
            cyclic.total_time
        );
    }
}
