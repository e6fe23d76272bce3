//! Executable plans: one value that says *which* multiply to run and
//! *how*, plus the dispatcher that runs it.
//!
//! The serving layer's planner (and any caller that wants to defer the
//! algorithm decision) produces a [`PlannedAlgo`]; [`run_planned_gemm`]
//! maps it onto the algorithm implementations. Because the dispatcher is
//! generic over [`Communicator`], the same plan value executes real
//! matrices on the threaded runtime *and* replays on the simulator — so
//! a plan can be priced on `SimComm` before being committed to a pool.

use crate::cannon::cannon;
use crate::comm::{Communicator, MatLike};
use crate::cosma::{cosma, CosmaConfig};
use crate::distribution::{redistribute, Distribution};
use crate::hsumma::HsummaConfig;
use crate::partition::MatMulDims;
use crate::pivot::{self, Layout, Spec};
use crate::summa::SummaConfig;
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_runtime::CommError;
use std::borrow::Cow;

/// A fully resolved algorithm choice for one `C(m×n) = A(m×k) · B(k×n)`
/// multiply (square `m = n = k` being the common case).
#[derive(Clone, Copy, Debug)]
pub enum PlannedAlgo {
    /// SUMMA with the given panel width / broadcast / kernel, over any
    /// grid-divisible `(m, k, n)`.
    Summa(SummaConfig),
    /// SUMMA over the double-buffered pivot pipeline
    /// ([`crate::overlap::summa_overlap`]); `cfg.bcast` is ignored —
    /// nonblocking flat pushes replace the collective.
    SummaPipelined(SummaConfig),
    /// HSUMMA with a concrete `(I × J, B, b)` grouping.
    Hsumma(HsummaConfig),
    /// HSUMMA over the two-level pivot pipeline
    /// ([`crate::overlap::hsumma_overlap`]); the `*_bcast` fields are
    /// ignored — nonblocking flat pushes replace the collectives.
    HsummaPipelined(HsummaConfig),
    /// Cannon's algorithm (square grids and operands only).
    Cannon {
        /// Local multiply kernel.
        kernel: GemmKernel,
    },
    /// The COSMA-style brick schedule ([`crate::cosma()`]). The
    /// dispatcher redistributes the block-checkerboard tiles into the
    /// decomposition's brick layout, runs the schedule, and
    /// redistributes the product back — so the plan is interchangeable
    /// with the grid algorithms under the same tile convention, and
    /// needs no divisibility from `(m, n, k)` at all.
    Cosma(CosmaConfig),
}

impl PlannedAlgo {
    /// Short human-readable description for logs and job reports.
    pub fn describe(&self) -> String {
        match self {
            PlannedAlgo::Summa(cfg) => format!("summa(b={})", cfg.block),
            PlannedAlgo::SummaPipelined(cfg) => format!("summa+pipe(b={})", cfg.block),
            PlannedAlgo::Hsumma(cfg) => format!(
                "hsumma(G={}x{}, B={}, b={})",
                cfg.groups.rows, cfg.groups.cols, cfg.outer_block, cfg.inner_block
            ),
            PlannedAlgo::HsummaPipelined(cfg) => format!(
                "hsumma+pipe(G={}x{}, B={}, b={})",
                cfg.groups.rows, cfg.groups.cols, cfg.outer_block, cfg.inner_block
            ),
            PlannedAlgo::Cannon { .. } => "cannon".to_string(),
            PlannedAlgo::Cosma(cfg) => format!(
                "cosma({}x{}x{}, steps={})",
                cfg.decomp.a, cfg.decomp.b, cfg.decomp.c, cfg.steps
            ),
        }
    }

    /// Which GEMM path the plan takes: `"pipelined"` for the
    /// double-buffered overlap variants, `"blocking"` otherwise. Benches
    /// report this per job so BENCH_*.json entries stay attributable.
    pub fn gemm_path(&self) -> &'static str {
        match self {
            PlannedAlgo::SummaPipelined(_) | PlannedAlgo::HsummaPipelined(_) => "pipelined",
            PlannedAlgo::Summa(_)
            | PlannedAlgo::Hsumma(_)
            | PlannedAlgo::Cannon { .. }
            | PlannedAlgo::Cosma(_) => "blocking",
        }
    }
}

/// Runs the planned algorithm for `C(m×n) = A(m×k) · B(k×n)` on the
/// calling rank. SPMD: every rank of `comm` must call this with the
/// same plan and its local tiles under the checkerboard layout of
/// [`Distribution::grid2d`] (`A` over `grid2d(grid, m, k)`, `B` over
/// `grid2d(grid, k, n)`); returns the local tile of `C` under
/// `grid2d(grid, m, n)`. When the grid divides every extent — a
/// precondition of the grid algorithms anyway — those layouts are the
/// classic uniform block-checkerboard tiles.
///
/// This is the borrowing form of [`run_planned_gemm_cow`]: the Cannon
/// plan, which consumes its tiles, copies both (counted as payload
/// materializations); every other plan reads them in place.
///
/// # Panics
/// Panics if the plan is inconsistent with `grid`/`(m, n, k)`: the
/// Cannon plan requires square operands, the grid algorithms require
/// grid divisibility (and block divisibility of the shared-dimension
/// tile extents); only [`PlannedAlgo::Cosma`] accepts arbitrary extents.
#[allow(clippy::too_many_arguments)]
pub fn run_planned_gemm<C: Communicator>(
    comm: &C,
    grid: GridShape,
    m: usize,
    n: usize,
    k: usize,
    a: &C::Mat,
    b: &C::Mat,
    plan: &PlannedAlgo,
) -> Result<C::Mat, CommError> {
    let (a, b) = (Cow::Borrowed(a), Cow::Borrowed(b));
    run_planned_gemm_cow(comm, grid, m, n, k, a, b, plan)
}

/// [`run_planned_gemm`] over tiles the caller either lends or hands
/// over. The Cannon plan consumes owned tiles without a copy; every
/// other plan only reads them, so ownership changes nothing there.
///
/// # Panics
/// As [`run_planned_gemm`].
#[allow(clippy::too_many_arguments)]
pub fn run_planned_gemm_cow<C: Communicator>(
    comm: &C,
    grid: GridShape,
    m: usize,
    n: usize,
    k: usize,
    a: Cow<'_, C::Mat>,
    b: Cow<'_, C::Mat>,
    plan: &PlannedAlgo,
) -> Result<C::Mat, CommError> {
    let dims = MatMulDims { m, l: k, n };
    match plan {
        PlannedAlgo::Summa(cfg) => {
            let spec = Spec::summa(grid, dims, cfg, Layout::Block);
            pivot::blocking(comm, &spec, &a, &b, |_| true)
        }
        PlannedAlgo::SummaPipelined(cfg) => {
            pivot::pipelined(comm, &Spec::summa(grid, dims, cfg, Layout::Block), &a, &b)
        }
        PlannedAlgo::Hsumma(cfg) => {
            pivot::blocking(comm, &Spec::hsumma(grid, dims, cfg), &a, &b, |_| true)
        }
        PlannedAlgo::HsummaPipelined(cfg) => {
            pivot::pipelined(comm, &Spec::hsumma(grid, dims, cfg), &a, &b)
        }
        PlannedAlgo::Cannon { kernel } => {
            assert!(m == n && k == n, "the Cannon plan is square-only");
            cannon(comm, grid, n, comm.own(a), comm.own(b), *kernel)
        }
        PlannedAlgo::Cosma(cfg) => {
            let p = comm.size();
            let d = cfg.decomp;
            // Checkerboard → bricks, run, bricks → checkerboard. The
            // redistribution schedules are pure functions of the
            // descriptors, preserving multiset parity across substrates.
            let a_brick = redistribute(
                comm,
                &Distribution::grid2d(grid, m, k),
                &d.a_distribution(m, k, p),
                &a,
            )?;
            let b_brick = redistribute(
                comm,
                &Distribution::grid2d(grid, k, n),
                &d.b_distribution(k, n, p),
                &b,
            )?;
            let dc = d.c_distribution(m, n, p);
            let c_brick = cosma(comm, m, n, k, &a_brick, &b_brick, cfg)?
                .unwrap_or_else(|| C::Mat::zeros(0, 0));
            redistribute(comm, &dc, &Distribution::grid2d(grid, m, n), &c_brick)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{distributed_product, reference_product};
    use hsumma_matrix::seeded_uniform;

    fn check(plan: PlannedAlgo, grid: GridShape, n: usize) {
        let a = seeded_uniform(n, n, 21);
        let b = seeded_uniform(n, n, 22);
        let want = reference_product(&a, &b);
        let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            run_planned_gemm(comm, grid, n, n, n, &at, &bt, &plan).unwrap()
        });
        assert!(
            got.approx_eq(&want, 1e-9),
            "{} err {}",
            plan.describe(),
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn dispatches_summa() {
        check(
            PlannedAlgo::Summa(SummaConfig {
                block: 4,
                ..SummaConfig::default()
            }),
            GridShape::new(2, 2),
            16,
        );
    }

    #[test]
    fn dispatches_hsumma() {
        check(
            PlannedAlgo::Hsumma(HsummaConfig::uniform(GridShape::new(2, 2), 4)),
            GridShape::new(4, 4),
            32,
        );
    }

    #[test]
    fn dispatches_pipelined_variants() {
        check(
            PlannedAlgo::SummaPipelined(SummaConfig {
                block: 4,
                ..SummaConfig::default()
            }),
            GridShape::new(2, 2),
            16,
        );
        check(
            PlannedAlgo::HsummaPipelined(HsummaConfig::uniform(GridShape::new(2, 2), 4)),
            GridShape::new(4, 4),
            32,
        );
    }

    #[test]
    fn gemm_path_attributes_the_plan() {
        let cfg = SummaConfig::default();
        assert_eq!(PlannedAlgo::Summa(cfg).gemm_path(), "blocking");
        assert_eq!(PlannedAlgo::SummaPipelined(cfg).gemm_path(), "pipelined");
        let hcfg = HsummaConfig::uniform(GridShape::new(2, 2), 4);
        assert_eq!(PlannedAlgo::Hsumma(hcfg).gemm_path(), "blocking");
        assert_eq!(PlannedAlgo::HsummaPipelined(hcfg).gemm_path(), "pipelined");
        assert_eq!(
            PlannedAlgo::Cannon {
                kernel: GemmKernel::Packed
            }
            .gemm_path(),
            "blocking"
        );
    }

    /// Runs `run_planned_gemm` over checkerboard tiles dealt by
    /// `Distribution::grid2d` (uneven extents allowed) and compares the
    /// gathered product with the serial reference.
    fn check_gemm(plan: PlannedAlgo, grid: GridShape, m: usize, n: usize, k: usize) {
        use hsumma_runtime::Runtime;
        let a = seeded_uniform(m, k, 31);
        let b = seeded_uniform(k, n, 32);
        let da = Distribution::grid2d(grid, m, k);
        let db = Distribution::grid2d(grid, k, n);
        let dc = Distribution::grid2d(grid, m, n);
        let a_tiles = std::sync::Arc::new(da.scatter(&a));
        let b_tiles = std::sync::Arc::new(db.scatter(&b));
        let tiles = Runtime::run(grid.size(), {
            let (a_tiles, b_tiles) = (a_tiles.clone(), b_tiles.clone());
            move |comm| {
                let at = a_tiles[comm.rank()].clone();
                let bt = b_tiles[comm.rank()].clone();
                run_planned_gemm(comm, grid, m, n, k, &at, &bt, &plan).unwrap()
            }
        });
        let got = dc.gather(&tiles);
        let want = reference_product(&a, &b);
        assert!(
            got.approx_eq(&want, 1e-9),
            "{} err {}",
            plan.describe(),
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn dispatches_cosma_with_redistribution() {
        // Nothing divides anything: the cosma plan is the only one that
        // can serve this shape on a 2 x 2 grid.
        check_gemm(
            PlannedAlgo::Cosma(CosmaConfig::for_problem(4, 7, 5, 9)),
            GridShape::new(2, 2),
            7,
            5,
            9,
        );
        // Square divisible shape through the same path.
        check_gemm(
            PlannedAlgo::Cosma(CosmaConfig::for_problem(4, 16, 16, 16)),
            GridShape::new(2, 2),
            16,
            16,
            16,
        );
    }

    #[test]
    fn dispatches_rect_forms_for_rectangular_extents() {
        check_gemm(
            PlannedAlgo::Summa(SummaConfig {
                block: 2,
                ..SummaConfig::default()
            }),
            GridShape::new(2, 2),
            8,
            6,
            4,
        );
        check_gemm(
            PlannedAlgo::Hsumma(HsummaConfig::uniform(GridShape::new(2, 2), 4)),
            GridShape::new(4, 4),
            16,
            32,
            16,
        );
    }

    #[test]
    fn dispatches_cannon() {
        check(
            PlannedAlgo::Cannon {
                kernel: GemmKernel::Packed,
            },
            GridShape::new(2, 2),
            16,
        );
    }

    #[test]
    fn describe_is_informative() {
        let plan = PlannedAlgo::Hsumma(HsummaConfig::uniform(GridShape::new(2, 4), 8));
        assert_eq!(plan.describe(), "hsumma(G=2x4, B=8, b=8)");
        assert_eq!(
            PlannedAlgo::Summa(SummaConfig::default()).describe(),
            "summa(b=32)"
        );
        assert_eq!(
            PlannedAlgo::SummaPipelined(SummaConfig::default()).describe(),
            "summa+pipe(b=32)"
        );
        assert_eq!(
            PlannedAlgo::HsummaPipelined(HsummaConfig::uniform(GridShape::new(2, 4), 8)).describe(),
            "hsumma+pipe(G=2x4, B=8, b=8)"
        );
    }
}
