//! Executable plans: one value that says *which* multiply to run and
//! *how*, plus the dispatchers that run it.
//!
//! The serving layer's planner (and any caller that wants to defer the
//! algorithm decision) produces a [`PlannedAlgo`]. Each plan names the
//! layouts its body reads and writes ([`PlannedAlgo::layouts`]);
//! [`run_in_layouts`] runs the body over tiles already in them, and
//! [`run_planned_gemm`] runs it from and back to the checkerboard,
//! converting only for a plan whose layouts differ. Because both are
//! generic over [`Communicator`], the same plan value executes real
//! matrices on the threaded runtime *and* replays on the simulator — so
//! a plan can be priced on `SimComm` before being committed to a pool.

use crate::cannon::{aligned_layouts, cannon};
use crate::comm::{Communicator, MatLike};
use crate::cosma::{cosma, CosmaConfig};
use crate::distribution::{redistribute, Distribution};
use crate::hsumma::HsummaConfig;
use crate::partition::MatMulDims;
use crate::pivot::{self, Spec};
use crate::summa::SummaConfig;
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_runtime::CommError;

/// A fully resolved algorithm choice for one `C(m×n) = A(m×k) · B(k×n)`
/// multiply (square `m = n = k` being the common case).
#[derive(Clone, Copy, Debug)]
pub enum PlannedAlgo {
    /// SUMMA with the given panel width / broadcast / kernel, over any
    /// `(m, k, n)`.
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
    /// Cannon's algorithm (square grids and operands only) over its
    /// aligned layouts ([`crate::cannon::aligned_layouts`]).
    Cannon {
        /// Local multiply kernel.
        kernel: GemmKernel,
    },
    /// The COSMA-style brick schedule ([`crate::cosma()`]) over the
    /// decomposition's own layouts ([`crate::BrickDecomp::a_distribution`]
    /// and its `b` and `c` siblings): only the first brick of each fiber
    /// holds an operand, and `C` lands on the first layer. A caller that
    /// deals tiles in those layouts moves only the schedule's fiber
    /// broadcasts and reduction; [`run_planned_gemm`] converts from and
    /// back to the checkerboard around them. Needs no divisibility from
    /// `(m, n, k)` at all.
    Cosma(CosmaConfig),
}

/// The layouts of one multiply's operands over `p` ranks: `A` (`m × k`)
/// and `B` (`k × n`) as a plan's body reads them, `C` (`m × n`) as it
/// leaves it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layouts {
    /// Layout of `A`.
    pub a: Distribution,
    /// Layout of `B`.
    pub b: Distribution,
    /// Layout of `C`.
    pub c: Distribution,
}

impl Layouts {
    /// All three operands on the checkerboard of
    /// [`Distribution::grid2d`].
    pub(crate) fn checkerboard(grid: GridShape, m: usize, n: usize, k: usize) -> Self {
        Layouts {
            a: Distribution::grid2d(grid, m, k),
            b: Distribution::grid2d(grid, k, n),
            c: Distribution::grid2d(grid, m, n),
        }
    }
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

    /// The layouts this plan's body reads `A` and `B` in and leaves `C`
    /// in, for `C(m×n) = A(m×k) · B(k×n)` over `grid`: the checkerboard
    /// for SUMMA and HSUMMA, Cannon's aligned `A` and `B` with a
    /// checkerboard `C`, and COSMA's bricks.
    ///
    /// # Panics
    /// Panics for a Cannon plan on non-square operands or grid.
    pub fn layouts(&self, grid: GridShape, m: usize, n: usize, k: usize) -> Layouts {
        match self {
            PlannedAlgo::Summa(_)
            | PlannedAlgo::SummaPipelined(_)
            | PlannedAlgo::Hsumma(_)
            | PlannedAlgo::HsummaPipelined(_) => Layouts::checkerboard(grid, m, n, k),
            PlannedAlgo::Cannon { .. } => {
                assert!(m == n && k == n, "the Cannon plan is square-only");
                let (a, b) = aligned_layouts(grid, n);
                let c = Distribution::grid2d(grid, n, n);
                Layouts { a, b, c }
            }
            PlannedAlgo::Cosma(cfg) => {
                let (d, p) = (cfg.decomp, grid.size());
                Layouts {
                    a: d.a_distribution(m, k, p),
                    b: d.b_distribution(k, n, p),
                    c: d.c_distribution(m, n, p),
                }
            }
        }
    }
}

/// Runs the planned algorithm for `C(m×n) = A(m×k) · B(k×n)` on the
/// calling rank. SPMD: every rank of `comm` must call this with the
/// same plan and its local tiles under the checkerboard layout of
/// [`Distribution::grid2d`] (`A` over `grid2d(grid, m, k)`, `B` over
/// `grid2d(grid, k, n)`); returns the local tile of `C` under
/// `grid2d(grid, m, n)`. When the grid divides every extent, those
/// layouts are the classic uniform block-checkerboard tiles.
///
/// SUMMA and HSUMMA read the tiles in place. The Cannon and COSMA plans
/// first [`redistribute`] them into their own layouts, and COSMA moves
/// its product back: pure functions of the descriptors, so both
/// substrates move identical multisets. For Cannon that conversion is
/// the classic alignment shift.
///
/// # Panics
/// Panics if the plan is inconsistent with `grid`/`(m, n, k)`: the
/// Cannon plan requires square operands its square grid divides, and the
/// SUMMA and HSUMMA plans positive blocks (and for HSUMMA, groups that
/// divide the grid and `b | B`). SUMMA, HSUMMA and
/// [`PlannedAlgo::Cosma`] accept any extents.
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
    let dims = MatMulDims { m, l: k, n };
    match plan {
        PlannedAlgo::Summa(cfg) => {
            pivot::blocking(comm, &Spec::summa(grid, dims, cfg), a, b, |_| true)
        }
        PlannedAlgo::SummaPipelined(cfg) => {
            pivot::pipelined(comm, &Spec::summa(grid, dims, cfg), a, b)
        }
        PlannedAlgo::Hsumma(cfg) => {
            pivot::blocking(comm, &Spec::hsumma(grid, dims, cfg), a, b, |_| true)
        }
        PlannedAlgo::HsummaPipelined(cfg) => {
            pivot::pipelined(comm, &Spec::hsumma(grid, dims, cfg), a, b)
        }
        PlannedAlgo::Cannon { .. } | PlannedAlgo::Cosma(_) => {
            let (from, to) = (
                Layouts::checkerboard(grid, m, n, k),
                plan.layouts(grid, m, n, k),
            );
            let a = redistribute(comm, &from.a, &to.a, a)?;
            let b = redistribute(comm, &from.b, &to.b, b)?;
            let c = run_in_layouts(comm, grid, m, n, k, a, b, plan)?;
            if to.c == from.c {
                return Ok(c);
            }
            redistribute(comm, &to.c, &from.c, &c)
        }
    }
}

/// Runs the plan's body for `C(m×n) = A(m×k) · B(k×n)` on the calling
/// rank over tiles already in the plan's own layouts
/// ([`PlannedAlgo::layouts`]) and returns this rank's tile of `C` in the
/// plan's `C` layout: what a caller that cuts its own tiles from shared
/// operands (the serving layer) runs, so that it moves nothing but the
/// schedule's own traffic. Cannon consumes its tiles; every other plan
/// reads them in place.
///
/// # Panics
/// As [`run_planned_gemm`], and if a tile does not have its layout's
/// shape for this rank.
#[allow(clippy::too_many_arguments)]
pub fn run_in_layouts<C: Communicator>(
    comm: &C,
    grid: GridShape,
    m: usize,
    n: usize,
    k: usize,
    a: C::Mat,
    b: C::Mat,
    plan: &PlannedAlgo,
) -> Result<C::Mat, CommError> {
    match plan {
        PlannedAlgo::Cannon { kernel } => {
            assert!(m == n && k == n, "the Cannon plan is square-only");
            cannon(comm, grid, n, a, b, *kernel)
        }
        PlannedAlgo::Cosma(cfg) => {
            Ok(cosma(comm, m, n, k, &a, &b, cfg)?.unwrap_or_else(|| C::Mat::zeros(0, 0)))
        }
        // The pivot plans' layouts are the checkerboard.
        _ => run_planned_gemm(comm, grid, m, n, k, &a, &b, plan),
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
        // Nothing divides anything on a 2 x 2 grid.
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
