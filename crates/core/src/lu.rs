//! Distributed block LU factorization — the paper's future work §VI
//! ("we plan to apply the same approach to other numerical linear
//! algebra kernels such as QR/LU factorization"), applied.
//!
//! Right-looking block LU without pivoting over the same 2-D
//! block-checkerboard distribution as SUMMA. Per panel step `k`:
//!
//! 1. the diagonal block owner factors `A_kk = L_kk·U_kk` locally and
//!    broadcasts the packed factor along its grid row and column;
//! 2. the pivot-column ranks compute their `L_ik = A_ik·U_kk⁻¹` slabs,
//!    the pivot-row ranks their `U_kj = L_kk⁻¹·A_kj` slabs;
//! 3. the `L` panel is broadcast along grid rows and the `U` panel along
//!    grid columns — *the same communication pattern as SUMMA's pivot
//!    broadcasts*, which is exactly why HSUMMA's two-level hierarchy
//!    transfers: both panel broadcasts run inter-group first, then
//!    intra-group over [`LuConfig::groups`] (hierarchical LU, "HLU";
//!    one group is plain LU);
//! 4. every rank applies the trailing update `A_ij -= L_ik·U_kj`.
//!
//! Pivoting is omitted (see `hsumma_matrix::factor`): it would add a
//! column-reduction orthogonal to the communication structure under
//! study. Use diagonally dominant inputs.
//!
//! [`block_lu`] is generic over the [`Communicator`] substrate;
//! [`crate::Schedule::Lu`] runs the *same* function over simulated clocks with
//! phantom payloads (local kernels charged analytically, for a step of
//! width `w`: `w³/3` pairs for the diagonal factor, `m·w²/2` per
//! triangular solve, `r·c·w` per trailing update).

use crate::comm::{Communicator, MatLike};
use crate::grid::{grid_lines, HierGrid};
use crate::partition::{pivot_steps, tile_of};
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_runtime::{BcastAlgorithm, CommError};

/// Parameters of a distributed LU run.
#[derive(Clone, Copy, Debug)]
pub struct LuConfig {
    /// Panel width: the widest diagonal block a step factors.
    pub block: usize,
    /// Broadcast algorithm for panels (and hierarchy phases).
    pub bcast: BcastAlgorithm,
    /// Local kernel for the trailing update.
    pub kernel: GemmKernel,
    /// The `I × J` group arrangement the `L` and `U` panel broadcasts
    /// cross first (hierarchical LU); the default `1 × 1` is plain LU.
    pub groups: GridShape,
}

impl Default for LuConfig {
    fn default() -> Self {
        LuConfig {
            block: 32,
            bcast: BcastAlgorithm::Binomial,
            kernel: GemmKernel::Packed,
            groups: GridShape::new(1, 1),
        }
    }
}

/// The row extent of rank `gi`'s share of the L panel at a step of
/// width `w` whose pivot block sits at offset `ro` of grid row `ri`'s
/// tile (rows strictly below the pivot block), and its local row offset.
fn below_rows(gi: usize, ri: usize, ro: usize, w: usize, th: usize) -> (usize, usize) {
    use std::cmp::Ordering::*;
    match gi.cmp(&ri) {
        Greater => (0, th),
        Equal => (ro + w, th - ro - w),
        Less => (0, 0),
    }
}

/// Runs the distributed block LU on the calling rank, factoring the
/// distributed matrix *in place*: the returned tile holds this rank's
/// part of the packed `L\U` (unit lower below the diagonal, upper on and
/// above it).
///
/// SPMD over `comm`; `a` is this rank's [`tile_of`] share of the `n × n`
/// matrix. The panels are [`pivot_steps`]'s: each step factors a
/// diagonal block as wide as its panel, so neither the grid nor the
/// block need divide `n`.
///
/// # Panics
/// Panics on inconsistent configuration or a zero pivot (unpivoted LU).
pub fn block_lu<C: Communicator>(
    comm: &C,
    grid: GridShape,
    n: usize,
    a: &C::Mat,
    cfg: &LuConfig,
) -> Result<C::Mat, CommError> {
    assert_eq!(comm.size(), grid.size(), "communicator must span the grid");
    let (th, tw) = tile_of(grid, comm.rank(), n, n);
    assert_eq!((a.rows(), a.cols()), (th, tw), "tile has wrong shape");

    let (gi, gj) = grid.coords(comm.rank());
    // Flat row/column communicators for the diagonal factor.
    let (row_comm, col_comm) = grid_lines(comm, grid);
    // The group hierarchy of the panel broadcasts.
    let hg = HierGrid::new(grid, cfg.groups);
    let (group_row, group_col) = hg.outer_comms(comm);
    let (inner_row, inner_col) = hg.inner_comms(comm);
    let inner = hg.inner();

    // Two-phase broadcast of an L-panel slab along this grid row from
    // grid column `cj`: across the groups, then inside them.
    let bcast_l = |panel: &mut C::Mat, cj: usize| -> Result<(), CommError> {
        let (yk, jk) = (cj / inner.cols, cj % inner.cols);
        if gj % inner.cols == jk {
            group_row.bcast_mat(cfg.bcast, yk, panel)?;
        }
        inner_row.bcast_mat(cfg.bcast, jk, panel)
    };
    let bcast_u = |panel: &mut C::Mat, ri: usize| -> Result<(), CommError> {
        let (xk, ik) = (ri / inner.rows, ri % inner.rows);
        if gi % inner.rows == ik {
            group_col.bcast_mat(cfg.bcast, xk, panel)?;
        }
        inner_col.bcast_mat(cfg.bcast, ik, panel)
    };

    let mut t = a.clone();
    for (k, (col, row)) in pivot_steps(n, grid, cfg.block).into_iter().enumerate() {
        let w = col.width;
        comm.trace_step(k, w, w, || -> Result<(), CommError> {
            let (ri, ro, cj, co) = (row.owner, row.offset, col.owner, col.offset);

            // --- 1. diagonal factor + broadcast ------------------------------
            let mut diag = if gi == ri && gj == cj {
                let mut d = t.block(ro, co, w, w);
                comm.compute((w * w * w) as f64 / 3.0, 0, || d.lu_nopiv_inplace());
                t.set_block(ro, co, &d);
                d
            } else {
                C::Mat::zeros(w, w)
            };
            // Down the pivot column (for the L slabs' trsm)...
            if gj == cj {
                col_comm.bcast_mat(cfg.bcast, ri, &mut diag)?;
            }
            // ...and across the pivot row (for the U slabs' trsm).
            if gi == ri {
                row_comm.bcast_mat(cfg.bcast, cj, &mut diag)?;
            }

            // --- 2. panel solves ----------------------------------------------
            let (rlo, rcount) = below_rows(gi, ri, ro, w, th);
            if gj == cj && rcount > 0 {
                let mut slab = t.block(rlo, co, rcount, w);
                comm.compute((rcount * w * w) as f64 / 2.0, 0, || {
                    C::Mat::trsm_right_upper(&diag, &mut slab)
                });
                t.set_block(rlo, co, &slab);
            }
            let (clo, ccount) = below_rows(gj, cj, co, w, tw);
            if gi == ri && ccount > 0 {
                let mut slab = t.block(ro, clo, w, ccount);
                comm.compute((ccount * w * w) as f64 / 2.0, 0, || {
                    C::Mat::trsm_left_lower_unit(&diag, &mut slab)
                });
                t.set_block(ro, clo, &slab);
            }

            // --- 3. panel broadcasts -------------------------------------------
            let mut l_panel = if gj == cj {
                t.block(rlo, co, rcount, w)
            } else {
                C::Mat::zeros(rcount, w)
            };
            if rcount > 0 {
                bcast_l(&mut l_panel, cj)?;
            }
            let mut u_panel = if gi == ri {
                t.block(ro, clo, w, ccount)
            } else {
                C::Mat::zeros(w, ccount)
            };
            if ccount > 0 {
                bcast_u(&mut u_panel, ri)?;
            }

            // --- 4. trailing update --------------------------------------------
            if rcount > 0 && ccount > 0 {
                let mut trailing = t.block(rlo, clo, rcount, ccount);
                let pairs = rcount * ccount * w;
                comm.compute(pairs as f64, 2 * pairs as u64, || {
                    C::Mat::gemm_scaled(cfg.kernel, -1.0, &l_panel, &u_panel, &mut trailing)
                });
                t.set_block(rlo, clo, &trailing);
            }
            Ok(())
        })?;
        comm.maybe_step_sync()?;
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::simdrive::{simulate, threads_on, Schedule};
    use hsumma_matrix::factor::{seeded_diag_dominant, unpack_lower_unit, unpack_upper};
    use hsumma_matrix::{gemm, BlockDist, Matrix};
    use hsumma_netsim::{Platform, SimBcast, SimNet};
    use hsumma_runtime::Runtime;

    /// Scatter → distributed LU → gather → reconstruct L·U and compare.
    fn run_lu_case(grid: GridShape, n: usize, cfg: LuConfig) {
        let a = seeded_diag_dominant(n, 42);
        let dist = Distribution::grid2d(grid, n, n);
        let tiles = dist.scatter(&a);
        let out = Runtime::run(grid.size(), |comm| {
            block_lu(comm, grid, n, &tiles[comm.rank()].clone(), &cfg).unwrap()
        });
        let packed = dist.gather(&out);
        let l = unpack_lower_unit(&packed);
        let u = unpack_upper(&packed);
        let mut rebuilt = Matrix::zeros(n, n);
        gemm(GemmKernel::Blocked, &l, &u, &mut rebuilt);
        assert!(
            rebuilt.approx_eq(&a, 1e-7),
            "grid {grid:?} n={n} cfg={cfg:?}: err {}",
            rebuilt.max_abs_diff(&a)
        );
    }

    #[test]
    fn lu_single_rank_matches_local_factorization() {
        run_lu_case(
            GridShape::new(1, 1),
            8,
            LuConfig {
                block: 2,
                ..Default::default()
            },
        );
    }

    #[test]
    fn lu_square_grid() {
        run_lu_case(
            GridShape::new(2, 2),
            16,
            LuConfig {
                block: 2,
                ..Default::default()
            },
        );
        // An extent smaller than the grid side: ranks past it hold
        // empty tiles and own no panel.
        run_lu_case(
            GridShape::new(4, 4),
            3,
            LuConfig {
                block: 2,
                ..Default::default()
            },
        );
    }

    #[test]
    fn lu_rectangular_grid() {
        run_lu_case(
            GridShape::new(2, 4),
            16,
            LuConfig {
                block: 2,
                ..Default::default()
            },
        );
        run_lu_case(
            GridShape::new(4, 2),
            16,
            LuConfig {
                block: 2,
                ..Default::default()
            },
        );
        // Nothing divides: 50 deals 25/25 over the rows and 17/17/16
        // over the columns, and blocks of 4 end short of every tile.
        // Prime p runs as 1 × p.
        for (grid, n, groups) in [
            (GridShape::new(2, 3), 50, GridShape::new(1, 3)),
            (GridShape::new(1, 5), 12, GridShape::new(1, 1)),
        ] {
            run_lu_case(
                grid,
                n,
                LuConfig {
                    block: 4,
                    groups,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn lu_block_equal_to_tile() {
        run_lu_case(
            GridShape::new(2, 2),
            8,
            LuConfig {
                block: 4,
                ..Default::default()
            },
        );
    }

    #[test]
    fn hierarchical_lu_matches_flat_lu() {
        let grid = GridShape::new(4, 4);
        let n = 16;
        let a = seeded_diag_dominant(n, 17);
        let dist = BlockDist::new(grid, n, n);
        let tiles = dist.scatter(&a);
        let run = |groups: GridShape| {
            let cfg = LuConfig {
                block: 2,
                kernel: GemmKernel::Blocked,
                groups,
                ..Default::default()
            };
            let out = Runtime::run(grid.size(), |comm| {
                block_lu(comm, grid, n, &tiles[comm.rank()].clone(), &cfg).unwrap()
            });
            dist.gather(&out)
        };
        let flat = run(GridShape::new(1, 1));
        for groups in [
            GridShape::new(2, 2),
            GridShape::new(1, 4),
            GridShape::new(4, 4),
        ] {
            let hier = run(groups);
            assert_eq!(flat, hier, "groups {groups:?} changed the factorization");
        }
    }

    #[test]
    fn hierarchical_lu_reconstructs() {
        run_lu_case(
            GridShape::new(4, 4),
            32,
            LuConfig {
                block: 4,
                groups: GridShape::new(2, 2),
                ..Default::default()
            },
        );
    }

    #[test]
    fn sim_lu_runs_and_counts_messages() {
        let plat = Platform::bluegene_p();
        let grid = GridShape::new(4, 4);
        let lu = |groups| {
            simulate(
                &Schedule::lu(grid, 64, 8, SimBcast::Binomial, groups),
                &plat,
                true,
            )
        };
        let flat = lu(GridShape::new(1, 1));
        assert!(flat.total_time > 0.0);
        assert!(flat.msgs > 0);
        let hier = lu(GridShape::new(2, 2));
        // Hierarchy moves the same panel volume (every rank still receives
        // each panel once under tree broadcasts).
        assert_eq!(flat.bytes, hier.bytes);
    }

    #[test]
    fn replayed_schedule_matches_the_threaded_reference() {
        // The recorded schedule must price exactly as `block_lu` itself
        // on rank threads, flat and grouped, under both sync modes.
        let plat = Platform::bluegene_p();
        let g = GridShape::new;
        for (grid, n, groups) in [
            (g(8, 8), 128, g(1, 1)),
            (g(8, 8), 128, g(2, 4)),
            (g(2, 3), 50, g(1, 3)),
            (g(1, 5), 12, g(1, 1)),
            (g(4, 4), 3, g(2, 2)),
        ] {
            let sched = Schedule::lu(grid, n, 8, SimBcast::Binomial, groups);
            for step_sync in [false, true] {
                let mut net = SimNet::new(grid.size(), plat.net);
                assert_eq!(
                    simulate(&sched, &plat, step_sync),
                    threads_on(&mut net, plat.gamma, &sched, step_sync),
                    "{grid:?}, n {n}, groups {groups:?}, step_sync {step_sync}"
                );
            }
        }
    }

    #[test]
    fn hierarchical_lu_helps_under_serialized_broadcasts() {
        // Same mechanism as HSUMMA: with a linear-cost broadcast, the
        // two-level split reduces the per-step broadcast width.
        let plat = Platform::bluegene_p_effective();
        let grid = GridShape::new(16, 16);
        let lu = |groups| {
            simulate(
                &Schedule::lu(grid, 512, 32, SimBcast::Flat, groups),
                &plat,
                true,
            )
        };
        let flat = lu(GridShape::new(1, 1));
        let hier = lu(GridShape::new(4, 4));
        assert!(
            hier.comm_time < flat.comm_time,
            "HLU {} should beat LU {}",
            hier.comm_time,
            flat.comm_time
        );
    }

    #[test]
    fn below_rows_covers_the_three_cases() {
        // th = 8, bs = 2, pivot in tile row 1 at offset 4.
        assert_eq!(below_rows(2, 1, 4, 2, 8), (0, 8)); // below: whole tile
        assert_eq!(below_rows(1, 1, 4, 2, 8), (6, 2)); // same: remainder
        assert_eq!(below_rows(0, 1, 4, 2, 8), (0, 0)); // above: nothing
    }
}
