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
//!    transfers: with [`LuConfig::groups`] set, both panel broadcasts run
//!    inter-group first, then intra-group (hierarchical LU, "HLU");
//! 4. every rank applies the trailing update `A_ij -= L_ik·U_kj`.
//!
//! Pivoting is omitted (see `hsumma_matrix::factor`): it would add a
//! column-reduction orthogonal to the communication structure under
//! study. Use diagonally dominant inputs.
//!
//! [`block_lu`] is generic over the [`Communicator`] substrate;
//! [`sim_block_lu`] runs the *same* function over simulated clocks with
//! phantom payloads (local kernels charged analytically: `bs³/3` pairs
//! for the diagonal factor, `m·bs²/2` per triangular solve, `r·c·bs` per
//! trailing update).

use crate::comm::{Communicator, MatLike, PhantomMat};
use crate::grid::HierGrid;
use crate::partition::{pivot_offset, pivot_owner, tile_shape};
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_netsim::spmd::SimWorld;
use hsumma_netsim::{Hockney, Platform, SimBcast, SimNet, SimReport};
use hsumma_runtime::{BcastAlgorithm, CommError};

/// Parameters of a distributed LU run.
#[derive(Clone, Copy, Debug)]
pub struct LuConfig {
    /// Panel width; must divide both local tile extents.
    pub block: usize,
    /// Broadcast algorithm for panels (and hierarchy phases).
    pub bcast: BcastAlgorithm,
    /// Local kernel for the trailing update.
    pub kernel: GemmKernel,
    /// `Some(I × J)`: broadcast panels hierarchically over that group
    /// arrangement (hierarchical LU). `None`: plain SUMMA-style rows/cols.
    pub groups: Option<GridShape>,
}

impl Default for LuConfig {
    fn default() -> Self {
        LuConfig {
            block: 32,
            bcast: BcastAlgorithm::Binomial,
            kernel: GemmKernel::Packed,
            groups: None,
        }
    }
}

/// The row extent of rank `gi`'s share of the L panel at step `k` (rows
/// strictly below the pivot block), and its local row offset.
fn below_rows(gi: usize, ri: usize, ro: usize, bs: usize, th: usize) -> (usize, usize) {
    use std::cmp::Ordering::*;
    match gi.cmp(&ri) {
        Greater => (0, th),
        Equal => (ro + bs, th - ro - bs),
        Less => (0, 0),
    }
}

/// Runs the distributed block LU on the calling rank, factoring the
/// distributed matrix *in place*: the returned tile holds this rank's
/// part of the packed `L\U` (unit lower below the diagonal, upper on and
/// above it).
///
/// SPMD over `comm`; `a` is this rank's block-checkerboard tile.
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
    let (th, tw) = tile_shape(grid, n);
    assert_eq!((a.rows(), a.cols()), (th, tw), "tile has wrong shape");
    let bs = cfg.block;
    assert!(
        bs > 0 && th % bs == 0 && tw % bs == 0,
        "block must divide tile extents"
    );

    let (gi, gj) = grid.coords(comm.rank());
    // Flat row/column communicators (always needed: diagonal broadcast).
    let row_comm = comm.split(gi as u64, gj as i64)?;
    let col_comm = comm.split((grid.rows + gj) as u64, gi as i64)?;
    // Optional hierarchy for the panel broadcasts.
    let hier = match cfg.groups {
        None => None,
        Some(groups) => {
            let hg = HierGrid::new(grid, groups);
            let (x, y) = hg.group_of(gi, gj);
            let (i, j) = hg.inner_of(gi, gj);
            let c3 = crate::grid::color3;
            let group_row = comm.split(c3(x, i, j), y as i64)?;
            let group_col = comm.split(c3(y, i, j), x as i64)?;
            let inner_row = comm.split(c3(x, y, i), j as i64)?;
            let inner_col = comm.split(c3(x, y, j), i as i64)?;
            Some((hg, group_row, group_col, inner_row, inner_col))
        }
    };

    // Two-phase (or flat) broadcast of an L-panel slab along this grid
    // row from grid column `cj`.
    let bcast_l = |panel: &mut C::Mat, cj: usize| -> Result<(), CommError> {
        match &hier {
            None => row_comm.bcast_mat(cfg.bcast, cj, panel),
            Some((hg, group_row, _, inner_row, _)) => {
                let inner = hg.inner();
                let (yk, jk) = (cj / inner.cols, cj % inner.cols);
                let my_j = gj % inner.cols;
                if my_j == jk {
                    group_row.bcast_mat(cfg.bcast, yk, panel)?;
                }
                inner_row.bcast_mat(cfg.bcast, jk, panel)
            }
        }
    };
    let bcast_u = |panel: &mut C::Mat, ri: usize| -> Result<(), CommError> {
        match &hier {
            None => col_comm.bcast_mat(cfg.bcast, ri, panel),
            Some((hg, _, group_col, _, inner_col)) => {
                let inner = hg.inner();
                let (xk, ik) = (ri / inner.rows, ri % inner.rows);
                let my_i = gi % inner.rows;
                if my_i == ik {
                    group_col.bcast_mat(cfg.bcast, xk, panel)?;
                }
                inner_col.bcast_mat(cfg.bcast, ik, panel)
            }
        }
    };

    let mut t = a.clone();
    for k in 0..n / bs {
        comm.trace_step(k, bs, bs, || -> Result<(), CommError> {
            let (ri, ro) = (pivot_owner(k, bs, th), pivot_offset(k, bs, th));
            let (cj, co) = (pivot_owner(k, bs, tw), pivot_offset(k, bs, tw));

            // --- 1. diagonal factor + broadcast ------------------------------
            let mut diag = if gi == ri && gj == cj {
                let mut d = t.block(ro, co, bs, bs);
                comm.compute((bs * bs * bs) as f64 / 3.0, 0, || d.lu_nopiv_inplace());
                t.set_block(ro, co, &d);
                d
            } else {
                C::Mat::zeros(bs, bs)
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
            let (rlo, rcount) = below_rows(gi, ri, ro, bs, th);
            if gj == cj && rcount > 0 {
                let mut slab = t.block(rlo, co, rcount, bs);
                comm.compute((rcount * bs * bs) as f64 / 2.0, 0, || {
                    C::Mat::trsm_right_upper(&diag, &mut slab)
                });
                t.set_block(rlo, co, &slab);
            }
            let (clo, ccount) = below_rows(gj, cj, co, bs, tw);
            if gi == ri && ccount > 0 {
                let mut slab = t.block(ro, clo, bs, ccount);
                comm.compute((ccount * bs * bs) as f64 / 2.0, 0, || {
                    C::Mat::trsm_left_lower_unit(&diag, &mut slab)
                });
                t.set_block(ro, clo, &slab);
            }

            // --- 3. panel broadcasts -------------------------------------------
            let mut l_panel = if rcount > 0 {
                if gj == cj {
                    t.block(rlo, co, rcount, bs)
                } else {
                    C::Mat::zeros(rcount, bs)
                }
            } else {
                C::Mat::zeros(0, bs)
            };
            if rcount > 0 {
                bcast_l(&mut l_panel, cj)?;
            }
            let mut u_panel = if ccount > 0 {
                if gi == ri {
                    t.block(ro, clo, bs, ccount)
                } else {
                    C::Mat::zeros(bs, ccount)
                }
            } else {
                C::Mat::zeros(bs, 0)
            };
            if ccount > 0 {
                bcast_u(&mut u_panel, ri)?;
            }

            // --- 4. trailing update --------------------------------------------
            if rcount > 0 && ccount > 0 {
                let mut trailing = t.block(rlo, clo, rcount, ccount);
                let pairs = rcount * ccount * bs;
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

/// Timing replay of the block-LU communication schedule (flat or
/// hierarchical panel broadcasts) on the simulator: [`block_lu`] itself,
/// run over phantom payloads.
pub fn sim_block_lu(
    platform: &Platform,
    grid: GridShape,
    n: usize,
    bs: usize,
    bcast: SimBcast,
    groups: Option<GridShape>,
    step_sync: bool,
) -> SimReport {
    let mut net = SimNet::new(grid.size(), platform.net);
    sim_block_lu_on(
        &mut net,
        platform.gamma,
        grid,
        n,
        bs,
        bcast,
        groups,
        step_sync,
    )
}

/// Like [`sim_block_lu`], on a caller-provided network (so a tracer can
/// be attached beforehand). `gamma` is seconds per multiply-add pair.
#[allow(clippy::too_many_arguments)]
pub fn sim_block_lu_on(
    net: &mut SimNet,
    gamma: f64,
    grid: GridShape,
    n: usize,
    bs: usize,
    bcast: SimBcast,
    groups: Option<GridShape>,
    step_sync: bool,
) -> SimReport {
    assert_eq!(net.size(), grid.size(), "network must span the grid");
    let (th, tw) = tile_shape(grid, n);
    let cfg = LuConfig {
        block: bs,
        bcast,
        groups,
        ..Default::default()
    };
    let owned = std::mem::replace(net, SimNet::new(1, Hockney::new(0.0, 0.0)));
    let (done, _) = SimWorld::run(owned, gamma, step_sync, move |comm| {
        let tile = PhantomMat { rows: th, cols: tw };
        block_lu(comm, grid, n, &tile, &cfg).unwrap()
    });
    *net = done;
    net.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsumma_matrix::factor::{seeded_diag_dominant, unpack_lower_unit, unpack_upper};
    use hsumma_matrix::{gemm, BlockDist, Matrix};
    use hsumma_runtime::Runtime;

    /// Scatter → distributed LU → gather → reconstruct L·U and compare.
    fn run_lu_case(grid: GridShape, n: usize, cfg: LuConfig) {
        let a = seeded_diag_dominant(n, 42);
        let dist = BlockDist::new(grid, n, n);
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
        let run = |groups: Option<GridShape>| {
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
        let flat = run(None);
        for groups in [
            GridShape::new(2, 2),
            GridShape::new(1, 4),
            GridShape::new(4, 4),
        ] {
            let hier = run(Some(groups));
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
                groups: Some(GridShape::new(2, 2)),
                ..Default::default()
            },
        );
    }

    #[test]
    fn sim_lu_runs_and_counts_messages() {
        let plat = Platform::bluegene_p();
        let grid = GridShape::new(4, 4);
        let flat = sim_block_lu(&plat, grid, 64, 8, SimBcast::Binomial, None, true);
        assert!(flat.total_time > 0.0);
        assert!(flat.msgs > 0);
        let hier = sim_block_lu(
            &plat,
            grid,
            64,
            8,
            SimBcast::Binomial,
            Some(GridShape::new(2, 2)),
            true,
        );
        // Hierarchy moves the same panel volume (every rank still receives
        // each panel once under tree broadcasts).
        assert_eq!(flat.bytes, hier.bytes);
    }

    #[test]
    fn hierarchical_lu_helps_under_serialized_broadcasts() {
        // Same mechanism as HSUMMA: with a linear-cost broadcast, the
        // two-level split reduces the per-step broadcast width.
        let plat = Platform::bluegene_p_effective();
        let grid = GridShape::new(16, 16);
        let flat = sim_block_lu(&plat, grid, 512, 32, SimBcast::Flat, None, true);
        let hier = sim_block_lu(
            &plat,
            grid,
            512,
            32,
            SimBcast::Flat,
            Some(GridShape::new(4, 4)),
            true,
        );
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
