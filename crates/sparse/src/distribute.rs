//! CSR scatter/gather over the 2-D block distribution, plus the
//! scatter → run → gather drivers shared by tests, examples and
//! benchmarks (sparse analogues of `hsumma_core::testutil`).

use crate::algo::{sddmm_2d, spgemm_2d, SparseConfig};
use crate::phantom::PhantomSparse;
use hsumma_core::comm::PhantomMat;
use hsumma_matrix::sparse::CsrMatrix;
use hsumma_matrix::{BlockDist, GridShape, Matrix};
use hsumma_netsim::spmd::SimWorld;
use hsumma_netsim::{Platform, SimNet, SimReport};
use hsumma_runtime::Runtime;
use std::sync::Arc;

/// Cuts `m` into `grid.size()` block-checkerboard CSR tiles, rank-major
/// (the sparse analogue of `BlockDist::scatter`).
///
/// # Panics
/// Panics unless the grid divides both extents.
pub fn scatter_csr(grid: GridShape, m: &CsrMatrix) -> Vec<CsrMatrix> {
    let (th, tw) = BlockDist::new(grid, m.rows(), m.cols()).tile_shape();
    (0..grid.size())
        .map(|r| {
            let (gi, gj) = grid.coords(r);
            m.block(gi * th, gj * tw, th, tw)
        })
        .collect()
}

/// Reassembles block-checkerboard CSR tiles (rank-major, all the same
/// shape) into the global matrix — the inverse of [`scatter_csr`].
pub fn gather_csr(grid: GridShape, tiles: &[CsrMatrix]) -> CsrMatrix {
    assert_eq!(tiles.len(), grid.size(), "one tile per rank");
    let (th, tw) = (tiles[0].rows(), tiles[0].cols());
    let mut triplets = Vec::with_capacity(tiles.iter().map(CsrMatrix::nnz).sum());
    for (r, tile) in tiles.iter().enumerate() {
        assert_eq!((tile.rows(), tile.cols()), (th, tw), "ragged tiles");
        let (gi, gj) = grid.coords(r);
        let (r0, c0) = (gi * th, gj * tw);
        for i in 0..th {
            let (cols_i, vals_i) = tile.row(i);
            for (t, &j) in cols_i.iter().enumerate() {
                triplets.push((r0 + i, c0 + j as usize, vals_i[t]));
            }
        }
    }
    CsrMatrix::from_triplets(grid.rows * th, grid.cols * tw, &triplets)
}

/// Scatters `a` and `b`, runs [`spgemm_2d`] on every rank of a threaded
/// runtime, gathers the per-rank results into the global sparse `C`.
pub fn distributed_spgemm(
    grid: GridShape,
    n: usize,
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &SparseConfig,
) -> CsrMatrix {
    let at: Vec<_> = scatter_csr(grid, a)
        .iter()
        .map(|t| Arc::new(t.clone()))
        .collect();
    let bt: Vec<_> = scatter_csr(grid, b)
        .iter()
        .map(|t| Arc::new(t.clone()))
        .collect();
    let ct = Runtime::run(grid.size(), |comm| {
        let r = comm.rank();
        spgemm_2d(comm, grid, n, &at[r], &bt[r], cfg).unwrap()
    });
    let tiles: Vec<CsrMatrix> = ct.iter().map(|t| (**t).clone()).collect();
    gather_csr(grid, &tiles)
}

/// Scatters `s`, `a`, `b`, runs [`sddmm_2d`] on every rank of a
/// threaded runtime, gathers the per-rank results.
pub fn distributed_sddmm(
    grid: GridShape,
    n: usize,
    s: &CsrMatrix,
    a: &Matrix,
    b: &Matrix,
    cfg: &SparseConfig,
) -> CsrMatrix {
    let st: Vec<_> = scatter_csr(grid, s)
        .iter()
        .map(|t| Arc::new(t.clone()))
        .collect();
    let dist = BlockDist::new(grid, n, n);
    let at = dist.scatter(a);
    let bt = dist.scatter(b);
    let ct = Runtime::run(grid.size(), |comm| {
        let r = comm.rank();
        sddmm_2d(comm, grid, n, &st[r], &at[r], &bt[r], cfg).unwrap()
    });
    let tiles: Vec<CsrMatrix> = ct.iter().map(|t| (**t).clone()).collect();
    gather_csr(grid, &tiles)
}

/// Timed replay of the [`spgemm_2d`] schedule on the simulator: the same
/// generic algorithm over phantom tiles built from the *real* CSR
/// operands, so every simulated message is priced at the true panel's
/// nnz-dependent wire size.
pub fn sim_spgemm_2d(
    platform: &Platform,
    grid: GridShape,
    n: usize,
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &SparseConfig,
) -> SimReport {
    let at: Vec<_> = scatter_csr(grid, a)
        .iter()
        .map(PhantomSparse::from_csr)
        .collect();
    let bt: Vec<_> = scatter_csr(grid, b)
        .iter()
        .map(PhantomSparse::from_csr)
        .collect();
    let cfg = *cfg;
    let (net, _) = SimWorld::run(
        SimNet::new(grid.size(), platform.net),
        platform.gamma,
        false,
        move |comm| {
            let r = comm.rank();
            spgemm_2d(comm, grid, n, &at[r], &bt[r], &cfg).unwrap()
        },
    );
    net.report()
}

/// Timed replay of the [`sddmm_2d`] schedule on the simulator (dense
/// pivot panels over phantom clocks; `S` as a patterned phantom tile, so
/// the per-step compute charge uses the exact sampled pair count).
pub fn sim_sddmm_2d(
    platform: &Platform,
    grid: GridShape,
    n: usize,
    s: &CsrMatrix,
    cfg: &SparseConfig,
) -> SimReport {
    let st: Vec<_> = scatter_csr(grid, s)
        .iter()
        .map(PhantomSparse::from_csr)
        .collect();
    let (th, tw) = BlockDist::new(grid, n, n).tile_shape();
    let cfg = *cfg;
    let (net, _) = SimWorld::run(
        SimNet::new(grid.size(), platform.net),
        platform.gamma,
        false,
        move |comm| {
            let r = comm.rank();
            let tile = PhantomMat { rows: th, cols: tw };
            sddmm_2d(comm, grid, n, &st[r], &tile, &tile, &cfg).unwrap()
        },
    );
    net.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsumma_matrix::seeded_uniform;
    use hsumma_matrix::sparse::{sddmm, seeded_sparse, spgemm};

    #[test]
    fn scatter_gather_roundtrips() {
        let m = seeded_sparse(12, 12, 0.3, 51);
        for grid in [
            GridShape::new(1, 1),
            GridShape::new(2, 2),
            GridShape::new(2, 3),
        ] {
            let tiles = scatter_csr(grid, &m);
            assert_eq!(gather_csr(grid, &tiles), m, "{grid:?}");
        }
    }

    #[test]
    fn distributed_spgemm_matches_serial_reference() {
        let n = 16;
        let a = seeded_sparse(n, n, 0.25, 52);
        let b = seeded_sparse(n, n, 0.3, 53);
        let want = spgemm(&a, &b);
        for grid in [
            GridShape::new(1, 1),
            GridShape::new(2, 2),
            GridShape::new(2, 4),
        ] {
            let cfg = SparseConfig {
                block: 4,
                ..Default::default()
            };
            let got = distributed_spgemm(grid, n, &a, &b, &cfg);
            assert!(
                got.max_abs_diff(&want) < 1e-12,
                "{grid:?}: err {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn distributed_spgemm_handles_empty_and_dense_corners() {
        let n = 8;
        let grid = GridShape::new(2, 2);
        let cfg = SparseConfig {
            block: 2,
            ..Default::default()
        };
        // Entirely empty operand: product is empty.
        let empty = CsrMatrix::zeros(n, n);
        let b = seeded_sparse(n, n, 0.5, 54);
        assert_eq!(distributed_spgemm(grid, n, &empty, &b, &cfg).nnz(), 0);
        // Fully dense operands: must match the dense product.
        let da = seeded_sparse(n, n, 1.0, 55);
        let db = seeded_sparse(n, n, 1.0, 56);
        let got = distributed_spgemm(grid, n, &da, &db, &cfg);
        assert!(got.max_abs_diff(&spgemm(&da, &db)) < 1e-12);
    }

    #[test]
    fn distributed_sddmm_matches_serial_reference() {
        let n = 16;
        let s = seeded_sparse(n, n, 0.2, 57);
        let a = seeded_uniform(n, n, 58);
        let b = seeded_uniform(n, n, 59);
        let want = sddmm(&s, &a, &b);
        for grid in [
            GridShape::new(1, 1),
            GridShape::new(2, 2),
            GridShape::new(4, 2),
        ] {
            let cfg = SparseConfig {
                block: 4,
                ..Default::default()
            };
            let got = distributed_sddmm(grid, n, &s, &a, &b, &cfg);
            assert_eq!(got.row_ptr(), want.row_ptr(), "{grid:?}: pattern drifted");
            assert!(
                got.max_abs_diff(&want) < 1e-9,
                "{grid:?}: err {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn sim_spgemm_bytes_scale_with_density() {
        let plat = Platform::grid5000();
        let grid = GridShape::new(2, 2);
        let n = 16;
        let cfg = SparseConfig {
            block: 4,
            ..Default::default()
        };
        let sparse_a = seeded_sparse(n, n, 0.1, 60);
        let sparse_b = seeded_sparse(n, n, 0.1, 61);
        let dense_a = seeded_sparse(n, n, 0.8, 60);
        let dense_b = seeded_sparse(n, n, 0.8, 61);
        let lo = sim_spgemm_2d(&plat, grid, n, &sparse_a, &sparse_b, &cfg);
        let hi = sim_spgemm_2d(&plat, grid, n, &dense_a, &dense_b, &cfg);
        assert_eq!(lo.msgs, hi.msgs, "same schedule, same message count");
        assert!(
            hi.bytes > lo.bytes,
            "denser operands must ship more wire bytes ({} vs {})",
            hi.bytes,
            lo.bytes
        );
    }

    #[test]
    fn sim_sddmm_moves_dense_panels_but_charges_sampled_compute() {
        let plat = Platform::grid5000();
        let grid = GridShape::new(2, 2);
        let n = 16;
        let cfg = SparseConfig {
            block: 4,
            ..Default::default()
        };
        // Wire traffic is dense-panel traffic: independent of nnz(S).
        let s_lo = seeded_sparse(n, n, 0.05, 62);
        let s_hi = seeded_sparse(n, n, 0.6, 62);
        let lo = sim_sddmm_2d(&plat, grid, n, &s_lo, &cfg);
        let hi = sim_sddmm_2d(&plat, grid, n, &s_hi, &cfg);
        assert_eq!(lo.bytes, hi.bytes, "S never travels");
        // But the compute charge tracks the sample count.
        assert!(
            hi.comp_time > lo.comp_time,
            "denser S must charge more sampled dot products"
        );
    }
}
