//! CSR scatter/gather over the 2-D block-checkerboard layout of
//! [`Distribution::grid2d`] (the sparse analogue of its
//! `scatter`/`gather`): each dimension is dealt with `chunk_range`, so
//! no extent needs to divide by the grid.

use hsumma_core::Distribution;
use hsumma_matrix::sparse::CsrMatrix;
use hsumma_matrix::GridShape;

/// Cuts `m` into `grid.size()` CSR tiles, rank-major: rank `r`'s tile is
/// its [`Distribution::grid2d`] range of `m`.
pub fn scatter_csr(grid: GridShape, m: &CsrMatrix) -> Vec<CsrMatrix> {
    Distribution::grid2d(grid, m.rows(), m.cols())
        .ranges()
        .iter()
        .map(|r| m.block(r.row0, r.col0, r.rows(), r.cols()))
        .collect()
}

/// Reassembles rank-major CSR tiles into the global matrix — the inverse
/// of [`scatter_csr`]. A grid row starts below the tiles above it in
/// grid column 0 and a grid column right of the tiles left of it in grid
/// row 0, so the tiles carry their own offsets.
///
/// # Panics
/// Panics unless there is one tile per rank and every tile is as tall
/// as its grid row's and as wide as its grid column's.
pub fn gather_csr(grid: GridShape, tiles: &[CsrMatrix]) -> CsrMatrix {
    assert_eq!(tiles.len(), grid.size(), "one tile per rank");
    let starts = |parts: usize, extent: &dyn Fn(usize) -> usize| {
        let mut at = vec![0];
        for line in 0..parts {
            at.push(at[line] + extent(line));
        }
        at
    };
    let row0 = starts(grid.rows, &|i| tiles[grid.rank(i, 0)].rows());
    let col0 = starts(grid.cols, &|j| tiles[grid.rank(0, j)].cols());
    let mut triplets = Vec::with_capacity(tiles.iter().map(CsrMatrix::nnz).sum());
    for (r, tile) in tiles.iter().enumerate() {
        let (gi, gj) = grid.coords(r);
        let (th, tw) = (row0[gi + 1] - row0[gi], col0[gj + 1] - col0[gj]);
        assert_eq!((tile.rows(), tile.cols()), (th, tw), "ragged tiles");
        for i in 0..th {
            let (cols_i, vals_i) = tile.row(i);
            for (t, &j) in cols_i.iter().enumerate() {
                triplets.push((row0[gi] + i, col0[gj] + j as usize, vals_i[t]));
            }
        }
    }
    CsrMatrix::from_triplets(row0[grid.rows], col0[grid.cols], &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{sddmm_2d, spgemm_2d, SparseConfig};
    use crate::phantom::PhantomSparse;
    use hsumma_core::{tile_of, PhantomMat};
    use hsumma_matrix::sparse::{sddmm, seeded_sparse, spgemm};
    use hsumma_matrix::{seeded_uniform, Matrix};
    use hsumma_netsim::spmd::SimWorld;
    use hsumma_netsim::{Platform, SimNet, SimReport};
    use hsumma_runtime::Runtime;
    use std::sync::Arc;

    /// Shapes nothing divides: `n` = 50 on 2 × 3, prime `p` as `1 × 5`,
    /// and an extent smaller than a grid side, in blocks of 4.
    const UNEVEN: [(usize, usize, usize); 3] = [(2, 3, 50), (1, 5, 12), (4, 2, 3)];

    fn cfg(block: usize) -> SparseConfig {
        SparseConfig {
            block,
            ..Default::default()
        }
    }

    /// Scatters `a` and `b`, runs [`spgemm_2d`] on every rank of a
    /// threaded runtime, gathers the global `C`.
    fn distributed_spgemm(
        grid: GridShape,
        n: usize,
        a: &CsrMatrix,
        b: &CsrMatrix,
        cfg: &SparseConfig,
    ) -> CsrMatrix {
        let shared = |m| -> Vec<_> { scatter_csr(grid, m).into_iter().map(Arc::new).collect() };
        let (at, bt) = (shared(a), shared(b));
        let ct = Runtime::run(grid.size(), |comm| {
            let r = comm.rank();
            spgemm_2d(comm, grid, n, &at[r], &bt[r], cfg).unwrap()
        });
        gather_csr(
            grid,
            &ct.into_iter().map(Arc::unwrap_or_clone).collect::<Vec<_>>(),
        )
    }

    /// Scatters `s`, `a`, `b`, runs [`sddmm_2d`] on a threaded runtime,
    /// gathers the global `C`.
    fn distributed_sddmm(
        grid: GridShape,
        n: usize,
        s: &CsrMatrix,
        a: &Matrix,
        b: &Matrix,
        cfg: &SparseConfig,
    ) -> CsrMatrix {
        let st: Vec<_> = scatter_csr(grid, s).into_iter().map(Arc::new).collect();
        let dist = Distribution::grid2d(grid, n, n);
        let (at, bt) = (dist.scatter(a), dist.scatter(b));
        let ct = Runtime::run(grid.size(), |comm| {
            let r = comm.rank();
            sddmm_2d(comm, grid, n, &st[r], &at[r], &bt[r], cfg).unwrap()
        });
        gather_csr(
            grid,
            &ct.into_iter().map(Arc::unwrap_or_clone).collect::<Vec<_>>(),
        )
    }

    /// [`spgemm_2d`] on simulated clocks over phantom tiles built from
    /// the real operands, so each message is priced at its panel's nnz.
    fn sim_spgemm_2d(
        plat: &Platform,
        grid: GridShape,
        n: usize,
        a: &CsrMatrix,
        b: &CsrMatrix,
        cfg: &SparseConfig,
    ) -> SimReport {
        let phantom = |m| -> Vec<_> {
            scatter_csr(grid, m)
                .iter()
                .map(PhantomSparse::from_csr)
                .collect()
        };
        let (at, bt) = (phantom(a), phantom(b));
        let net = SimNet::new(grid.size(), plat.net);
        let (net, _) = SimWorld::run(net, plat.gamma, false, |comm| {
            let r = comm.rank();
            spgemm_2d(comm, grid, n, &at[r], &bt[r], cfg).unwrap()
        });
        net.report()
    }

    /// [`sddmm_2d`] on simulated clocks: dense phantom panels, `S` as a
    /// patterned phantom tile, so the compute charge counts the samples.
    fn sim_sddmm_2d(
        plat: &Platform,
        grid: GridShape,
        n: usize,
        s: &CsrMatrix,
        cfg: &SparseConfig,
    ) -> SimReport {
        let st: Vec<_> = scatter_csr(grid, s)
            .iter()
            .map(PhantomSparse::from_csr)
            .collect();
        let net = SimNet::new(grid.size(), plat.net);
        let (net, _) = SimWorld::run(net, plat.gamma, false, |comm| {
            let r = comm.rank();
            let (rows, cols) = tile_of(grid, r, n, n);
            let tile = PhantomMat { rows, cols };
            sddmm_2d(comm, grid, n, &st[r], &tile, &tile, cfg).unwrap()
        });
        net.report()
    }

    #[test]
    fn scatter_gather_roundtrips() {
        let m = seeded_sparse(12, 12, 0.3, 51);
        for grid in [
            GridShape::new(1, 1),
            GridShape::new(2, 2),
            GridShape::new(2, 3),
            GridShape::new(5, 7),
            GridShape::new(13, 1),
        ] {
            let tiles = scatter_csr(grid, &m);
            assert_eq!(gather_csr(grid, &tiles), m, "{grid:?}");
        }
    }

    #[test]
    fn distributed_spgemm_matches_serial_reference() {
        // Even grids keep the serial kernel's 1e-12; uneven tiles get 1e-9.
        let even = [(1, 1, 16), (2, 2, 16), (2, 4, 16)].map(|c| (c, 1e-12));
        for ((s, t, n), tol) in even.into_iter().chain(UNEVEN.map(|c| (c, 1e-9))) {
            let grid = GridShape::new(s, t);
            let a = seeded_sparse(n, n, 0.25, 52);
            let b = seeded_sparse(n, n, 0.3, 53);
            let want = spgemm(&a, &b);
            let got = distributed_spgemm(grid, n, &a, &b, &cfg(4));
            assert_eq!(got.row_ptr(), want.row_ptr(), "{grid:?} n={n}: pattern");
            assert_eq!(got.col_idx(), want.col_idx(), "{grid:?} n={n}: pattern");
            assert!(
                got.max_abs_diff(&want) < tol,
                "{grid:?} n={n}: err {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn distributed_spgemm_handles_empty_and_dense_corners() {
        let n = 8;
        let grid = GridShape::new(2, 2);
        // Entirely empty operand: product is empty.
        let empty = CsrMatrix::zeros(n, n);
        let b = seeded_sparse(n, n, 0.5, 54);
        assert_eq!(distributed_spgemm(grid, n, &empty, &b, &cfg(2)).nnz(), 0);
        // Fully dense operands: must match the dense product.
        let da = seeded_sparse(n, n, 1.0, 55);
        let db = seeded_sparse(n, n, 1.0, 56);
        let got = distributed_spgemm(grid, n, &da, &db, &cfg(2));
        assert!(got.max_abs_diff(&spgemm(&da, &db)) < 1e-12);
    }

    #[test]
    fn distributed_sddmm_matches_serial_reference() {
        let even = [(1, 1, 16), (2, 2, 16), (4, 2, 16)];
        for (s_rows, t, n) in even.into_iter().chain(UNEVEN) {
            let grid = GridShape::new(s_rows, t);
            let s = seeded_sparse(n, n, 0.2, 57);
            let a = seeded_uniform(n, n, 58);
            let b = seeded_uniform(n, n, 59);
            let want = sddmm(&s, &a, &b);
            let got = distributed_sddmm(grid, n, &s, &a, &b, &cfg(4));
            assert_eq!(got.row_ptr(), want.row_ptr(), "{grid:?}: pattern drifted");
            assert_eq!(got.col_idx(), want.col_idx(), "{grid:?}: pattern drifted");
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
        let sparse_a = seeded_sparse(n, n, 0.1, 60);
        let sparse_b = seeded_sparse(n, n, 0.1, 61);
        let dense_a = seeded_sparse(n, n, 0.8, 60);
        let dense_b = seeded_sparse(n, n, 0.8, 61);
        let lo = sim_spgemm_2d(&plat, grid, n, &sparse_a, &sparse_b, &cfg(4));
        let hi = sim_spgemm_2d(&plat, grid, n, &dense_a, &dense_b, &cfg(4));
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
        // Wire traffic is dense-panel traffic: independent of nnz(S).
        let s_lo = seeded_sparse(n, n, 0.05, 62);
        let s_hi = seeded_sparse(n, n, 0.6, 62);
        let lo = sim_sddmm_2d(&plat, grid, n, &s_lo, &cfg(4));
        let hi = sim_sddmm_2d(&plat, grid, n, &s_hi, &cfg(4));
        assert_eq!(lo.bytes, hi.bytes, "S never travels");
        // But the compute charge tracks the sample count.
        assert!(
            hi.comp_time > lo.comp_time,
            "denser S must charge more sampled dot products"
        );
    }
}
