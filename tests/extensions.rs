//! Integration tests for the future-work extensions (§VI) through the
//! public façade: block-cyclic SUMMA, overlap variants, 2.5D, and the
//! hierarchical block LU.

use hsumma_repro::core::cyclic::summa_cyclic;
use hsumma_repro::core::lu::{block_lu, LuConfig};
use hsumma_repro::core::overlap::{hsumma_overlap, summa_overlap};
use hsumma_repro::core::testutil::{distributed_product, reference_product};
use hsumma_repro::core::twodotfive::{coords_3d, twodotfive, TwoDotFiveConfig};
use hsumma_repro::core::{HsummaConfig, SummaConfig};
use hsumma_repro::matrix::factor::{seeded_diag_dominant, unpack_lower_unit, unpack_upper};
use hsumma_repro::matrix::{
    gemm, seeded_uniform, BlockCyclicDist, BlockDist, GemmKernel, GridShape, Matrix,
};
use hsumma_repro::runtime::Runtime;

#[test]
fn cyclic_summa_matches_serial_through_facade() {
    let grid = GridShape::new(2, 2);
    let n = 16;
    let a = seeded_uniform(n, n, 1);
    let b = seeded_uniform(n, n, 2);
    let want = reference_product(&a, &b);
    let cfg = SummaConfig {
        block: 2,
        kernel: GemmKernel::Blocked,
        ..Default::default()
    };
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
    assert!(dist.gather(&ct).approx_eq(&want, 1e-9));
}

#[test]
fn overlap_variants_match_their_blocking_counterparts() {
    let grid = GridShape::new(2, 2);
    let n = 16;
    let a = seeded_uniform(n, n, 3);
    let b = seeded_uniform(n, n, 4);
    let want = reference_product(&a, &b);

    let scfg = SummaConfig {
        block: 4,
        kernel: GemmKernel::Blocked,
        ..Default::default()
    };
    let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
        summa_overlap(comm, grid, n, &at, &bt, &scfg).unwrap()
    });
    assert!(got.approx_eq(&want, 1e-9));

    let hcfg = HsummaConfig {
        kernel: GemmKernel::Blocked,
        ..HsummaConfig::uniform(GridShape::new(2, 2), 4)
    };
    let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
        hsumma_overlap(comm, grid, n, &at, &bt, &hcfg).unwrap()
    });
    assert!(got.approx_eq(&want, 1e-9));
}

#[test]
fn twodotfive_matches_serial_through_facade() {
    let (q, c, n) = (2usize, 2usize, 16usize);
    let grid = GridShape::new(q, q);
    let a = seeded_uniform(n, n, 5);
    let b = seeded_uniform(n, n, 6);
    let want = reference_product(&a, &b);
    let dist = BlockDist::new(grid, n, n);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&b);
    let cfg = TwoDotFiveConfig {
        q,
        c,
        summa: SummaConfig {
            block: 4,
            kernel: GemmKernel::Blocked,
            ..Default::default()
        },
    };
    let out = Runtime::run(q * q * c, |comm| {
        let (layer, i, j) = coords_3d(comm.rank(), q);
        let (ai, bi) = if layer == 0 {
            (at[grid.rank(i, j)].clone(), bt[grid.rank(i, j)].clone())
        } else {
            let (th, tw) = dist.tile_shape();
            (Matrix::zeros(th, tw), Matrix::zeros(th, tw))
        };
        twodotfive(comm, n, &ai, &bi, &cfg).unwrap()
    });
    let tiles: Vec<Matrix> = (0..q * q)
        .map(|r| out[r].clone().expect("layer 0"))
        .collect();
    assert!(dist.gather(&tiles).approx_eq(&want, 1e-9));
}

#[test]
fn block_lu_solves_a_linear_system_end_to_end() {
    // The downstream use-case: factor A once, then solve A·x = rhs by
    // forward/back substitution with the gathered factors.
    use hsumma_repro::matrix::factor::{trsm_left_lower_unit, trsm_right_upper};

    let grid = GridShape::new(2, 2);
    let n = 16;
    let a = seeded_diag_dominant(n, 11);
    let dist = BlockDist::new(grid, n, n);
    let tiles = dist.scatter(&a);
    let cfg = LuConfig {
        block: 4,
        kernel: GemmKernel::Blocked,
        ..Default::default()
    };
    let out = Runtime::run(grid.size(), |comm| {
        block_lu(comm, grid, n, &tiles[comm.rank()].clone(), &cfg).unwrap()
    });
    let packed = dist.gather(&out);
    let l = unpack_lower_unit(&packed);
    let u = unpack_upper(&packed);

    // Solve A x = rhs: L y = rhs, then x U = ... (we solve Uᵀ-free via
    // x: first y from L, then x from U using the right-solve on a row
    // vector is awkward — use the identity (U x = y) ⇔ (xᵀ Uᵀ = yᵀ);
    // simpler: verify L·U ≈ A and residual of the reconstructed solve.
    let x_true = seeded_uniform(n, 1, 12);
    let mut rhs = Matrix::zeros(n, 1);
    gemm(GemmKernel::Blocked, &a, &x_true, &mut rhs);

    // Forward substitution with L.
    let mut y = rhs.clone();
    trsm_left_lower_unit(&l, &mut y);
    // Back substitution with U (column-vector form of the right solve):
    // solve U x = y directly.
    let mut x = Matrix::zeros(n, 1);
    for i in (0..n).rev() {
        let mut v = y.get(i, 0);
        for k in i + 1..n {
            v -= u.get(i, k) * x.get(k, 0);
        }
        x.set(i, 0, v / u.get(i, i));
    }
    assert!(
        x.approx_eq(&x_true, 1e-6),
        "solve via distributed LU diverged: {}",
        x.max_abs_diff(&x_true)
    );
    let _ = trsm_right_upper; // referenced for symmetry with the docs
}

#[test]
fn hierarchical_lu_reconstructs_through_facade() {
    let grid = GridShape::new(4, 4);
    let n = 32;
    let a = seeded_diag_dominant(n, 21);
    let dist = BlockDist::new(grid, n, n);
    let tiles = dist.scatter(&a);
    let cfg = LuConfig {
        block: 4,
        kernel: GemmKernel::Blocked,
        groups: GridShape::new(2, 2),
        ..Default::default()
    };
    let out = Runtime::run(grid.size(), |comm| {
        block_lu(comm, grid, n, &tiles[comm.rank()].clone(), &cfg).unwrap()
    });
    let packed = dist.gather(&out);
    let mut rebuilt = Matrix::zeros(n, n);
    gemm(
        GemmKernel::Blocked,
        &unpack_lower_unit(&packed),
        &unpack_upper(&packed),
        &mut rebuilt,
    );
    assert!(rebuilt.approx_eq(&a, 1e-7));
}
