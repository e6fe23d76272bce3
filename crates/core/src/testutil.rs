//! End-to-end drivers shared by tests, examples and benchmarks.
//!
//! The distributed algorithms are SPMD functions over per-rank tiles;
//! verifying them requires the scatter → run → gather → compare loop.
//! [`distributed_product`] packages that loop.

use crate::distribution::Distribution;
use hsumma_matrix::{gemm, GemmKernel, GridShape, Matrix};
use hsumma_runtime::{Comm, Runtime};

/// Serial reference product `A·B` (naive kernel — the correctness oracle).
pub fn reference_product(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(GemmKernel::Naive, a, b, &mut c);
    c
}

/// Scatters `a` and `b` over `grid` as [`Distribution::grid2d`] deals
/// them (any `n`, dividing or not), runs `algo` on every rank (receiving
/// its local tiles), gathers the per-rank results into the global `C`.
///
/// `algo` must be an SPMD distributed multiply returning the local C tile.
pub fn distributed_product(
    grid: GridShape,
    n: usize,
    a: &Matrix,
    b: &Matrix,
    algo: impl Fn(&mut Comm, Matrix, Matrix) -> Matrix + Send + Sync,
) -> Matrix {
    let dist = Distribution::grid2d(grid, n, n);
    let a_tiles = dist.scatter(a);
    let b_tiles = dist.scatter(b);
    let c_tiles = Runtime::run(grid.size(), |comm| {
        let at = a_tiles[comm.rank()].clone();
        let bt = b_tiles[comm.rank()].clone();
        algo(comm, at, bt)
    });
    dist.gather(&c_tiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsumma_matrix::seeded_uniform;

    #[test]
    fn distributed_identity_algo_roundtrips_a() {
        // An "algorithm" that just returns its A tile: the harness must
        // reassemble the original global A.
        let grid = GridShape::new(2, 2);
        let a = seeded_uniform(8, 8, 5);
        let b = seeded_uniform(8, 8, 6);
        let got = distributed_product(grid, 8, &a, &b, |_, at, _| at);
        assert_eq!(got, a);
    }

    #[test]
    fn reference_product_identity() {
        let a = seeded_uniform(6, 6, 9);
        let id = Matrix::identity(6);
        assert!(reference_product(&a, &id).approx_eq(&a, 1e-12));
    }
}
