//! Domain scenario: solve a dense linear system `A·x = rhs` end to end
//! with the distributed kernels — the workload LU factorization exists
//! for. `A` here is the dense collocation matrix of an integral-equation
//! discretization (boundary-element-style kernel `1/(1+|i−j|/n)` plus a
//! dominant diagonal), the classic source of large dense systems in HPC.
//!
//! Pipeline: distribute A → hierarchical block LU on 16 ranks →
//! gather packed factors → forward/back substitution → residual check.
//!
//! ```sh
//! cargo run --release --example linear_solver
//! ```

use hsumma_repro::core::lu::{block_lu, LuConfig};
use hsumma_repro::matrix::factor::{trsm_left_lower_unit, unpack_lower_unit, unpack_upper};
use hsumma_repro::matrix::{gemm, BlockDist, GemmKernel, GridShape, Matrix};
use hsumma_repro::runtime::Runtime;

fn main() {
    let n = 512;
    let grid = GridShape::new(4, 4);

    // Dense kernel matrix with a dominant diagonal (well conditioned, so
    // unpivoted LU is safe — see hsumma_matrix::factor docs).
    let a = Matrix::from_fn(n, n, |i, j| {
        let base = 1.0 / (1.0 + (i as f64 - j as f64).abs() / n as f64);
        if i == j {
            base + n as f64 / 4.0
        } else {
            base
        }
    });
    let x_true = Matrix::from_fn(n, 1, |i, _| (i as f64 / n as f64).sin());
    let mut rhs = Matrix::zeros(n, 1);
    gemm(GemmKernel::Parallel, &a, &x_true, &mut rhs);

    // Distributed hierarchical LU.
    let dist = BlockDist::new(grid, n, n);
    let tiles = dist.scatter(&a);
    let cfg = LuConfig {
        block: 32,
        groups: GridShape::new(2, 2),
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let out = Runtime::run(grid.size(), |comm| {
        block_lu(comm, grid, n, &tiles[comm.rank()].clone(), &cfg).unwrap()
    });
    let factor_time = t0.elapsed().as_secs_f64();
    let packed = dist.gather(&out);

    // Solve with the factors: L y = rhs, then U x = y.
    let l = unpack_lower_unit(&packed);
    let u = unpack_upper(&packed);
    let mut y = rhs.clone();
    trsm_left_lower_unit(&l, &mut y);
    let mut x = Matrix::zeros(n, 1);
    for i in (0..n).rev() {
        let mut v = y.get(i, 0);
        for k in i + 1..n {
            v -= u.get(i, k) * x.get(k, 0);
        }
        x.set(i, 0, v / u.get(i, i));
    }

    // Residual and solution error.
    let mut ax = Matrix::zeros(n, 1);
    gemm(GemmKernel::Parallel, &a, &x, &mut ax);
    let residual = ax.max_abs_diff(&rhs);
    let error = x.max_abs_diff(&x_true);

    println!("dense collocation system, n = {n}, 16 ranks, hierarchical LU (G = 4)");
    println!("factorization wall time   {factor_time:.3} s");
    println!("residual |Ax - rhs|_inf   {residual:.3e}");
    println!("error    |x - x_true|_inf {error:.3e}");
    assert!(error < 1e-8, "solver diverged");
    println!("solution verified.");
}
