//! Gallery: run every distributed multiplication algorithm in the crate —
//! Cannon (1969), Fox (1987), SUMMA (1997) and HSUMMA (2013, the paper) —
//! on the same 4×4 grid and the same operands, verify they agree, and
//! compare their measured communication behaviour.
//!
//! ```sh
//! cargo run --release --example algorithm_gallery
//! ```

use hsumma_repro::core::testutil::reference_product;
use hsumma_repro::core::{cannon, fox, hsumma, summa, HsummaConfig, SummaConfig};
use hsumma_repro::matrix::{seeded_uniform, BlockDist, GemmKernel, GridShape, Matrix};
use hsumma_repro::runtime::{Comm, CommStats, Runtime};

fn run_algo(
    name: &str,
    grid: GridShape,
    n: usize,
    a: &Matrix,
    b: &Matrix,
    want: &Matrix,
    algo: impl Fn(&Comm, Matrix, Matrix) -> Matrix + Send + Sync,
) {
    let dist = BlockDist::new(grid, n, n);
    let a_tiles = dist.scatter(a);
    let b_tiles = dist.scatter(b);
    let out = Runtime::run(grid.size(), |comm| {
        let at = a_tiles[comm.rank()].clone();
        let bt = b_tiles[comm.rank()].clone();
        comm.reset_stats();
        let c = algo(comm, at, bt);
        (c, comm.stats())
    });
    let tiles: Vec<Matrix> = out.iter().map(|(c, _)| c.clone()).collect();
    let c = dist.gather(&tiles);
    let err = c.max_abs_diff(want);
    let stats = out
        .iter()
        .map(|(_, s)| s.clone())
        .fold(CommStats::default(), |acc, s| acc.max_times(&s));
    println!(
        "{name:>8}: max err {err:.2e}  msgs {:>5}  comm {:.4} s  comp {:.4} s",
        stats.msgs_sent, stats.comm_seconds, stats.comp_seconds
    );
    assert!(err < 1e-9, "{name} diverged");
}

fn main() {
    let n = 512;
    let grid = GridShape::new(4, 4);
    let a = seeded_uniform(n, n, 11);
    let b = seeded_uniform(n, n, 22);
    let want = reference_product(&a, &b);
    println!("C = A*B, n = {n}, 16 ranks on a 4x4 grid\n");

    run_algo("cannon", grid, n, &a, &b, &want, |comm, at, bt| {
        cannon(comm, grid, n, at, bt, GemmKernel::Blocked).unwrap()
    });
    run_algo("fox", grid, n, &a, &b, &want, |comm, at, bt| {
        fox(comm, grid, n, &at, &bt, GemmKernel::Blocked).unwrap()
    });
    let scfg = SummaConfig {
        block: 32,
        kernel: GemmKernel::Blocked,
        ..Default::default()
    };
    run_algo("summa", grid, n, &a, &b, &want, move |comm, at, bt| {
        summa(comm, grid, n, &at, &bt, &scfg).unwrap()
    });
    let hcfg = HsummaConfig {
        kernel: GemmKernel::Blocked,
        ..HsummaConfig::uniform(GridShape::new(2, 2), 32)
    };
    run_algo("hsumma", grid, n, &a, &b, &want, move |comm, at, bt| {
        hsumma(comm, grid, n, &at, &bt, &hcfg).unwrap()
    });

    println!("\nall four algorithms agree with the serial reference.");
}
