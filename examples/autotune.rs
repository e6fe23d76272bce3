//! §VI's closing remark, as a running program: "At the moment, we select
//! the optimal number of groups sampling over valid values. However, it
//! can be easily automated and incorporated into the implementation by
//! using few iterations of HSUMMA."
//!
//! `tuned_hsumma` samples each candidate grouping on the first two outer
//! steps of the computation, lets the ranks agree on the slowest-rank cost, and
//! runs the full multiply with the winner — all inside one SPMD call.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use hsumma_repro::core::testutil::reference_product;
use hsumma_repro::core::tuning::tuned_hsumma;
use hsumma_repro::core::HierGrid;
use hsumma_repro::matrix::{seeded_uniform, BlockDist, GridShape};
use hsumma_repro::runtime::Runtime;

fn main() {
    let n = 512;
    let grid = GridShape::new(4, 4);
    let block = 32;
    let candidates: Vec<usize> = HierGrid::valid_group_counts(grid)
        .iter()
        .map(|c| c.0)
        .collect();

    println!(
        "auto-tuning HSUMMA: n = {n}, {} ranks, candidates G in {:?}",
        grid.size(),
        candidates
    );

    let a = seeded_uniform(n, n, 1);
    let b = seeded_uniform(n, n, 2);
    let dist = BlockDist::new(grid, n, n);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&b);

    let t0 = std::time::Instant::now();
    let out = Runtime::run(grid.size(), |comm| {
        let (c, groups) = tuned_hsumma(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            block,
            &candidates,
        )
        .unwrap();
        (c, (groups.rows, groups.cols))
    });
    let wall = t0.elapsed().as_secs_f64();

    let tiles: Vec<_> = out.iter().map(|(c, _)| c.clone()).collect();
    let err = dist.gather(&tiles).max_abs_diff(&reference_product(&a, &b));
    let (gi, gj) = out[0].1;
    assert!(out.iter().all(|(_, g)| *g == (gi, gj)), "ranks must agree");

    println!("chosen grouping: {gi}x{gj} (G = {})", gi * gj);
    println!("sample + full multiply wall time: {wall:.3} s");
    println!(
        "max |C - A*B| = {err:.2e} ({})",
        if err < 1e-9 { "OK" } else { "FAILED" }
    );
    assert!(err < 1e-9);
}
