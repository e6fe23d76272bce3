//! Choosing the number of groups for a target machine — the workflow §VI
//! of the paper sketches ("the optimal number of groups ... can be easily
//! automated ... by using few iterations of HSUMMA").
//!
//! Sweeps every valid grouping of a 2048-core BlueGene/P-like platform in
//! the timing simulator, reports the best one, and compares it with the
//! analytic `G = √p` rule of thumb.
//!
//! ```sh
//! cargo run --release --example optimal_grouping
//! ```

use hsumma_repro::core::simdrive::{simulate, Schedule};
use hsumma_repro::core::tuning::{best_by_comm, power_of_two_gs, sweep_groups};
use hsumma_repro::matrix::GridShape;
use hsumma_repro::netsim::{Platform, SimBcast};

fn main() {
    let platform = Platform::bluegene_p_effective();
    let grid = GridShape::new(32, 64); // 2048 cores
    let (n, b) = (32768usize, 256usize);
    let bcast = SimBcast::Flat;

    println!(
        "Tuning HSUMMA groups for {} ({} cores), n = {n}, b = B = {b}",
        platform.name,
        grid.size()
    );

    // Blocking-collective semantics, as measured MPI runs behave.
    let sim = |sched| simulate(&sched, &platform, true);
    let summa = sim(Schedule::summa(grid, n, b, bcast));
    println!(
        "SUMMA baseline: total {:.3} s, comm {:.3} s\n",
        summa.total_time, summa.comm_time
    );

    let sweep = sweep_groups(grid, &power_of_two_gs(grid.size()), |groups| {
        sim(Schedule::hsumma(grid, groups, n, b, b, bcast, bcast))
    });
    println!(
        "{:>6}  {:>7}  {:>12}  {:>12}",
        "G", "I x J", "total (s)", "comm (s)"
    );
    for pt in &sweep {
        println!(
            "{:>6}  {:>3}x{:<3}  {:>12.3}  {:>12.3}",
            pt.g, pt.groups.rows, pt.groups.cols, pt.report.total_time, pt.report.comm_time
        );
    }

    let best = best_by_comm(&sweep);
    let sqrt_p = (grid.size() as f64).sqrt().round() as usize;
    let near_sqrt = sweep
        .iter()
        .min_by_key(|pt| pt.g.abs_diff(sqrt_p))
        .expect("sweep not empty");
    println!(
        "\nbest grouping: G = {} ({}x{}) -> {:.3} s comm ({:.2}x less than SUMMA)",
        best.g,
        best.groups.rows,
        best.groups.cols,
        best.report.comm_time,
        summa.comm_time / best.report.comm_time
    );
    println!(
        "rule of thumb G = sqrt(p) = {sqrt_p}: G = {} -> {:.3} s comm ({:.1}% off the sweep optimum)",
        near_sqrt.g,
        near_sqrt.report.comm_time,
        100.0 * (near_sqrt.report.comm_time / best.report.comm_time - 1.0)
    );
}
