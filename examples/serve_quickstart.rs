//! Serving quickstart: a 4×4 rank pool answering a burst of multiply
//! jobs, with per-job reports and aggregate throughput.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```

use hsumma_matrix::{seeded_uniform, GridShape};
use hsumma_serve::{GemmServer, JobSpec, ServerConfig};
use std::time::Instant;

fn main() {
    // One pool of 16 rank threads, created here and reused by every job.
    let grid = GridShape::new(4, 4);
    let server = GemmServer::new(ServerConfig::new(grid)).expect("spawn rank pool");
    println!(
        "serving on a {}x{} grid ({} pooled ranks)\n",
        grid.rows,
        grid.cols,
        grid.size()
    );

    // A burst of jobs: two sizes, several of each. The planner runs once
    // per shape class; later jobs of the same class hit the plan cache.
    let sizes = [128usize, 128, 256, 128, 256, 256, 128, 256];
    let t0 = Instant::now();
    let handles: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let a = seeded_uniform(n, n, 2 * i as u64);
            let b = seeded_uniform(n, n, 2 * i as u64 + 1);
            server
                .submit(JobSpec::square(n), a, b)
                .expect("burst fits the default queue")
        })
        .collect();

    println!("job    n  plan                        cached   wall (ms)   sent (MiB)");
    for (h, &n) in handles.into_iter().zip(&sizes) {
        let out = h.wait().expect("job succeeds");
        let r = &out.report;
        let sent: u64 = r.stats.iter().map(|s| s.bytes_sent).sum();
        println!(
            "{:>3}  {:>3}  {:<26}  {:<6}  {:>9.2}   {:>9.2}",
            r.job_id,
            n,
            r.plan_desc,
            r.plan_cached,
            r.wall.as_secs_f64() * 1e3,
            sent as f64 / (1024.0 * 1024.0),
        );
    }
    let total = t0.elapsed().as_secs_f64();

    let planner = server.planner_stats();
    println!(
        "\n{} jobs in {:.3}s ({:.1} jobs/s) — planner: {} misses, {} hits, {} simulator runs",
        sizes.len(),
        total,
        sizes.len() as f64 / total,
        planner.misses,
        planner.hits,
        planner.sims_run,
    );
}
