//! Serving throughput: pooled job service vs cold per-job runtimes.
//!
//! The experiment behind `hsumma-serve`'s existence: submit `JOBS`
//! back-to-back `n × n` multiplies to a [`GemmServer`] (one rank pool,
//! spawned once; plans cached after the first job) and compare against
//! the same multiplies each paying a full `Runtime::run` — thread spawn,
//! mailbox wiring, join — of their own. Both legs execute the *same
//! plan*, so the difference is pure service overhead amortization.
//!
//! Results go to stdout and to `BENCH_serve.json` in the current
//! directory. `--smoke` shrinks the workload for CI.
//!
//! Timing discipline (as in `kernel_shootout`): each leg runs [`REPS`]
//! times and the minimum total is reported — on a shared box the noise
//! is one-sided, so the minimum isolates the systematic difference
//! (per-job thread spawn/join) from scheduler interference.

use hsumma_bench::{render_table, secs};
use hsumma_core::{run_planned_gemm, testutil::distributed_product};
use hsumma_matrix::{seeded_uniform, GridShape, Matrix};
use hsumma_serve::{GemmServer, JobSpec, PlanHint, Planner, PlannerConfig, ServerConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Distinct operand pairs; jobs cycle over them (cloning per job, in
/// both legs, so operand handling costs the same on each side).
const OPERAND_SETS: usize = 8;

/// Timed passes per leg; best-of is reported.
const REPS: usize = 3;

struct Workload {
    grid: GridShape,
    n: usize,
    jobs: usize,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let w = if smoke {
        Workload {
            grid: GridShape::new(2, 2),
            n: 64,
            jobs: 8,
        }
    } else {
        Workload {
            grid: GridShape::new(4, 4),
            n: 256,
            jobs: 64,
        }
    };
    let p = w.grid.size();
    println!(
        "Serve throughput: {} jobs of n={} on p={} ({}x{} grid){}\n",
        w.jobs,
        w.n,
        p,
        w.grid.rows,
        w.grid.cols,
        if smoke { " [smoke]" } else { "" }
    );

    let operands: Vec<(Matrix, Matrix)> = (0..OPERAND_SETS)
        .map(|i| {
            let s = i as u64;
            (
                seeded_uniform(w.n, w.n, 2 * s),
                seeded_uniform(w.n, w.n, 2 * s + 1),
            )
        })
        .collect();

    // Both legs run the plan the service's planner would pick, computed
    // once up front so neither leg times planning differently.
    let plan = Planner::new(w.grid, PlannerConfig::default())
        .plan_gemm(w.n, w.n, w.n)
        .plan;
    println!(
        "plan under test: {} (gemm path: {})\n",
        plan.describe(),
        plan.gemm_path()
    );

    // A pass consumes a pre-built batch of operands: cloning stays
    // outside every timed region, identically for both legs.
    let make_batch = || -> Vec<(Matrix, Matrix)> {
        (0..w.jobs)
            .map(|i| operands[i % OPERAND_SETS].clone())
            .collect()
    };

    let config = ServerConfig {
        queue_capacity: w.jobs,
        ..ServerConfig::new(w.grid)
    };
    let server = GemmServer::new(config).expect("spawn rank pool");

    // Pooled pass: burst-submit the whole batch, then drain the handles.
    let pooled_pass = |batch: Vec<(Matrix, Matrix)>| -> (f64, f64) {
        let pass_start = Instant::now();
        let handles: Vec<_> = batch
            .into_iter()
            .map(|(a, b)| {
                server
                    .submit(JobSpec::square(w.n).with_hint(PlanHint::Force(plan)), a, b)
                    .expect("queue sized for the whole burst")
            })
            .collect();
        let outputs: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait().expect("job succeeds"))
            .collect();
        let total = pass_start.elapsed().as_secs_f64();
        let mean_wall = outputs
            .iter()
            .map(|o| o.report.wall.as_secs_f64())
            .sum::<f64>()
            / w.jobs as f64;
        // Sanity: a pooled product must match a cold one bit-for-bit
        // (same plan, same deterministic schedule).
        let check =
            distributed_product(w.grid, w.n, &operands[0].0, &operands[0].1, |comm, a, b| {
                run_planned_gemm(comm, w.grid, w.n, w.n, w.n, &a, &b, &plan).unwrap()
            });
        assert_eq!(
            *outputs[0].c.dense(),
            check,
            "pooled and cold products must agree"
        );
        (total, mean_wall)
    };

    // Cold pass: a fresh Runtime::run (thread spawn + wiring + join) per job.
    let cold_pass = |batch: Vec<(Matrix, Matrix)>| -> f64 {
        let pass_start = Instant::now();
        for (a, b) in batch {
            let c = distributed_product(w.grid, w.n, &a, &b, |comm, at, bt| {
                run_planned_gemm(comm, w.grid, w.n, w.n, w.n, &at, &bt, &plan).unwrap()
            });
            std::hint::black_box(c);
        }
        pass_start.elapsed().as_secs_f64()
    };

    // One untimed warm-up per leg, then interleaved timed passes so
    // neither leg monopolizes a warmer allocator/cache state.
    pooled_pass(make_batch());
    cold_pass(make_batch());
    let mut pooled_total = f64::INFINITY;
    let mut mean_wall = 0.0;
    let mut cold_total = f64::INFINITY;
    for _ in 0..REPS {
        let (total, wall) = pooled_pass(make_batch());
        if total < pooled_total {
            pooled_total = total;
            mean_wall = wall;
        }
        cold_total = cold_total.min(cold_pass(make_batch()));
    }
    drop(server);

    let pooled_rate = w.jobs as f64 / pooled_total;
    let cold_rate = w.jobs as f64 / cold_total;
    let speedup = cold_total / pooled_total;

    println!(
        "{}",
        render_table(
            &["leg", "total (s)", "jobs/s", "per-job (s)"],
            &[
                vec![
                    "pooled (GemmServer)".into(),
                    secs(pooled_total),
                    format!("{pooled_rate:.1}"),
                    secs(pooled_total / w.jobs as f64),
                ],
                vec![
                    "cold (Runtime::run)".into(),
                    secs(cold_total),
                    format!("{cold_rate:.1}"),
                    secs(cold_total / w.jobs as f64),
                ],
            ]
        )
    );
    println!("pooled over cold: {speedup:.2}x  (mean in-service wall {mean_wall:.4}s/job)");

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"p\": {p},\n  \"grid\": \"{}x{}\",\n  \"n\": {},\n  \"jobs\": {},\n  \
         \"smoke\": {smoke},\n  \"reps\": {REPS},\n  \"plan\": \"{}\",\n  \
         \"gemm_path\": \"{}\",\n",
        w.grid.rows,
        w.grid.cols,
        w.n,
        w.jobs,
        plan.describe(),
        plan.gemm_path()
    );
    let _ = write!(
        json,
        "  \"pooled_total_s\": {pooled_total:.6},\n  \"pooled_jobs_per_s\": {pooled_rate:.3},\n  \
         \"cold_total_s\": {cold_total:.6},\n  \"cold_jobs_per_s\": {cold_rate:.3},\n  \
         \"pooled_mean_job_wall_s\": {mean_wall:.6},\n  \
         \"pooled_over_cold\": {speedup:.3},\n  \"pooled_beats_cold\": {}\n}}",
        speedup > 1.0
    );
    hsumma_bench::write_bench_section("BENCH_serve.json", "throughput", &json)
        .expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json (throughput section)");
}
