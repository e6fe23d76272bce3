//! Clean-path overhead guard for the fallible-communication refactor.
//!
//! Every blocking wait in the runtime now consults a deadline and a
//! cancellation flag, and every send consults an optional fault cursor.
//! This harness prices that plumbing on a *healthy* run: the same
//! binomial broadcast and the same SUMMA multiply, once with no failure
//! policy and once with an armed deadline plus an (empty) fault plan —
//! the most instrumented configuration a clean job can have. The target
//! is **< 3 %** median overhead; results go to stdout and
//! `BENCH_faults.json`.
//!
//! ```sh
//! cargo run --release -p hsumma-bench --bin fault_overhead [-- --smoke]
//! ```

use hsumma_core::{run_planned_gemm, summa, PlannedAlgo, SummaConfig};
use hsumma_matrix::{seeded_uniform, BlockDist, GemmKernel, GridShape};
use hsumma_runtime::{collectives, BcastAlgorithm, FaultPlan, JobOptions, Runtime};
use hsumma_serve::{Planner, PlannerConfig};
use hsumma_trace::Tracer;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median of per-rep wall times for `f`, with one warmup rep.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[reps / 2]
}

/// The armed-but-idle policy: a deadline no healthy run approaches plus
/// a fault plan with no rules, so every guard is live and none fires.
fn armed() -> JobOptions {
    JobOptions::default()
        .with_deadline(Duration::from_secs(120))
        .with_faults(Arc::new(FaultPlan::new()))
}

fn bcast_leg(p: usize, elems: usize, opts: &JobOptions) {
    Runtime::try_run_opts(p, &Tracer::disabled(), opts, |comm| {
        let mut buf = if comm.rank() == 0 {
            vec![1.0f64; elems]
        } else {
            vec![0.0f64; elems]
        };
        collectives::bcast_f64(comm, BcastAlgorithm::Binomial, 0, &mut buf).unwrap();
        buf[elems - 1]
    })
    .expect("clean broadcast");
}

fn summa_leg(
    grid: GridShape,
    n: usize,
    tiles: &(Vec<hsumma_matrix::Matrix>, Vec<hsumma_matrix::Matrix>),
    opts: &JobOptions,
) {
    let cfg = SummaConfig {
        block: 32,
        kernel: GemmKernel::Blocked,
        ..SummaConfig::default()
    };
    let (at, bt) = tiles;
    Runtime::try_run_opts(grid.size(), &Tracer::disabled(), opts, |comm| {
        summa(comm, grid, n, &at[comm.rank()], &bt[comm.rank()], &cfg).unwrap()
    })
    .expect("clean SUMMA");
}

/// The GEMM path the model-driven planner actually picks for this shape
/// — since the pipelined rewrite, that may be a nonblocking-collective
/// schedule, whose handle machinery must also stay within the clean-path
/// overhead budget.
fn planned_leg(
    grid: GridShape,
    n: usize,
    plan: &PlannedAlgo,
    tiles: &(Vec<hsumma_matrix::Matrix>, Vec<hsumma_matrix::Matrix>),
    opts: &JobOptions,
) {
    let (at, bt) = tiles;
    let plan = *plan;
    Runtime::try_run_opts(grid.size(), &Tracer::disabled(), opts, move |comm| {
        let (a, b) = (&at[comm.rank()], &bt[comm.rank()]);
        run_planned_gemm(comm, grid, n, n, n, a, b, &plan).unwrap()
    })
    .expect("clean planned GEMM");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 7 } else { 31 };
    let elems = 262_144;
    let (p, n) = (8, if smoke { 128 } else { 256 });
    let grid = GridShape::new(2, 2);
    let dist = BlockDist::new(grid, n, n);
    let tiles = (
        dist.scatter(&seeded_uniform(n, n, 1)),
        dist.scatter(&seeded_uniform(n, n, 2)),
    );

    // What the model-driven planner would run for this shape, and which
    // GEMM path (pipelined nonblocking collectives vs blocking) that is.
    let plan = Planner::new(grid, PlannerConfig::default())
        .plan_gemm(n, n, n)
        .plan;
    let gemm_path = plan.gemm_path();

    let unbounded = JobOptions::default();
    let bcast_base = median_secs(reps, || bcast_leg(p, elems, &unbounded));
    let bcast_armed = median_secs(reps, || bcast_leg(p, elems, &armed()));
    let summa_base = median_secs(reps, || summa_leg(grid, n, &tiles, &unbounded));
    let summa_armed = median_secs(reps, || summa_leg(grid, n, &tiles, &armed()));
    let plan_base = median_secs(reps, || planned_leg(grid, n, &plan, &tiles, &unbounded));
    let plan_armed = median_secs(reps, || planned_leg(grid, n, &plan, &tiles, &armed()));

    let pct = |base: f64, guarded: f64| 100.0 * (guarded - base) / base;
    let bcast_pct = pct(bcast_base, bcast_armed);
    let summa_pct = pct(summa_base, summa_armed);
    let plan_pct = pct(plan_base, plan_armed);
    let worst = bcast_pct.max(summa_pct).max(plan_pct);
    let meets = worst < 3.0;

    println!("clean-path overhead of the armed failure policy (median of {reps} reps):");
    println!(
        "  bcast p={p} {elems} f64s: {:.4} ms -> {:.4} ms  ({bcast_pct:+.2}%)",
        bcast_base * 1e3,
        bcast_armed * 1e3
    );
    println!(
        "  summa p={} n={n}:        {:.4} ms -> {:.4} ms  ({summa_pct:+.2}%)",
        grid.size(),
        summa_base * 1e3,
        summa_armed * 1e3
    );
    println!(
        "  planner's pick [{} — gemm path: {gemm_path}]: {:.4} ms -> {:.4} ms  ({plan_pct:+.2}%)",
        plan.describe(),
        plan_base * 1e3,
        plan_armed * 1e3
    );
    println!(
        "  worst leg {worst:+.2}% — target < 3%: {}",
        if meets { "MET" } else { "MISSED" }
    );

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"reps\": {reps},\n  \"policy\": \"120s deadline + empty FaultPlan\",\n  \
         \"bcast_p\": {p},\n  \"bcast_elems\": {elems},\n  \
         \"bcast_unbounded_s\": {bcast_base:.6},\n  \"bcast_armed_s\": {bcast_armed:.6},\n  \
         \"bcast_overhead_pct\": {bcast_pct:.3},\n  \
         \"summa_p\": {},\n  \"summa_n\": {n},\n  \
         \"summa_unbounded_s\": {summa_base:.6},\n  \"summa_armed_s\": {summa_armed:.6},\n  \
         \"summa_overhead_pct\": {summa_pct:.3},\n  \
         \"plan\": \"{}\",\n  \"gemm_path\": \"{gemm_path}\",\n  \
         \"planned_unbounded_s\": {plan_base:.6},\n  \"planned_armed_s\": {plan_armed:.6},\n  \
         \"planned_overhead_pct\": {plan_pct:.3},\n  \
         \"worst_overhead_pct\": {worst:.3},\n  \"meets_3pct_target\": {meets}\n}}\n",
        grid.size(),
        plan.describe()
    );
    std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
    println!("wrote BENCH_faults.json");
}
