//! `overlap_pipeline` — prices the double-buffered pivot pipeline
//! against the blocking schedule over flat broadcasts: the same per-rank
//! `(src, dst, bytes)` multiset (pinned by `tests/overlap_parity.rs`),
//! so only *when* ranks block differs between the two legs.
//!
//! Two measurements per algorithm (SUMMA and HSUMMA):
//!
//! * **threaded** — median wall-clock of the full job on rank threads
//!   with real data. Note this is an in-process measurement: on a
//!   machine with fewer cores than ranks the total CPU work bounds the
//!   wall clock, so the pipeline's win shrinks toward 1.0× as the
//!   scheduler serializes ranks (the JSON records `host_cpus` so the
//!   number stays interpretable).
//! * **sim** — the same generic schedules on the network simulator's
//!   virtual clocks, where every rank genuinely runs in parallel and
//!   blocking time is priced exactly. This is the structural win the
//!   pipeline is about: waits deferred behind compute cost nothing
//!   unless the transfer is genuinely late. Measured on two profiles:
//!   BlueGene/P-effective (bandwidth-dominated — small wins) and
//!   Grid5000-effective (the paper's own fitted latency-heavy profile,
//!   where the pipeline's send-before-wait ordering pays off). The
//!   ≥1.10× target is assessed on the simulator because it is the only
//!   substrate here on which the ranks are not fighting for host cores.
//!
//! Results go to stdout and `BENCH_overlap.json`.
//!
//! ```sh
//! cargo run --release -p hsumma-bench --bin overlap_pipeline [-- --smoke]
//! ```

use hsumma_core::{
    run_planned_gemm, simulate, HsummaConfig, MatMulDims, PlannedAlgo, Schedule, SimEngine,
    SummaConfig,
};
use hsumma_matrix::{seeded_uniform, BlockDist, GemmKernel, GridShape, Matrix};
use hsumma_netsim::Platform;
use hsumma_runtime::{BcastAlgorithm, Runtime};
use std::fmt::Write as _;
use std::time::Instant;

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

/// Threaded wall-clock of one plan over pre-scattered tiles.
fn threaded_secs(
    reps: usize,
    grid: GridShape,
    n: usize,
    tiles: &(Vec<Matrix>, Vec<Matrix>),
    plan: PlannedAlgo,
) -> f64 {
    let (at, bt) = tiles;
    median_secs(reps, || {
        Runtime::run(grid.size(), |comm| {
            let (a, b) = (at[comm.rank()].clone(), bt[comm.rank()].clone());
            run_planned_gemm(comm, grid, n, n, n, &a, &b, &plan).unwrap()
        });
    })
}

/// Virtual makespan of one plan on the simulator.
fn sim_secs(platform: &Platform, grid: GridShape, n: usize, plan: PlannedAlgo) -> f64 {
    let dims = MatMulDims::square(n);
    let sched = Schedule::Gemm { grid, dims, plan };
    simulate(&sched, platform, SimEngine::Threads, false).total_time
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The acceptance shape: p = 16 ranks on a 4x4 grid, n >= 1024 for
    // the full run (where γ·2n³/p dominates and there is compute to
    // hide behind). Smoke keeps CI fast.
    let grid = GridShape::new(4, 4);
    let groups = GridShape::new(2, 2);
    let n = if smoke { 128 } else { 1024 };
    let (bb, bs) = if smoke { (16, 8) } else { (64, 32) };
    let reps = if smoke { 3 } else { 5 };
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Flat broadcasts on the blocking legs: the pipeline's nonblocking
    // fan-out is flat by construction (and ignores these fields).
    let flat = BcastAlgorithm::Flat;
    let cfg = HsummaConfig {
        outer_block: bb,
        inner_block: bs,
        outer_bcast: flat,
        inner_bcast: flat,
        kernel: GemmKernel::Packed,
        ..HsummaConfig::uniform(groups, bb)
    };
    let scfg = SummaConfig {
        block: bs,
        bcast: flat,
        kernel: GemmKernel::Packed,
    };

    let dist = BlockDist::new(grid, n, n);
    let tiles = (
        dist.scatter(&seeded_uniform(n, n, 11)),
        dist.scatter(&seeded_uniform(n, n, 12)),
    );

    // Threaded runtime: pipelined vs blocking, HSUMMA then SUMMA.
    let threaded = |plan| threaded_secs(reps, grid, n, &tiles, plan);
    let th_pipe = threaded(PlannedAlgo::HsummaPipelined(cfg));
    let th_block = threaded(PlannedAlgo::Hsumma(cfg));
    let th_s_pipe = threaded(PlannedAlgo::SummaPipelined(scfg));
    let th_s_block = threaded(PlannedAlgo::Summa(scfg));

    // Simulator: the same schedules on virtual clocks, two platforms.
    let bg = Platform::bluegene_p_effective();
    let sim_bg_pipe = sim_secs(&bg, grid, n, PlannedAlgo::HsummaPipelined(cfg));
    let sim_bg_block = sim_secs(&bg, grid, n, PlannedAlgo::Hsumma(cfg));
    let g5k = Platform::grid5000_effective();
    let sim_g5k_pipe = sim_secs(&g5k, grid, n, PlannedAlgo::HsummaPipelined(cfg));
    let sim_g5k_block = sim_secs(&g5k, grid, n, PlannedAlgo::Hsumma(cfg));
    // Boundary-heavy variant (b = B): every inner slice is an outer
    // boundary, so the adaptive cross-boundary handoff carries the whole
    // schedule — the pipeline's best case.
    let bcfg = HsummaConfig {
        inner_block: bb,
        ..cfg
    };
    let sim_bh_pipe = sim_secs(&g5k, grid, n, PlannedAlgo::HsummaPipelined(bcfg));
    let sim_bh_block = sim_secs(&g5k, grid, n, PlannedAlgo::Hsumma(bcfg));

    let th_speedup = th_block / th_pipe;
    let th_s_speedup = th_s_block / th_s_pipe;
    let sim_bg_speedup = sim_bg_block / sim_bg_pipe;
    let sim_g5k_speedup = sim_g5k_block / sim_g5k_pipe;
    let sim_bh_speedup = sim_bh_block / sim_bh_pipe;
    let meets = sim_g5k_speedup >= 1.10;

    println!(
        "double-buffered pipeline vs blocking schedule over flat broadcasts \
         (p={}, n={n}, G={}x{}, B={bb}, b={bs}, median of {reps} reps, {host_cpus} host cpus):",
        grid.size(),
        groups.rows,
        groups.cols
    );
    println!(
        "  threaded hsumma: {:.4} ms -> {:.4} ms  ({th_speedup:.3}x)",
        th_block * 1e3,
        th_pipe * 1e3
    );
    println!(
        "  threaded summa:  {:.4} ms -> {:.4} ms  ({th_s_speedup:.3}x)",
        th_s_block * 1e3,
        th_s_pipe * 1e3
    );
    println!(
        "  simulated hsumma (bluegene-effective): {:.6} s -> {:.6} s  ({sim_bg_speedup:.3}x)",
        sim_bg_block, sim_bg_pipe
    );
    println!(
        "  simulated hsumma (grid5000-effective): {:.6} s -> {:.6} s  ({sim_g5k_speedup:.3}x)",
        sim_g5k_block, sim_g5k_pipe
    );
    println!(
        "  simulated hsumma (grid5000-effective, b=B={bb}): {:.6} s -> {:.6} s  ({sim_bh_speedup:.3}x)",
        sim_bh_block, sim_bh_pipe
    );
    println!(
        "  simulated grid5000-effective speedup {sim_g5k_speedup:.3}x — target >= 1.10x: {}",
        if meets { "MET" } else { "MISSED" }
    );

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"reps\": {reps},\n  \"host_cpus\": {host_cpus},\n  \
         \"p\": {},\n  \"n\": {n},\n  \"groups\": \"{}x{}\",\n  \
         \"outer_block\": {bb},\n  \"inner_block\": {bs},\n  \
         \"hsumma_blocking_flat_s\": {th_block:.6},\n  \"hsumma_pipelined_s\": {th_pipe:.6},\n  \
         \"hsumma_speedup\": {th_speedup:.4},\n  \
         \"summa_blocking_flat_s\": {th_s_block:.6},\n  \"summa_pipelined_s\": {th_s_pipe:.6},\n  \
         \"summa_speedup\": {th_s_speedup:.4},\n  \
         \"sim_bluegene_blocking_flat_s\": {sim_bg_block:.6},\n  \"sim_bluegene_pipelined_s\": {sim_bg_pipe:.6},\n  \
         \"sim_bluegene_speedup\": {sim_bg_speedup:.4},\n  \
         \"sim_grid5000_blocking_flat_s\": {sim_g5k_block:.6},\n  \"sim_grid5000_pipelined_s\": {sim_g5k_pipe:.6},\n  \
         \"sim_grid5000_speedup\": {sim_g5k_speedup:.4},\n  \
         \"sim_grid5000_boundary_blocking_flat_s\": {sim_bh_block:.6},\n  \"sim_grid5000_boundary_pipelined_s\": {sim_bh_pipe:.6},\n  \
         \"sim_grid5000_boundary_speedup\": {sim_bh_speedup:.4},\n  \
         \"meets_1_10x_target\": {meets}\n}}\n",
        grid.size(),
        groups.rows,
        groups.cols
    );
    std::fs::write("BENCH_overlap.json", &json).expect("write BENCH_overlap.json");
    println!("wrote BENCH_overlap.json");
}
