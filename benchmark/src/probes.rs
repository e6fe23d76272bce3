//! Micro-probes: one short measurement per layer, taken once in a
//! traced run, each through the layer's public functions only. They do
//! not depend on the workload chosen; they say how fast a layer is in
//! isolation, so that a move in an end-to-end metric can be located.

use crate::gemm::Shape;
use crate::metrics::Values;
use crate::stats::{median, percentile, ratio};
use crate::SplitMix;
use hsumma_core::{
    record_cosma, replay_on, run_planned_gemm, sim_summa_engine, CosmaConfig, Distribution,
    PlannedAlgo, SimEngine,
};
use hsumma_matrix::sparse::{seeded_sparse, spgemm, spgemm_pairs, CsrMatrix};
use hsumma_matrix::{gemm, seeded_uniform, BlockDist, GemmKernel, GridShape, Matrix};
use hsumma_model::{advise_gemm, BcastModel, ModelParams};
use hsumma_netsim::{Platform, SimBcast, SimNet};
use hsumma_runtime::collectives::bcast;
use hsumma_runtime::{BcastAlgorithm, Comm, RankPool};
use hsumma_serve::{Planner, PlannerConfig};
use hsumma_sparse::{scatter_csr, sddmm_2d, spgemm_2d, SparseConfig};
use hsumma_trace::Tracer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Seconds `f` takes, once.
fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Seconds per call of `f`, `reps` times after one warm-up.
fn samples(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps).map(|_| time(&mut f).0).collect()
}

/// Repetition counts: the full probes, or a tenth for `--smoke`.
#[derive(Clone, Copy)]
pub struct Reps {
    div: usize,
}

impl Reps {
    /// Full repetition counts.
    pub fn full() -> Reps {
        Reps { div: 1 }
    }

    /// A tenth of the counts, and no 2¹⁶-rank replay.
    pub fn quick() -> Reps {
        Reps { div: 10 }
    }

    fn of(&self, n: usize) -> usize {
        (n / self.div).max(2)
    }

    fn quick_run(&self) -> bool {
        self.div > 1
    }
}

/// Median GFLOP/s of `C += A·B` at `m × k × n`.
fn gemm_gflops(kernel: GemmKernel, (m, k, n): (usize, usize, usize), reps: usize) -> f64 {
    let a = seeded_uniform(m, k, 1);
    let b = seeded_uniform(k, n, 2);
    let mut c = Matrix::zeros(m, n);
    let t = samples(reps, || gemm(kernel, black_box(&a), black_box(&b), &mut c));
    black_box(&c);
    ratio(2.0 * (m * k * n) as f64 / 1e9, median(&t))
}

fn matrix(v: &mut Values, reps: Reps) {
    // The rank-local update of gemm-compute (512 × 512 tile, 128-wide
    // panel) and of gemm-comm (64 × 64 tile, 8-wide panel).
    let panel = (512, 128, 512);
    v.set(
        "matrix.gemm_panel_gflops",
        gemm_gflops(GemmKernel::Packed, panel, reps.of(60)),
    );
    v.set(
        "matrix.gemm_small_gflops",
        gemm_gflops(GemmKernel::Packed, (64, 8, 64), reps.of(20_000)),
    );
    // The plain single-threaded baseline of the same problem family.
    v.set(
        "matrix.gemm_naive_gflops_n256",
        gemm_gflops(GemmKernel::Naive, (256, 256, 256), reps.of(10)),
    );
    // Computed, not measured: flops over bytes of A, B and C read and C
    // written, ignoring cache misses.
    let (m, k, n) = panel;
    v.set(
        "matrix.gemm_panel_flop_per_byte",
        2.0 * (m * k * n) as f64 / (8.0 * (m * k + k * n + 2 * m * n) as f64),
    );
    let a = seeded_sparse(256, 256, 0.02, 3);
    let b = seeded_sparse(256, 256, 0.02, 4);
    let t = samples(reps.of(200), || {
        black_box(spgemm(black_box(&a), black_box(&b)));
    });
    v.set(
        "matrix.spgemm_mflops",
        ratio(2.0 * spgemm_pairs(&a, &b) as f64 / 1e6, median(&t)),
    );
}

/// Median seconds of a no-op job on a pool of `p` ranks.
fn empty_job_s(p: usize, reps: usize) -> f64 {
    let mut pool = RankPool::new(p).expect("spawn rank pool");
    let t = samples(reps, || {
        pool.run(|comm| comm.rank()).expect("empty job");
    });
    percentile(&t, 0.5)
}

/// Median seconds of `rounds` ping-pongs of `elems` doubles between two
/// ranks, per one-way message.
fn pingpong_s(pool: &mut RankPool, elems: usize, rounds: usize, reps: usize) -> f64 {
    let t = samples(reps, || {
        pool.run(move |comm| {
            let peer = 1 - comm.rank();
            if comm.rank() == 0 {
                let mut buf = vec![0.0f64; elems];
                for _ in 0..rounds {
                    comm.send(peer, 1, buf).expect("send");
                    buf = comm.recv(peer, 2).expect("recv");
                }
            } else {
                for _ in 0..rounds {
                    let buf: Vec<f64> = comm.recv(peer, 1).expect("recv");
                    comm.send(peer, 2, buf).expect("send");
                }
            }
        })
        .expect("ping-pong job");
    });
    percentile(&t, 0.5) / (2 * rounds) as f64
}

fn runtime(v: &mut Values, reps: Reps) {
    let spawn = samples(reps.of(20), || {
        drop(black_box(RankPool::new(16).expect("spawn rank pool")));
    });
    v.set("runtime.pool_spawn_s", median(&spawn));
    v.set("runtime.empty_job_s_p50_p4", empty_job_s(4, reps.of(2000)));
    v.set(
        "runtime.empty_job_s_p50_p16",
        empty_job_s(16, reps.of(1000)),
    );

    // α from 8-byte messages, β from the extra time of 1 MiB ones.
    let mut pair = RankPool::new(2).expect("spawn rank pool");
    let small = pingpong_s(&mut pair, 1, 200, reps.of(20));
    let large_elems = 128 * 1024;
    let large = pingpong_s(&mut pair, large_elems, 20, reps.of(20));
    v.set("runtime.pingpong_alpha_us", small * 1e6);
    v.set(
        "runtime.pingpong_beta_ns_per_byte",
        (large - small).max(0.0) * 1e9 / (8 * large_elems) as f64,
    );

    // One binomial broadcast of 64 KiB across 16 ranks, 50 per job so the
    // job dispatch does not dominate.
    let mut pool = RankPool::new(16).expect("spawn rank pool");
    let per_job = 50;
    let t = samples(reps.of(40), || {
        pool.run(move |comm| {
            let payload = Arc::new(vec![1.0f64; 8 * 1024]);
            for _ in 0..per_job {
                let root = (comm.rank() == 0).then(|| Arc::clone(&payload));
                black_box(bcast(comm, BcastAlgorithm::Binomial, 0, root).expect("bcast"));
            }
        })
        .expect("bcast job");
    });
    v.set("runtime.bcast_s_p50", percentile(&t, 0.5) / per_job as f64);
}

/// Median seconds of one scatter-free pool run of `plan` on square `n`.
fn planned_run_s(
    pool: &mut RankPool,
    grid: GridShape,
    (m, k, n): (usize, usize, usize),
    plan: PlannedAlgo,
    tracer: Option<usize>,
    reps: usize,
) -> f64 {
    let a = Arc::new(Distribution::grid2d(grid, m, k).scatter(&seeded_uniform(m, k, 5)));
    let b = Arc::new(Distribution::grid2d(grid, k, n).scatter(&seeded_uniform(k, n, 6)));
    let t = samples(reps, || {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        let job = move |comm: &mut Comm| {
            let r = comm.rank();
            run_planned_gemm(&*comm, grid, m, n, k, &a[r], &b[r], &plan).expect("planned gemm")
        };
        match tracer {
            Some(ranks) => black_box(pool.run_traced(&Tracer::new(ranks), job)),
            None => black_box(pool.run(job)),
        }
        .expect("pool job");
    });
    percentile(&t, 0.5)
}

fn core_and_trace(v: &mut Values, reps: Reps) {
    // The nonblocking use of the same runtime, and the cost of a live
    // per-rank tracer, both on the gemm-comm shape.
    let shape = Shape::comm();
    let (grid, n) = (shape.grid(), shape.n());
    let dims = (n, n, n);
    let mut pool = RankPool::new(grid.size()).expect("spawn rank pool");
    let blocking = shape.plan();
    let PlannedAlgo::Hsumma(cfg) = blocking else {
        unreachable!("the dense shapes run blocking HSUMMA");
    };
    let r = reps.of(150);
    let blocking_s = planned_run_s(&mut pool, grid, dims, blocking, None, r);
    let pipelined_s = planned_run_s(
        &mut pool,
        grid,
        dims,
        PlannedAlgo::HsummaPipelined(cfg),
        None,
        r,
    );
    let traced_s = planned_run_s(&mut pool, grid, dims, blocking, Some(grid.size()), r);
    v.set(
        "core.pipelined_over_blocking",
        ratio(pipelined_s, blocking_s),
    );
    v.set(
        "trace.run_traced_overhead_frac",
        ratio(traced_s, blocking_s) - 1.0,
    );

    // The brick schedule on serve-mix's rectangular shape.
    let grid = GridShape::new(2, 2);
    let (m, k, n) = (300, 200, 260);
    let plan = Planner::new(grid, PlannerConfig::default())
        .plan_gemm(m, k, n)
        .plan;
    let mut pool = RankPool::new(grid.size()).expect("spawn rank pool");
    v.set(
        "core.cosma_s_p50",
        planned_run_s(&mut pool, grid, (m, k, n), plan, None, reps.of(100)),
    );
}

fn sparse(v: &mut Values, reps: Reps) {
    // serve-mix's sparse jobs, driven directly on a 2 × 2 pool.
    let grid = GridShape::new(2, 2);
    let n = 256;
    let cfg = SparseConfig::default();
    let tiles = |m: &CsrMatrix| -> Arc<Vec<Arc<CsrMatrix>>> {
        Arc::new(scatter_csr(grid, m).into_iter().map(Arc::new).collect())
    };
    let mut pool = RankPool::new(grid.size()).expect("spawn rank pool");

    let a = tiles(&seeded_sparse(n, n, 0.02, 7));
    let b = tiles(&seeded_sparse(n, n, 0.02, 8));
    let mut bytes = 0u64;
    let t = samples(reps.of(200), || {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        let run = pool
            .run(move |comm| {
                let r = comm.rank();
                spgemm_2d(&*comm, grid, n, &a[r], &b[r], &cfg).expect("spgemm_2d")
            })
            .expect("pool job");
        bytes = run.stats.iter().map(|s| s.bytes_sent).sum();
    });
    v.set("sparse.spgemm_2d_s_p50", percentile(&t, 0.5));
    v.set("sparse.wire_bytes_per_op", bytes as f64);

    let s = tiles(&seeded_sparse(n, n, 0.05, 9));
    let dist = BlockDist::new(grid, n, n);
    let da = Arc::new(dist.scatter(&seeded_uniform(n, n, 10)));
    let db = Arc::new(dist.scatter(&seeded_uniform(n, n, 11)));
    let t = samples(reps.of(200), || {
        let (s, da, db) = (Arc::clone(&s), Arc::clone(&da), Arc::clone(&db));
        pool.run(move |comm| {
            let r = comm.rank();
            sddmm_2d(&*comm, grid, n, &s[r], &da[r], &db[r], &cfg).expect("sddmm_2d")
        })
        .expect("pool job");
    });
    v.set("sparse.sddmm_2d_s_p50", percentile(&t, 0.5));
}

fn model(v: &mut Values, reps: Reps) {
    // What one submit pays the planner when nothing is memoized.
    let platform = Platform::grid5000();
    let params = ModelParams {
        alpha: platform.net.alpha,
        beta: platform.net.beta,
        gamma: platform.gamma,
    };
    let mut rng = SplitMix::new(12);
    let t = samples(reps.of(2000), || {
        let n = (128 + 64 * rng.below(8)) as f64;
        black_box(advise_gemm(
            &params,
            BcastModel::Binomial,
            n,
            n,
            n,
            4.0,
            32.0,
        ));
    });
    v.set("model.advise_gemm_us_p50", percentile(&t, 0.5) * 1e6);
}

fn netsim(v: &mut Values, reps: Reps) {
    let platform = Platform::bluegene_p();
    // The same SUMMA schedule on both engines at p = 256.
    let grid = GridShape::new(16, 16);
    let engine_s = |engine: SimEngine| {
        let t = samples(reps.of(10), || {
            black_box(sim_summa_engine(
                engine,
                &platform,
                grid,
                1024,
                64,
                SimBcast::Binomial,
            ));
        });
        percentile(&t, 0.5)
    };
    v.set("netsim.threads_engine_s_p256", engine_s(SimEngine::Threads));
    v.set("netsim.replay_engine_s_p256", engine_s(SimEngine::Replay));

    // One brick-schedule replay at p = 2¹⁶, where the replay loop's
    // working set has long left the caches.
    if reps.quick_run() {
        return;
    }
    let (p, n) = (1usize << 16, 262_144);
    let prog = record_cosma(p, n, n, n, &CosmaConfig::for_problem(p, n, n, n));
    let mut net = SimNet::new(p, platform.net);
    let (secs, _) = time(|| black_box(replay_on(&mut net, platform.gamma, &prog)));
    v.set(
        "netsim.replay_mops_per_s_p65536",
        ratio(prog.total_ops() as f64 / 1e6, secs),
    );
}

/// Runs every probe and returns the per-layer values they produce.
pub fn run(reps: Reps) -> Values {
    let mut v = Values::default();
    matrix(&mut v, reps);
    runtime(&mut v, reps);
    core_and_trace(&mut v, reps);
    sparse(&mut v, reps);
    model(&mut v, reps);
    netsim(&mut v, reps);
    v
}
