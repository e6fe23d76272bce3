//! `gemm-compute` and `gemm-comm`: one caller multiplying through the
//! library's blocking dense path, scatter → pool run → gather → verify.
//!
//! The two shapes are mirror images. On `gemm-compute` the ranks, taking
//! turns on the one CPU the benchmark is pinned to, spend about half
//! their time in the local kernel and the rest waiting for each other;
//! on `gemm-comm` (64-element panels) nineteen twentieths in the
//! runtime's mailboxes and tree broadcasts. A change that helps one and
//! hurts the other therefore shows as both.

use crate::pass::{run_blocks, Budget};
use crate::spans::{Recorder, ROOT};
use crate::stats::{percentile, ratio};
use crate::{comm_values, Outcome, Workload};
use hsumma_core::{
    run_planned_gemm, sim_hsumma_engine, Distribution, HsummaConfig, PlannedAlgo, SimEngine,
};
use hsumma_matrix::{gemm, seeded_uniform, GemmKernel, GridShape, Matrix};
use hsumma_netsim::{Platform, SimBcast};
use hsumma_runtime::{CommStats, RankPool};
use hsumma_serve::{Planner, PlannerConfig};
use std::sync::Arc;
use std::time::Instant;

/// Largest element-wise difference from the serial reference a product
/// may show. Entries are sums of at most 1024 products of values in
/// [-1, 1), so rounding stays near 1e-13; the distributed schedule only
/// reorders those sums.
pub const DENSE_TOL: f64 = 1e-9;

/// One of the two dense shapes.
#[derive(Clone, Copy)]
pub struct Shape {
    grid: GridShape,
    groups: GridShape,
    n: usize,
    block: usize,
    /// Operations per block: a quarter to one second of work.
    ops_per_block: usize,
}

impl Shape {
    /// p = 4 (2×2), n = 1024, G = 1×2, B = b = 128.
    pub fn compute() -> Shape {
        Shape {
            grid: GridShape::new(2, 2),
            groups: GridShape::new(1, 2),
            n: 1024,
            block: 128,
            ops_per_block: 6,
        }
    }

    /// p = 16 (4×4), n = 256, G = 2×2, B = b = 8: the smallest
    /// non-degenerate instance of the paper's two-level broadcast.
    pub fn comm() -> Shape {
        Shape {
            grid: GridShape::new(4, 4),
            groups: GridShape::new(2, 2),
            n: 256,
            block: 8,
            ops_per_block: 25,
        }
    }

    /// The same shape with one operation per block, for `--smoke`.
    pub fn tiny(self) -> Shape {
        Shape {
            ops_per_block: 1,
            ..self
        }
    }

    /// The blocking HSUMMA plan of this shape.
    pub fn plan(&self) -> PlannedAlgo {
        PlannedAlgo::Hsumma(HsummaConfig::uniform(self.groups, self.block))
    }

    /// Rank grid.
    pub fn grid(&self) -> GridShape {
        self.grid
    }

    /// Matrix extent.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Leading term of the memory-independent communication lower bound for
/// classical matrix multiplication (Ballard et al., arXiv:1202.3177):
/// each of `p` processors moves at least `n² / p^(2/3)` words.
pub fn lower_bound_bytes(p: usize, n: usize) -> f64 {
    let (p, n) = (p as f64, n as f64);
    8.0 * p * n * n / p.powf(2.0 / 3.0)
}

/// What one operation measured.
struct OpTimes {
    latency: f64,
    ok: bool,
    stats: Vec<CommStats>,
}

/// Operands, reference, pool and plan of one dense shape.
pub struct Gemm {
    shape: Shape,
    plan: PlannedAlgo,
    a: Matrix,
    b: Matrix,
    reference: Matrix,
    da: Distribution,
    db: Distribution,
    dc: Distribution,
    pool: RankPool,
    /// Simulated BlueGene/P makespan of the plan.
    model_time_s: f64,
    /// What the serving planner's cost model says one run takes.
    planner_model_s: f64,
    next_op: u32,
}

impl Gemm {
    /// Generates operands from `seed`, computes the serial reference,
    /// prices the plan on the simulator, spawns the pool and runs one
    /// untimed warm-up operation.
    pub fn setup(shape: Shape, seed: u64) -> Gemm {
        let (grid, n) = (shape.grid, shape.n);
        let a = seeded_uniform(n, n, seed.wrapping_mul(2));
        let b = seeded_uniform(n, n, seed.wrapping_mul(2).wrapping_add(1));
        let mut reference = Matrix::zeros(n, n);
        gemm(GemmKernel::Packed, &a, &b, &mut reference);
        let model = sim_hsumma_engine(
            SimEngine::Replay,
            &Platform::bluegene_p(),
            grid,
            shape.groups,
            n,
            shape.block,
            shape.block,
            SimBcast::Binomial,
            SimBcast::Binomial,
        );
        let planner_model_s = Planner::new(grid, PlannerConfig::default())
            .estimate(n, n, n)
            .model_secs;
        let mut w = Gemm {
            shape,
            plan: shape.plan(),
            a,
            b,
            reference,
            da: Distribution::grid2d(grid, n, n),
            db: Distribution::grid2d(grid, n, n),
            dc: Distribution::grid2d(grid, n, n),
            pool: RankPool::new(grid.size()).expect("spawn rank pool"),
            model_time_s: model.total_time,
            planner_model_s,
            next_op: 0,
        };
        let warm = w.op(None);
        assert!(warm.ok, "warm-up product differs from the serial reference");
        w
    }

    /// One scatter → run → gather → verify. Latency runs from the start
    /// of the scatter to the end of the gather.
    fn op(&mut self, rec: Option<&mut Recorder>) -> OpTimes {
        self.next_op += 1;
        let op = self.next_op;
        let (grid, n, plan) = (self.shape.grid, self.shape.n, self.plan);

        let t0 = Instant::now();
        let a_tiles = Arc::new(self.da.scatter(&self.a));
        let b_tiles = Arc::new(self.db.scatter(&self.b));
        let t1 = Instant::now();
        let run = self
            .pool
            .run(move |comm| {
                let start = Instant::now();
                let r = comm.rank();
                let tile = run_planned_gemm(&*comm, grid, n, n, n, &a_tiles[r], &b_tiles[r], &plan);
                (tile, start, Instant::now())
            })
            .expect("pool job");
        let t2 = Instant::now();
        let mut rank_spans = Vec::with_capacity(run.results.len());
        let mut tiles = Vec::with_capacity(run.results.len());
        for (tile, start, end) in run.results {
            rank_spans.push((start, end));
            tiles.extend(tile.ok());
        }
        let c = (tiles.len() == rank_spans.len()).then(|| self.dc.gather(&tiles));
        let t3 = Instant::now();
        let ok = c.is_some_and(|c| c.approx_eq(&self.reference, DENSE_TOL));
        let t4 = Instant::now();

        if let Some(rec) = rec {
            let root = rec.reserve();
            rec.push(root, op, "core.scatter", 0, t0, t1);
            let pool_run = rec.push(root, op, "runtime.pool_run", 0, t1, t2);
            for (r, (start, end)) in rank_spans.into_iter().enumerate() {
                let lane = 1 + r as u32;
                rec.push(pool_run, op, "core.run_planned_gemm", lane, start, end);
            }
            rec.push(root, op, "core.gather", 0, t2, t3);
            rec.push(root, op, "bench.verify", 0, t3, t4);
            rec.push_as(root, 0, op, ROOT, 0, t0, t4);
        }
        OpTimes {
            latency: (t3 - t0).as_secs_f64(),
            ok,
            stats: run.stats,
        }
    }
}

impl Workload for Gemm {
    fn run(&mut self, budget: &Budget, mut rec: Option<&mut Recorder>) -> Outcome {
        let p = self.shape.grid.size();
        let gflop = 2.0 * (self.shape.n as f64).powi(3) / 1e9;
        let ops_per_block = self.shape.ops_per_block;

        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut total = CommStats::default();
        let mut per_op_wire: Option<(u64, u64)> = None;
        let pass = run_blocks(budget, || {
            let mut lat = Vec::with_capacity(ops_per_block);
            for _ in 0..ops_per_block {
                let t = self.op(rec.as_deref_mut());
                let mut merged = CommStats::default();
                for s in &t.stats {
                    merged.merge_in_place(s);
                }
                // The schedule is deterministic: every operation must move
                // exactly the bytes and messages the first one did.
                let wire = (merged.bytes_sent, merged.msgs_sent);
                let repeats = *per_op_wire.get_or_insert(wire) == wire;
                attempted += 1;
                failed += u64::from(!(t.ok && repeats));
                total.merge_in_place(&merged);
                lat.push(t.latency);
            }
            (gflop * ops_per_block as f64, lat)
        });

        let (bytes, msgs) = per_op_wire.unwrap_or_default();
        let mut outcome = Outcome::new(pass, attempted, failed);
        outcome.wire_bytes = bytes as f64;
        outcome.wire_msgs = msgs as f64;
        outcome.model_time_s = self.model_time_s;

        if let Some(rec) = rec {
            // Per-layer numbers from the spans this pass recorded.
            let rank_spans = rec.durations("core.run_planned_gemm");
            let slowest: Vec<f64> = rank_spans
                .chunks(p)
                .map(|c| c.iter().copied().fold(0.0, f64::max))
                .collect();
            let skew: Vec<f64> = rank_spans
                .chunks(p)
                .map(|c| {
                    c.iter().copied().fold(0.0, f64::max)
                        - c.iter().copied().fold(f64::INFINITY, f64::min)
                })
                .collect();
            let run_p50 = percentile(&slowest, 0.5);
            let mut v = comm_values(&total, attempted as f64, p);
            v.set(
                "runtime.pool_run_s_p50",
                percentile(&rec.durations("runtime.pool_run"), 0.5),
            );
            v.set(
                "core.scatter_s_p50",
                percentile(&rec.durations("core.scatter"), 0.5),
            );
            v.set(
                "core.gather_s_p50",
                percentile(&rec.durations("core.gather"), 0.5),
            );
            v.set("core.run_s_p50", run_p50);
            v.set("core.rank_skew_s_p50", percentile(&skew, 0.5));
            v.set(
                "core.bytes_over_lower_bound",
                ratio(bytes as f64, lower_bound_bytes(p, self.shape.n)),
            );
            // No service here, so no calibration: the raw model drift.
            v.set("model.pred_over_wall", ratio(self.planner_model_s, run_p50));
            outcome.layer = v;
        }
        outcome
    }

    fn lane_name(&self, lane: u32) -> String {
        match lane {
            0 => "caller".to_string(),
            r => format!("rank {}", r - 1),
        }
    }
}
