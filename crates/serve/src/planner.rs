//! The model-driven planner: from a job's shape to an executable
//! [`PlannedAlgo`], memoized per shape class.
//!
//! Planning is two passes, exactly as ROADMAP.md sketches for the
//! serving layer:
//!
//! 1. **Closed form** — [`hsumma_model::advise_gemm`] compares SUMMA,
//!    HSUMMA at its predicted-best `G` (seeded by the paper's `G = √p`
//!    extremum), Cannon, and the COSMA-style brick schedule on the
//!    configured `(α, β, γ)`, in microseconds of arithmetic;
//! 2. **Simulator refinement** — when the advice is HSUMMA, the analytic
//!    `G` is cross-checked against the timing simulator
//!    ([`hsumma_core::tuning::sweep_groups`]), which prices the *actual
//!    schedule* (pipelining, per-step dependencies) rather than the
//!    closed form. The simulator sweep is the expensive part — tens of
//!    milliseconds for large `p` — which is why its outcome is cached.
//!
//! The plan cache is keyed by `(p, shape class)` where the shape class
//! is `(⌈log₂ m⌉, ⌈log₂ k⌉, ⌈log₂ n⌉)`: two problems within a factor of
//! two of each other in every extent get the same plan, a deliberate
//! coarsening that makes a serving workload of "roughly n = 256" jobs
//! hit the cache after the first one. Cache statistics
//! ([`PlannerStats`]) are part of the public API so tests and operators
//! can *prove* the second same-shape job skipped the sweep.
//!
//! Every shape takes this path, whether the grid divides its extents or
//! not: the grid plans deal uneven tiles by `chunk_range`, and the
//! brick schedule ([`hsumma_core::cosma()`]) needs no divisibility
//! either. Only Cannon needs its grid side to divide `n`.

use hsumma_core::tuning::{best_by_comm, power_of_two_gs, sweep_groups};
use hsumma_core::{
    simulate, BrickDecomp, CosmaConfig, HierGrid, HsummaConfig, PlannedAlgo, Schedule, SummaConfig,
};
use hsumma_matrix::sparse::CsrMatrix;
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_model::{
    advise_gemm, advise_ranks, advise_sparse, AlgoChoice, BcastModel, ModelParams, SparseAdvice,
    SparseChoice, SparsityProfile,
};
use hsumma_netsim::{Platform, SimBcast};
use std::collections::HashMap;

/// Planner configuration: which cost model and which simulated platform
/// rank the candidates.
///
/// The platform prices *relative* choices (which algorithm, which `G`),
/// not absolute in-process speed — the default Grid5000 profile has the
/// latency/bandwidth ratio closest to thread-mailbox messaging among the
/// presets.
#[derive(Clone, Debug)]
pub struct PlannerConfig {
    /// Simulated platform used for the refinement sweep and, via its
    /// `(α, β, γ)`, for the closed-form pass.
    pub platform: Platform,
    /// Broadcast cost model of the closed-form pass.
    pub bcast: BcastModel,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            platform: Platform::grid5000(),
            bcast: BcastModel::Binomial,
        }
    }
}

/// The modeled fraction of blocking time the double-buffered overlap
/// pipeline must hide before a plan takes it.
///
/// In the pure cost model pipelining never loses — `α + max(β·m, γ·f)`
/// is at most `α + β·m + γ·f` — so "always pipeline" would make the
/// choice vacuous. The planner instead demands a *material* modeled win
/// ([`hsumma_model::PlanAdvice::overlap_win_fraction`]): the handle
/// machinery is only free when there is real transfer time to hide
/// behind real compute.
const PIPELINE_MIN_WIN: f64 = 0.02;

/// Cache key: problems of the same rank count and size class share a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShapeClass {
    /// Rank count the plan was made for.
    pub p: usize,
    /// `⌈log₂ m⌉` of `C`'s row extent.
    pub log2_m: u32,
    /// `⌈log₂ k⌉` of the shared (contraction) extent.
    pub log2_k: u32,
    /// `⌈log₂ n⌉` of `C`'s column extent.
    pub log2_n: u32,
}

fn log2_class(extent: usize) -> u32 {
    (extent.max(1) as f64).log2().ceil() as u32
}

impl ShapeClass {
    /// The class of an `n × n` problem on `p` ranks.
    pub fn of(p: usize, n: usize) -> Self {
        ShapeClass::of_gemm(p, n, n, n)
    }

    /// The class of a `C(m×n) = A(m×k)·B(k×n)` problem on `p` ranks.
    pub fn of_gemm(p: usize, m: usize, k: usize, n: usize) -> Self {
        ShapeClass {
            p,
            log2_m: log2_class(m),
            log2_k: log2_class(k),
            log2_n: log2_class(n),
        }
    }
}

/// Counters proving what the planner did (and did not) compute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Plans served from the cache.
    pub hits: u64,
    /// Plans computed fresh (model + optional sweep).
    pub misses: u64,
    /// Individual simulator evaluations run (one per candidate `G` per
    /// refinement sweep). Stays flat across cache hits.
    pub sims_run: u64,
    /// Brick decomposition searches run ([`BrickDecomp::search`]). Stays
    /// flat when a cosma job of an exact `(m, k, n)` repeats — the
    /// decomposition is memoized.
    pub brick_searches: u64,
}

/// What the cache remembers per shape class: the *decision* — which
/// algorithm and, for HSUMMA, which grouping. The panel width is NOT
/// cached: two sizes of the same class (say 24 and 32) prefer different
/// blocks, so the block is re-derived per job — a divisor search, not a
/// simulator sweep.
#[derive(Clone, Copy, Debug)]
enum CachedChoice {
    Summa {
        pipelined: bool,
    },
    Hsumma {
        groups: GridShape,
        pipelined: bool,
    },
    Cannon,
    /// The COSMA brick schedule. Only the *decision* is cached: the
    /// `(a, b, c)` decomposition depends on the exact `(m, k, n)`, so
    /// materialization re-runs the (cheap) brick search per job.
    Cosma,
}

/// Plans jobs for one fixed grid, with a [`ShapeClass`]-keyed memo.
pub struct Planner {
    config: PlannerConfig,
    grid: GridShape,
    cache: HashMap<ShapeClass, CachedChoice>,
    /// Searched brick decompositions by *exact* `(m, k, n)` — unlike the
    /// choice cache, a decomposition is only valid for the extents it
    /// was searched for, so the key is not coarsened to a shape class.
    brick_cache: HashMap<(usize, usize, usize), BrickDecomp>,
    /// Scheduler-facing estimates (preferred rank count + modeled
    /// duration), memoized per shape class like the plan choice.
    estimate_cache: HashMap<ShapeClass, JobEstimate>,
    stats: PlannerStats,
}

/// What the scheduler asks the planner about a job before running it:
/// how many ranks it is worth, and how long the model thinks it takes
/// there. See [`Planner::estimate`].
#[derive(Clone, Copy, Debug)]
pub struct JobEstimate {
    /// Smallest rank count within [`RANK_TOLERANCE`] of the best
    /// predicted total — the job's perfect-scaling range endpoint
    /// (capped at the planner's grid size).
    pub ranks: usize,
    /// Predicted total seconds of the scoreboard winner at `ranks`, in
    /// *model* time (the configured platform's `(α, β, γ)`), not
    /// wall-clock — the scheduler's calibration maps between the two.
    pub model_secs: f64,
}

/// How much predicted slowdown the packing policy tolerates for running
/// a job on fewer ranks: a job is given the smallest rank count within
/// 10% of its best predicted total, freeing the rest of the pool for
/// concurrent jobs.
pub const RANK_TOLERANCE: f64 = 0.10;

/// A planning outcome plus its provenance.
#[derive(Clone, Copy, Debug)]
pub struct Planned {
    /// The executable plan.
    pub plan: PlannedAlgo,
    /// `true` when served from the cache without recomputation.
    pub cached: bool,
}

impl Planner {
    /// A planner for jobs executing on `grid`.
    pub fn new(grid: GridShape, config: PlannerConfig) -> Self {
        Planner {
            config,
            grid,
            cache: HashMap::new(),
            brick_cache: HashMap::new(),
            estimate_cache: HashMap::new(),
            stats: PlannerStats::default(),
        }
    }

    /// The grid this planner plans for.
    pub fn grid(&self) -> GridShape {
        self.grid
    }

    /// Cache/sweep counters so far.
    pub fn stats(&self) -> PlannerStats {
        self.stats
    }

    /// Plans a general `C(m×n) = A(m×k)·B(k×n)` multiply, consulting the
    /// cache first. Any positive extents are accepted.
    pub fn plan_gemm(&mut self, m: usize, k: usize, n: usize) -> Planned {
        let key = ShapeClass::of_gemm(self.grid.size(), m, k, n);
        if let Some(&choice) = self.cache.get(&key) {
            self.stats.hits += 1;
            return Planned {
                plan: self.materialize(choice, m, k, n),
                cached: true,
            };
        }
        self.stats.misses += 1;
        let choice = self.compute_choice(m, k, n);
        self.cache.insert(key, choice);
        Planned {
            plan: self.materialize(choice, m, k, n),
            cached: false,
        }
    }

    /// Whether Cannon runs `m × k · k × n` on this grid: square operands
    /// that a square grid's side divides.
    fn cannon_runs(&self, m: usize, k: usize, n: usize) -> bool {
        let q = self.grid.rows;
        m == n && k == n && self.grid.cols == q && n.is_multiple_of(q)
    }

    /// The expensive half: model comparison plus (for HSUMMA) the
    /// simulator sweep. Runs once per shape class.
    fn compute_choice(&mut self, m: usize, k: usize, n: usize) -> CachedChoice {
        let p = self.grid.size();
        let square = m == n && k == n;
        // The panel width of the shared dimension's tiles (for square
        // shapes they equal the n-tile extents). The model prices no
        // panel wider than an extent.
        let block = preferred_block(k / self.grid.rows, k / self.grid.cols);
        let priced = block.min(m).min(n).min(k);
        let params = ModelParams {
            alpha: self.config.platform.net.alpha,
            beta: self.config.platform.net.beta,
            gamma: self.config.platform.gamma,
        };
        let advice = advise_gemm(
            &params,
            self.config.bcast,
            m as f64,
            n as f64,
            k as f64,
            p as f64,
            priced as f64,
        );
        // Path decision: does the modeled overlap win justify the
        // pipelined schedule for this shape class? The double-buffered
        // pivot pipelines run any `(m, k, n)`, so the model alone decides.
        let pipelined = advice.overlap_win_fraction() > PIPELINE_MIN_WIN;
        match advice.choice {
            AlgoChoice::Cosma { .. } => CachedChoice::Cosma,
            AlgoChoice::Cannon if self.cannon_runs(m, k, n) => CachedChoice::Cannon,
            AlgoChoice::Summa | AlgoChoice::Cannon => CachedChoice::Summa { pipelined },
            AlgoChoice::Hsumma { g } => {
                // The simulator sweep prices the square schedule only;
                // rectangular shapes keep the analytic G.
                let g = if square {
                    self.refine_g(n, block)
                } else {
                    g as usize
                };
                match HierGrid::factor_groups(self.grid, g) {
                    Some(groups) => CachedChoice::Hsumma { groups, pipelined },
                    // No valid factorization of the advised G on this
                    // grid: fall back to the G = 1 degenerate (SUMMA).
                    None => CachedChoice::Summa { pipelined },
                }
            }
        }
    }

    /// The cheap half: turn a cached decision into an executable plan for
    /// this exact `(m, k, n)` — the panel width fits this job's tiles,
    /// and the brick decomposition this job's cube. A class's Cannon
    /// verdict serves only the shapes Cannon runs; the rest of the class
    /// takes blocking SUMMA.
    fn materialize(&mut self, choice: CachedChoice, m: usize, k: usize, n: usize) -> PlannedAlgo {
        let block = preferred_block(k / self.grid.rows, k / self.grid.cols);
        let choice = match choice {
            CachedChoice::Cannon if !self.cannon_runs(m, k, n) => {
                CachedChoice::Summa { pipelined: false }
            }
            choice => choice,
        };
        match choice {
            CachedChoice::Summa { pipelined } => {
                let cfg = SummaConfig {
                    block,
                    ..SummaConfig::default()
                };
                if pipelined {
                    PlannedAlgo::SummaPipelined(cfg)
                } else {
                    PlannedAlgo::Summa(cfg)
                }
            }
            CachedChoice::Hsumma { groups, pipelined } => {
                let cfg = HsummaConfig::uniform(groups, block);
                if pipelined {
                    PlannedAlgo::HsummaPipelined(cfg)
                } else {
                    PlannedAlgo::Hsumma(cfg)
                }
            }
            CachedChoice::Cannon => PlannedAlgo::Cannon {
                kernel: GemmKernel::Packed,
            },
            CachedChoice::Cosma => {
                // The decomposition search is the whole planning cost of
                // a cosma job; memoize it by exact extents so repeats of
                // the same shape pay a map lookup.
                let p = self.grid.size();
                let decomp = *self.brick_cache.entry((m, k, n)).or_insert_with(|| {
                    self.stats.brick_searches += 1;
                    BrickDecomp::search(p, m, n, k)
                });
                PlannedAlgo::Cosma(CosmaConfig::with_decomp(decomp))
            }
        }
    }

    /// The scheduler's pre-dispatch question, memoized per shape class:
    /// how many ranks is a `C(m×n) = A(m×k)·B(k×n)` job worth
    /// ([`hsumma_model::advise_ranks`] over power-of-two sub-pool sizes,
    /// tolerance [`RANK_TOLERANCE`]), and what total does the model
    /// predict at that count? Feasibility admission compares the
    /// calibrated prediction against the client's deadline; the packing
    /// policy uses `ranks` to size the job's sub-pool.
    pub fn estimate(&mut self, m: usize, k: usize, n: usize) -> JobEstimate {
        let key = ShapeClass::of_gemm(self.grid.size(), m, k, n);
        if let Some(&est) = self.estimate_cache.get(&key) {
            return est;
        }
        let params = ModelParams {
            alpha: self.config.platform.net.alpha,
            beta: self.config.platform.net.beta,
            gamma: self.config.platform.gamma,
        };
        let block = m.min(k).min(n).clamp(1, 32);
        let advice = advise_ranks(
            &params,
            self.config.bcast,
            m as f64,
            n as f64,
            k as f64,
            self.grid.size(),
            block as f64,
            RANK_TOLERANCE,
        );
        let model_secs = advice
            .curve
            .iter()
            .find(|pt| pt.ranks == advice.preferred)
            .expect("preferred rank count came from the curve")
            .total;
        let est = JobEstimate {
            ranks: advice.preferred,
            model_secs,
        };
        self.estimate_cache.insert(key, est);
        est
    }

    /// Plans a square `n × n` SpGEMM from the operands' sampled sparsity
    /// profiles: the nnz-aware scoreboard ([`advise_sparse`]) decides
    /// densify-and-SUMMA vs native 2-D SpGEMM by predicted *total* time
    /// (wire bytes `∝ nnz`, flops from the sampled row densities). When
    /// it chooses to densify, the ordinary dense planning pipeline
    /// (cache, simulator refinement) supplies the plan.
    ///
    /// The sparse decision itself is never cached — it is one closed-form
    /// evaluation per job, and unlike shape, *sparsity* varies freely
    /// between same-shaped jobs.
    pub fn plan_spgemm(
        &mut self,
        n: usize,
        a: &SparsityProfile,
        b: &SparsityProfile,
    ) -> SparsePlanned {
        let block = preferred_block(n / self.grid.rows, n / self.grid.cols);
        let params = ModelParams {
            alpha: self.config.platform.net.alpha,
            beta: self.config.platform.net.beta,
            gamma: self.config.platform.gamma,
        };
        let advice = advise_sparse(
            &params,
            n as f64,
            self.grid.size() as f64,
            block as f64,
            a,
            b,
        );
        let dense =
            matches!(advice.choice, SparseChoice::DenseGemm).then(|| self.plan_gemm(n, n, n));
        SparsePlanned {
            advice,
            block,
            dense,
        }
    }

    /// The pivot panel width an SDDMM job uses on this grid (SDDMM has no
    /// dense-vs-sparse decision to make — `S` never travels).
    pub fn sddmm_block(&self, n: usize) -> usize {
        preferred_block(n / self.grid.rows, n / self.grid.cols)
    }

    /// Pass 2: pick `G` by simulated communication time over the
    /// power-of-two candidates (the paper's Fig. 8 sweep). Priced on the
    /// record-and-replay engine: bit-identical reports to the threaded
    /// simulator (so identical decisions), but no thread spawning per
    /// candidate, which keeps the sweep a planner-budget call even on
    /// pools far past the thread-per-rank scale cap.
    fn refine_g(&mut self, n: usize, block: usize) -> usize {
        let gs = power_of_two_gs(self.grid.size());
        let (grid, platform) = (self.grid, &self.config.platform);
        let sweep = sweep_groups(grid, &gs, |groups| {
            let bc = SimBcast::Binomial;
            let sched = Schedule::hsumma(grid, groups, n, block, block, bc, bc);
            simulate(&sched, platform, false)
        });
        self.stats.sims_run += sweep.len() as u64;
        best_by_comm(&sweep).g
    }
}

/// A sparse planning outcome: the scoreboard's verdict plus whatever the
/// execution path needs — the panel width for native SpGEMM, or the full
/// dense plan when densifying won.
#[derive(Clone, Copy, Debug)]
pub struct SparsePlanned {
    /// The scoreboard: choice plus both candidates' predicted costs.
    pub advice: SparseAdvice,
    /// Pivot panel width for the native SpGEMM schedule.
    pub block: usize,
    /// The dense plan, present exactly when the advice is to densify.
    pub dense: Option<Planned>,
}

/// Estimates a [`SparsityProfile`] for the planner by sampling up to
/// `max_samples` evenly-strided rows of `m` — the planner's view of an
/// operand is a handful of row nnz counts, never the full pattern.
///
/// # Panics
/// Panics if `m` has no rows or `max_samples` is zero.
pub fn sparsity_profile(m: &CsrMatrix, max_samples: usize) -> SparsityProfile {
    assert!(m.rows() > 0 && max_samples > 0, "nothing to sample");
    let stride = (m.rows() / max_samples).max(1);
    let samples: Vec<usize> = (0..m.rows())
        .step_by(stride)
        .map(|i| m.row_nnz(i))
        .collect();
    SparsityProfile::from_row_samples(m.rows() as f64, m.cols() as f64, &samples)
}

/// The largest panel width ≤ 32 dividing both tile extents, so the
/// panels of a shape the grid divides are all one block wide.
fn preferred_block(tile_rows: usize, tile_cols: usize) -> usize {
    (1..=tile_rows.min(tile_cols).min(32))
        .rev()
        .find(|&b| tile_rows.is_multiple_of(b) && tile_cols.is_multiple_of(b))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preferred_block_divides_both_extents() {
        assert_eq!(preferred_block(64, 64), 32);
        assert_eq!(preferred_block(48, 36), 12);
        assert_eq!(preferred_block(7, 7), 7);
        assert_eq!(preferred_block(3, 5), 1);
    }

    #[test]
    fn shape_class_buckets_by_power_of_two() {
        assert_eq!(ShapeClass::of(16, 256), ShapeClass::of(16, 129));
        assert_ne!(ShapeClass::of(16, 256), ShapeClass::of(16, 257));
        assert_ne!(ShapeClass::of(16, 256), ShapeClass::of(4, 256));
    }

    #[test]
    fn shape_class_distinguishes_every_extent() {
        // The memo key carries m, k and n independently: a tall-skinny
        // job must not collide with the square job of the same n.
        let square = ShapeClass::of_gemm(16, 256, 256, 256);
        assert_eq!(square, ShapeClass::of(16, 256));
        assert_ne!(square, ShapeClass::of_gemm(16, 1024, 256, 256));
        assert_ne!(square, ShapeClass::of_gemm(16, 256, 1024, 256));
        assert_ne!(square, ShapeClass::of_gemm(16, 256, 256, 1024));
    }

    #[test]
    fn second_same_shape_plan_is_a_cache_hit_with_no_new_sims() {
        let mut planner = Planner::new(GridShape::new(4, 4), PlannerConfig::default());
        let first = planner.plan_gemm(256, 256, 256);
        assert!(!first.cached);
        let after_first = planner.stats();
        assert_eq!(after_first.misses, 1);

        let second = planner.plan_gemm(256, 256, 256);
        assert!(second.cached);
        let after_second = planner.stats();
        assert_eq!(after_second.hits, 1);
        // The load-bearing claim: no additional simulator work.
        assert_eq!(after_second.sims_run, after_first.sims_run);
        assert_eq!(format!("{:?}", second.plan), format!("{:?}", first.plan));
    }

    #[test]
    fn different_shape_classes_plan_independently() {
        let mut planner = Planner::new(GridShape::new(2, 2), PlannerConfig::default());
        planner.plan_gemm(64, 64, 64);
        planner.plan_gemm(512, 512, 512);
        assert_eq!(planner.stats().misses, 2);
        assert_eq!(planner.stats().hits, 0);
    }

    #[test]
    fn plans_are_executable_on_the_grid() {
        // Whatever the planner picks, its block sizes must satisfy the
        // algorithms' divisibility preconditions.
        for (grid, n) in [
            (GridShape::new(2, 2), 16),
            (GridShape::new(4, 4), 64),
            (GridShape::new(2, 4), 32),
        ] {
            let mut planner = Planner::new(grid, PlannerConfig::default());
            let planned = planner.plan_gemm(n, n, n);
            let (th, tw) = (n / grid.rows, n / grid.cols);
            match planned.plan {
                PlannedAlgo::Summa(cfg) | PlannedAlgo::SummaPipelined(cfg) => {
                    assert_eq!(th % cfg.block, 0);
                    assert_eq!(tw % cfg.block, 0);
                }
                PlannedAlgo::Hsumma(cfg) | PlannedAlgo::HsummaPipelined(cfg) => {
                    assert_eq!(th % cfg.inner_block, 0);
                    assert_eq!(tw % cfg.inner_block, 0);
                    assert_eq!(grid.rows % cfg.groups.rows, 0);
                    assert_eq!(grid.cols % cfg.groups.cols, 0);
                }
                PlannedAlgo::Cannon { .. } => assert_eq!(grid.rows, grid.cols),
                PlannedAlgo::Cosma(cfg) => {
                    assert!(cfg.decomp.ranks() <= grid.size());
                    assert!(cfg.steps >= 1);
                }
            }
        }
    }

    #[test]
    fn non_divisible_shapes_are_scored_memoized_and_run() {
        // 7 × 9 × 5 on a 2 × 2 grid: nothing divides, yet the shape is
        // scored like any other, and 6 × 9 × 5, of the same class, is
        // served from the memo. Both plans run to the serial product.
        use hsumma_core::{run_planned_gemm, Distribution};
        use hsumma_matrix::{gemm, seeded_uniform, Matrix};
        let grid = GridShape::new(2, 2);
        let mut planner = Planner::new(grid, PlannerConfig::default());
        for (i, (m, k, n)) in [(7, 9, 5), (6, 9, 5)].into_iter().enumerate() {
            let planned = planner.plan_gemm(m, k, n);
            assert_eq!(planned.cached, i == 1, "{m}x{k}x{n}");
            let stats = planner.stats();
            assert_eq!((stats.hits, stats.misses), (i as u64, 1));

            let (a, b) = (seeded_uniform(m, k, 70), seeded_uniform(k, n, 71));
            let mut want = Matrix::zeros(m, n);
            gemm(GemmKernel::Naive, &a, &b, &mut want);
            let at = Distribution::grid2d(grid, m, k).scatter(&a);
            let bt = Distribution::grid2d(grid, k, n).scatter(&b);
            let plan = planned.plan;
            let tiles = hsumma_runtime::Runtime::run(grid.size(), |comm| {
                let r = comm.rank();
                run_planned_gemm(comm, grid, m, n, k, &at[r], &bt[r], &plan).unwrap()
            });
            let got = Distribution::grid2d(grid, m, n).gather(&tiles);
            assert!(got.approx_eq(&want, 1e-9), "{}", plan.describe());
        }
    }

    #[test]
    fn a_cached_cannon_verdict_serves_only_the_shapes_cannon_runs() {
        // 250³ scores to Cannon on 2 × 2. 249³ and 250 × 250 × 249 share
        // its class, but the grid side does not divide 249 and Cannon is
        // square-only: both take blocking SUMMA from the memo.
        let mut planner = Planner::new(GridShape::new(2, 2), PlannerConfig::default());
        let first = planner.plan_gemm(250, 250, 250);
        assert!(
            matches!(first.plan, PlannedAlgo::Cannon { .. }),
            "{first:?}"
        );
        for (m, k, n) in [(249, 249, 249), (250, 250, 249)] {
            let planned = planner.plan_gemm(m, k, n);
            assert!(planned.cached);
            assert!(matches!(planned.plan, PlannedAlgo::Summa(_)), "{planned:?}");
        }
    }

    #[test]
    fn rectangular_divisible_shapes_are_planned_and_memoized() {
        // A grid-divisible rectangular job flows through the ordinary
        // model + cache pipeline.
        let grid = GridShape::new(2, 2);
        let mut planner = Planner::new(grid, PlannerConfig::default());
        let first = planner.plan_gemm(64, 32, 16);
        assert!(!first.cached);
        let second = planner.plan_gemm(64, 32, 16);
        assert!(second.cached);
        assert_eq!(format!("{:?}", second.plan), format!("{:?}", first.plan));
        // Rectangular shapes never take the square-only pipelined paths.
        assert_eq!(first.plan.gemm_path(), "blocking");
    }

    #[test]
    fn auto_policy_agrees_with_the_model_overlap_win() {
        // The path decision must be exactly the model's: pipeline iff the
        // predicted overlap hides more than the threshold fraction. The
        // equivalence applies to the plans that *have* a pipelined
        // variant — a Cosma or Cannon winner is blocking by
        // construction, whatever the model's overlap term says. The
        // pipelines run any shape, so rectangular shapes are held to the
        // same rule.
        let grid = GridShape::new(2, 4);
        let config = PlannerConfig::default();
        let params = hsumma_model::ModelParams {
            alpha: config.platform.net.alpha,
            beta: config.platform.net.beta,
            gamma: config.platform.gamma,
        };
        let mut pipelined = 0;
        for (m, k, n) in [
            (64, 64, 64),
            (256, 256, 256),
            (1024, 1024, 1024),
            (64, 64, 1024),
            (1024, 64, 256),
            (512, 64, 1024),
            (1024, 256, 2048),
        ] {
            let block = preferred_block(k / grid.rows, k / grid.cols).min(m).min(n);
            let advice = hsumma_model::advise_gemm(
                &params,
                config.bcast,
                m as f64,
                n as f64,
                k as f64,
                grid.size() as f64,
                block as f64,
            );
            let mut planner = Planner::new(grid, config.clone());
            let plan = planner.plan_gemm(m, k, n).plan;
            if matches!(plan, PlannedAlgo::Cosma(_) | PlannedAlgo::Cannon { .. }) {
                assert_eq!(plan.gemm_path(), "blocking");
                continue;
            }
            pipelined += usize::from(plan.gemm_path() == "pipelined" && m != n);
            assert_eq!(
                plan.gemm_path() == "pipelined",
                advice.overlap_win_fraction() > PIPELINE_MIN_WIN,
                "{m}x{k}x{n}: plan {} vs modeled win {}",
                plan.describe(),
                advice.overlap_win_fraction()
            );
        }
        assert!(pipelined > 0, "some rectangular shape must pipeline");
    }

    #[test]
    fn sparsity_profile_samples_row_densities() {
        // Exact when every row is sampled.
        let m = hsumma_matrix::seeded_sparse(64, 64, 0.2, 9);
        let full = sparsity_profile(&m, 64);
        assert!((full.nnz() - m.nnz() as f64).abs() < 1e-9);
        // A strided sample is an estimate of the same quantity.
        let sampled = sparsity_profile(&m, 8);
        assert!((sampled.density() - full.density()).abs() < 0.1);
    }

    #[test]
    fn spgemm_plan_follows_the_scoreboard() {
        let mut planner = Planner::new(GridShape::new(2, 2), PlannerConfig::default());
        let n = 64;
        // Nearly empty operands: native SpGEMM must win, no dense plan.
        let lo = SparsityProfile::uniform(n as f64, n as f64, 0.01);
        let sp = planner.plan_spgemm(n, &lo, &lo);
        assert_eq!(sp.advice.choice, SparseChoice::SpGemm);
        assert!(sp.dense.is_none());
        assert_eq!(n / 2 % sp.block, 0, "block must divide the tile");
        // Fully dense operands: densify, carrying an executable plan.
        let hi = SparsityProfile::uniform(n as f64, n as f64, 1.0);
        let sp = planner.plan_spgemm(n, &hi, &hi);
        assert_eq!(sp.advice.choice, SparseChoice::DenseGemm);
        assert!(sp.dense.is_some());
    }

    #[test]
    fn repeated_cosma_shapes_search_the_brick_decomposition_once() {
        // 8 × 4096 × 8 scores to cosma on the 2 × 2 grid (a long shared
        // dimension and tiny tiles). The decision is memoized per shape
        // class, and the decomposition search by exact extents.
        let mut planner = Planner::new(GridShape::new(2, 2), PlannerConfig::default());
        let first = planner.plan_gemm(8, 4096, 8);
        assert!(matches!(first.plan, PlannedAlgo::Cosma(_)), "{first:?}");
        assert_eq!(planner.stats().brick_searches, 1);
        let second = planner.plan_gemm(8, 4096, 8);
        assert_eq!(planner.stats().brick_searches, 1, "second search memoized");
        assert_eq!(format!("{:?}", second.plan), format!("{:?}", first.plan));
        // A different exact shape of the same class is a different
        // decomposition under the cached decision.
        assert!(planner.plan_gemm(8, 4096, 7).cached);
        assert_eq!(planner.stats().brick_searches, 2);
    }

    #[test]
    fn estimate_is_memoized_and_capped_at_the_grid() {
        let mut planner = Planner::new(GridShape::new(8, 8), PlannerConfig::default());
        let est = planner.estimate(128, 128, 128);
        assert!(est.ranks >= 1 && est.ranks <= 64);
        assert!(est.ranks.is_power_of_two());
        assert!(est.model_secs > 0.0);
        let again = planner.estimate(128, 128, 128);
        assert_eq!(est.ranks, again.ranks);
        assert_eq!(est.model_secs, again.model_secs);
    }
}
