//! The GEMM job service: feasibility admission, EDF scheduling, gang
//! execution on carved sub-pools.
//!
//! One [`GemmServer`] owns four things:
//!
//! * a **[`RankPool`]** of `p` worker threads, created once at server
//!   start — jobs pay no thread spawn/teardown (the reason the pooled
//!   throughput benchmark beats back-to-back `Runtime::run` calls);
//! * a **bounded admission gate**. `submit` never blocks: a full queue
//!   rejects with [`SubmitError::QueueFull`], and under
//!   [`Admission::Feasible`] a deadline the calibrated model proves
//!   unmeetable rejects with [`SubmitError::Infeasible`] naming the
//!   predicted-vs-deadline margin;
//! * a **[`ReadyQueue`]** ordering admitted jobs: earliest-deadline-
//!   first for the deadline class, an aging FIFO for deadline-less
//!   background jobs (see `crate::sched`). The legacy
//!   [`SchedPolicy::Fifo`] mode keeps strict submission order instead;
//! * a **scheduler thread** dispatching in *waves*: the queue head gets
//!   a sub-pool sized by the planner's strong-scaling curve, leftover
//!   ranks are backfilled with the next queued jobs that fit, the pool
//!   is carved ([`RankPool::carve`]) and every job of the wave runs
//!   concurrently — each on its own grid, with the full per-job
//!   deadline/fault/stats/trace machinery. A job alone in the queue
//!   still gets the whole pool.
//!
//! The queue carries three workloads through one pipeline: dense GEMM
//! ([`GemmServer::submit`]), sparse SpGEMM ([`GemmServer::submit_spgemm`]
//! — routed by the nnz-aware scoreboard to either densify-and-SUMMA or
//! the native 2-D CSR schedule) and SDDMM
//! ([`GemmServer::submit_sddmm`]). Deadlines, fault injection, per-job
//! stats demarcation and tracing apply identically to all three — they
//! live in the pooled-run tail every workload shares. Planner-routed
//! jobs gang regardless of workload: dense jobs are sized by the dense
//! strong-scaling curve, sparse jobs by the nnz-aware sweep over their
//! sampled profiles. Only forced-plan jobs always run on the whole pool — their plans are
//! bound to the configured grid.
//!
//! Failure containment mirrors the pool's: a job whose plan panics on a
//! rank fails *that job* ([`JobError::Execution`]) and the server keeps
//! serving. Shutdown is graceful — queued jobs run to completion before
//! the scheduler exits (`shutdown()`, also invoked by `Drop`).

use crate::job::{
    JobCell, JobError, JobHandle, JobOutcome, JobOutput, JobReport, JobSpec, PlanHint, Product,
    ServePlan, SubmitError, Workload,
};
use crate::planner::{
    sparsity_profile, Planned, Planner, PlannerConfig, PlannerStats, ShapeClass, RANK_TOLERANCE,
};
use crate::sched::{subgrid, Calibration, ReadyQueue, AGING_BOUND};
use hsumma_core::{run_in_layouts, Distribution};
use hsumma_matrix::sparse::CsrMatrix;
use hsumma_matrix::{GridShape, Matrix};
use hsumma_model::{advise_sddmm_ranks, advise_spgemm_ranks, ModelParams, SparsityProfile};
use hsumma_runtime::{Comm, CommStats, JobOptions, PoolExec, PoolRun, RankPool, RuntimeError};
use hsumma_sparse::{gather_csr, scatter_csr, sddmm_2d, spgemm_2d, SparseConfig};
use hsumma_trace::{primary_comm_error, CommError, CommErrorKind, Tracer};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rows sampled per CSR operand when estimating a sparsity profile for
/// the planner.
const PROFILE_SAMPLES: usize = 64;

/// How the scheduler orders and places admitted jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict submission order, one job at a time on the whole pool —
    /// the pre-scheduler behaviour, kept as the benchmark baseline.
    Fifo,
    /// Earliest-deadline-first with priority classes and bounded aging,
    /// gang-scheduled onto carved sub-pools sized by the planner's
    /// strong-scaling curve. The default.
    EdfGang,
}

/// Whether submit-time deadline feasibility is enforced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admit any well-formed job (pre-scheduler behaviour).
    Open,
    /// Reject a deadline the calibrated model proves unmeetable —
    /// [`SubmitError::Infeasible`] names the margin. Applies to jobs the
    /// planner can price (dense GEMM under [`PlanHint::Auto`]); sparse
    /// and forced-plan jobs are admitted as before. The default.
    Feasible,
}

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Processor grid; the pool has `grid.size()` ranks.
    pub grid: GridShape,
    /// Admission queue bound (jobs waiting, excluding running ones).
    pub queue_capacity: usize,
    /// Record a per-job [`hsumma_trace::Trace`] into every report.
    pub trace_jobs: bool,
    /// Planner configuration (cost model and simulated platform).
    pub planner: PlannerConfig,
    /// Dispatch order and placement policy.
    pub sched: SchedPolicy,
    /// Submit-time deadline feasibility.
    pub admission: Admission,
}

impl ServerConfig {
    /// Defaults: queue of 32, no tracing, default planner, EDF + gang
    /// scheduling with feasibility admission.
    pub fn new(grid: GridShape) -> Self {
        ServerConfig {
            grid,
            queue_capacity: 32,
            trace_jobs: false,
            planner: PlannerConfig::default(),
            sched: SchedPolicy::EdfGang,
            admission: Admission::Feasible,
        }
    }
}

/// A queued job's operands, matching its spec's [`Workload`].
enum JobOperands {
    Dense {
        a: Matrix,
        b: Matrix,
    },
    /// SpGEMM operands with their sparsity profiles, sampled once at
    /// submission: the gang size and the route read the same sample.
    SpGemm {
        a: CsrMatrix,
        b: CsrMatrix,
        prof_a: SparsityProfile,
        prof_b: SparsityProfile,
    },
    Sddmm {
        s: CsrMatrix,
        a: Matrix,
        b: Matrix,
    },
}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    operands: JobOperands,
    cell: Arc<JobCell>,
    /// Sub-pool size the packing policy will give this job — the
    /// planner's preferred rank count for plannable dense jobs, the
    /// whole pool otherwise.
    ranks: usize,
    /// The planner's modeled duration at `ranks`, in model seconds;
    /// `0.0` when the job is not plannable (sparse / forced plans), in
    /// which case it contributes nothing to the feasibility backlog.
    model_secs: f64,
    /// The shape class the job was priced under, so its completion
    /// feeds that class's calibration cell; `None` for jobs the model
    /// cannot price.
    class: Option<ShapeClass>,
}

struct QueueState {
    ready: ReadyQueue<QueuedJob>,
    shutdown: bool,
    /// Jobs submitted (admitted) so far; also the next job id.
    submitted: u64,
    /// Submissions refused because the queue was full.
    rejected: u64,
    /// Submissions refused by feasibility admission.
    infeasible: u64,
    /// Dispatch waves that ran more than one job concurrently.
    gangs: u64,
    /// Jobs that ran on carved sub-pools (members of those waves).
    gang_jobs: u64,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals the scheduler: work available or shutdown requested.
    cv: Condvar,
}

/// The per-grid planner registry. The whole-pool grid's planner exists
/// from server start; gang scheduling lazily adds one planner per
/// sub-pool grid it actually uses, each with its own shape-class cache.
struct Planners {
    config: PlannerConfig,
    map: Mutex<HashMap<GridShape, Planner>>,
}

impl Planners {
    fn new(whole: GridShape, config: PlannerConfig) -> Self {
        let mut map = HashMap::new();
        map.insert(whole, Planner::new(whole, config.clone()));
        Planners {
            config,
            map: Mutex::new(map),
        }
    }

    /// Runs `f` with the planner for `grid`, creating it on first use.
    fn with<R>(&self, grid: GridShape, f: impl FnOnce(&mut Planner) -> R) -> R {
        let mut map = self.map.lock().expect("planner lock");
        let planner = map
            .entry(grid)
            .or_insert_with(|| Planner::new(grid, self.config.clone()));
        f(planner)
    }
}

/// Aggregate service counters (see also [`GemmServer::planner_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs admitted to the queue since start.
    pub submitted: u64,
    /// Submissions rejected by backpressure.
    pub rejected: u64,
    /// Submissions rejected by feasibility admission
    /// ([`SubmitError::Infeasible`]).
    pub infeasible: u64,
    /// Jobs currently waiting (excludes running jobs).
    pub queued: usize,
    /// Dispatch waves that ran more than one job concurrently on carved
    /// sub-pools.
    pub gangs: u64,
    /// Jobs executed as members of those concurrent waves.
    pub gang_jobs: u64,
}

/// A persistent GEMM job service over a pooled rank runtime. See the
/// [module docs](self).
pub struct GemmServer {
    shared: Arc<Shared>,
    planners: Arc<Planners>,
    calibration: Arc<Mutex<Calibration>>,
    scheduler: Option<JoinHandle<()>>,
    grid: GridShape,
    capacity: usize,
    admission: Admission,
    sched: SchedPolicy,
}

impl GemmServer {
    /// Starts the service: spawns the rank pool (surfacing
    /// [`RuntimeError::Spawn`] instead of aborting) and the scheduler.
    ///
    /// # Panics
    /// Panics if `queue_capacity == 0` (a queue that can hold nothing
    /// rejects everything).
    pub fn new(config: ServerConfig) -> Result<Self, RuntimeError> {
        assert!(config.queue_capacity > 0, "queue capacity must be ≥ 1");
        let pool = RankPool::new(config.grid.size())?;
        let planners = Arc::new(Planners::new(config.grid, config.planner.clone()));
        let calibration = Arc::new(Mutex::new(Calibration::new()));
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                ready: ReadyQueue::new(AGING_BOUND),
                shutdown: false,
                submitted: 0,
                rejected: 0,
                infeasible: 0,
                gangs: 0,
                gang_jobs: 0,
            }),
            cv: Condvar::new(),
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            let planners = Arc::clone(&planners);
            let calibration = Arc::clone(&calibration);
            let grid = config.grid;
            let trace_jobs = config.trace_jobs;
            let sched = config.sched;
            std::thread::Builder::new()
                .name("gemm-scheduler".into())
                .spawn(move || {
                    scheduler_loop(shared, planners, calibration, pool, grid, trace_jobs, sched)
                })
                .map_err(|source| RuntimeError::Spawn {
                    rank: config.grid.size(),
                    source,
                })?
        };
        Ok(GemmServer {
            shared,
            planners,
            calibration,
            scheduler: Some(scheduler),
            grid: config.grid,
            capacity: config.queue_capacity,
            admission: config.admission,
            sched: config.sched,
        })
    }

    /// The service's processor grid.
    pub fn grid(&self) -> GridShape {
        self.grid
    }

    /// Submits one dense GEMM job. Non-blocking admission control: the
    /// job is either queued (returning a [`JobHandle`]) or refused with
    /// the reason.
    ///
    /// `a` and `b` must match the spec's dimensions. Any positive
    /// `(m, k, n)` is served (see [`JobSpec`]).
    pub fn submit(&self, spec: JobSpec, a: Matrix, b: Matrix) -> Result<JobHandle, SubmitError> {
        self.validate_spec(&spec, Workload::DenseGemm)?;
        self.validate_shape("A", a.shape(), (spec.m, spec.k))?;
        self.validate_shape("B", b.shape(), (spec.k, spec.n))?;
        self.admit(spec, JobOperands::Dense { a, b })
    }

    /// Submits one sparse × sparse (SpGEMM) job; the product is CSR.
    /// The planner samples both operands' row densities and routes the
    /// job — densify-and-SUMMA or native 2-D SpGEMM — by predicted total
    /// time. A [`PlanHint::Force`] hint forces the densified path with
    /// exactly that dense plan.
    pub fn submit_spgemm(
        &self,
        spec: JobSpec,
        a: CsrMatrix,
        b: CsrMatrix,
    ) -> Result<JobHandle, SubmitError> {
        self.validate_spec(&spec, Workload::SpGemm)?;
        self.validate_shape("A", a.shape(), (spec.m, spec.k))?;
        self.validate_shape("B", b.shape(), (spec.k, spec.n))?;
        let prof_a = sparsity_profile(&a, PROFILE_SAMPLES);
        let prof_b = sparsity_profile(&b, PROFILE_SAMPLES);
        let operands = JobOperands::SpGemm {
            a,
            b,
            prof_a,
            prof_b,
        };
        self.admit(spec, operands)
    }

    /// Submits one SDDMM job `C = S ⊙ (A·B)`: sparse sample matrix `S`,
    /// dense operands; the product is CSR with exactly `S`'s pattern.
    pub fn submit_sddmm(
        &self,
        spec: JobSpec,
        s: CsrMatrix,
        a: Matrix,
        b: Matrix,
    ) -> Result<JobHandle, SubmitError> {
        self.validate_spec(&spec, Workload::Sddmm)?;
        self.validate_shape("S", s.shape(), (spec.m, spec.n))?;
        self.validate_shape("A", a.shape(), (spec.m, spec.k))?;
        self.validate_shape("B", b.shape(), (spec.k, spec.n))?;
        self.admit(spec, JobOperands::Sddmm { s, a, b })
    }

    /// Shared admission tail: queue bound, feasibility, id assignment,
    /// handle.
    fn admit(&self, spec: JobSpec, operands: JobOperands) -> Result<JobHandle, SubmitError> {
        // Price the job before taking the queue lock: the planner has
        // its own lock, and the estimate is memoized per shape class.
        let estimate = match (spec.workload, &spec.hint) {
            (Workload::DenseGemm, PlanHint::Auto) => Some(
                self.planners
                    .with(self.grid, |p| p.estimate(spec.m, spec.k, spec.n)),
            ),
            _ => None,
        };
        let class = estimate
            .is_some()
            .then(|| ShapeClass::of_gemm(self.grid.size(), spec.m, spec.k, spec.n));
        // Sparse jobs gang too: the nnz-aware strong-scaling sweep sizes
        // their sub-pool; anything else unpriceable keeps the whole pool.
        let ranks = match estimate {
            Some(e) => e.ranks,
            None => sparse_ranks(&self.planners.config, self.grid.size(), &spec, &operands)
                .unwrap_or(self.grid.size()),
        };
        let now = Instant::now();
        let mut st = self.shared.state.lock().expect("queue lock");
        if st.shutdown {
            return Err(SubmitError::Shutdown);
        }
        if st.ready.len() >= self.capacity {
            st.rejected += 1;
            return Err(SubmitError::QueueFull {
                capacity: self.capacity,
                queued: st.ready.len(),
            });
        }
        if self.admission == Admission::Feasible {
            if let (Some(est), Some(deadline)) = (estimate, spec.deadline) {
                // Feasibility bound: the job's own calibrated duration
                // plus the deadline-class work queued ahead of it. With
                // an empty queue this reduces to the invariant the tests
                // pin: admitted ⇒ calibrated(model) ≤ deadline.
                let calibration = self.calibration.lock().expect("calibration lock");
                let predicted = calibration.wall_secs(class, est.model_secs)
                    + backlog_ahead(&st.ready, &calibration, now + deadline, self.grid.size());
                drop(calibration);
                if predicted > deadline.as_secs_f64() {
                    st.infeasible += 1;
                    return Err(SubmitError::Infeasible {
                        predicted: Duration::from_secs_f64(predicted),
                        deadline,
                    });
                }
            }
        }
        let id = st.submitted;
        st.submitted += 1;
        let cell = JobCell::new();
        let job = QueuedJob {
            id,
            cell: Arc::clone(&cell),
            ranks,
            model_secs: estimate.map_or(0.0, |e| e.model_secs),
            class,
            operands,
            spec,
        };
        match (self.sched, job.spec.deadline) {
            // FIFO keeps strict submission order: every job goes to the
            // background lane, where order is always submission order.
            (SchedPolicy::EdfGang, Some(d)) => st.ready.push_deadline(now + d, job),
            _ => st.ready.push_background(now, job),
        }
        drop(st);
        self.shared.cv.notify_all();
        Ok(JobHandle::new(id, cell))
    }

    /// Spec-level admission validation — every rejection names its
    /// reason. `expected` is the workload implied by the entry point.
    ///
    /// Every workload accepts any positive extents the grid deals; the
    /// sparse ones must be square, because `spgemm_2d` and `sddmm_2d`
    /// take one `n`.
    fn validate_spec(&self, spec: &JobSpec, expected: Workload) -> Result<(), SubmitError> {
        let invalid = |reason: String| Err(SubmitError::Invalid(reason));
        if spec.workload != expected {
            return invalid(format!(
                "spec workload is {:?} but the submission entry point serves {:?}",
                spec.workload, expected
            ));
        }
        if spec.n == 0 || spec.m == 0 || spec.k == 0 {
            return invalid("dimensions must be positive".into());
        }
        if expected == Workload::DenseGemm {
            return Ok(());
        }
        if spec.m != spec.n || spec.k != spec.n {
            return invalid(format!(
                "sparse workloads are served square (m = k = n); got m={}, k={}, n={}",
                spec.m, spec.k, spec.n
            ));
        }
        Ok(())
    }

    /// One operand's shape against the spec's.
    fn validate_shape(
        &self,
        name: &str,
        got: (usize, usize),
        want: (usize, usize),
    ) -> Result<(), SubmitError> {
        if got != want {
            return Err(SubmitError::Invalid(format!(
                "{name} is {got:?}, spec says {want:?}"
            )));
        }
        Ok(())
    }

    /// Queue and admission counters at this instant.
    pub fn stats(&self) -> ServerStats {
        let st = self.shared.state.lock().expect("queue lock");
        ServerStats {
            submitted: st.submitted,
            rejected: st.rejected,
            infeasible: st.infeasible,
            queued: st.ready.len(),
            gangs: st.gangs,
            gang_jobs: st.gang_jobs,
        }
    }

    /// The whole-pool planner's cache/sweep counters (see
    /// [`PlannerStats`]). Sub-pool grids' planners are created lazily by
    /// gang scheduling and keep their own counters.
    pub fn planner_stats(&self) -> PlannerStats {
        self.planners.with(self.grid, |p| p.stats())
    }

    /// The scheduler's current *global* model-to-wall calibration ratio
    /// (`wall / model`, EWMA over completed plannable jobs; `1.0` until
    /// the first one). Feasibility admission resolves per shape class
    /// where a class has completions — this is the fallback ratio new
    /// classes start from (see [`Calibration`]).
    pub fn calibration_ratio(&self) -> f64 {
        self.calibration.lock().expect("calibration lock").ratio()
    }

    /// Graceful shutdown: stops admitting, runs every queued job to
    /// completion, then joins the scheduler and the rank pool.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("queue lock");
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GemmServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The sub-pool size a planner-routed sparse job is worth: the
/// nnz-aware strong-scaling sweep ([`advise_spgemm_ranks`] /
/// [`advise_sddmm_ranks`] over sampled operand profiles, tolerance
/// [`RANK_TOLERANCE`]). `None` for dense operands or a forced plan
/// (forced plans are bound to the configured grid and keep the whole
/// pool).
fn sparse_ranks(
    config: &PlannerConfig,
    p_max: usize,
    spec: &JobSpec,
    operands: &JobOperands,
) -> Option<usize> {
    if !matches!(spec.hint, PlanHint::Auto) {
        return None;
    }
    let params = ModelParams {
        alpha: config.platform.net.alpha,
        beta: config.platform.net.beta,
        gamma: config.platform.gamma,
    };
    let n = spec.n as f64;
    let block = spec.n.clamp(1, 32) as f64;
    let advice = match operands {
        JobOperands::Dense { .. } => return None,
        JobOperands::SpGemm { prof_a, prof_b, .. } => {
            advise_spgemm_ranks(&params, n, p_max, block, prof_a, prof_b, RANK_TOLERANCE)
        }
        JobOperands::Sddmm { s, .. } => {
            let ps = sparsity_profile(s, PROFILE_SAMPLES);
            advise_sddmm_ranks(&params, n, p_max, block, &ps, RANK_TOLERANCE)
        }
    };
    Some(advice.preferred)
}

/// Rank-seconds of deadline-class work queued ahead of `deadline_at`,
/// normalized by the pool width: under EDF every queued job with an
/// earlier deadline runs first, so its calibrated duration × its rank
/// share delays the candidate. Jobs the model cannot price
/// (`model_secs == 0`) contribute nothing — the bound stays a *provable*
/// under-estimate, so a rejection is always justified.
fn backlog_ahead(
    ready: &ReadyQueue<QueuedJob>,
    calibration: &Calibration,
    deadline_at: Instant,
    p: usize,
) -> f64 {
    let rank_seconds: f64 = ready
        .deadline_iter()
        .take_while(|(d, _)| *d <= deadline_at)
        .map(|(_, j)| calibration.wall_secs(j.class, j.model_secs) * j.ranks as f64)
        .sum();
    rank_seconds / p as f64
}

/// One dispatch wave: the popped head plus any backfilled jobs, with
/// the sub-pool size each will get.
struct Wave {
    jobs: Vec<QueuedJob>,
}

/// The scheduler: waves until shutdown *and* empty.
fn scheduler_loop(
    shared: Arc<Shared>,
    planners: Arc<Planners>,
    calibration: Arc<Mutex<Calibration>>,
    mut pool: RankPool,
    grid: GridShape,
    trace_jobs: bool,
    sched: SchedPolicy,
) {
    let p = grid.size();
    loop {
        let wave = {
            let mut st = shared.state.lock().expect("queue lock");
            let wave = loop {
                let now = Instant::now();
                if let Some((_, head)) = st.ready.pop(now) {
                    break collect_wave(&mut st, head, now, p, sched);
                }
                if st.shutdown {
                    return;
                }
                st = shared.cv.wait(st).expect("queue lock");
            };
            if wave.jobs.len() > 1 {
                st.gangs += 1;
                st.gang_jobs += wave.jobs.len() as u64;
            }
            wave
        };
        run_wave(wave, &planners, &calibration, &mut pool, grid, trace_jobs);
    }
}

/// Packs one wave under the queue lock: the head claims its preferred
/// rank count, then the leftover ranks are backfilled with the
/// highest-priority queued jobs that fit. A head that wants the whole
/// pool — or a queue with nothing else that fits — yields a singleton
/// wave, which runs on the whole pool.
fn collect_wave(
    st: &mut QueueState,
    head: QueuedJob,
    now: Instant,
    p: usize,
    sched: SchedPolicy,
) -> Wave {
    let mut jobs = vec![head];
    if sched == SchedPolicy::EdfGang {
        let mut remaining = p.saturating_sub(jobs[0].ranks);
        while remaining > 0 {
            match st.ready.pop_fitting(now, |j| j.ranks <= remaining) {
                Some((_, job)) => {
                    remaining -= job.ranks;
                    jobs.push(job);
                }
                None => break,
            }
        }
    }
    Wave { jobs }
}

/// Executes one wave: a singleton runs on the whole pool (a lone job
/// has no reason to leave ranks idle); a gang carves the pool and runs
/// every member concurrently, one dispatcher thread per sub-pool.
fn run_wave(
    mut wave: Wave,
    planners: &Planners,
    calibration: &Mutex<Calibration>,
    pool: &mut RankPool,
    grid: GridShape,
    trace_jobs: bool,
) {
    if wave.jobs.len() == 1 {
        let job = wave.jobs.pop().expect("singleton wave");
        finish_job(job, planners, calibration, pool, grid, trace_jobs);
        return;
    }
    let sizes: Vec<usize> = wave.jobs.iter().map(|j| j.ranks).collect();
    let subs = pool.carve(&sizes);
    std::thread::scope(|scope| {
        for (mut sub, job) in subs.into_iter().zip(wave.jobs.drain(..)) {
            scope.spawn(move || {
                let sub_grid = subgrid(sub.size());
                finish_job(job, planners, calibration, &mut sub, sub_grid, trace_jobs);
            });
        }
    });
}

/// Runs one job on its execution target, feeds the calibration, and
/// completes the client's handle.
fn finish_job<P: PoolExec>(
    job: QueuedJob,
    planners: &Planners,
    calibration: &Mutex<Calibration>,
    pool: &mut P,
    grid: GridShape,
    trace_jobs: bool,
) {
    let QueuedJob {
        id,
        spec,
        operands,
        cell,
        model_secs,
        class,
        ..
    } = job;
    cell.set_running();
    let run = JobRun {
        pool,
        grid,
        trace_jobs,
        id,
        spec: &spec,
        started: Instant::now(),
    };
    let outcome = execute(planners, run, operands);
    if model_secs > 0.0 {
        if let Ok(out) = &outcome {
            calibration.lock().expect("calibration lock").observe(
                class,
                model_secs,
                out.report.wall.as_secs_f64(),
            );
        }
    }
    cell.finish(outcome);
}

/// One job's execution context: the (sub-)pool and grid it runs on, its
/// id and spec, and when execution began. The operands travel beside it
/// by value, so the workload paths can hand them to the ranks.
struct JobRun<'a, P> {
    pool: &'a mut P,
    grid: GridShape,
    trace_jobs: bool,
    id: u64,
    spec: &'a JobSpec,
    started: Instant,
}

/// Plan → pooled SPMD run (each rank cutting its own tiles) → gather,
/// routed by workload.
fn execute<P: PoolExec>(
    planners: &Planners,
    run: JobRun<'_, P>,
    operands: JobOperands,
) -> Result<JobOutput, JobError> {
    let (spec, grid, n) = (run.spec, run.grid, run.spec.n);
    let forced = |plan| Planned {
        plan,
        cached: false,
    };
    match operands {
        JobOperands::Dense { a, b } => {
            let planned = match spec.hint {
                PlanHint::Auto => planners.with(grid, |p| p.plan_gemm(spec.m, spec.k, n)),
                PlanHint::Force(plan) => forced(plan),
            };
            run_dense(run, planned, a, b, false)
        }
        JobOperands::SpGemm {
            a,
            b,
            prof_a,
            prof_b,
        } => {
            // A forced dense plan bypasses the scoreboard: densify and
            // run exactly that plan. Otherwise the scoreboard says
            // whether the operands are full enough that dense panels win.
            let planned = match spec.hint {
                PlanHint::Force(plan) => forced(plan),
                PlanHint::Auto => {
                    let sp = planners.with(grid, |p| p.plan_spgemm(n, &prof_a, &prof_b));
                    match sp.dense {
                        Some(planned) => planned,
                        None => return run_spgemm(run, sp.block, &a, &b),
                    }
                }
            };
            run_dense(run, planned, a.to_dense(), b.to_dense(), true)
        }
        JobOperands::Sddmm { s, a, b } => {
            let block = planners.with(grid, |p| p.sddmm_block(n));
            run_sddmm(run, block, &s, a, b)
        }
    }
}

/// Dense schedule on dense tiles. With `sparsify`, the operands were
/// densified CSR inputs and the product converts back to CSR — the
/// product contract follows the submission, not the execution path.
///
/// Operands are dealt by the plan's own layouts
/// ([`PlannedAlgo::layouts`](hsumma_core::PlannedAlgo::layouts): the
/// checkerboard for SUMMA and HSUMMA, Cannon's aligned tiles, COSMA's
/// bricks — each an exact cover for any extents) and the plan runs
/// through [`run_in_layouts`], so the job moves only its schedule's own
/// traffic: no alignment shifts, no brick redistribution. Each rank cuts
/// its own tiles from the shared operands and hands them over owned:
/// that cut is the only copy of an operand between submission and the
/// first multiply, Cannon included. `C` is gathered by the plan's `C`
/// layout.
fn run_dense<P: PoolExec>(
    run: JobRun<'_, P>,
    planned: Planned,
    a: Matrix,
    b: Matrix,
    sparsify: bool,
) -> Result<JobOutput, JobError> {
    let (m, k, n, grid) = (run.spec.m, run.spec.k, run.spec.n, run.grid);
    let plan = planned.plan;
    let layouts = plan.layouts(grid, m, n, k);
    let (da, db, dc) = (layouts.a, layouts.b, layouts.c);
    let (a, b) = (Arc::new(a), Arc::new(b));
    let serve_plan = if sparsify {
        ServePlan::Densified(plan)
    } else {
        ServePlan::Dense(plan)
    };
    let (tiles, report) = run_pooled(run, serve_plan, planned.cached, move |comm| {
        let at = da.local_tile(&*a, comm.rank());
        let bt = db.local_tile(&*b, comm.rank());
        run_in_layouts(comm, grid, m, n, k, at, bt, &plan)
    })?;
    let c = dc.gather(&tiles);
    let c = if sparsify {
        Product::Sparse(CsrMatrix::from_dense(&c))
    } else {
        Product::Dense(c)
    };
    Ok(JobOutput { c, report })
}

/// Native 2-D SpGEMM on CSR tiles.
fn run_spgemm<P: PoolExec>(
    run: JobRun<'_, P>,
    block: usize,
    a: &CsrMatrix,
    b: &CsrMatrix,
) -> Result<JobOutput, JobError> {
    let (n, grid) = (run.spec.n, run.grid);
    let at = csr_tiles(grid, a);
    let bt = csr_tiles(grid, b);
    let cfg = SparseConfig {
        block,
        ..SparseConfig::default()
    };
    let (tiles, report) = run_pooled(run, ServePlan::SpGemm { block }, false, move |comm| {
        let r = comm.rank();
        spgemm_2d(comm, grid, n, &at[r], &bt[r], &cfg)
    })?;
    Ok(JobOutput {
        c: Product::Sparse(gather_csr_tiles(grid, tiles)),
        report,
    })
}

/// 2-D SDDMM: CSR sample tiles, dense operand tiles that each rank cuts
/// from the shared operands as [`run_dense`] does.
fn run_sddmm<P: PoolExec>(
    run: JobRun<'_, P>,
    block: usize,
    s: &CsrMatrix,
    a: Matrix,
    b: Matrix,
) -> Result<JobOutput, JobError> {
    let (n, grid) = (run.spec.n, run.grid);
    let st = csr_tiles(grid, s);
    let dist = Distribution::grid2d(grid, n, n);
    let (a, b) = (Arc::new(a), Arc::new(b));
    let cfg = SparseConfig {
        block,
        ..SparseConfig::default()
    };
    let (tiles, report) = run_pooled(run, ServePlan::Sddmm { block }, false, move |comm| {
        let r = comm.rank();
        let at = dist.local_tile(&*a, r);
        let bt = dist.local_tile(&*b, r);
        sddmm_2d(comm, grid, n, &st[r], &at, &bt, &cfg)
    })?;
    Ok(JobOutput {
        c: Product::Sparse(gather_csr_tiles(grid, tiles)),
        report,
    })
}

/// `m`'s checkerboard CSR tiles, shareable with every rank.
fn csr_tiles(grid: GridShape, m: &CsrMatrix) -> Arc<Vec<Arc<CsrMatrix>>> {
    Arc::new(scatter_csr(grid, m).into_iter().map(Arc::new).collect())
}

/// Gathers the ranks' CSR result tiles, unwrapping each `Arc` (the rank
/// that built a tile holds its only reference by now) instead of
/// deep-cloning it.
fn gather_csr_tiles(grid: GridShape, tiles: Vec<Arc<CsrMatrix>>) -> CsrMatrix {
    let tiles: Vec<CsrMatrix> = tiles.into_iter().map(Arc::unwrap_or_clone).collect();
    gather_csr(grid, &tiles)
}

/// The pooled-run tail every workload shares: run the SPMD closure under
/// the job's deadline/fault options with per-job stat demarcation, then
/// either hand back the per-rank values with a `Completed` report or
/// diagnose the primary failure into a [`JobError`] carrying the report.
fn run_pooled<P: PoolExec, T: Send + 'static>(
    run: JobRun<'_, P>,
    plan: ServePlan,
    plan_cached: bool,
    f: impl Fn(&mut Comm) -> Result<T, CommError> + Send + Sync + 'static,
) -> Result<(Vec<T>, JobReport), JobError> {
    let JobRun {
        pool,
        grid,
        trace_jobs,
        id,
        spec,
        started,
    } = run;
    let tracer = if trace_jobs {
        Tracer::new(grid.size())
    } else {
        Tracer::disabled()
    };
    let mut opts = JobOptions::default();
    if let Some(d) = spec.deadline {
        opts = opts.with_deadline(d);
    }
    if let Some(fp) = &spec.faults {
        opts = opts.with_faults(Arc::clone(fp));
    }
    let run = pool.run_job(&tracer, &opts, f);
    let PoolRun { results, stats } = match run {
        Ok(run) => run,
        Err(e) => return Err(JobError::Execution(e.to_string())),
    };
    let report = |outcome: JobOutcome, stats: Vec<CommStats>| {
        let merged = stats
            .iter()
            .fold(CommStats::default(), |acc, s| acc.merge(s));
        JobReport {
            job_id: id,
            plan,
            plan_desc: plan.describe(),
            plan_cached,
            wall: started.elapsed(),
            timeouts: merged.timeouts,
            cancelled: merged.cancelled,
            faults_injected: merged.faults_injected,
            stats,
            trace: trace_jobs.then(|| tracer.collect()),
            outcome,
        }
    };
    let errors: Vec<&CommError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    match primary_comm_error(errors) {
        None => {
            let values: Vec<T> = results
                .into_iter()
                .map(|r| match r {
                    Ok(v) => v,
                    Err(_) => unreachable!("no errors means every rank produced a value"),
                })
                .collect();
            Ok((values, report(JobOutcome::Completed, stats)))
        }
        Some(primary) => {
            let detail = primary.to_string();
            match primary.kind() {
                CommErrorKind::Timeout => Err(JobError::Timeout {
                    detail,
                    report: Box::new(report(JobOutcome::TimedOut, stats)),
                }),
                CommErrorKind::Cancelled => Err(JobError::Cancelled {
                    detail,
                    report: Box::new(report(JobOutcome::Cancelled, stats)),
                }),
                // A dead or poisoned peer without any timeout is an
                // execution failure (e.g. a kill-rank fault with no
                // deadline racing ahead of the peers' own timeouts).
                CommErrorKind::PeerDead | CommErrorKind::Shutdown => {
                    Err(JobError::Execution(detail))
                }
            }
        }
    }
}
