//! Job vocabulary: what a client submits, how it tracks progress, and
//! what it gets back.
//!
//! A *job* is one multiply — dense `C = A·B`, sparse `C = A·B`
//! (SpGEMM), or sampled `C = S ⊙ (A·B)` (SDDMM), per its [`Workload`].
//! The client hands the server a [`JobSpec`] plus the operands and
//! receives a [`JobHandle`] — a cheap, clonable ticket it can poll
//! ([`JobHandle::state`]) or block on ([`JobHandle::wait`]). Completion
//! yields a [`JobOutput`]: the [`Product`] (dense or CSR, matching the
//! workload) and a [`JobReport`] describing exactly what the service did
//! for this job — the plan it ran, the wall time, and the per-rank
//! communication deltas of this job alone (the pool's epoch demarcation
//! guarantees the counters contain nothing from neighbouring jobs).

use hsumma_core::PlannedAlgo;
use hsumma_matrix::sparse::CsrMatrix;
use hsumma_matrix::Matrix;
use hsumma_runtime::CommStats;
use hsumma_trace::{FaultPlan, Trace};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Which multiply a job runs — and therefore which submission entry
/// point it must arrive through and which [`Product`] it yields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Dense `C = A·B` via [`GemmServer::submit`]; dense product.
    ///
    /// [`GemmServer::submit`]: crate::GemmServer::submit
    DenseGemm,
    /// Sparse `C = A·B` via [`GemmServer::submit_spgemm`]; CSR product.
    /// The nnz-aware planner decides densify-and-SUMMA vs native 2-D
    /// SpGEMM per job from sampled sparsity profiles.
    ///
    /// [`GemmServer::submit_spgemm`]: crate::GemmServer::submit_spgemm
    SpGemm,
    /// Sampled `C = S ⊙ (A·B)` via [`GemmServer::submit_sddmm`]; CSR
    /// product with exactly `S`'s pattern.
    ///
    /// [`GemmServer::submit_sddmm`]: crate::GemmServer::submit_sddmm
    Sddmm,
}

/// What the client wants multiplied, before operands are attached.
///
/// The dimensions describe `C[m × n] = A[m × k] · B[k × n]`. Every
/// workload accepts any positive extents, dealt over the grid by
/// `chunk_range`; the planner scores the grid plans and the COSMA brick
/// schedule on every shape. The sparse workloads must be square and
/// reject others at submission with a reason.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Columns of `C` (and of `B`).
    pub n: usize,
    /// Rows of `C` (and of `A`).
    pub m: usize,
    /// Inner (contraction) dimension.
    pub k: usize,
    /// Which multiply this job runs; must match the submission entry
    /// point (`submit` / `submit_spgemm` / `submit_sddmm`).
    pub workload: Workload,
    /// How much freedom the planner has.
    pub hint: PlanHint,
    /// Wall-clock budget from dispatch to gathered product. When the job
    /// overruns it, every rank unwinds with `CommError::Timeout`/
    /// `Cancelled`, the job fails with [`JobError::Timeout`], and the
    /// pool goes on to the next job. `None` = unbounded (pre-existing
    /// behaviour; a stalled job then blocks the FIFO, exactly as a
    /// deadlocked `mpirun` would).
    pub deadline: Option<Duration>,
    /// Deterministic fault schedule injected at this job's send paths —
    /// the service-level entry point to the fault machinery (see
    /// `docs/faults.md`). Faulty jobs should set a `deadline`: a dropped
    /// message otherwise stalls the job forever.
    pub faults: Option<Arc<FaultPlan>>,
}

impl JobSpec {
    /// A square `n × n` dense GEMM job with the planner free to choose.
    pub fn square(n: usize) -> Self {
        JobSpec {
            n,
            m: n,
            k: n,
            workload: Workload::DenseGemm,
            hint: PlanHint::Auto,
            deadline: None,
            faults: None,
        }
    }

    /// A general `C[m × n] = A[m × k] · B[k × n]` dense GEMM job with
    /// the planner free to choose.
    pub fn gemm(m: usize, k: usize, n: usize) -> Self {
        JobSpec {
            m,
            k,
            ..JobSpec::square(n)
        }
    }

    /// A square `n × n` sparse × sparse (SpGEMM) job.
    pub fn spgemm(n: usize) -> Self {
        JobSpec {
            workload: Workload::SpGemm,
            ..JobSpec::square(n)
        }
    }

    /// A square `n × n` sampled dense-dense (SDDMM) job.
    pub fn sddmm(n: usize) -> Self {
        JobSpec {
            workload: Workload::Sddmm,
            ..JobSpec::square(n)
        }
    }

    /// Same spec with a different planning hint.
    pub fn with_hint(mut self, hint: PlanHint) -> Self {
        self.hint = hint;
        self
    }

    /// Same spec with a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Same spec with an injected fault schedule.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// Client guidance to the planner.
#[derive(Clone, Copy, Debug)]
pub enum PlanHint {
    /// Let the planner choose (cost models + simulator refinement,
    /// memoized per shape class).
    Auto,
    /// Run exactly this plan, bypassing the planner. The escape hatch for
    /// experiments and A/B comparisons; an ill-suited plan fails *this
    /// job*, never the service.
    Force(PlannedAlgo),
}

/// Lifecycle of a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting in the FIFO queue.
    Queued,
    /// Executing on the rank pool.
    Running,
    /// Finished; the output is (or was) available via [`JobHandle::wait`].
    Done,
    /// Failed; [`JobHandle::wait`] returns the [`JobError`].
    Failed,
}

/// Why a submission was refused at the door. Admission control is
/// synchronous: a rejected job costs the client one mutex acquisition and
/// nothing of the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — backpressure. Retry later or
    /// shed load; the error carries the numbers a client needs to decide.
    QueueFull {
        /// Configured queue bound.
        capacity: usize,
        /// Jobs waiting right now (= capacity when rejected).
        queued: usize,
    },
    /// The spec or operands cannot be executed on this service.
    Invalid(String),
    /// Feasibility admission rejected the deadline: the planner's
    /// calibrated duration prediction, plus the work already queued
    /// ahead of this deadline, provably overruns it. The two fields name
    /// the margin — `predicted ≥ deadline` always holds here, and
    /// `predicted − deadline` is how much the client must relax (or how
    /// much queue must drain) before resubmitting.
    Infeasible {
        /// Modeled completion time from now: queue backlog ahead of this
        /// deadline plus this job's own predicted duration.
        predicted: Duration,
        /// The deadline the client asked for.
        deadline: Duration,
    },
    /// The service is shutting down and takes no new work.
    Shutdown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity, queued } => write!(
                f,
                "admission queue full ({queued}/{capacity} jobs queued); retry later"
            ),
            SubmitError::Invalid(reason) => write!(f, "invalid job: {reason}"),
            SubmitError::Infeasible {
                predicted,
                deadline,
            } => write!(
                f,
                "deadline infeasible: predicted completion {predicted:?} vs deadline \
                 {deadline:?} (short by {:?})",
                predicted.saturating_sub(*deadline)
            ),
            SubmitError::Shutdown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an admitted job did not produce a product.
#[derive(Clone, Debug)]
pub enum JobError {
    /// The job failed while executing (e.g. a rank panicked on a plan
    /// precondition). The service survives; the message names the cause.
    Execution(String),
    /// The job overran its deadline. `detail` names the primary stalled
    /// communication edge (`rank ← peer, ctx/tag/epoch`); the report
    /// carries the per-rank stats — including the `timeouts` and
    /// `faults_injected` counters — of the failed run.
    Timeout {
        /// The primary stalled edge, human-readable.
        detail: String,
        /// What the service observed while the job ran and failed.
        report: Box<JobReport>,
    },
    /// The job was cancelled (watchdog or explicit) before completing.
    Cancelled {
        /// The primary cancelled operation, human-readable.
        detail: String,
        /// What the service observed while the job ran and failed.
        report: Box<JobReport>,
    },
    /// The service shut down before the job ran.
    Shutdown,
}

impl JobError {
    /// The failed run's report, when the job got far enough to have one
    /// (deadline and cancellation failures do; panics and shutdown don't).
    pub fn report(&self) -> Option<&JobReport> {
        match self {
            JobError::Timeout { report, .. } | JobError::Cancelled { report, .. } => Some(report),
            _ => None,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Execution(msg) => write!(f, "job failed: {msg}"),
            JobError::Timeout { detail, .. } => write!(f, "job timed out: {detail}"),
            JobError::Cancelled { detail, .. } => write!(f, "job cancelled: {detail}"),
            JobError::Shutdown => write!(f, "service shut down before the job ran"),
        }
    }
}

impl std::error::Error for JobError {}

/// How one job's execution resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every rank finished and the product was gathered.
    Completed,
    /// At least one rank hit the job deadline; the primary error was a
    /// timeout.
    TimedOut,
    /// The job was cancelled (primary error `CommError::Cancelled`)
    /// before the deadline diagnosis could be made.
    Cancelled,
}

/// The schedule one job actually executed — dense plans come from the
/// model-driven [`Planner`], sparse ones from the nnz-aware scoreboard.
///
/// [`Planner`]: crate::Planner
#[derive(Clone, Copy, Debug)]
pub enum ServePlan {
    /// A dense GEMM plan on dense operands.
    Dense(PlannedAlgo),
    /// A dense GEMM plan on *densified* CSR operands: the sparse
    /// scoreboard predicted the operands were full enough that shipping
    /// 8-byte dense panels beats CSR's 12-byte entries.
    Densified(PlannedAlgo),
    /// Native 2-D SpGEMM with pivot panel width `block`.
    SpGemm {
        /// Pivot panel width.
        block: usize,
    },
    /// 2-D SDDMM with pivot panel width `block`.
    Sddmm {
        /// Pivot panel width.
        block: usize,
    },
}

impl ServePlan {
    /// Human-readable plan summary.
    pub fn describe(&self) -> String {
        match self {
            ServePlan::Dense(p) => p.describe(),
            ServePlan::Densified(p) => format!("densify→{}", p.describe()),
            ServePlan::SpGemm { block } => format!("spgemm_2d(b={block})"),
            ServePlan::Sddmm { block } => format!("sddmm_2d(b={block})"),
        }
    }
}

/// What the service did for one job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Service-assigned job id (submission order).
    pub job_id: u64,
    /// The plan that executed.
    pub plan: ServePlan,
    /// Human-readable plan summary (e.g. `hsumma(G=2x2, B=8, b=8)`).
    pub plan_desc: String,
    /// Whether the plan came from the cache (`true`) or was computed —
    /// model evaluation plus simulator sweep — for this job (`false`).
    pub plan_cached: bool,
    /// Wall time from dequeue to gathered product (scatter + SPMD run +
    /// gather; queueing time excluded).
    pub wall: Duration,
    /// Per-rank communication statistics of this job alone.
    pub stats: Vec<CommStats>,
    /// This job's spans, when the service traces jobs.
    pub trace: Option<Trace>,
    /// How the run resolved. `Completed` reports ride in a
    /// [`JobOutput`]; `TimedOut`/`Cancelled` reports ride in the
    /// corresponding [`JobError`] variant.
    pub outcome: JobOutcome,
    /// Blocking waits that hit the job deadline, summed over ranks.
    pub timeouts: u64,
    /// Operations aborted by cancellation, summed over ranks.
    pub cancelled: u64,
    /// Faults the job's [`FaultPlan`] injected, summed over ranks.
    pub faults_injected: u64,
}

impl JobReport {
    /// All ranks' stats merged into one.
    pub fn merged_stats(&self) -> CommStats {
        let mut total = CommStats::default();
        for s in &self.stats {
            total.merge_in_place(s);
        }
        total
    }
}

/// A finished job's product, typed by workload: dense GEMM jobs yield
/// [`Product::Dense`], SpGEMM and SDDMM jobs yield [`Product::Sparse`]
/// (even when the sparse planner chose to densify internally — the
/// product contract follows the *submission*, not the execution path).
#[derive(Clone, Debug, PartialEq)]
pub enum Product {
    /// A dense result matrix.
    Dense(Matrix),
    /// A CSR result matrix.
    Sparse(CsrMatrix),
}

impl Product {
    /// `(rows, cols)` of the product, either representation.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            Product::Dense(m) => m.shape(),
            Product::Sparse(m) => m.shape(),
        }
    }

    /// The dense product.
    ///
    /// # Panics
    /// Panics if the product is sparse (SpGEMM/SDDMM jobs).
    pub fn dense(&self) -> &Matrix {
        match self {
            Product::Dense(m) => m,
            Product::Sparse(_) => panic!("job produced a sparse product, not a dense one"),
        }
    }

    /// The CSR product.
    ///
    /// # Panics
    /// Panics if the product is dense (plain GEMM jobs).
    pub fn sparse(&self) -> &CsrMatrix {
        match self {
            Product::Sparse(m) => m,
            Product::Dense(_) => panic!("job produced a dense product, not a sparse one"),
        }
    }
}

/// A completed job: the product and the report.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The global product (dense or CSR, per the job's [`Workload`]).
    pub c: Product,
    /// What the service did to produce it.
    pub report: JobReport,
}

/// The shared completion cell behind a [`JobHandle`].
pub(crate) struct JobCell {
    slot: Mutex<Slot>,
    cv: Condvar,
}

/// The job's state and how many [`JobHandle`]s share the cell.
struct Slot {
    state: CellState,
    handles: usize,
}

enum CellState {
    Queued,
    Running,
    // Boxed: a JobOutput carries a whole result matrix plus a report,
    // dwarfing the other variants.
    Done(Box<JobOutput>),
    Failed(JobError),
    /// The output moved to the last handle's wait, which consumed that
    /// handle, so no handle is left to see this state.
    Collected,
}

impl JobCell {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(JobCell {
            slot: Mutex::new(Slot {
                state: CellState::Queued,
                handles: 0,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Slot> {
        self.slot.lock().expect("job cell lock")
    }

    pub(crate) fn set_running(&self) {
        self.lock().state = CellState::Running;
        self.cv.notify_all();
    }

    pub(crate) fn finish(&self, outcome: Result<JobOutput, JobError>) {
        self.lock().state = match outcome {
            Ok(out) => CellState::Done(Box::new(out)),
            Err(e) => CellState::Failed(e),
        };
        self.cv.notify_all();
    }
}

/// The client's ticket for one submitted job. Clonable; any clone may
/// poll, and each may wait once, every waiter seeing the same outcome.
pub struct JobHandle {
    id: u64,
    cell: Arc<JobCell>,
}

impl JobHandle {
    /// A new handle on `cell`.
    pub(crate) fn new(id: u64, cell: Arc<JobCell>) -> Self {
        cell.lock().handles += 1;
        JobHandle { id, cell }
    }

    /// Service-assigned job id (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current lifecycle state, without blocking.
    pub fn state(&self) -> JobState {
        match self.cell.lock().state {
            CellState::Queued => JobState::Queued,
            CellState::Running => JobState::Running,
            CellState::Done(_) | CellState::Collected => JobState::Done,
            CellState::Failed(_) => JobState::Failed,
        }
    }

    /// Blocks until the job completes and returns its outcome, consuming
    /// the handle. The last handle of a job to wait receives the output
    /// itself, the gathered product buffer included; a handle that still
    /// has live clones receives a copy, so every clone can wait.
    pub fn wait(self) -> Result<JobOutput, JobError> {
        let mut slot = self.cell.lock();
        loop {
            match &slot.state {
                CellState::Done(_) if slot.handles == 1 => break,
                CellState::Done(out) => return Ok((**out).clone()),
                CellState::Failed(e) => return Err(e.clone()),
                CellState::Collected => unreachable!("a collected job has no handle left"),
                CellState::Queued | CellState::Running => {
                    slot = self.cell.cv.wait(slot).expect("job cell lock")
                }
            }
        }
        match std::mem::replace(&mut slot.state, CellState::Collected) {
            CellState::Done(out) => Ok(*out),
            _ => unreachable!("the loop breaks on a finished job only"),
        }
    }
}

impl Clone for JobHandle {
    fn clone(&self) -> Self {
        JobHandle::new(self.id, Arc::clone(&self.cell))
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        // Never panic in drop: every update of the slot is one assignment,
        // so a poisoned lock still guards a consistent count.
        let mut slot = self.cell.slot.lock().unwrap_or_else(|e| e.into_inner());
        slot.handles -= 1;
    }
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("state", &self.state())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_observes_lifecycle() {
        let cell = JobCell::new();
        let h = JobHandle::new(7, Arc::clone(&cell));
        assert_eq!(h.state(), JobState::Queued);
        cell.set_running();
        assert_eq!(h.state(), JobState::Running);
        cell.finish(Err(JobError::Shutdown));
        assert_eq!(h.state(), JobState::Failed);
        assert!(matches!(h.wait().unwrap_err(), JobError::Shutdown));
    }

    #[test]
    fn wait_blocks_until_finish_and_all_clones_see_it() {
        let cell = JobCell::new();
        let h = JobHandle::new(1, Arc::clone(&cell));
        let h2 = h.clone();
        let waiter = std::thread::spawn(move || h2.wait());
        cell.finish(Err(JobError::Execution("boom".into())));
        let got = waiter.join().expect("waiter thread");
        assert!(matches!(got.unwrap_err(), JobError::Execution(msg) if msg == "boom"));
        assert!(matches!(h.wait().unwrap_err(), JobError::Execution(msg) if msg == "boom"));
    }

    /// A finished dense job's output, and where its product's buffer
    /// lives.
    fn dense_output() -> (JobOutput, *const f64) {
        let c = Matrix::zeros(16, 16);
        let at = c.as_slice().as_ptr();
        let report = JobReport {
            job_id: 3,
            plan: ServePlan::SpGemm { block: 4 },
            plan_desc: String::new(),
            plan_cached: false,
            wall: std::time::Duration::ZERO,
            stats: Vec::new(),
            trace: None,
            outcome: JobOutcome::Completed,
            timeouts: 0,
            cancelled: 0,
            faults_injected: 0,
        };
        let out = JobOutput {
            c: Product::Dense(c),
            report,
        };
        (out, at)
    }

    #[test]
    fn a_lone_handle_receives_the_gathered_buffer_itself() {
        let cell = JobCell::new();
        let h = JobHandle::new(3, Arc::clone(&cell));
        let (out, at) = dense_output();
        cell.finish(Ok(out));
        let got = h.wait().expect("finished");
        assert_eq!(
            got.c.dense().as_slice().as_ptr(),
            at,
            "the product was copied"
        );
    }

    #[test]
    fn the_last_of_several_handles_receives_the_buffer_the_others_copies() {
        let cell = JobCell::new();
        let h = JobHandle::new(3, Arc::clone(&cell));
        let (h2, h3) = (h.clone(), h.clone());
        let (out, at) = dense_output();
        cell.finish(Ok(out));
        for early in [h2, h3] {
            let copy = early.wait().expect("finished");
            assert_ne!(
                copy.c.dense().as_slice().as_ptr(),
                at,
                "a live clone lost the output"
            );
        }
        assert_eq!(h.state(), JobState::Done);
        let last = h.wait().expect("finished");
        assert_eq!(
            last.c.dense().as_slice().as_ptr(),
            at,
            "the product was copied"
        );
    }

    #[test]
    fn submit_errors_render_reasons() {
        let e = SubmitError::QueueFull {
            capacity: 4,
            queued: 4,
        };
        assert!(e.to_string().contains("4/4"));
        assert!(SubmitError::Invalid("m != n".into())
            .to_string()
            .contains("m != n"));
    }

    #[test]
    fn square_spec_is_square() {
        let s = JobSpec::square(64);
        assert_eq!((s.m, s.k, s.n), (64, 64, 64));
        assert!(matches!(s.hint, PlanHint::Auto));
        assert_eq!(s.workload, Workload::DenseGemm);
    }

    #[test]
    fn workload_constructors_set_the_workload() {
        assert_eq!(JobSpec::spgemm(64).workload, Workload::SpGemm);
        assert_eq!(JobSpec::sddmm(64).workload, Workload::Sddmm);
        assert_eq!((JobSpec::sddmm(64).m, JobSpec::sddmm(64).n), (64, 64));
    }

    #[test]
    fn serve_plan_describe_names_the_schedule() {
        assert_eq!(ServePlan::SpGemm { block: 8 }.describe(), "spgemm_2d(b=8)");
        assert_eq!(ServePlan::Sddmm { block: 4 }.describe(), "sddmm_2d(b=4)");
    }

    #[test]
    fn product_accessors_type_check() {
        let d = Product::Dense(Matrix::zeros(3, 5));
        assert_eq!(d.shape(), (3, 5));
        assert_eq!(d.dense().shape(), (3, 5));
        let s = Product::Sparse(CsrMatrix::zeros(4, 6));
        assert_eq!(s.shape(), (4, 6));
        assert_eq!(s.sparse().nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "sparse product")]
    fn dense_accessor_rejects_sparse_products() {
        let _ = Product::Sparse(CsrMatrix::zeros(2, 2)).dense();
    }
}
