//! A persistent GEMM job service — the serving layer over the HSUMMA
//! stack.
//!
//! Everything below this crate treats one multiply as the whole program:
//! `Runtime::run` spawns `p` threads, executes one SPMD function, joins.
//! A long-lived process that answers a *stream* of multiply requests
//! wants the opposite lifecycle, and this crate provides it in three
//! layers:
//!
//! * **Pooled execution** — a [`hsumma_runtime::RankPool`] of `p` rank
//!   threads created once at server start; each job is dispatched to the
//!   living world and demarcated by an epoch (per-job communication
//!   stats, per-job traces, stale-message purging);
//! * **Job service** — [`GemmServer`] with `submit(JobSpec, A, B) →
//!   JobHandle`: a bounded admission gate that rejects with a reason
//!   when full (backpressure, never silent blocking) and, by default,
//!   rejects deadlines the calibrated cost model proves unmeetable
//!   ([`SubmitError::Infeasible`]); an earliest-deadline-first ready
//!   queue with an aging background class; gang scheduling that carves
//!   the pool into sub-pools sized by the planner's strong-scaling
//!   curve so small jobs run concurrently (see `docs/scheduling.md`);
//!   job states `Queued → Running → Done/Failed`, and a per-job
//!   [`JobReport`] carrying the executed plan, wall time and this job's
//!   [`CommStats`] deltas. Beyond dense GEMM the same queue serves
//!   sparse workloads:
//!   `submit_spgemm(spec, A, B)` with CSR operands (routed by the
//!   nnz-aware scoreboard to densify-and-SUMMA or the native 2-D SpGEMM
//!   schedule) and `submit_sddmm(spec, S, A, B)`, both yielding a
//!   [`Product::Sparse`] and honouring deadlines and fault plans exactly
//!   like dense jobs;
//! * **Model-driven planning** — the [`Planner`] picks SUMMA vs HSUMMA
//!   vs Cannon and the `(G, B, b)` grouping from the paper's closed-form
//!   cost models, refines HSUMMA's `G` on the timing simulator, and
//!   memoizes the result per `(p, shape class)` in a plan cache so only
//!   the first job of a shape pays for planning.
//!
//! ```
//! use hsumma_matrix::{seeded_uniform, GridShape};
//! use hsumma_serve::{GemmServer, JobSpec, ServerConfig};
//!
//! let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
//! let a = seeded_uniform(16, 16, 1);
//! let b = seeded_uniform(16, 16, 2);
//! let handle = server.submit(JobSpec::square(16), a, b).unwrap();
//! let out = handle.wait().unwrap();
//! assert_eq!(out.c.shape(), (16, 16));
//! println!("ran {} in {:?}", out.report.plan_desc, out.report.wall);
//! ```
//!
//! [`CommStats`]: hsumma_runtime::CommStats

pub mod job;
pub mod planner;
pub mod sched;
pub mod server;

pub use job::{
    JobError, JobHandle, JobOutcome, JobOutput, JobReport, JobSpec, JobState, PlanHint, Product,
    ServePlan, SubmitError, Workload,
};
pub use planner::{
    sparsity_profile, JobEstimate, Planned, Planner, PlannerConfig, PlannerStats, ShapeClass,
    SparsePlanned, RANK_TOLERANCE,
};
pub use sched::{subgrid, Calibration, PriorityClass, ReadyQueue, AGING_BOUND};
pub use server::{Admission, GemmServer, SchedPolicy, ServerConfig, ServerStats};
