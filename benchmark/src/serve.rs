//! `serve-mix`: two closed-loop clients against a default `GemmServer`
//! (EDF + gangs + feasibility admission) on a p = 4 pool.
//!
//! Each client keeps four jobs outstanding and submits the next only
//! when the oldest completes. Jobs come from a deck of twenty — ten
//! small dense, four medium dense, two rectangular (non-divisible, so
//! the brick schedule), two SpGEMM, two SDDMM — reshuffled from the seed
//! every cycle, so every run sees exactly the same mix whatever the
//! seed. Every second job carries a 5 s deadline. This is the only
//! workload with queueing, planning, sub-pool carving and the sparse and
//! brick paths, so a gain for the blocking dense path that costs the
//! others shows here.

use crate::gemm::DENSE_TOL;
use crate::host::{peak_rss_restart, HostSample};
use crate::pass::{Block, Budget, Pass};
use crate::spans::{Recorder, ROOT};
use crate::stats::{percentile, ratio};
use crate::{comm_values, Outcome, SplitMix, Workload};
use hsumma_matrix::sparse::{sddmm, spgemm, CsrMatrix};
use hsumma_matrix::{gemm, seeded_uniform, GemmKernel, GridShape, Matrix};
use hsumma_runtime::CommStats;
use hsumma_serve::{
    GemmServer, JobHandle, JobOutput, JobSpec, Planner, PlannerConfig, ServerConfig, SubmitError,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const GRID: (usize, usize) = (2, 2);
const CLIENTS: usize = 2;
/// Jobs each client keeps outstanding.
const WINDOW: usize = 4;
const DEADLINE: Duration = Duration::from_secs(5);
/// Largest difference a sparse product's values may show from the
/// serial `spgemm`/`sddmm` reference (patterns must match exactly).
const SPARSE_TOL: f64 = 1e-9;

/// The five kinds of job in the mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    DenseSmall,
    DenseMedium,
    Rect,
    SpGemm,
    Sddmm,
}

const CLASSES: [(Class, &str); 5] = [
    (Class::DenseSmall, "serve.dense_small_s_p50"),
    (Class::DenseMedium, "serve.dense_medium_s_p50"),
    (Class::Rect, "serve.rect_s_p50"),
    (Class::SpGemm, "serve.spgemm_s_p50"),
    (Class::Sddmm, "serve.sddmm_s_p50"),
];

/// The deck: twenty slots in the mix's proportions (50 % small dense,
/// 20 % medium dense, 10 % each rectangular, SpGEMM, SDDMM).
const DECK: [(Class, usize); 20] = [
    (Class::DenseSmall, 128),
    (Class::DenseSmall, 128),
    (Class::DenseSmall, 128),
    (Class::DenseSmall, 128),
    (Class::DenseSmall, 192),
    (Class::DenseSmall, 192),
    (Class::DenseSmall, 192),
    (Class::DenseSmall, 256),
    (Class::DenseSmall, 256),
    (Class::DenseSmall, 256),
    (Class::DenseMedium, 384),
    (Class::DenseMedium, 384),
    (Class::DenseMedium, 512),
    (Class::DenseMedium, 512),
    (Class::Rect, 0),
    (Class::Rect, 0),
    (Class::SpGemm, 256),
    (Class::SpGemm, 256),
    (Class::Sddmm, 256),
    (Class::Sddmm, 256),
];

/// `C(300×260) = A(300×200) · B(200×260)`: nothing a 2 × 2 grid divides.
const RECT: (usize, usize, usize) = (300, 200, 260);
const SPGEMM_FILL: f64 = 0.02;
const SDDMM_FILL: f64 = 0.05;

/// Operands and serial reference of one deck slot.
enum Operands {
    Dense {
        a: Matrix,
        b: Matrix,
        want: Matrix,
    },
    SpGemm {
        a: CsrMatrix,
        b: CsrMatrix,
        want: CsrMatrix,
    },
    Sddmm {
        s: CsrMatrix,
        a: Matrix,
        b: Matrix,
        want: CsrMatrix,
    },
}

struct Slot {
    class: Class,
    /// `(m, k, n)`.
    dims: (usize, usize, usize),
    /// `Planner::estimate` of the job in model seconds; 0 for the sparse
    /// classes, which the planner cannot price.
    model_s: f64,
    operands: Operands,
}

/// A sparse `n × n` matrix with exactly `round(fill · n²)` stored
/// entries at seeded positions. The exact count keeps SpGEMM's wire
/// bytes (12 per stored entry) the same for every seed.
fn sparse_exact(n: usize, fill: f64, rng: &mut SplitMix) -> CsrMatrix {
    let nnz = (fill * (n * n) as f64).round() as usize;
    let mut cells: Vec<usize> = (0..n * n).collect();
    let triplets: Vec<(usize, usize, f64)> = (0..nnz)
        .map(|i| {
            let j = i + rng.below(cells.len() - i);
            cells.swap(i, j);
            let magnitude = 0.1 + 0.9 * rng.unit();
            let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
            (cells[i] / n, cells[i] % n, sign * magnitude)
        })
        .collect();
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// `f`'s result between the instants just before and just after it.
fn timed<R>(f: impl FnOnce() -> R) -> (Instant, R, Instant) {
    let start = Instant::now();
    let r = f();
    (start, r, Instant::now())
}

fn dense_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(GemmKernel::Packed, a, b, &mut c);
    c
}

impl Slot {
    fn generate(class: Class, n: usize, rng: &mut SplitMix, planner: &mut Planner) -> Slot {
        let dims = if class == Class::Rect {
            RECT
        } else {
            (n, n, n)
        };
        let (m, k, n) = dims;
        let operands = match class {
            Class::DenseSmall | Class::DenseMedium | Class::Rect => {
                let a = seeded_uniform(m, k, rng.next());
                let b = seeded_uniform(k, n, rng.next());
                let want = dense_reference(&a, &b);
                Operands::Dense { a, b, want }
            }
            Class::SpGemm => {
                let a = sparse_exact(n, SPGEMM_FILL, rng);
                let b = sparse_exact(n, SPGEMM_FILL, rng);
                let want = spgemm(&a, &b);
                Operands::SpGemm { a, b, want }
            }
            Class::Sddmm => {
                let s = sparse_exact(n, SDDMM_FILL, rng);
                let a = seeded_uniform(n, n, rng.next());
                let b = seeded_uniform(n, n, rng.next());
                let want = sddmm(&s, &a, &b);
                Operands::Sddmm { s, a, b, want }
            }
        };
        let model_s = match operands {
            Operands::Dense { .. } => planner.estimate(m, k, n).model_secs,
            _ => 0.0,
        };
        Slot {
            class,
            dims,
            model_s,
            operands,
        }
    }

    /// Clones the operands (the server takes ownership) and submits.
    /// Returns the instants just before and just after the submit call.
    fn submit(
        &self,
        server: &GemmServer,
        deadline: bool,
    ) -> (Instant, Result<JobHandle, SubmitError>, Instant) {
        let (m, k, n) = self.dims;
        let with = |spec: JobSpec| {
            if deadline {
                spec.with_deadline(DEADLINE)
            } else {
                spec
            }
        };
        match &self.operands {
            Operands::Dense { a, b, .. } => {
                let (a, b) = (a.clone(), b.clone());
                timed(|| server.submit(with(JobSpec::gemm(m, k, n)), a, b))
            }
            Operands::SpGemm { a, b, .. } => {
                let (a, b) = (a.clone(), b.clone());
                timed(|| server.submit_spgemm(with(JobSpec::spgemm(n)), a, b))
            }
            Operands::Sddmm { s, a, b, .. } => {
                let (s, a, b) = (s.clone(), a.clone(), b.clone());
                timed(|| server.submit_sddmm(with(JobSpec::sddmm(n)), s, a, b))
            }
        }
    }

    /// Dense products within [`DENSE_TOL`] of the reference; sparse
    /// products with the reference's exact pattern and values within
    /// [`SPARSE_TOL`].
    fn verify(&self, out: &JobOutput) -> bool {
        let sparse_ok = |got: &CsrMatrix, want: &CsrMatrix| {
            got.shape() == want.shape()
                && got.row_ptr() == want.row_ptr()
                && got.col_idx() == want.col_idx()
                && got
                    .values()
                    .iter()
                    .zip(want.values())
                    .all(|(g, w)| (g - w).abs() <= SPARSE_TOL)
        };
        match (&self.operands, &out.c) {
            (Operands::Dense { want, .. }, hsumma_serve::Product::Dense(c)) => {
                c.approx_eq(want, DENSE_TOL)
            }
            (
                Operands::SpGemm { want, .. } | Operands::Sddmm { want, .. },
                hsumma_serve::Product::Sparse(c),
            ) => sparse_ok(c, want),
            _ => false,
        }
    }
}

/// What the client saw of one job.
struct JobRec {
    class: Class,
    model_s: f64,
    submit_start: Instant,
    submit_end: Instant,
    wait_end: Instant,
    /// `JobReport.wall`: dequeue to gathered product, as the server
    /// measured it. Zero for a job that failed.
    run_s: f64,
    /// All ranks' communication counters of this job.
    stats: CommStats,
    plan_cached: bool,
    deadline: bool,
    ok: bool,
}

impl JobRec {
    fn e2e_s(&self) -> f64 {
        (self.wait_end - self.submit_start).as_secs_f64()
    }

    fn submit_s(&self) -> f64 {
        (self.submit_end - self.submit_start).as_secs_f64()
    }
}

/// A submitted job the client has not waited for yet.
struct Pending<'a> {
    slot: &'a Slot,
    handle: JobHandle,
    submit_start: Instant,
    submit_end: Instant,
    deadline: bool,
    /// Trace lane: the client's window position this job occupies.
    lane: u32,
    op: u32,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    jobs: Vec<JobRec>,
    /// Submissions the server refused.
    refused: u64,
    infeasible: u64,
}

fn complete(p: Pending<'_>, log: &mut ClientLog, rec: Option<&mut Recorder>) {
    let wait_start = Instant::now();
    let result = p.handle.wait();
    let wait_end = Instant::now();
    let (ok, run, stats, plan_cached) = match &result {
        Ok(out) => (
            p.slot.verify(out),
            out.report.wall,
            out.report.merged_stats(),
            out.report.plan_cached,
        ),
        Err(_) => (false, Duration::ZERO, CommStats::default(), false),
    };
    if let Some(rec) = rec {
        let root = rec.reserve();
        let (lane, op) = (p.lane, p.op);
        rec.push(root, op, "serve.submit", lane, p.submit_start, p.submit_end);
        // The client was busy with its other outstanding jobs.
        rec.push(root, op, "bench.inflight", lane, p.submit_end, wait_start);
        let wait = rec.push(root, op, "serve.wait", lane, wait_start, wait_end);
        // The server's own run time, placed at the end of the wait and
        // clipped to it (the run may have begun before the client waited).
        let run_start = wait_end
            .checked_sub(run)
            .map_or(wait_start, |t| t.max(wait_start));
        rec.push(wait, op, "serve.run", lane, run_start, wait_end);
        rec.push_as(root, 0, op, ROOT, lane, p.submit_start, wait_end);
    }
    log.jobs.push(JobRec {
        class: p.slot.class,
        model_s: p.slot.model_s,
        submit_start: p.submit_start,
        submit_end: p.submit_end,
        wait_end,
        run_s: run.as_secs_f64(),
        stats,
        plan_cached,
        deadline: p.deadline,
        ok,
    });
}

/// One closed-loop client: reshuffles the deck every cycle, keeps
/// [`WINDOW`] jobs outstanding, waits for them oldest first, and stops
/// submitting once `stop` is raised.
fn client(
    id: usize,
    server: &GemmServer,
    deck: &[Slot],
    mut rng: SplitMix,
    stop: &AtomicBool,
    mut rec: Option<Recorder>,
) -> (ClientLog, Option<Recorder>) {
    let mut log = ClientLog::default();
    let mut inflight: VecDeque<Pending<'_>> = VecDeque::with_capacity(WINDOW);
    let mut order: Vec<usize> = (0..deck.len()).collect();
    let mut job = 0usize;
    'cycles: loop {
        rng.shuffle(&mut order);
        for &i in &order {
            if stop.load(Ordering::Relaxed) {
                break 'cycles;
            }
            if inflight.len() == WINDOW {
                let oldest = inflight.pop_front().expect("window is full");
                complete(oldest, &mut log, rec.as_mut());
            }
            let deadline = job % 2 == 1;
            let (submit_start, handle, submit_end) = deck[i].submit(server, deadline);
            match handle {
                Ok(handle) => inflight.push_back(Pending {
                    slot: &deck[i],
                    handle,
                    submit_start,
                    submit_end,
                    deadline,
                    lane: (id * WINDOW + job % WINDOW) as u32,
                    op: (id + CLIENTS * job) as u32 + 1,
                }),
                Err(SubmitError::Infeasible { .. }) => log.infeasible += 1,
                Err(_) => log.refused += 1,
            }
            job += 1;
        }
    }
    for p in inflight {
        complete(p, &mut log, rec.as_mut());
    }
    (log, rec)
}

/// The deck, the server and what set-up measured on it.
pub struct ServeMix {
    deck: Vec<Slot>,
    server: GemmServer,
    seed: u64,
    /// Length of one block of the timed pass.
    window: Duration,
    /// Whole-pool wire bytes, messages and model seconds of one deck,
    /// each job run alone during set-up: these repeat exactly, while the
    /// same counts under load depend on which gangs the queue formed.
    alone_bytes: f64,
    alone_msgs: f64,
    deck_model_s: f64,
    /// First pass over the deck minus the second: what cold plans cost.
    plan_cold_s: f64,
    passes: u32,
}

impl ServeMix {
    /// Generates the deck from `seed` with its serial references, starts
    /// the server, and runs the deck twice, one job at a time: the first
    /// pass warms every plan, the second measures each job alone.
    pub fn setup(seed: u64) -> ServeMix {
        let mut rng = SplitMix::new(seed);
        let grid = GridShape::new(GRID.0, GRID.1);
        let mut planner = Planner::new(grid, PlannerConfig::default());
        let deck: Vec<Slot> = DECK
            .iter()
            .map(|&(class, n)| Slot::generate(class, n, &mut rng, &mut planner))
            .collect();
        let server = GemmServer::new(ServerConfig::new(grid)).expect("spawn server");

        let alone_pass = || -> (f64, CommStats) {
            let start = Instant::now();
            let mut total = CommStats::default();
            for slot in &deck {
                let (_, handle, _) = slot.submit(&server, false);
                let out = handle
                    .expect("an empty queue admits every job")
                    .wait()
                    .expect("warm-up job");
                assert!(
                    slot.verify(&out),
                    "warm-up {:?} product is wrong",
                    slot.class
                );
                total.merge_in_place(&out.report.merged_stats());
            }
            (start.elapsed().as_secs_f64(), total)
        };
        let (cold_s, _) = alone_pass();
        let (warm_s, alone) = alone_pass();

        let deck_model_s: f64 = deck.iter().map(|s| s.model_s).sum();
        let jobs = deck.len() as f64;
        ServeMix {
            deck,
            server,
            seed,
            window: Duration::from_secs(1),
            alone_bytes: alone.bytes_sent as f64 / jobs,
            alone_msgs: alone.msgs_sent as f64 / jobs,
            deck_model_s: deck_model_s / jobs,
            plan_cold_s: (cold_s - warm_s).max(0.0),
            passes: 0,
        }
    }

    /// The same workload with quarter-second blocks, for `--smoke`.
    pub fn tiny(mut self) -> ServeMix {
        self.window = Duration::from_millis(250);
        self
    }
}

impl Workload for ServeMix {
    fn run(&mut self, budget: &Budget, rec: Option<&mut Recorder>) -> Outcome {
        self.passes += 1;
        let stop = AtomicBool::new(false);
        let stats_before = self.server.stats();
        let epoch = Instant::now();
        let tracing = rec.is_some();
        let (server, deck, window) = (&self.server, &self.deck[..], self.window);
        let pass_seed = self.seed ^ (u64::from(self.passes) << 32);

        // The clients generate the load; this thread only sleeps between
        // host samples until the time asked for has been measured.
        peak_rss_restart();
        let mut samples = vec![HostSample::now()];
        let mut peaks: Vec<u64> = Vec::new();
        let logs: Vec<(ClientLog, Option<Recorder>)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|id| {
                    let rng = SplitMix::new(pass_seed.wrapping_add(id as u64 + 1));
                    let rec = tracing.then(|| Recorder::new(epoch, id as u32 + 1));
                    let stop = &stop;
                    scope.spawn(move || client(id, server, deck, rng, stop, rec))
                })
                .collect();
            loop {
                std::thread::sleep(window);
                samples.push(HostSample::now());
                peaks.push(peak_rss_restart());
                let hosts = samples.windows(2).map(|w| Block {
                    host: w[0].until(&w[1]),
                    ..Block::default()
                });
                if Pass::from_blocks(hosts.collect()).done(budget) {
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        });
        let stats_after = self.server.stats();

        let mut jobs: Vec<JobRec> = Vec::new();
        let (mut refused, mut infeasible) = (0u64, 0u64);
        let mut merged_rec = rec;
        for (log, client_rec) in logs {
            jobs.extend(log.jobs);
            refused += log.refused;
            infeasible += log.infeasible;
            if let (Some(into), Some(from)) = (merged_rec.as_deref_mut(), client_rec) {
                into.absorb(from);
            }
        }

        // A job belongs to the block in which it completed; jobs drained
        // after the last sample were verified but are not timed.
        let mut blocks: Vec<Block> = samples
            .windows(2)
            .zip(&peaks)
            .map(|(w, &peak_rss)| Block {
                host: w[0].until(&w[1]),
                busy_s: (w[1].at() - w[0].at()).as_secs_f64(),
                peak_rss,
                ..Block::default()
            })
            .collect();
        for j in jobs.iter().filter(|j| j.ok) {
            let i = samples[1..].partition_point(|s| s.at() <= j.wait_end);
            if let Some(block) = blocks.get_mut(i) {
                block.work += 1.0;
                block.lat.push(j.e2e_s());
            }
        }
        let pass = Pass::from_blocks(blocks);

        let attempted = jobs.len() as u64 + refused + infeasible;
        let failed = jobs.iter().filter(|j| !j.ok).count() as u64 + refused + infeasible;
        let mut outcome = Outcome::new(pass, attempted, failed);
        outcome.wire_bytes = self.alone_bytes;
        outcome.wire_msgs = self.alone_msgs;
        outcome.model_time_s = self.deck_model_s;

        let submitted = (stats_after.submitted - stats_before.submitted) as f64;
        let gang_frac = ratio(
            (stats_after.gang_jobs - stats_before.gang_jobs) as f64,
            submitted,
        );
        let classes_done = CLASSES
            .iter()
            .filter(|(c, _)| jobs.iter().any(|j| j.class == *c && j.ok))
            .count();
        outcome.notes.push(format!(
            "{} jobs, {:.0} % in gangs, {classes_done}/5 job classes completed",
            jobs.len(),
            100.0 * gang_frac
        ));

        if let Some(rec) = merged_rec {
            let done: Vec<&JobRec> = jobs.iter().filter(|j| j.ok).collect();
            let p50 = |f: &dyn Fn(&JobRec) -> f64| {
                percentile(&done.iter().map(|j| f(j)).collect::<Vec<_>>(), 0.5)
            };
            let n = done.len() as f64;
            let mut total = CommStats::default();
            for j in &done {
                total.merge_in_place(&j.stats);
            }
            // Only the dense classes have a model price.
            let model_s: f64 = done.iter().map(|j| j.model_s).sum();
            let priced_run_s: f64 = done
                .iter()
                .filter(|j| j.model_s > 0.0)
                .map(|j| j.run_s)
                .sum();
            let calibration = self.server.calibration_ratio();
            let deadline_jobs = jobs.iter().filter(|j| j.deadline).count() as f64;
            let missed = jobs
                .iter()
                .filter(|j| j.deadline && (!j.ok || j.e2e_s() > DEADLINE.as_secs_f64()))
                .count() as f64;
            let attempts = attempted as f64;

            // Per rank of the whole pool: a sub-pool job leaves the other
            // ranks to other jobs, so this is the pool's view.
            let mut v = comm_values(&total, n, GRID.0 * GRID.1);
            v.set("runtime.pool_run_s_p50", p50(&|j| j.run_s));
            v.set("serve.submit_s_p50", p50(&|j| j.submit_s()));
            v.set(
                "serve.queue_wait_s_p50",
                p50(&|j| (j.e2e_s() - j.run_s - j.submit_s()).max(0.0)),
            );
            v.set("serve.run_s_p50", p50(&|j| j.run_s));
            v.set("serve.closure_resid_frac", rec.closure_resid_frac());
            v.set("serve.plan_cold_s", self.plan_cold_s);
            v.set(
                "serve.plan_cache_hit_frac",
                ratio(done.iter().filter(|j| j.plan_cached).count() as f64, n),
            );
            v.set("serve.gang_job_frac", gang_frac);
            v.set("serve.rejected_frac", ratio(refused as f64, attempts));
            v.set("serve.infeasible_frac", ratio(infeasible as f64, attempts));
            v.set("serve.deadline_miss_frac", ratio(missed, deadline_jobs));
            v.set("serve.calibration_ratio", calibration);
            for (class, name) in CLASSES {
                let lat: Vec<f64> = done
                    .iter()
                    .filter(|j| j.class == class)
                    .map(|j| j.e2e_s())
                    .collect();
                v.set(name, percentile(&lat, 0.5));
            }
            v.set(
                "serve.wire_bytes_per_job",
                ratio(total.bytes_sent as f64, n),
            );
            v.set("serve.wire_msgs_per_job", ratio(total.msgs_sent as f64, n));
            v.set("serve.model_s_per_job", ratio(model_s, n));
            v.set(
                "model.pred_over_wall",
                ratio(model_s * calibration, priced_run_s),
            );
            outcome.layer = v;
        }
        outcome
    }

    fn lane_name(&self, lane: u32) -> String {
        format!(
            "client {} slot {}",
            lane as usize / WINDOW,
            lane as usize % WINDOW
        )
    }
}
