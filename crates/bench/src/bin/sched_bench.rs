//! Scheduler benchmark: EDF + gang scheduling vs the FIFO whole-pool
//! baseline on an open-loop arrival trace.
//!
//! The trace mixes a few *big* deadline-carrying jobs (sized to want the
//! whole pool) into a stream of *small* jobs whose strong-scaling range
//! stops well short of it. Arrivals are open-loop — jobs are submitted
//! at their scheduled instants regardless of completions, the regime a
//! serving system actually faces — and both legs replay the identical
//! trace:
//!
//! * **fifo**: [`SchedPolicy::Fifo`] + [`Admission::Open`] — strict
//!   submission order, every job on the whole pool (the pre-scheduler
//!   service);
//! * **edf**: [`SchedPolicy::EdfGang`] + [`Admission::Feasible`] — the
//!   deadline class jumps the queue, small jobs gang onto carved
//!   sub-pools sized by the planner's strong-scaling curve.
//!
//! Reported per leg: p50/p99 end-to-end latency (completion − arrival,
//! queue time included), throughput over the leg's makespan, and
//! deadline misses (a deadline job that failed *or* finished later than
//! arrival + deadline). The edf leg also demonstrates feasibility
//! admission: a job with an absurd deadline must be rejected at submit
//! with the predicted-vs-deadline margin.
//!
//! Results go to stdout and `BENCH_serve.json`. `--smoke` shrinks the
//! pool and trace for CI.

use hsumma_bench::render_table;
use hsumma_matrix::{seeded_uniform, GridShape, Matrix};
use hsumma_serve::{Admission, GemmServer, JobSpec, SchedPolicy, ServerConfig, SubmitError};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One arrival in the open-loop trace.
struct TraceJob {
    /// Submission instant, relative to the leg's start.
    at: Duration,
    n: usize,
    deadline: Option<Duration>,
    seed: u64,
}

struct Workload {
    grid: GridShape,
    big_n: usize,
    small_n: usize,
    bigs: usize,
    smalls: usize,
    /// Gap between big-job arrivals; smalls fill the space between.
    big_every: Duration,
    deadline: Duration,
}

/// SplitMix64 — deterministic jitter for the arrival schedule.
fn splitmix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The mixed trace: bigs on a fixed cadence, smalls jittered uniformly
/// over the same span, interleaved in arrival order.
fn build_trace(w: &Workload) -> Vec<TraceJob> {
    let span = w.big_every.as_micros() as u64 * w.bigs as u64;
    let mut rng = 0x5eed_5eedu64;
    let mut jobs = Vec::new();
    for i in 0..w.bigs {
        jobs.push(TraceJob {
            at: w.big_every * i as u32,
            n: w.big_n,
            deadline: Some(w.deadline),
            seed: 2 * i as u64,
        });
    }
    for i in 0..w.smalls {
        let at = Duration::from_micros(splitmix(&mut rng) % span);
        jobs.push(TraceJob {
            at,
            n: w.small_n,
            deadline: None,
            seed: 1000 + 2 * i as u64,
        });
    }
    jobs.sort_by_key(|j| j.at);
    jobs
}

struct LegResult {
    label: &'static str,
    p50: Duration,
    p99: Duration,
    jobs_per_s: f64,
    completed: usize,
    misses: usize,
    rejected: usize,
    gangs: u64,
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Replays the trace open-loop against one server configuration.
fn run_leg(
    label: &'static str,
    w: &Workload,
    trace: &[TraceJob],
    sched: SchedPolicy,
    admission: Admission,
    operands: &[(usize, Matrix, Matrix)],
) -> LegResult {
    let server = GemmServer::new(ServerConfig {
        queue_capacity: trace.len(),
        sched,
        admission,
        ..ServerConfig::new(w.grid)
    })
    .expect("spawn rank pool");

    let start = Instant::now();
    let mut rejected = 0usize;
    let mut results: Vec<(Duration, bool, bool, Instant)> = Vec::new();
    std::thread::scope(|scope| {
        let mut waiters = Vec::new();
        for job in trace {
            if let Some(wait) = job.at.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let (_, a, b) = operands
                .iter()
                .find(|(s, _, _)| *s == job.seed as usize)
                .expect("operands prebuilt for every trace seed");
            let mut spec = JobSpec::square(job.n);
            if let Some(d) = job.deadline {
                spec = spec.with_deadline(d);
            }
            let arrival = Instant::now();
            match server.submit(spec, a.clone(), b.clone()) {
                Ok(handle) => {
                    let deadline = job.deadline;
                    waiters.push(scope.spawn(move || {
                        let ok = handle.wait().is_ok();
                        let latency = arrival.elapsed();
                        let missed = deadline.is_some_and(|d| !ok || latency > d);
                        (latency, ok, missed, Instant::now())
                    }));
                }
                Err(e) => {
                    rejected += 1;
                    eprintln!("[{label}] rejected: {e}");
                }
            }
        }
        results.extend(
            waiters
                .into_iter()
                .map(|h| h.join().expect("waiter thread")),
        );
    });
    let stats = server.stats();
    drop(server);

    let mut latencies: Vec<Duration> = results
        .iter()
        .filter(|(_, ok, _, _)| *ok)
        .map(|(l, _, _, _)| *l)
        .collect();
    latencies.sort();
    let completed = latencies.len();
    let misses = results.iter().filter(|(_, _, m, _)| *m).count();
    let makespan = results
        .iter()
        .map(|(_, _, _, done)| done.duration_since(start))
        .max()
        .unwrap_or_default();
    LegResult {
        label,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        jobs_per_s: completed as f64 / makespan.as_secs_f64(),
        completed,
        misses,
        rejected,
        gangs: stats.gangs,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let w = if smoke {
        Workload {
            grid: GridShape::new(2, 4),
            big_n: 512,
            small_n: 64,
            bigs: 2,
            smalls: 12,
            big_every: Duration::from_millis(150),
            deadline: Duration::from_secs(2),
        }
    } else {
        // Arrivals outpace the FIFO whole-pool service rate (the queue
        // grows over the trace), so the makespan — and jobs/s — is set
        // by scheduling efficiency, not by the arrival clock.
        Workload {
            grid: GridShape::new(8, 8),
            big_n: 512,
            small_n: 256,
            bigs: 6,
            smalls: 120,
            big_every: Duration::from_millis(150),
            deadline: Duration::from_secs(2),
        }
    };
    let p = w.grid.size();
    println!(
        "Scheduler bench: open-loop trace of {} big (n={}, deadline {:?}) + {} small (n={}) \
         jobs on p={} ({}x{} grid){}\n",
        w.bigs,
        w.big_n,
        w.deadline,
        w.smalls,
        w.small_n,
        p,
        w.grid.rows,
        w.grid.cols,
        if smoke { " [smoke]" } else { "" }
    );

    let trace = build_trace(&w);
    // Operands prebuilt outside both legs so neither pays generation.
    let operands: Vec<(usize, Matrix, Matrix)> = trace
        .iter()
        .map(|j| {
            (
                j.seed as usize,
                seeded_uniform(j.n, j.n, j.seed),
                seeded_uniform(j.n, j.n, j.seed + 1),
            )
        })
        .collect();

    let fifo = run_leg(
        "fifo",
        &w,
        &trace,
        SchedPolicy::Fifo,
        Admission::Open,
        &operands,
    );
    let edf = run_leg(
        "edf",
        &w,
        &trace,
        SchedPolicy::EdfGang,
        Admission::Feasible,
        &operands,
    );

    // Feasibility-admission demonstration: an absurd deadline on a big
    // job must bounce at submit with the margin, not enter the queue.
    let demo = GemmServer::new(ServerConfig::new(w.grid)).expect("spawn rank pool");
    let a = seeded_uniform(w.big_n, w.big_n, 7001);
    let b = seeded_uniform(w.big_n, w.big_n, 7002);
    let absurd = Duration::from_micros(1);
    let (inf_predicted, inf_deadline) =
        match demo.submit(JobSpec::square(w.big_n).with_deadline(absurd), a, b) {
            Err(SubmitError::Infeasible {
                predicted,
                deadline,
            }) => {
                println!(
                    "feasibility admission: n={} with {:?} deadline rejected at submit \
                 (predicted {:?})\n",
                    w.big_n, deadline, predicted
                );
                (predicted, deadline)
            }
            other => panic!("absurd deadline must be Infeasible, got {other:?}"),
        };
    drop(demo);

    let row = |r: &LegResult| {
        vec![
            r.label.into(),
            format!("{:.1}", r.p50.as_secs_f64() * 1e3),
            format!("{:.1}", r.p99.as_secs_f64() * 1e3),
            format!("{:.2}", r.jobs_per_s),
            r.completed.to_string(),
            r.misses.to_string(),
            r.rejected.to_string(),
            r.gangs.to_string(),
        ]
    };
    println!(
        "{}",
        render_table(
            &["leg", "p50 (ms)", "p99 (ms)", "jobs/s", "done", "misses", "rejected", "gangs"],
            &[row(&fifo), row(&edf)]
        )
    );
    let p99_better = edf.p99 < fifo.p99;
    let rate_better = edf.jobs_per_s > fifo.jobs_per_s;
    let misses_le = edf.misses <= fifo.misses;
    println!(
        "edf p99 better: {p99_better}   edf jobs/s better: {rate_better}   \
         edf misses ≤ fifo: {misses_le}"
    );

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"p\": {p},\n  \"grid\": \"{}x{}\",\n  \"smoke\": {smoke},\n  \
         \"big_n\": {},\n  \"small_n\": {},\n  \"bigs\": {},\n  \"smalls\": {},\n  \
         \"deadline_s\": {:.3},\n",
        w.grid.rows,
        w.grid.cols,
        w.big_n,
        w.small_n,
        w.bigs,
        w.smalls,
        w.deadline.as_secs_f64()
    );
    for r in [&fifo, &edf] {
        let _ = write!(
            json,
            "  \"{0}_p50_ms\": {1:.3},\n  \"{0}_p99_ms\": {2:.3},\n  \
             \"{0}_jobs_per_s\": {3:.3},\n  \"{0}_completed\": {4},\n  \
             \"{0}_deadline_misses\": {5},\n  \"{0}_rejected\": {6},\n  \
             \"{0}_gangs\": {7},\n",
            r.label,
            r.p50.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
            r.jobs_per_s,
            r.completed,
            r.misses,
            r.rejected,
            r.gangs
        );
    }
    let _ = write!(
        json,
        "  \"infeasible_demo_predicted_s\": {:.6},\n  \
         \"infeasible_demo_deadline_s\": {:.6},\n  \
         \"infeasible_rejected_at_submit\": true,\n  \
         \"edf_p99_better\": {p99_better},\n  \"edf_jobs_per_s_better\": {rate_better},\n  \
         \"edf_misses_le_fifo\": {misses_le}\n}}\n",
        inf_predicted.as_secs_f64(),
        inf_deadline.as_secs_f64()
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
