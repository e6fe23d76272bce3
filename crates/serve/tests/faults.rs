//! Failure-path service tests: deadlines, injected faults, and the
//! containment guarantee — a stalled job fails *itself*, names the edge
//! it stalled on, and leaves the pool serving.

use hsumma_core::{PlannedAlgo, SummaConfig};
use hsumma_matrix::{gemm, seeded_uniform, GemmKernel, GridShape, Matrix};
use hsumma_serve::{GemmServer, JobError, JobOutcome, JobSpec, JobState, PlanHint, ServerConfig};
use hsumma_trace::{FaultPlan, TagClass};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(GemmKernel::Naive, a, b, &mut c);
    c
}

/// Serially replays SUMMA's panel schedule — one naive-kernel update per
/// `block`-wide pivot panel, in step order. This is the *same* sequence
/// of floating-point operations every rank's tile performs, so the
/// distributed product must match it bit for bit, not just approximately.
fn reference_panels(a: &Matrix, b: &Matrix, block: usize) -> Matrix {
    let n = a.rows();
    let mut c = Matrix::zeros(n, n);
    for k in 0..n / block {
        let ap = a.block(0, k * block, n, block);
        let bp = b.block(k * block, 0, block, n);
        gemm(GemmKernel::Naive, &ap, &bp, &mut c);
    }
    c
}

/// Runs `f` on a helper thread and panics if it has not finished within
/// `limit` — the acceptance criterion's own watchdog, so a regression
/// that reintroduces an unbounded hang fails the test instead of wedging
/// the suite.
fn with_watchdog<F: FnOnce() + Send + 'static>(limit: Duration, f: F) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => worker.join().expect("test body"),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("test body still running after {limit:?} — the service hung")
        }
        // The sender dropped without sending: the body panicked; join to
        // propagate the original panic message.
        Err(mpsc::RecvTimeoutError::Disconnected) => worker.join().expect("test body"),
    }
}

/// A plan whose floating-point accumulation order matches the naive
/// serial triple loop, so the distributed product is bit-identical to
/// [`reference`], not merely close.
fn naive_summa(block: usize) -> PlanHint {
    PlanHint::Force(PlannedAlgo::Summa(SummaConfig {
        block,
        kernel: GemmKernel::Naive,
        ..SummaConfig::default()
    }))
}

#[test]
fn dropped_broadcast_times_out_its_job_and_the_pool_keeps_serving() {
    with_watchdog(Duration::from_secs(60), || {
        let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
        let n = 8;

        // The faulty job: drop the first collective message rank 0 sends
        // to rank 1 — the step-0 A-panel broadcast of SUMMA's row
        // communicator {0, 1} — and bound the job by 200 ms.
        let a = seeded_uniform(n, n, 31);
        let b = seeded_uniform(n, n, 32);
        let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::Collective, 0));
        let faulty = server
            .submit(
                JobSpec::square(n)
                    .with_hint(naive_summa(2))
                    .with_deadline(Duration::from_millis(200))
                    .with_faults(plan),
                a.clone(),
                b.clone(),
            )
            .unwrap();

        // A clean job queued while the faulty one runs: the failure ahead
        // of it must not leak into its result.
        let want = reference_panels(&a, &b, 2);
        let loose = reference(&a, &b);
        let clean = server
            .submit(JobSpec::square(n).with_hint(naive_summa(2)), a, b)
            .unwrap();

        let err = faulty
            .clone()
            .wait()
            .expect_err("the dropped broadcast must fail the job");
        assert_eq!(faulty.state(), JobState::Failed);
        match &err {
            JobError::Timeout { detail, report } => {
                // The stalled edge is named: rank 1 waiting on rank 0.
                assert!(
                    detail.contains("rank 1") && detail.contains("rank 0"),
                    "detail must name the stalled edge: {detail}"
                );
                assert_eq!(report.outcome, JobOutcome::TimedOut);
                assert_eq!(report.faults_injected, 1, "exactly the one planned drop");
                assert!(report.timeouts >= 1, "at least the stalled rank timed out");
                assert_eq!(report.stats.len(), 4);
                // The per-rank counters agree with the aggregates.
                let merged = report.merged_stats();
                assert_eq!(merged.faults_injected, report.faults_injected);
                assert_eq!(merged.timeouts, report.timeouts);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(err.to_string().contains("timed out"));

        // The clean job is untouched: bit-identical to the serial
        // reference (same accumulation order by construction).
        let out = clean
            .wait()
            .expect("clean job must survive its faulty neighbour");
        assert_eq!(out.report.outcome, JobOutcome::Completed);
        assert_eq!(out.report.faults_injected, 0);
        assert_eq!(
            out.c.dense().max_abs_diff(&want),
            0.0,
            "clean product must be bit-identical to the serial panel replay"
        );
        assert!(
            out.c.dense().approx_eq(&loose, 1e-9),
            "and numerically correct"
        );

        // And the pool still serves: a third job on the same workers.
        let a2 = seeded_uniform(n, n, 41);
        let b2 = seeded_uniform(n, n, 42);
        let want2 = reference_panels(&a2, &b2, 2);
        let out2 = server
            .submit(JobSpec::square(n).with_hint(naive_summa(2)), a2, b2)
            .unwrap()
            .wait()
            .expect("the pool must keep serving after a timed-out job");
        assert_eq!(out2.c.dense().max_abs_diff(&want2), 0.0);

        // Graceful shutdown joins the scheduler and every worker — a
        // leaked or wedged thread would hang here and trip the watchdog.
        server.shutdown();
    });
}

#[test]
fn killed_rank_fails_its_job_with_a_named_edge() {
    with_watchdog(Duration::from_secs(60), || {
        let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
        let n = 8;
        let a = seeded_uniform(n, n, 51);
        let b = seeded_uniform(n, n, 52);
        // Rank 3 dies at its very first send; its peers stall and the
        // deadline converts the stall into a diagnosed timeout.
        let plan = Arc::new(FaultPlan::new().kill_rank(3, 0));
        let err = server
            .submit(
                JobSpec::square(n)
                    .with_hint(naive_summa(2))
                    .with_deadline(Duration::from_millis(200))
                    .with_faults(plan),
                a.clone(),
                b.clone(),
            )
            .unwrap()
            .wait()
            .expect_err("a killed rank must fail the job");
        let report = err.report().expect("deadline failures carry a report");
        assert_eq!(report.outcome, JobOutcome::TimedOut);
        assert_eq!(report.faults_injected, 1, "the kill counts once");

        // Deadline-free clean job afterwards: full service restored.
        let want = reference_panels(&a, &b, 2);
        let out = server
            .submit(JobSpec::square(n).with_hint(naive_summa(2)), a, b)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out.c.dense().max_abs_diff(&want), 0.0);
    });
}

#[test]
fn deadline_without_faults_is_free_on_the_clean_path() {
    // A generous deadline on a healthy job must not change the result:
    // the fallible plumbing is pay-as-you-go.
    let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
    let n = 16;
    let a = seeded_uniform(n, n, 61);
    let b = seeded_uniform(n, n, 62);
    let want = reference_panels(&a, &b, 4);
    let out = server
        .submit(
            JobSpec::square(n)
                .with_hint(naive_summa(4))
                .with_deadline(Duration::from_secs(30)),
            a,
            b,
        )
        .unwrap()
        .wait()
        .expect("a healthy job must beat a 30 s deadline");
    assert_eq!(out.report.outcome, JobOutcome::Completed);
    assert_eq!(out.report.timeouts, 0);
    assert_eq!(out.report.cancelled, 0);
    assert_eq!(out.c.dense().max_abs_diff(&want), 0.0);
}
