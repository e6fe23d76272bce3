//! The second job type, end to end: SpGEMM and SDDMM jobs through the
//! same queue, pool, planner, deadline and fault machinery as dense
//! GEMM — the service-level face of the sparse subsystem.

use hsumma_matrix::sparse::{sddmm, seeded_sparse, spgemm};
use hsumma_matrix::{seeded_uniform, GridShape};
use hsumma_serve::{
    GemmServer, JobError, JobOutcome, JobSpec, JobState, SchedPolicy, ServerConfig, SubmitError,
};
use hsumma_trace::{FaultPlan, TagClass};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Runs `f` on a helper thread and panics if it has not finished within
/// `limit`, so a hang regression fails instead of wedging the suite.
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
        Err(mpsc::RecvTimeoutError::Disconnected) => worker.join().expect("test body"),
    }
}

#[test]
fn spgemm_job_runs_natively_and_matches_the_serial_kernel() {
    let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
    let n = 16;
    let a = seeded_sparse(n, n, 0.1, 301);
    let b = seeded_sparse(n, n, 0.15, 302);
    let want = spgemm(&a, &b);

    let out = server
        .submit_spgemm(JobSpec::spgemm(n), a, b)
        .unwrap()
        .wait()
        .unwrap();
    // At 10–15% fill the scoreboard must pick the native CSR schedule.
    assert!(
        out.report.plan_desc.starts_with("spgemm_2d"),
        "expected the native schedule, ran {}",
        out.report.plan_desc
    );
    let got = out.c.sparse();
    assert_eq!(got.shape(), (n, n));
    assert!(got.max_abs_diff(&want) < 1e-12);
    // Sparse jobs get the same per-job accounting as dense ones.
    assert_eq!(out.report.stats.len(), 4);
    let merged = out.report.merged_stats();
    assert!(merged.msgs_sent > 0 && merged.bytes_sent > 0);
    assert_eq!(out.report.outcome, JobOutcome::Completed);
}

#[test]
fn full_density_spgemm_routes_through_the_densified_path() {
    let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
    let n = 16;
    let a = seeded_sparse(n, n, 1.0, 303);
    let b = seeded_sparse(n, n, 1.0, 304);
    let want = spgemm(&a, &b);

    let out = server
        .submit_spgemm(JobSpec::spgemm(n), a, b)
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        out.report.plan_desc.starts_with("densify→"),
        "fully dense operands must densify, ran {}",
        out.report.plan_desc
    );
    // The product contract holds either way: a CSR result, numerically
    // matching the sparse reference.
    assert!(out.c.sparse().max_abs_diff(&want) < 1e-9);
}

#[test]
fn sddmm_job_matches_the_serial_kernel() {
    let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
    let n = 16;
    let s = seeded_sparse(n, n, 0.2, 305);
    let a = seeded_uniform(n, n, 306);
    let b = seeded_uniform(n, n, 307);
    let want = sddmm(&s, &a, &b);

    let out = server
        .submit_sddmm(JobSpec::sddmm(n), s, a, b)
        .unwrap()
        .wait()
        .unwrap();
    assert!(out.report.plan_desc.starts_with("sddmm_2d"));
    let got = out.c.sparse();
    assert_eq!(got.row_ptr(), want.row_ptr(), "pattern must be S's");
    assert!(got.max_abs_diff(&want) < 1e-9);
}

#[test]
fn sparse_jobs_serve_an_n_the_grid_does_not_divide() {
    // n = 9 on 2 × 2 deals 5/4 tiles, n = 12 on 1 × 5 deals 3/3/2/2/2.
    // FIFO keeps each job on the whole grid.
    for (grid, n) in [(GridShape::new(2, 2), 9), (GridShape::new(1, 5), 12)] {
        let config = ServerConfig {
            sched: SchedPolicy::Fifo,
            ..ServerConfig::new(grid)
        };
        let server = GemmServer::new(config).unwrap();
        let (a, b) = (seeded_sparse(n, n, 0.1, 311), seeded_sparse(n, n, 0.1, 312));
        let want = spgemm(&a, &b);
        let out = server
            .submit_spgemm(JobSpec::spgemm(n), a, b)
            .expect("an uneven sparse n is admitted")
            .wait()
            .expect("and served");
        assert!(out.report.plan_desc.starts_with("spgemm_2d"), "{grid:?}");
        let got = out.c.sparse();
        assert_eq!(got.row_ptr(), want.row_ptr(), "{grid:?}: pattern");
        assert_eq!(got.col_idx(), want.col_idx(), "{grid:?}: pattern");
        assert!(got.max_abs_diff(&want) < 1e-9, "{grid:?}");

        let s = seeded_sparse(n, n, 0.3, 313);
        let (a, b) = (seeded_uniform(n, n, 314), seeded_uniform(n, n, 315));
        let want = sddmm(&s, &a, &b);
        let out = server
            .submit_sddmm(JobSpec::sddmm(n), s, a, b)
            .unwrap()
            .wait()
            .unwrap();
        let got = out.c.sparse();
        assert_eq!(
            got.row_ptr(),
            want.row_ptr(),
            "{grid:?}: pattern must be S's"
        );
        assert!(got.max_abs_diff(&want) < 1e-9, "{grid:?}");
    }
}

#[test]
fn dropped_sparse_panel_times_out_the_job_and_the_pool_keeps_serving() {
    with_watchdog(Duration::from_secs(60), || {
        // FIFO runs each job alone on the whole 2×2 grid. Under the gang
        // policy the nnz-aware sweep would shrink these hypersparse n=16
        // jobs to single-rank sub-pools, where no panel ever travels and
        // the planned drop has nothing to hit (sparse gangs are covered
        // by tests/gang.rs).
        let server = GemmServer::new(ServerConfig {
            sched: SchedPolicy::Fifo,
            ..ServerConfig::new(GridShape::new(2, 2))
        })
        .unwrap();
        let n = 16;
        let a = seeded_sparse(n, n, 0.1, 308);
        let b = seeded_sparse(n, n, 0.1, 309);
        let want = spgemm(&a, &b);

        // Sparse pivot panels travel under the step index as a
        // user-level (App-class) tag: drop the first one rank 0 sends to
        // rank 1 — the step-0 A-panel broadcast on row comm {0, 1} — and
        // bound the job by 200 ms.
        let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::App, 0));
        let faulty = server
            .submit_spgemm(
                JobSpec::spgemm(n)
                    .with_deadline(Duration::from_millis(200))
                    .with_faults(plan),
                a.clone(),
                b.clone(),
            )
            .unwrap();
        // A clean sparse job queued behind the faulty one.
        let clean = server.submit_spgemm(JobSpec::spgemm(n), a, b).unwrap();

        let err = faulty
            .clone()
            .wait()
            .expect_err("the dropped panel must fail the job");
        assert_eq!(faulty.state(), JobState::Failed);
        match &err {
            JobError::Timeout { detail, report } => {
                assert!(
                    detail.contains("rank 1") && detail.contains("rank 0"),
                    "detail must name the stalled edge: {detail}"
                );
                assert_eq!(report.outcome, JobOutcome::TimedOut);
                assert_eq!(report.faults_injected, 1, "exactly the one planned drop");
                assert!(report.timeouts >= 1);
                assert!(report.plan_desc.starts_with("spgemm_2d"));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }

        // Containment: the failure did not leak into the next job.
        let out = clean.wait().expect("clean job must survive the faulty one");
        assert!(out.c.sparse().max_abs_diff(&want) < 1e-12);
        assert_eq!(out.report.faults_injected, 0);
    });
}

#[test]
fn workload_mismatches_are_rejected_at_the_door() {
    let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
    let n = 16;
    // A sparse spec through the dense entry point…
    let err = server
        .submit(
            JobSpec::spgemm(n),
            seeded_uniform(n, n, 310),
            seeded_uniform(n, n, 311),
        )
        .unwrap_err();
    assert!(matches!(err, SubmitError::Invalid(ref r) if r.contains("workload")));
    // …and a dense spec through the sparse one.
    let err = server
        .submit_spgemm(
            JobSpec::square(n),
            seeded_sparse(n, n, 0.1, 312),
            seeded_sparse(n, n, 0.1, 313),
        )
        .unwrap_err();
    assert!(matches!(err, SubmitError::Invalid(ref r) if r.contains("workload")));
    // Shape mismatches name the offending operand.
    let err = server
        .submit_spgemm(
            JobSpec::spgemm(n),
            seeded_sparse(n, 2 * n, 0.1, 314),
            seeded_sparse(n, n, 0.1, 315),
        )
        .unwrap_err();
    assert!(matches!(err, SubmitError::Invalid(ref r) if r.contains("A is")));
}
