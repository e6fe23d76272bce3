//! End-to-end service tests: correctness under concurrent mixed-size
//! submission, plan-cache behaviour, backpressure, failure containment.

use hsumma_core::{PlannedAlgo, SummaConfig};
use hsumma_matrix::{gemm, seeded_uniform, GemmKernel, GridShape, Matrix};
use hsumma_serve::{GemmServer, JobSpec, JobState, PlanHint, ServerConfig, SubmitError};
use std::sync::Arc;

fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(GemmKernel::Naive, a, b, &mut c);
    c
}

#[test]
fn concurrent_mixed_size_clients_all_get_correct_products() {
    let server = Arc::new(GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap());
    // Three client threads, each submitting a burst of different sizes;
    // every product is checked against the naive serial reference.
    let sizes: [&[usize]; 3] = [&[8, 16, 24], &[16, 32], &[12, 8, 20]];
    let mut clients = Vec::new();
    for (client, my_sizes) in sizes.into_iter().enumerate() {
        let server = Arc::clone(&server);
        clients.push(std::thread::spawn(move || {
            for (i, &n) in my_sizes.iter().enumerate() {
                let seed = (client * 100 + i) as u64;
                let a = seeded_uniform(n, n, 2 * seed);
                let b = seeded_uniform(n, n, 2 * seed + 1);
                let want = reference(&a, &b);
                let handle = server
                    .submit(JobSpec::square(n), a, b)
                    .expect("queue is large enough for this burst");
                let out = handle.wait().expect("job must succeed");
                assert!(
                    out.c.dense().approx_eq(&want, 1e-9),
                    "client {client} job {i} (n={n}) wrong, plan {}",
                    out.report.plan_desc
                );
                // The report describes this job: the stats cover every
                // rank of the (sub-)pool it ran on — gang scheduling may
                // give a small job fewer ranks than the whole pool — and
                // multi-rank runs show real communication.
                let ranks = out.report.stats.len();
                assert!((1..=4).contains(&ranks), "ran on {ranks} ranks");
                if ranks > 1 {
                    assert!(out.report.merged_stats().msgs_sent > 0);
                }
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.queued, 0);
}

#[test]
fn served_cannon_job_copies_no_payload() {
    // The server hands Cannon the tiles its ranks cut: a borrowed tile
    // would be copied again, and that copy is counted as a payload clone.
    let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
    let n = 64;
    let a = seeded_uniform(n, n, 41);
    let b = seeded_uniform(n, n, 42);
    let want = reference(&a, &b);
    let cannon = PlanHint::Force(PlannedAlgo::Cannon {
        kernel: GemmKernel::Packed,
    });
    let out = server
        .submit(JobSpec::square(n).with_hint(cannon), a, b)
        .unwrap()
        .wait()
        .expect("Cannon job must succeed");
    assert_eq!(out.report.plan_desc, "cannon");
    assert!(out.c.dense().approx_eq(&want, 1e-9));
    let stats = out.report.merged_stats();
    assert!(stats.msgs_sent > 0, "Cannon shifts tiles between ranks");
    assert_eq!(stats.payload_clone_bytes, 0);
}

#[test]
fn second_same_shape_job_hits_the_plan_cache_and_skips_the_sweep() {
    let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
    let submit = |n: usize, seed: u64| {
        let a = seeded_uniform(n, n, seed);
        let b = seeded_uniform(n, n, seed + 1);
        server.submit(JobSpec::square(n), a, b).unwrap()
    };

    let first = submit(64, 1).wait().unwrap();
    assert!(!first.report.plan_cached, "first job must compute its plan");
    let after_first = server.planner_stats();
    assert_eq!(after_first.misses, 1);

    let second = submit(64, 3).wait().unwrap();
    assert!(second.report.plan_cached, "second job must hit the cache");
    let after_second = server.planner_stats();
    assert_eq!(after_second.hits, 1);
    // The acceptance-criterion claim: the second same-shape job ran no
    // additional simulator evaluations.
    assert_eq!(after_second.sims_run, after_first.sims_run);
    assert_eq!(second.report.plan_desc, first.report.plan_desc);
}

#[test]
fn full_queue_rejects_with_reason_and_counts() {
    // Capacity 2 and a deliberately slow first job: while it runs, two
    // more fill the queue and the next submissions must bounce.
    let config = ServerConfig {
        queue_capacity: 2,
        ..ServerConfig::new(GridShape::new(2, 2))
    };
    let server = GemmServer::new(config).unwrap();
    let submit = |n: usize, seed: u64| {
        let a = seeded_uniform(n, n, seed);
        let b = seeded_uniform(n, n, seed + 1);
        server.submit(JobSpec::square(n), a, b)
    };
    // Slow head-of-line job (big, naive kernel via forced plan).
    let n = 256;
    let a = seeded_uniform(n, n, 7);
    let b = seeded_uniform(n, n, 8);
    let slow_plan = PlanHint::Force(PlannedAlgo::Summa(SummaConfig {
        block: 32,
        kernel: GemmKernel::Naive,
        ..SummaConfig::default()
    }));
    let head = server
        .submit(JobSpec::square(n).with_hint(slow_plan), a, b)
        .unwrap();

    // Fill the queue, then overflow it.
    let mut accepted = vec![head];
    let mut rejections = 0;
    for i in 0..8 {
        match submit(8, 100 + i) {
            Ok(h) => accepted.push(h),
            Err(SubmitError::QueueFull { capacity, queued }) => {
                assert_eq!(capacity, 2);
                assert_eq!(queued, 2);
                rejections += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(
        rejections >= 6,
        "with a slow head job, at most the capacity can be admitted (got {rejections} rejections)"
    );
    assert_eq!(server.stats().rejected, rejections);
    // Everything admitted still completes correctly.
    for h in accepted {
        h.wait().expect("admitted jobs run to completion");
    }
}

#[test]
fn invalid_jobs_are_rejected_at_the_door_with_reasons() {
    let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
    let a = seeded_uniform(8, 8, 1);
    let b = seeded_uniform(8, 8, 2);

    // A zero dimension.
    let spec = JobSpec {
        k: 0,
        ..JobSpec::square(8)
    };
    match server.submit(spec, a.clone(), b.clone()) {
        Err(SubmitError::Invalid(reason)) => assert!(reason.contains("positive")),
        other => panic!("expected Invalid, got {other:?}"),
    }

    // Non-square spec on a *sparse* workload (dense accepts any shape;
    // the CSR scatter path still requires square grid-divisible
    // operands).
    let sa = hsumma_matrix::seeded_sparse(16, 8, 0.2, 11);
    let sb = hsumma_matrix::seeded_sparse(8, 8, 0.2, 12);
    let spec = JobSpec {
        m: 16,
        ..JobSpec::spgemm(8)
    };
    match server.submit_spgemm(spec, sa, sb) {
        Err(SubmitError::Invalid(reason)) => assert!(reason.contains("square")),
        other => panic!("expected Invalid, got {other:?}"),
    }

    // Sparse n not divisible by the grid.
    let s9a = hsumma_matrix::seeded_sparse(9, 9, 0.2, 13);
    let s9b = hsumma_matrix::seeded_sparse(9, 9, 0.2, 14);
    match server.submit_spgemm(JobSpec::spgemm(9), s9a, s9b) {
        Err(SubmitError::Invalid(reason)) => assert!(reason.contains("divisible")),
        other => panic!("expected Invalid, got {other:?}"),
    }

    // Operands disagreeing with the spec.
    match server.submit(JobSpec::square(16), a, b) {
        Err(SubmitError::Invalid(reason)) => assert!(reason.contains("spec")),
        other => panic!("expected Invalid, got {other:?}"),
    }

    // Nothing invalid was admitted; the server still works.
    let a = seeded_uniform(8, 8, 5);
    let b = seeded_uniform(8, 8, 6);
    let want = reference(&a, &b);
    let out = server
        .submit(JobSpec::square(8), a, b)
        .unwrap()
        .wait()
        .unwrap();
    assert!(out.c.dense().approx_eq(&want, 1e-9));
    assert_eq!(server.stats().submitted, 1);
}

#[test]
fn rectangular_and_awkward_dense_jobs_are_served() {
    // The planner routes grid-divisible rectangular shapes to the rect
    // grid forms and shapes nothing divides to the brick schedule; both
    // must come back bit-correct against the serial reference.
    let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
    for (i, (m, k, n)) in [
        (24usize, 8usize, 16usize), // grid-divisible rectangular
        (7, 9, 5),                  // nothing divides: cosma only
        (33, 33, 33),               // square but off-grid
    ]
    .into_iter()
    .enumerate()
    {
        let seed = 500 + 2 * i as u64;
        let a = seeded_uniform(m, k, seed);
        let b = seeded_uniform(k, n, seed + 1);
        let want = reference(&a, &b);
        let out = server
            .submit(JobSpec::gemm(m, k, n), a, b)
            .expect("rectangular dense jobs are admitted")
            .wait()
            .expect("job must succeed");
        assert!(
            out.c.dense().approx_eq(&want, 1e-9),
            "({m}x{k}x{n}) wrong under plan {}",
            out.report.plan_desc
        );
    }
    // The awkward shapes must have gone through the brick schedule.
    assert_eq!(server.stats().submitted, 3);
}

#[test]
fn a_failing_job_reports_failure_and_the_server_keeps_serving() {
    let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
    // Force a plan whose block size violates the algorithm's divisibility
    // precondition: the ranks panic, the job fails, the pool survives.
    let n = 16;
    let a = seeded_uniform(n, n, 1);
    let b = seeded_uniform(n, n, 2);
    let bad_plan = PlanHint::Force(PlannedAlgo::Summa(SummaConfig {
        block: 5, // does not divide the 8x8 tiles
        ..SummaConfig::default()
    }));
    let handle = server
        .submit(JobSpec::square(n).with_hint(bad_plan), a, b)
        .unwrap();
    let err = handle.wait().expect_err("bad plan must fail the job");
    assert!(matches!(
        err,
        hsumma_serve::JobError::Execution(ref msg) if msg.contains("rank")
    ));
    assert_eq!(handle.state(), JobState::Failed);

    // The next (valid) job on the same server succeeds.
    let a = seeded_uniform(n, n, 3);
    let b = seeded_uniform(n, n, 4);
    let want = reference(&a, &b);
    let out = server
        .submit(JobSpec::square(n), a, b)
        .unwrap()
        .wait()
        .unwrap();
    assert!(out.c.dense().approx_eq(&want, 1e-9));
}

#[test]
fn traced_jobs_carry_their_own_spans() {
    let config = ServerConfig {
        trace_jobs: true,
        ..ServerConfig::new(GridShape::new(2, 2))
    };
    let server = GemmServer::new(config).unwrap();
    let submit = |seed: u64| {
        let a = seeded_uniform(16, 16, seed);
        let b = seeded_uniform(16, 16, seed + 1);
        server.submit(JobSpec::square(16), a, b).unwrap()
    };
    let first = submit(1).wait().unwrap();
    let second = submit(3).wait().unwrap();
    let t1 = first.report.trace.expect("tracing enabled");
    let t2 = second.report.trace.expect("tracing enabled");
    // Identical jobs: each trace holds that job's events only, so the
    // two traces have the same (nonzero) event count — not a running sum.
    assert!(!t1.events.is_empty());
    assert_eq!(t1.events.len(), t2.events.len());
}

#[test]
fn graceful_shutdown_completes_queued_jobs() {
    let server = GemmServer::new(ServerConfig::new(GridShape::new(2, 2))).unwrap();
    let mut handles = Vec::new();
    let mut wants = Vec::new();
    for seed in 0..6u64 {
        let n = 16;
        let a = seeded_uniform(n, n, 2 * seed);
        let b = seeded_uniform(n, n, 2 * seed + 1);
        wants.push(reference(&a, &b));
        handles.push(server.submit(JobSpec::square(n), a, b).unwrap());
    }
    server.shutdown();
    for (h, want) in handles.into_iter().zip(&wants) {
        let out = h.wait().expect("queued jobs run to completion");
        assert!(out.c.dense().approx_eq(want, 1e-9));
    }
}
