//! Substrate and model parity for the COSMA brick schedule.
//!
//! The schedule (fiber splits, sliced brick broadcasts, reduce-scatter
//! ring, gather) is one generic function over `Communicator`, so:
//!
//! 1. the threaded runtime and the simulator must emit identical
//!    per-rank `(src, dst, bytes)` send multisets — for pure brick
//!    layouts *and* through the checkerboard↔brick redistribution path
//!    of `run_planned_gemm`;
//! 2. the simulator's total wire bytes must agree with the analytic
//!    [`hsumma_model::cosma_volume`] — exactly when the decomposition
//!    divides every extent, and within a fraction of a percent on
//!    awkward shapes (the only inexact term is the gather of uneven
//!    reduce-scatter fragments).

use hsumma_repro::core::{
    cosma, run_planned_gemm, simulate, BrickDecomp, CosmaConfig, Distribution, MatLike, MatMulDims,
    PhantomMat, PlannedAlgo, Schedule,
};
use hsumma_repro::matrix::{seeded_uniform, GridShape, Matrix};
use hsumma_repro::model::{cosma_volume, BrickShape};
use hsumma_repro::netsim::{Platform, SimNet};
use hsumma_repro::runtime::{Comm, Runtime};
use hsumma_repro::trace::{Trace, Tracer};

fn real_trace(p: usize, run: impl Fn(&Comm) + Send + Sync) -> Trace {
    let tracer = Tracer::new(p);
    Runtime::run_traced(p, &tracer, |comm| run(comm));
    tracer.collect()
}

fn sim_trace(p: usize, f: impl Fn(&hsumma_repro::netsim::spmd::SimComm) + Sync) -> Trace {
    let tracer = Tracer::new(p);
    let mut net = SimNet::new(p, Platform::grid5000().net);
    net.attach_tracer(&tracer);
    let _ = hsumma_repro::netsim::spmd::SimWorld::run(net, 0.0, false, f);
    tracer.collect()
}

/// Runs cosma on both substrates over the same brick layouts (dealt by
/// the same `Distribution` descriptors — real matrices on one side,
/// shape-only phantoms on the other) and asserts multiset equality.
fn assert_brick_parity(p: usize, m: usize, n: usize, k: usize, cfg: CosmaConfig) {
    let d = cfg.decomp;
    let at = d.a_distribution(m, k, p).scatter(&seeded_uniform(m, k, 41));
    let bt = d.b_distribution(k, n, p).scatter(&seeded_uniform(k, n, 42));
    let pat = d.a_distribution(m, k, p).scatter(&PhantomMat::zeros(m, k));
    let pbt = d.b_distribution(k, n, p).scatter(&PhantomMat::zeros(k, n));

    let real = real_trace(p, |comm| {
        let _ = cosma(comm, m, n, k, &at[comm.rank()], &bt[comm.rank()], &cfg);
    });
    let sim = sim_trace(p, |comm| {
        let _ = cosma(comm, m, n, k, &pat[comm.rank()], &pbt[comm.rank()], &cfg);
    });
    assert_eq!(
        real.per_rank_send_multisets(),
        sim.per_rank_send_multisets(),
        "cosma {:?} p={p} ({m}x{k})·({k}x{n}): substrates moved different messages",
        cfg.decomp
    );
}

#[test]
fn real_and_sim_cosma_emit_identical_payload_multisets() {
    // Replicated decomposition on uneven extents: all three fiber kinds
    // and the reduce-scatter ring are live.
    let cfg = CosmaConfig {
        decomp: BrickDecomp::new(2, 2, 2),
        steps: 2,
        ..CosmaConfig::for_problem(8, 12, 10, 14)
    };
    assert_brick_parity(8, 12, 10, 14, cfg);
}

#[test]
fn cosma_parity_with_idle_ranks_on_awkward_p() {
    // p = 6 but only 2·2·1 = 4 active ranks: the idle remainder must
    // take the same (empty) schedule on both substrates.
    let cfg = CosmaConfig {
        decomp: BrickDecomp::new(2, 2, 1),
        ..CosmaConfig::for_problem(6, 9, 7, 11)
    };
    assert_brick_parity(6, 9, 7, 11, cfg);
}

#[test]
fn cosma_parity_through_the_redistribution_path() {
    // The full planner dispatch: checkerboard tiles in, redistribute to
    // bricks, run, redistribute back. Messages include the REDIST band.
    let grid = GridShape::new(2, 2);
    let (m, n, k) = (7usize, 5usize, 9usize);
    let p = grid.size();
    let plan = PlannedAlgo::Cosma(CosmaConfig::for_problem(p, m, n, k));
    let at = Distribution::grid2d(grid, m, k).scatter(&seeded_uniform(m, k, 51));
    let bt = Distribution::grid2d(grid, k, n).scatter(&seeded_uniform(k, n, 52));
    let pat = Distribution::grid2d(grid, m, k).scatter(&PhantomMat::zeros(m, k));
    let pbt = Distribution::grid2d(grid, k, n).scatter(&PhantomMat::zeros(k, n));

    let real = real_trace(p, |comm| {
        let _ = run_planned_gemm(
            comm,
            grid,
            m,
            n,
            k,
            &at[comm.rank()],
            &bt[comm.rank()],
            &plan,
        );
    });
    let sim = sim_trace(p, |comm| {
        let _ = run_planned_gemm(
            comm,
            grid,
            m,
            n,
            k,
            &pat[comm.rank()],
            &pbt[comm.rank()],
            &plan,
        );
    });
    assert_eq!(
        real.per_rank_send_multisets(),
        sim.per_rank_send_multisets(),
        "planned cosma with redistribution: substrates moved different messages"
    );
}

#[test]
fn sim_wire_bytes_match_the_analytic_volume_exactly_when_divisible() {
    // 64 ranks as a 4×4×4 brick cube over a 64³ problem: every brick
    // and every reduce-scatter fragment divides evenly, so the closed
    // form is exact to the byte.
    let (p, m, n, k) = (64usize, 64usize, 64usize, 64usize);
    let d = BrickDecomp::new(4, 4, 4);
    let cfg = CosmaConfig {
        decomp: d,
        ..CosmaConfig::for_problem(p, m, n, k)
    };
    let dims = MatMulDims { m, l: k, n };
    let sched = Schedule::Cosma { p, dims, cfg };
    let report = simulate(&sched, &Platform::grid5000(), false);
    let predicted = cosma_volume(
        BrickShape {
            a: d.a,
            b: d.b,
            c: d.c,
        },
        m as f64,
        n as f64,
        k as f64,
    );
    assert_eq!(
        report.bytes as f64, predicted,
        "sim moved {} bytes, model predicts {predicted}",
        report.bytes
    );
}

#[test]
fn sim_wire_bytes_track_the_analytic_volume_on_awkward_shapes() {
    // Prime p, prime-ish extents: bricks and fragments are uneven. The
    // broadcast and reduce-scatter terms telescope exactly over any
    // exact-cover dealing; only the gather term (root's owned fragment)
    // deviates, bounded well under a percent at these sizes.
    for (p, m, n, k) in [(13usize, 37usize, 29usize, 41usize), (12, 33, 45, 27)] {
        let cfg = CosmaConfig::for_problem(p, m, n, k);
        let d = cfg.decomp;
        let dims = MatMulDims { m, l: k, n };
        let sched = Schedule::Cosma { p, dims, cfg };
        let report = simulate(&sched, &Platform::grid5000(), false);
        let predicted = cosma_volume(
            BrickShape {
                a: d.a,
                b: d.b,
                c: d.c,
            },
            m as f64,
            n as f64,
            k as f64,
        );
        let rel = (report.bytes as f64 - predicted).abs() / predicted.max(1.0);
        assert!(
            rel < 0.02,
            "p={p} ({m}x{k})·({k}x{n}) decomp {d:?}: sim {} vs model {predicted} (rel {rel})",
            report.bytes
        );
    }
}

#[test]
fn cosma_product_is_correct_through_both_substrate_drivers() {
    // The real run must also be *numerically* right on uneven bricks:
    // gather the l = 0 layer's C bricks and compare with the serial
    // reference.
    let (p, m, n, k) = (8usize, 12usize, 10usize, 14usize);
    let cfg = CosmaConfig {
        decomp: BrickDecomp::new(2, 2, 2),
        ..CosmaConfig::for_problem(p, m, n, k)
    };
    let d = cfg.decomp;
    let a = seeded_uniform(m, k, 61);
    let b = seeded_uniform(k, n, 62);
    let at = d.a_distribution(m, k, p).scatter(&a);
    let bt = d.b_distribution(k, n, p).scatter(&b);
    let outs: Vec<Option<Matrix>> = Runtime::run(p, |comm| {
        cosma(comm, m, n, k, &at[comm.rank()], &bt[comm.rank()], &cfg).unwrap()
    });
    let tiles: Vec<Matrix> = outs
        .into_iter()
        .map(|o| o.unwrap_or_else(|| Matrix::zeros(0, 0)))
        .collect();
    let got = d.c_distribution(m, n, p).gather(&tiles);
    let mut want = Matrix::zeros(m, n);
    hsumma_repro::matrix::gemm(hsumma_repro::matrix::GemmKernel::Naive, &a, &b, &mut want);
    assert!(
        got.approx_eq(&want, 1e-9),
        "cosma product wrong: err {}",
        got.max_abs_diff(&want)
    );
}
