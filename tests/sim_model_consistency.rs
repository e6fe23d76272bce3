//! Cross-validation of the three layers of the reproduction:
//!
//! 1. the *executable* algorithms (threads, real data),
//! 2. the *timing simulator* (message-level schedule replay),
//! 3. the *analytic model* (the paper's closed forms).
//!
//! Each pair must agree where their assumptions overlap. This is the
//! strongest evidence that the simulated BlueGene/P figures are replaying
//! the same schedule the real implementation executes.

use hsumma_repro::core::simdrive::{simulate, simulate_on, Schedule};
use hsumma_repro::core::{hsumma, summa, HsummaConfig, SummaConfig};
use hsumma_repro::matrix::{seeded_uniform, BlockDist, GemmKernel, GridShape};
use hsumma_repro::model::{hsumma_cost, summa_cost, BcastModel, ModelParams};
use hsumma_repro::netsim::{Platform, SimBcast, SimNet, SimReport};
use hsumma_repro::runtime::{BcastAlgorithm, Comm, Runtime};
use hsumma_repro::trace::{Trace, Tracer};

/// Free-running simulation on rank threads.
fn free_run(sched: Schedule, platform: &Platform) -> SimReport {
    simulate(&sched, platform, false)
}

/// HSUMMA at `b = B` under one broadcast algorithm.
fn hsumma_uniform(
    grid: GridShape,
    groups: GridShape,
    n: usize,
    b: usize,
    bcast: SimBcast,
) -> Schedule {
    Schedule::hsumma(grid, groups, n, b, b, bcast, bcast)
}

/// Counts the messages the executable algorithm sends, world-wide.
fn real_msgs(grid: GridShape, run: impl Fn(&hsumma_repro::runtime::Comm) + Send + Sync) -> u64 {
    Runtime::run(grid.size(), |comm| {
        run(comm);
        comm.stats().msgs_sent
    })
    .iter()
    .sum()
}

/// Runs the executable algorithm with a tracer attached and returns the
/// trace.
fn real_trace(grid: GridShape, run: impl Fn(&Comm) + Send + Sync) -> Trace {
    real_trace_p(grid.size(), run)
}

/// [`real_trace`] for rank counts that are not a 2-D grid (2.5D, TSQR).
fn real_trace_p(p: usize, run: impl Fn(&Comm) + Send + Sync) -> Trace {
    let tracer = Tracer::new(p);
    Runtime::run_traced(p, &tracer, |comm| run(comm));
    tracer.collect()
}

/// Runs the *same generic algorithm* over simulated clocks with phantom
/// payloads and a tracer attached, returning the trace.
fn sim_trace(p: usize, f: impl Fn(&hsumma_repro::netsim::spmd::SimComm) + Sync) -> Trace {
    let tracer = Tracer::new(p);
    let mut net = SimNet::new(p, Platform::grid5000().net);
    net.attach_tracer(&tracer);
    let _ = hsumma_repro::netsim::spmd::SimWorld::run(net, 0.0, false, f);
    tracer.collect()
}

/// The multiset identity both substrates must satisfy: every rank sends
/// the same `(src, dst, bytes)` multiset (zero-byte control messages
/// excluded) whether the schedule moves real data or phantom payloads.
fn assert_same_sends(real: &Trace, sim: &Trace, what: &str) {
    assert_eq!(
        real.per_rank_send_multisets(),
        sim.per_rank_send_multisets(),
        "{what}: real and simulated schedules moved different messages"
    );
}

/// The strongest cross-substrate check: the real runtime and the
/// simulator must emit *identical per-rank `(src, dst, bytes)` message
/// multisets* for the same SUMMA configuration — not just equal counts.
#[test]
fn real_and_sim_summa_emit_identical_payload_multisets() {
    let grid = GridShape::new(4, 4);
    let (n, b) = (32usize, 4usize);
    let a = seeded_uniform(n, n, 1);
    let bm = seeded_uniform(n, n, 2);
    let dist = BlockDist::new(grid, n, n);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&bm);
    let cfg = SummaConfig {
        block: b,
        bcast: BcastAlgorithm::Binomial,
        kernel: GemmKernel::Blocked,
    };
    let real = real_trace(grid, |comm| {
        let _ = summa(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            &cfg,
        );
    });

    let tracer = Tracer::new(grid.size());
    let mut net = SimNet::new(grid.size(), Platform::grid5000().net);
    net.attach_tracer(&tracer);
    simulate_on(
        &Schedule::summa(grid, n, b, SimBcast::Binomial),
        &mut net,
        0.0,
        false,
    );
    let sim = tracer.collect();

    assert_eq!(
        real.per_rank_send_multisets(),
        sim.per_rank_send_multisets(),
        "every rank must send the same (src, dst, bytes) multiset on both substrates"
    );
}

/// Same multiset identity for HSUMMA with a nontrivial grouping and
/// distinct inner/outer blocks.
#[test]
fn real_and_sim_hsumma_emit_identical_payload_multisets() {
    let grid = GridShape::new(4, 4);
    let groups = GridShape::new(2, 2);
    let (n, bb, bs) = (32usize, 8usize, 4usize);
    let a = seeded_uniform(n, n, 3);
    let bm = seeded_uniform(n, n, 4);
    let dist = BlockDist::new(grid, n, n);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&bm);
    let cfg = HsummaConfig {
        outer_block: bb,
        inner_block: bs,
        kernel: GemmKernel::Blocked,
        ..HsummaConfig::uniform(groups, bb)
    };
    let real = real_trace(grid, |comm| {
        let _ = hsumma(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            &cfg,
        );
    });

    let tracer = Tracer::new(grid.size());
    let mut net = SimNet::new(grid.size(), Platform::grid5000().net);
    net.attach_tracer(&tracer);
    simulate_on(
        &Schedule::hsumma(
            grid,
            groups,
            n,
            bb,
            bs,
            SimBcast::Binomial,
            SimBcast::Binomial,
        ),
        &mut net,
        0.0,
        false,
    );
    let sim = tracer.collect();

    assert_eq!(
        real.per_rank_send_multisets(),
        sim.per_rank_send_multisets(),
        "every rank must send the same (src, dst, bytes) multiset on both substrates"
    );
}

// ---------------------------------------------------------------------
// Per-rank multiset parity for every algorithm in the crate. Each test
// runs the *same generic function* on both substrates — real `Matrix`
// payloads over threads, `PhantomMat` over simulated clocks — and
// demands identical per-rank `(src, dst, bytes)` send multisets.
// Broadcasts are pinned to Binomial where configurable; the `bcast_mat`
// test runs every algorithm, since both substrates walk one schedule.
// ---------------------------------------------------------------------

use hsumma_repro::core::{
    block_lu, cannon, fox, hier_bcast, run_planned_gemm, summa_cyclic, summa_overlap, tile_of,
    tsqr, twodotfive, Communicator, Distribution, LuConfig, MatMulDims, PhantomMat, PlannedAlgo,
    TwoDotFiveConfig,
};
use hsumma_repro::matrix::{factor::seeded_diag_dominant, BlockCyclicDist, Matrix};

#[test]
fn real_and_sim_cannon_emit_identical_payload_multisets() {
    let grid = GridShape::new(4, 4);
    let (n, ts) = (32usize, 8usize);
    let tiles: Vec<Matrix> = (0..grid.size())
        .map(|r| seeded_uniform(ts, ts, 100 + r as u64))
        .collect();
    let real = real_trace(grid, |comm| {
        let t = &tiles[comm.rank()];
        let _ = cannon(comm, grid, n, t.clone(), t.clone(), GemmKernel::Blocked);
    });
    let sim = sim_trace(grid.size(), |comm| {
        let t = PhantomMat { rows: ts, cols: ts };
        let _ = cannon(comm, grid, n, t, t, GemmKernel::Blocked);
    });
    assert_same_sends(&real, &sim, "cannon");
}

#[test]
fn real_and_sim_fox_emit_identical_payload_multisets() {
    let grid = GridShape::new(4, 4);
    let (n, ts) = (32usize, 8usize);
    let tiles: Vec<Matrix> = (0..grid.size())
        .map(|r| seeded_uniform(ts, ts, 200 + r as u64))
        .collect();
    let real = real_trace(grid, |comm| {
        let t = &tiles[comm.rank()];
        let _ = fox(comm, grid, n, t, t, GemmKernel::Blocked);
    });
    let sim = sim_trace(grid.size(), |comm| {
        let t = PhantomMat { rows: ts, cols: ts };
        let _ = fox(comm, grid, n, &t, &t, GemmKernel::Blocked);
    });
    assert_same_sends(&real, &sim, "fox");
}

#[test]
fn real_and_sim_cyclic_summa_emit_identical_payload_multisets() {
    let grid = GridShape::new(4, 4);
    let (n, b) = (32usize, 4usize);
    let dist = BlockCyclicDist::new(grid, n, n, b);
    let (th, tw) = dist.tile_shape();
    let cfg = SummaConfig {
        block: b,
        bcast: BcastAlgorithm::Binomial,
        kernel: GemmKernel::Blocked,
    };
    let tiles: Vec<Matrix> = (0..grid.size())
        .map(|r| seeded_uniform(th, tw, 300 + r as u64))
        .collect();
    let real = real_trace(grid, |comm| {
        let t = &tiles[comm.rank()];
        let _ = summa_cyclic(comm, grid, n, t, t, &cfg);
    });
    let sim = sim_trace(grid.size(), |comm| {
        let t = PhantomMat { rows: th, cols: tw };
        let _ = summa_cyclic(comm, grid, n, &t, &t, &cfg);
    });
    assert_same_sends(&real, &sim, "cyclic summa");
}

#[test]
fn real_and_sim_overlap_emit_identical_payload_multisets() {
    let grid = GridShape::new(4, 4);
    let (n, ts) = (32usize, 8usize);
    let cfg = SummaConfig {
        block: 4,
        bcast: BcastAlgorithm::Binomial,
        kernel: GemmKernel::Blocked,
    };
    let tiles: Vec<Matrix> = (0..grid.size())
        .map(|r| seeded_uniform(ts, ts, 400 + r as u64))
        .collect();
    let real = real_trace(grid, |comm| {
        let t = &tiles[comm.rank()];
        let _ = summa_overlap(comm, grid, n, t, t, &cfg);
    });
    let sim = sim_trace(grid.size(), |comm| {
        let t = PhantomMat { rows: ts, cols: ts };
        let _ = summa_overlap(comm, grid, n, &t, &t, &cfg);
    });
    assert_same_sends(&real, &sim, "overlapped summa");
}

#[test]
fn real_and_sim_rect_summa_emit_identical_payload_multisets() {
    // Rectangular shapes exercise the m/l/n bookkeeping: A tiles are
    // 4×8, B tiles 8×4 on a 2×2 grid. On the 3×4 grid nothing divides:
    // the tiles are uneven and blocks of 3 end short of their tiles.
    for (grid, dims, block) in [
        (GridShape::new(2, 2), MatMulDims { m: 8, l: 16, n: 8 }, 2),
        (
            GridShape::new(3, 4),
            MatMulDims {
                m: 13,
                l: 17,
                n: 11,
            },
            3,
        ),
    ] {
        let plan = PlannedAlgo::Summa(SummaConfig {
            block,
            bcast: BcastAlgorithm::Binomial,
            kernel: GemmKernel::Blocked,
        });
        let MatMulDims { m, l, n } = dims;
        let shape = |rows, cols, rank| {
            let r = Distribution::grid2d(grid, rows, cols).range(rank);
            (r.rows(), r.cols())
        };
        let ats: Vec<Matrix> = (0..grid.size())
            .map(|r| {
                let (h, w) = shape(m, l, r);
                seeded_uniform(h, w, 500 + r as u64)
            })
            .collect();
        let bts: Vec<Matrix> = (0..grid.size())
            .map(|r| {
                let (h, w) = shape(l, n, r);
                seeded_uniform(h, w, 600 + r as u64)
            })
            .collect();
        let real = real_trace(grid, |comm| {
            let (a, b) = (&ats[comm.rank()], &bts[comm.rank()]);
            let _ = run_planned_gemm(comm, grid, m, n, l, a, b, &plan);
        });
        let sim = sim_trace(grid.size(), |comm| {
            let (ah, aw) = shape(m, l, comm.rank());
            let (bh, bw) = shape(l, n, comm.rank());
            let a = PhantomMat { rows: ah, cols: aw };
            let b = PhantomMat { rows: bh, cols: bw };
            let _ = run_planned_gemm(comm, grid, m, n, l, &a, &b, &plan);
        });
        assert_same_sends(&real, &sim, &format!("rectangular summa on {grid:?}"));
    }
}

#[test]
fn real_and_sim_lu_emit_identical_payload_multisets() {
    // Hierarchical panel broadcasts (groups = 2×2) on both substrates,
    // then shapes nothing divides: n = 50 on 2×3, prime p as 1×5, and
    // an extent smaller than a grid side. LU needs nonzero pivots on the
    // real side, hence diag-dominant data.
    let g = GridShape::new;
    for (grid, n, bs, groups) in [
        (g(4, 4), 16, 2, g(2, 2)),
        (g(2, 3), 50, 4, g(1, 3)),
        (g(1, 5), 12, 4, g(1, 1)),
        (g(4, 4), 3, 2, g(2, 2)),
    ] {
        let cfg = LuConfig {
            block: bs,
            bcast: BcastAlgorithm::Binomial,
            kernel: GemmKernel::Blocked,
            groups,
        };
        let a = seeded_diag_dominant(n, 9);
        let at = Distribution::grid2d(grid, n, n).scatter(&a);
        let real = real_trace(grid, |comm| {
            let _ = block_lu(comm, grid, n, &at[comm.rank()].clone(), &cfg);
        });
        let sim = sim_trace(grid.size(), |comm| {
            let (rows, cols) = tile_of(grid, comm.rank(), n, n);
            let _ = block_lu(comm, grid, n, &PhantomMat { rows, cols }, &cfg);
        });
        assert_same_sends(&real, &sim, &format!("block LU on {grid:?}, n = {n}"));
    }
}

#[test]
fn real_and_sim_twodotfive_emit_identical_payload_multisets() {
    // q = 2, c = 2: replication broadcasts, layer-local partial SUMMA,
    // and the depth reduction all have to line up across substrates.
    let cfg = TwoDotFiveConfig {
        q: 2,
        c: 2,
        summa: SummaConfig {
            block: 2,
            bcast: BcastAlgorithm::Binomial,
            kernel: GemmKernel::Blocked,
        },
    };
    let (n, ts, p) = (8usize, 4usize, 8usize);
    let tiles: Vec<Matrix> = (0..p)
        .map(|r| seeded_uniform(ts, ts, 700 + r as u64))
        .collect();
    let real = real_trace_p(p, |comm| {
        let t = &tiles[comm.rank()];
        let _ = twodotfive(comm, n, t, t, &cfg);
    });
    let sim = sim_trace(p, |comm| {
        let t = PhantomMat { rows: ts, cols: ts };
        let _ = twodotfive(comm, n, &t, &t, &cfg);
    });
    assert_same_sends(&real, &sim, "2.5D");
}

#[test]
fn real_and_sim_tsqr_emit_identical_payload_multisets() {
    // Tree reduction + downward sweep + final R broadcast. QR needs
    // full-rank local blocks on the real side, hence random data.
    let (p, rows, ncols) = (4usize, 8usize, 3usize);
    let blocks: Vec<Matrix> = (0..p)
        .map(|r| seeded_uniform(rows, ncols, 800 + r as u64))
        .collect();
    let real = real_trace_p(p, |comm| {
        let _ = tsqr(comm, &blocks[comm.rank()]);
    });
    let sim = sim_trace(p, |comm| {
        let block = PhantomMat { rows, cols: ncols };
        let _ = tsqr(comm, &block);
    });
    assert_same_sends(&real, &sim, "TSQR");
}

#[test]
fn real_and_sim_hier_bcast_emit_identical_payload_multisets() {
    // Multi-level broadcast with a non-leader root (rank 5, levels 2×4):
    // the leader relay and the subgroup broadcasts must pair identically.
    let p = 8usize;
    let root = 5usize;
    let real = real_trace_p(p, |comm| {
        let mut m = if comm.rank() == root {
            seeded_uniform(2, 4, 9)
        } else {
            Matrix::zeros(2, 4)
        };
        hier_bcast(comm, BcastAlgorithm::Binomial, root, &mut m, &[2, 4]).unwrap();
    });
    let sim = sim_trace(p, |comm| {
        let mut m = PhantomMat { rows: 2, cols: 4 };
        hier_bcast(comm, BcastAlgorithm::Binomial, root, &mut m, &[2, 4]).unwrap();
    });
    assert_same_sends(&real, &sim, "hierarchical broadcast");
}

#[test]
fn real_and_sim_bcast_mat_emit_identical_payload_multisets() {
    // Every broadcast algorithm, from every kind of root, on rank counts
    // that are and are not powers of two. A 3×7 panel deals unevenly
    // over every p here, so segment and chunk sizes differ per message.
    let (rows, cols) = (3usize, 7usize);
    for algo in [
        BcastAlgorithm::Flat,
        BcastAlgorithm::Binomial,
        BcastAlgorithm::Binary,
        BcastAlgorithm::Ring,
        BcastAlgorithm::Pipelined { segments: 3 },
        BcastAlgorithm::ScatterAllgather,
    ] {
        for p in [3usize, 5, 8] {
            for root in [0, p / 2, p - 1] {
                let real = real_trace_p(p, |comm| {
                    let mut m = if comm.rank() == root {
                        seeded_uniform(rows, cols, 11)
                    } else {
                        Matrix::zeros(rows, cols)
                    };
                    comm.bcast_mat(algo, root, &mut m).unwrap();
                });
                let sim = sim_trace(p, |comm| {
                    let mut m = PhantomMat { rows, cols };
                    comm.bcast_mat(algo, root, &mut m).unwrap();
                });
                assert_same_sends(&real, &sim, &format!("{algo:?} p={p} root={root}"));
            }
        }
    }
}

#[test]
fn real_summa_message_count_matches_simulated_schedule() {
    let grid = GridShape::new(4, 4);
    let n = 32;
    let b = 4;
    let a = seeded_uniform(n, n, 1);
    let bm = seeded_uniform(n, n, 2);
    let dist = BlockDist::new(grid, n, n);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&bm);

    let cfg = SummaConfig {
        block: b,
        bcast: BcastAlgorithm::Binomial,
        kernel: GemmKernel::Blocked,
    };
    let real = real_msgs(grid, |comm| {
        let _ = summa(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            &cfg,
        );
    });

    let sim = simulate(
        &Schedule::summa(grid, n, b, SimBcast::Binomial),
        &Platform::grid5000(),
        false,
    );
    assert_eq!(
        real, sim.msgs,
        "real schedule must match simulated schedule"
    );
}

#[test]
fn real_hsumma_message_count_matches_simulated_schedule() {
    let grid = GridShape::new(4, 4);
    let groups = GridShape::new(2, 2);
    let n = 32;
    let b = 4;
    let a = seeded_uniform(n, n, 3);
    let bm = seeded_uniform(n, n, 4);
    let dist = BlockDist::new(grid, n, n);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&bm);

    let cfg = HsummaConfig {
        kernel: GemmKernel::Blocked,
        ..HsummaConfig::uniform(groups, b)
    };
    let real = real_msgs(grid, |comm| {
        let _ = hsumma(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            &cfg,
        );
    });

    let sim = simulate(
        &hsumma_uniform(grid, groups, n, b, SimBcast::Binomial),
        &Platform::grid5000(),
        false,
    );
    assert_eq!(
        real, sim.msgs,
        "real schedule must match simulated schedule"
    );
}

#[test]
fn simulated_summa_matches_analytic_model_binomial_square_grid() {
    // On a square power-of-two grid with binomial broadcast the simulated
    // clocks re-synchronize each phase, so simulation and closed form
    // agree to rounding.
    let platform = Platform::bluegene_p();
    let params = ModelParams {
        alpha: platform.net.alpha,
        beta: platform.net.beta,
        gamma: platform.gamma,
    };
    for (side, n, b) in [(4usize, 64usize, 8usize), (8, 128, 16)] {
        let grid = GridShape::new(side, side);
        let sim = free_run(Schedule::summa(grid, n, b, SimBcast::Binomial), &platform);
        let model = summa_cost(
            &params,
            BcastModel::Binomial,
            n as f64,
            (side * side) as f64,
            b as f64,
        );
        let rel = (sim.comm_time - model.comm()).abs() / model.comm();
        assert!(
            rel < 1e-9,
            "side={side}: sim {} vs model {} (rel {rel})",
            sim.comm_time,
            model.comm()
        );
        let relc = (sim.comp_time - model.compute).abs() / model.compute;
        assert!(
            relc < 1e-9,
            "compute mismatch: {} vs {}",
            sim.comp_time,
            model.compute
        );
    }
}

#[test]
fn simulated_hsumma_matches_analytic_model_binomial() {
    let platform = Platform::bluegene_p();
    let params = ModelParams {
        alpha: platform.net.alpha,
        beta: platform.net.beta,
        gamma: platform.gamma,
    };
    let grid = GridShape::new(8, 8);
    let groups = GridShape::new(2, 2);
    let (n, b) = (128usize, 16usize);
    let sim = free_run(
        hsumma_uniform(grid, groups, n, b, SimBcast::Binomial),
        &platform,
    );
    let model = hsumma_cost(
        &params,
        BcastModel::Binomial,
        BcastModel::Binomial,
        n as f64,
        64.0,
        4.0,
        b as f64,
        b as f64,
    );
    let rel = (sim.comm_time - model.comm()).abs() / model.comm();
    assert!(
        rel < 1e-9,
        "sim {} vs model {}",
        sim.comm_time,
        model.comm()
    );
}

#[test]
fn simulated_vdg_tracks_model_within_tolerance() {
    // Van de Geijn chains do not fully resynchronize, so allow a few
    // percent between simulation and the closed form.
    let platform = Platform::grid5000();
    let params = ModelParams {
        alpha: platform.net.alpha,
        beta: platform.net.beta,
        gamma: 0.0,
    };
    let grid = GridShape::new(8, 8);
    let (n, b) = (256usize, 32usize);
    let mut sim = free_run(
        Schedule::summa(grid, n, b, SimBcast::ScatterAllgather),
        &platform,
    );
    sim.comp_time = 0.0;
    let model = summa_cost(&params, BcastModel::VanDeGeijn, n as f64, 64.0, b as f64);
    let rel = (sim.total_time - model.comm()).abs() / model.comm();
    assert!(
        rel < 0.25,
        "sim {} vs model {} (rel {rel})",
        sim.total_time,
        model.comm()
    );
}

#[test]
fn model_and_simulator_agree_on_who_wins() {
    // For each platform, the sign of (SUMMA − best HSUMMA) must agree
    // between the analytic sweep and the simulated sweep.
    use hsumma_repro::core::tuning::{best_by_comm, power_of_two_gs, sweep_groups};
    use hsumma_repro::model::predict;

    let platform = Platform::bluegene_p();
    let grid = GridShape::new(16, 16);
    let (n, b) = (1024usize, 64usize);
    let p = grid.size();

    let sim_summa_r = free_run(
        Schedule::summa(grid, n, b, SimBcast::ScatterAllgather),
        &platform,
    );
    let sweep = sweep_groups(grid, &power_of_two_gs(p), |groups| {
        free_run(
            hsumma_uniform(grid, groups, n, b, SimBcast::ScatterAllgather),
            &platform,
        )
    });
    let sim_best = best_by_comm(&sweep);
    let sim_hsumma_wins = sim_best.report.comm_time < sim_summa_r.comm_time * 0.999;

    let params = ModelParams {
        alpha: platform.net.alpha,
        beta: platform.net.beta,
        gamma: platform.gamma,
    };
    let gs: Vec<f64> = power_of_two_gs(p).iter().map(|&g| g as f64).collect();
    let msweep = predict::sweep_groups(
        &params,
        BcastModel::VanDeGeijn,
        n as f64,
        p as f64,
        b as f64,
        &gs,
    );
    let mbest = predict::best_point(&msweep);
    let model_hsumma_wins = mbest.hsumma.comm() < mbest.summa.comm() * 0.999;

    assert_eq!(
        sim_hsumma_wins, model_hsumma_wins,
        "simulator (win={sim_hsumma_wins}) and model (win={model_hsumma_wins}) disagree"
    );
}
