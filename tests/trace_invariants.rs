//! Invariants of the tracing subsystem (`hsumma-trace`) across both
//! substrates: zero overhead when disabled, exact critical paths on
//! known schedules, and well-formed Chrome-trace exports.

use hsumma_repro::core::simdrive::{simulate_on, Schedule, SimEngine};
use hsumma_repro::core::{
    hsumma, run_planned_gemm, summa, summa_cyclic, twodotfive, HsummaConfig, MatMulDims,
    PlannedAlgo, SummaConfig, TwoDotFiveConfig,
};
use hsumma_repro::matrix::{
    seeded_uniform, BlockCyclicDist, BlockDist, GemmKernel, GridShape, Matrix,
};
use hsumma_repro::netsim::{Hockney, Platform, SimBcast, SimNet};
use hsumma_repro::runtime::{BcastAlgorithm, Runtime};
use hsumma_repro::trace::{validate_json, EventKind, Trace, Tracer};

fn summa_cfg(b: usize) -> SummaConfig {
    SummaConfig {
        block: b,
        bcast: BcastAlgorithm::Binomial,
        kernel: GemmKernel::Blocked,
    }
}

/// With no tracer attached, the hot path must stay allocation-free
/// (`payload_clones == 0` on relay ranks, as before tracing existed) and
/// an enabled-elsewhere tracer must see zero events from this run.
#[test]
fn disabled_tracer_adds_no_events_and_no_hot_path_allocations() {
    let grid = GridShape::new(4, 4);
    let n = 32;
    let a = seeded_uniform(n, n, 1);
    let bm = seeded_uniform(n, n, 2);
    let dist = BlockDist::new(grid, n, n);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&bm);
    let cfg = summa_cfg(4);

    // A live tracer that the run is NOT attached to: it must stay empty.
    let bystander = Tracer::new(grid.size());
    let stats = Runtime::run(grid.size(), |comm| {
        comm.reset_stats();
        let _ = summa(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            &cfg,
        );
        (comm.rank(), comm.tracing(), comm.stats())
    });
    // Binomial relays forward Arc-shared payloads: only broadcast *roots*
    // materialize a buffer, exactly once per broadcast they originate. In
    // SUMMA the root rotates over grid columns (row bcast) and rows
    // (column bcast), so each rank roots steps/cols + steps/rows of them.
    // Any extra clone means tracing changed the hot path.
    let steps = n / 4;
    let roots_per_rank = (steps / grid.cols + steps / grid.rows) as u64;
    for (rank, tracing, s) in &stats {
        assert!(!tracing, "rank {rank} must see tracing disabled");
        assert_eq!(
            s.payload_clones, roots_per_rank,
            "rank {rank}: relays must forward Arc-shared payloads, \
             roots materialize exactly once per broadcast"
        );
    }
    let t = bystander.collect();
    assert_eq!(t.events.len(), 0, "unattached tracer must stay empty");
    assert_eq!(t.dropped, 0);
}

/// A simulated binomial broadcast over `p = 2^k` ranks has a critical
/// path of exactly `log2(p)` message edges — each round of the tree adds
/// one hop to the longest chain.
#[test]
fn binomial_bcast_critical_path_is_exactly_log2_p_edges() {
    use hsumma_repro::core::{Communicator, PhantomMat};
    use hsumma_repro::netsim::spmd::SimWorld;
    for p in [2usize, 4, 8, 16, 32] {
        let tracer = Tracer::new(p);
        let mut net = SimNet::new(p, Hockney::new(1e-5, 1e-9));
        net.attach_tracer(&tracer);
        // 512 f64 elements = the 4096 wire bytes the cost check expects.
        let (_net, _) = SimWorld::run(net, 0.0, false, move |comm| {
            let mut m = PhantomMat { rows: 1, cols: 512 };
            comm.bcast_mat(SimBcast::Binomial, 0, &mut m).unwrap();
        });
        let cp = tracer.collect().critical_path();
        let want = p.ilog2() as usize;
        assert_eq!(
            cp.message_edges.len(),
            want,
            "p={p}: expected ceil(log2 p) = {want} message edges, got {:?}",
            cp.message_edges
        );
        // And the makespan equals the per-hop cost times the hop count.
        let hop = 1e-5 + 4096.0 * 1e-9;
        assert!(
            (cp.makespan - hop * want as f64).abs() < 1e-12,
            "p={p}: makespan {} != {want} hops x {hop}",
            cp.makespan
        );
    }
}

/// Both substrates export valid Chrome-trace JSON with one complete-span
/// entry per traced event plus per-rank metadata.
#[test]
fn chrome_exports_from_both_substrates_validate() {
    let grid = GridShape::new(2, 2);
    let n = 16;
    let a = seeded_uniform(n, n, 5);
    let bm = seeded_uniform(n, n, 6);
    let dist = BlockDist::new(grid, n, n);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&bm);
    let cfg = HsummaConfig {
        kernel: GemmKernel::Blocked,
        ..HsummaConfig::uniform(GridShape::new(2, 2), 4)
    };

    let tracer = Tracer::new(grid.size());
    Runtime::run_traced(grid.size(), &tracer, |comm| {
        let _ = hsumma(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            &cfg,
        );
    });
    let real = tracer.collect();
    let json = real.to_chrome_json();
    validate_json(&json).expect("real-run export must be valid JSON");
    assert_eq!(
        json.matches("\"ph\":\"X\"").count(),
        real.events.len(),
        "one complete span per traced event"
    );
    assert_eq!(json.matches("thread_name").count(), grid.size());

    let sim_tracer = Tracer::new(grid.size());
    let mut net = SimNet::new(grid.size(), Platform::grid5000().net);
    net.attach_tracer(&sim_tracer);
    let bc = SimBcast::Binomial;
    let sched = Schedule::hsumma(grid, GridShape::new(2, 2), n, 4, 4, bc, bc);
    simulate_on(&sched, &mut net, 0.0, SimEngine::Threads, false);
    let sim = sim_tracer.collect();
    let sim_json = sim.to_chrome_json();
    validate_json(&sim_json).expect("sim export must be valid JSON");
    assert_eq!(sim_json.matches("\"ph\":\"X\"").count(), sim.events.len());
}

/// The per-pivot-step breakdown covers every step of the schedule and
/// accounts the right per-step message count and flop total.
#[test]
fn step_breakdown_covers_the_whole_schedule() {
    let grid = GridShape::new(4, 4);
    let groups = GridShape::new(2, 2);
    let (n, bb, bs) = (32usize, 8usize, 4usize);
    let tracer = Tracer::new(grid.size());
    let mut net = SimNet::new(grid.size(), Platform::grid5000().net);
    net.attach_tracer(&tracer);
    let bc = SimBcast::Binomial;
    let sched = Schedule::hsumma(grid, groups, n, bb, bs, bc, bc);
    let gamma = Platform::grid5000().gamma;
    simulate_on(&sched, &mut net, gamma, SimEngine::Threads, false);
    let trace = tracer.collect();
    let rows = trace.step_breakdown();
    assert_eq!(rows.len(), n / bb, "one row per outer pivot step");
    let total_payload_msgs: u64 = rows.iter().map(|r| r.msgs).sum();
    assert_eq!(
        total_payload_msgs as usize,
        trace.payload_send_multiset().len(),
        "every message belongs to exactly one step"
    );
    // 2·n²·(n/p) flops per rank in total, attributed across steps.
    let p = grid.size();
    let want_flops = 2 * (n * n * n / p) * p;
    let total_flops: u64 = rows.iter().map(|r| r.flops).sum();
    assert_eq!(total_flops as usize, want_flops);
    for row in &rows {
        assert_eq!(row.outer, bb);
        assert_eq!(row.inner, bs);
        assert!(row.comm_max > 0.0, "step {}: no communication?", row.k);
        assert!(row.comp_max > 0.0, "step {}: no compute?", row.k);
    }
}

/// Spans recorded by a traced real run nest correctly: every p2p event
/// inside a collective lies within its span, on every rank.
#[test]
fn real_run_collective_spans_contain_their_messages() {
    let grid = GridShape::new(2, 2);
    let n = 16;
    let a = seeded_uniform(n, n, 7);
    let bm = seeded_uniform(n, n, 8);
    let dist = BlockDist::new(grid, n, n);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&bm);
    let cfg = summa_cfg(4);
    let tracer = Tracer::new(grid.size());
    Runtime::run_traced(grid.size(), &tracer, |comm| {
        let _ = summa(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            &cfg,
        );
    });
    let trace = tracer.collect();
    assert!(trace.count(|e| matches!(e.kind, EventKind::Collective { .. })) > 0);
    for rank in 0..grid.size() {
        let events: Vec<_> = trace.events_of(rank).collect();
        for c in events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Collective { .. }))
        {
            // Any message overlapping the collective's interval must be
            // fully inside it (spans close in completion order).
            for m in events.iter().filter(|e| {
                matches!(e.kind, EventKind::Send { .. } | EventKind::Recv { .. })
                    && e.t0 >= c.t0
                    && e.t0 < c.t1
            }) {
                assert!(
                    m.t1 <= c.t1 + 1e-9,
                    "rank {rank}: message [{}, {}] escapes collective [{}, {}]",
                    m.t0,
                    m.t1,
                    c.t0,
                    c.t1
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Every pivot loop is the engine's, so every member of the family is
// visible to the tracer: one pivot-step span per step a rank takes, and
// compute spans that carry their flops. A private copy of the loop that
// drops either (as rectangular, cyclic and 2.5D once did) fails here.
// ---------------------------------------------------------------------

/// The three schedules with, for each, the pivot steps every rank takes
/// and the flops of the whole multiply: 12×8×16 through
/// `PlannedAlgo::Summa` on 2×2, cyclic SUMMA at n = 8 on 2×2, and 2.5D at
/// n = 8 on q = 2, c = 2 (each layer takes every other step) — all b = 2.
fn family() -> [(Schedule, usize, usize); 3] {
    let (grid, n, cfg) = (GridShape::new(2, 2), 8, summa_cfg(2));
    let dims = MatMulDims { m: 12, l: 8, n: 16 };
    let plan = PlannedAlgo::Summa(cfg);
    let layered = TwoDotFiveConfig {
        q: 2,
        c: 2,
        summa: cfg,
    };
    [
        (Schedule::Gemm { grid, dims, plan }, 8 / 2, 2 * 12 * 16 * 8),
        (Schedule::Cyclic { grid, n, cfg }, n / 2, 2 * n * n * n),
        (
            Schedule::TwoDotFive { n, cfg: layered },
            n / 2 / 2,
            2 * n * n * n,
        ),
    ]
}

/// Asserts `steps` pivot-step spans on every rank and `flops` in total
/// over all compute spans.
fn assert_steps_and_flops(sched: &Schedule, trace: &Trace, steps: usize, flops: usize) {
    for rank in 0..sched.ranks() {
        let got = trace
            .events_of(rank)
            .filter(|e| matches!(e.kind, EventKind::PivotStep { .. }))
            .count();
        assert_eq!(got, steps, "{sched:?}: pivot-step spans on rank {rank}");
    }
    let got: u64 = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Compute { flops } => Some(flops),
            _ => None,
        })
        .sum();
    assert_eq!(got as usize, flops, "{sched:?}: total compute-span flops");
}

#[test]
fn rect_cyclic_and_twodotfive_steps_are_traced_on_the_threaded_runtime() {
    for (sched, steps, flops) in family() {
        let tracer = Tracer::new(sched.ranks());
        let run = |f: &(dyn Fn(&hsumma_repro::runtime::Comm) + Sync)| {
            Runtime::run_traced(sched.ranks(), &tracer, |comm| f(comm));
        };
        match sched {
            Schedule::Gemm { grid, dims, plan } => {
                let MatMulDims { m, l, n } = dims;
                let at = BlockDist::new(grid, m, l).scatter(&seeded_uniform(m, l, 1));
                let bt = BlockDist::new(grid, l, n).scatter(&seeded_uniform(l, n, 2));
                run(&|comm| {
                    let (a, b) = (&at[comm.rank()], &bt[comm.rank()]);
                    run_planned_gemm(comm, grid, m, n, l, a, b, &plan).unwrap();
                });
            }
            Schedule::Cyclic { grid, n, cfg } => {
                let dist = BlockCyclicDist::new(grid, n, n, cfg.block);
                let at = dist.scatter(&seeded_uniform(n, n, 3));
                let bt = dist.scatter(&seeded_uniform(n, n, 4));
                run(&|comm| {
                    let (a, b) = (&at[comm.rank()], &bt[comm.rank()]);
                    summa_cyclic(comm, grid, n, a, b, &cfg).unwrap();
                });
            }
            Schedule::TwoDotFive { n, cfg } => {
                // Layers beyond the first pass zeros; only shapes matter.
                let tile = Matrix::zeros(n / cfg.q, n / cfg.q);
                run(&|comm| {
                    twodotfive(comm, n, &tile, &tile, &cfg).unwrap();
                });
            }
            other => unreachable!("{other:?} is not in the family"),
        }
        assert_steps_and_flops(&sched, &tracer.collect(), steps, flops);
    }
}

#[test]
fn rect_cyclic_and_twodotfive_steps_are_traced_on_the_simulator() {
    for (sched, steps, flops) in family() {
        let tracer = Tracer::new(sched.ranks());
        let plat = Platform::grid5000();
        let mut net = SimNet::new(sched.ranks(), plat.net);
        net.attach_tracer(&tracer);
        simulate_on(&sched, &mut net, plat.gamma, SimEngine::Threads, false);
        assert_steps_and_flops(&sched, &tracer.collect(), steps, flops);
    }
}
