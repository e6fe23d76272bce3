//! Golden parity between the two simulation engines, in the style of
//! `sim_golden_parity.rs`: for every dense schedule, the record-and-
//! replay engine (`RecordComm` → `EventLoopSim`) must produce
//!
//! 1. a [`SimReport`] **bit-identical** (`f64::to_bits`) to the
//!    thread-per-rank `SimComm` run, and
//! 2. identical per-rank `(src, dst, bytes)` send multisets through the
//!    same tracer hooks,
//!
//! at p ≤ 256, faults and deadlines included. This is the load-bearing
//! anchor of the schedule-as-data refactor: it is what licenses running
//! the planner's G sweeps and the p = 2²⁰ Fig. 10 validation on the
//! threadless engine and attributing the numbers to the same simulator
//! the rest of the test suite pins.

use hsumma_repro::core::simdrive::{replay_on, simulate, threads_on, Schedule, SimEngine};
use hsumma_repro::core::{BrickDecomp, CosmaConfig, MatMulDims, SummaConfig, TwoDotFiveConfig};
use hsumma_repro::matrix::GridShape;
use hsumma_repro::netsim::{
    EventLoopSim, NoiseModel, Platform, SimBcast, SimNet, SimReport, SimRunOptions, SimWorld,
};
use hsumma_repro::trace::{
    CommError, CommErrorKind, FaultPlan, TagClass, Tracer, COLLECTIVE_TAG_FLOOR,
};
use std::sync::Arc;

fn platform() -> Platform {
    Platform::grid5000()
}

fn bits(r: &SimReport) -> (u64, u64, u64, u64, u64) {
    (
        r.total_time.to_bits(),
        r.comm_time.to_bits(),
        r.comp_time.to_bits(),
        r.msgs,
        r.bytes,
    )
}

type Multisets = Vec<Vec<(usize, usize, u64)>>;

/// Runs `f` over a tracer-attached fresh network and returns the report
/// plus the per-rank send multisets (asserting the tracer kept every
/// event — a dropped event would make the comparison vacuous).
fn traced(
    p: usize,
    f: impl FnOnce(&mut SimNet) -> SimReport,
) -> ((u64, u64, u64, u64, u64), Multisets) {
    let tracer = Tracer::with_capacity(p, 1 << 16);
    let mut net = SimNet::new(p, platform().net);
    net.attach_tracer(&tracer);
    let report = f(&mut net);
    let trace = tracer.collect();
    assert_eq!(trace.dropped, 0, "tracer overflow");
    (bits(&report), trace.per_rank_send_multisets())
}

/// Asserts the threaded run and the record-and-replay run of `sched`
/// agree bit-for-bit on the report and exactly on every rank's send
/// multiset.
fn assert_engine_parity(label: &str, sched: &Schedule, step_sync: bool) {
    let gamma = platform().gamma;
    let run = |engine| {
        traced(sched.ranks(), |net| match engine {
            SimEngine::Threads => threads_on(net, gamma, sched, step_sync),
            SimEngine::Replay => replay_on(net, gamma, &sched.record(step_sync)),
        })
    };
    let (t_report, t_sets) = run(SimEngine::Threads);
    let (r_report, r_sets) = run(SimEngine::Replay);
    assert_eq!(t_report, r_report, "{label}: reports diverged");
    assert_eq!(t_sets, r_sets, "{label}: per-rank send multisets diverged");
}

#[test]
fn summa_replay_is_bit_identical() {
    let sched = Schedule::summa(GridShape::new(8, 8), 128, 16, SimBcast::Binomial);
    for step_sync in [false, true] {
        assert_engine_parity("summa", &sched, step_sync);
    }
}

#[test]
fn summa_replay_matches_at_p_256() {
    let grid = GridShape::new(16, 16);
    let sched = Schedule::summa(grid, 256, 16, SimBcast::ScatterAllgather);
    assert_engine_parity("summa-256", &sched, false);
}

#[test]
fn hsumma_replay_is_bit_identical() {
    let grid = GridShape::new(8, 8);
    let groups = GridShape::new(4, 2);
    let (n, ob, ib) = (128, 16, 16);
    for (obc, ibc) in [
        (SimBcast::Binomial, SimBcast::Binomial),
        (SimBcast::Pipelined { segments: 3 }, SimBcast::Ring),
    ] {
        let sched = Schedule::hsumma(grid, groups, n, ob, ib, obc, ibc);
        assert_engine_parity("hsumma", &sched, false);
    }
}

#[test]
fn cannon_replay_is_bit_identical() {
    assert_engine_parity("cannon", &Schedule::cannon(8, 64), false);
}

#[test]
fn fox_replay_is_bit_identical() {
    let bcast = SimBcast::Binomial;
    assert_engine_parity("fox", &Schedule::Fox { q: 8, n: 64, bcast }, false);
}

#[test]
fn overlap_replay_is_bit_identical() {
    // summa_overlap's two-slot pipeline starts and waits its broadcasts
    // through the default (timing-independent) ibcast path, so it
    // records; its message schedule includes in-flight collective-band
    // traffic none of the blocking schedules exercise.
    let sched = Schedule::summa(GridShape::new(4, 4), 64, 8, SimBcast::Flat).pipelined();
    assert_engine_parity("overlap", &sched, false);
}

#[test]
fn twodotfive_replay_is_bit_identical() {
    let cfg = TwoDotFiveConfig {
        q: 4,
        c: 4,
        summa: SummaConfig {
            block: 8,
            ..Default::default()
        },
    };
    assert_engine_parity("2.5d", &Schedule::TwoDotFive { n: 64, cfg }, false);
}

/// The searched brick schedule for `C(m×n) = A(m×k)·B(k×n)` on `p` ranks.
fn cosma_for(p: usize, m: usize, n: usize, k: usize) -> Schedule {
    Schedule::Cosma {
        p,
        dims: MatMulDims { m, l: k, n },
        cfg: CosmaConfig::for_problem(p, m, n, k),
    }
}

#[test]
fn cosma_replay_is_bit_identical() {
    assert_engine_parity("cosma", &cosma_for(64, 256, 256, 256), false);
}

#[test]
fn cosma_replay_matches_on_awkward_shapes_with_idle_ranks() {
    // A prime rank count over non-dividing extents: the decomposition
    // uses fewer ranks than the world, and the idle ranks, which make no
    // split and send nothing, must finish on both engines alike.
    assert_engine_parity("cosma-13", &cosma_for(13, 96, 80, 72), false);
}

#[test]
fn replay_parity_holds_under_noise() {
    // Noise draws are keyed by (sender, per-sender sequence), both of
    // which the recording preserves — jittered runs must still match to
    // the bit.
    let sched = Schedule::summa(GridShape::new(4, 4), 64, 8, SimBcast::Binomial);
    let gamma = platform().gamma;
    let mut tnet = SimNet::new(sched.ranks(), platform().net);
    tnet.set_noise(NoiseModel::new(7, 0.25));
    let threaded = threads_on(&mut tnet, gamma, &sched, false);
    let mut rnet = SimNet::new(sched.ranks(), platform().net);
    rnet.set_noise(NoiseModel::new(7, 0.25));
    let replayed = replay_on(&mut rnet, gamma, &sched.record(false));
    assert_eq!(bits(&threaded), bits(&replayed));
}

#[test]
fn engine_selector_agrees_with_direct_calls() {
    let sched = Schedule::summa(GridShape::new(4, 4), 64, 8, SimBcast::Binomial);
    let plat = platform();
    let t = threads_on(&mut SimNet::new(16, plat.net), plat.gamma, &sched, false);
    let r = simulate(&sched, &plat, false);
    assert_eq!(bits(&t), bits(&r));
}

#[test]
fn simulate_runs_pipelined_hsumma_on_rank_threads() {
    // The one schedule that cannot be recorded: `simulate` must hand it
    // to the threaded reference, not panic in `Schedule::record`.
    let bc = SimBcast::Binomial;
    let (grid, groups) = (GridShape::new(4, 4), GridShape::new(2, 2));
    let sched = Schedule::hsumma(grid, groups, 64, 16, 8, bc, bc).pipelined();
    let plat = platform();
    let want = threads_on(&mut SimNet::new(16, plat.net), plat.gamma, &sched, false);
    assert_eq!(bits(&simulate(&sched, &plat, false)), bits(&want));
}

#[test]
fn simulate_replays_every_recordable_schedule() {
    let (grid, bc) = (GridShape::new(4, 4), SimBcast::Binomial);
    let summa = Schedule::summa(grid, 64, 8, bc);
    let scheds = [
        summa,
        summa.pipelined(),
        Schedule::hsumma(grid, GridShape::new(2, 2), 64, 16, 8, bc, bc),
        Schedule::cannon(4, 64),
        Schedule::Fox {
            q: 4,
            n: 64,
            bcast: bc,
        },
        cosma_for(16, 64, 64, 64),
    ];
    let plat = platform();
    for sched in &scheds {
        for step_sync in [false, true] {
            let mut net = SimNet::new(sched.ranks(), plat.net);
            let want = replay_on(&mut net, plat.gamma, &sched.record(step_sync));
            let got = simulate(sched, &plat, step_sync);
            assert_eq!(bits(&got), bits(&want), "{sched:?}, step_sync {step_sync}");
        }
    }
}

// ---------------------------------------------------------------------
// Faults and deadlines: the same FaultPlan driven through both engines
// must produce the same per-rank outcomes, the same stalled edge, the
// same injected-fault count, and bit-identical reports.
// ---------------------------------------------------------------------

/// A pure-replication cosma fiber (p = 4 as 1·1·4 bricks): the only
/// traffic is the reduce-scatter ring plus the gather, so the dropped
/// collective fragment lands on a ring edge — the same scenario
/// `fault_parity.rs` pins between real threads and the simulator.
fn fiber() -> Schedule {
    Schedule::Cosma {
        p: 4,
        dims: MatMulDims::square(8),
        cfg: CosmaConfig {
            decomp: BrickDecomp::new(1, 1, 4),
            ..CosmaConfig::for_problem(4, 8, 8, 8)
        },
    }
}

fn fault_opts(plan: &Arc<FaultPlan>) -> SimRunOptions {
    SimRunOptions::unbounded()
        .with_deadline(1.0)
        .with_faults(Arc::clone(plan))
}

#[test]
fn dropped_collective_fragment_names_the_same_edge_on_both_engines() {
    let sched = fiber();
    let plan = Arc::new(FaultPlan::new().drop_nth(Some(1), Some(2), TagClass::Collective, 0));
    let plat = Platform::bluegene_p_effective();

    // Thread-per-rank engine.
    let net = SimNet::new(4, plat.net);
    let out = SimWorld::run_with(net, plat.gamma, false, &fault_opts(&plan), |comm| {
        sched.run(comm)
    });
    let threaded_kinds: Vec<Option<CommErrorKind>> = out
        .results
        .iter()
        .map(|r| r.as_ref().err().map(CommError::kind))
        .collect();

    // Record clean, replay under the same options.
    let prog = sched.record(false);
    let rnet = SimNet::new(4, plat.net);
    let rout = EventLoopSim::new(rnet, plat.gamma).run(&prog, &fault_opts(&plan));
    let replay_kinds: Vec<Option<CommErrorKind>> = rout
        .errors
        .iter()
        .map(|e| e.as_ref().map(CommError::kind))
        .collect();

    assert_eq!(
        threaded_kinds, replay_kinds,
        "per-rank outcome kinds diverged"
    );
    assert_eq!(
        threaded_kinds,
        vec![
            Some(CommErrorKind::Timeout),
            None,
            Some(CommErrorKind::Timeout),
            Some(CommErrorKind::Timeout),
        ],
        "the stall must walk the ring's dependents and spare the dropper"
    );
    assert_eq!(out.faults_injected, 1);
    assert_eq!(rout.faults_injected, 1);
    assert_eq!(
        bits(&out.net.report()),
        bits(&rout.net.report()),
        "faulted reports diverged"
    );

    // Both engines must name the *same* stalled edge: rank 2 waiting on
    // its ring predecessor 1, on a collective-band tag. (Context ids are
    // scheduling-dependent on the threaded engine and deliberately not
    // compared.)
    let edge_of = |e: &CommError| match e {
        CommError::Timeout { edge, op } => (edge.rank, edge.peer, edge.tag, *op),
        other => panic!("expected Timeout, got {other:?}"),
    };
    let t_err = out.results[2].as_ref().expect_err("rank 2 stalls");
    let r_err = rout.errors[2].as_ref().expect("rank 2 stalls");
    let (t_rank, t_peer, t_tag, t_op) = edge_of(t_err);
    let (r_rank, r_peer, r_tag, r_op) = edge_of(r_err);
    assert_eq!((t_rank, t_peer, t_op), (2, 1, "recv"));
    assert_eq!((r_rank, r_peer, r_op), (2, 1, "recv"));
    assert_eq!(t_tag, r_tag, "the stalled wire tag must agree");
    assert!(
        t_tag >= COLLECTIVE_TAG_FLOOR,
        "the stalled tag must be collective-class, got {t_tag:#x}"
    );
}

#[test]
fn killed_rank_parity_between_engines() {
    let sched = fiber();
    let plan = Arc::new(FaultPlan::new().kill_rank(1, 0));
    let plat = Platform::bluegene_p_effective();

    let net = SimNet::new(4, plat.net);
    let out = SimWorld::run_with(net, plat.gamma, false, &fault_opts(&plan), |comm| {
        sched.run(comm)
    });
    let prog = sched.record(false);
    let rout =
        EventLoopSim::new(SimNet::new(4, plat.net), plat.gamma).run(&prog, &fault_opts(&plan));

    let t_kinds: Vec<_> = out
        .results
        .iter()
        .map(|r| r.as_ref().err().map(CommError::kind))
        .collect();
    let r_kinds: Vec<_> = rout
        .errors
        .iter()
        .map(|e| e.as_ref().map(CommError::kind))
        .collect();
    assert_eq!(t_kinds, r_kinds);
    assert_eq!(t_kinds[1], Some(CommErrorKind::Shutdown));
    assert_eq!(out.faults_injected, rout.faults_injected);
    assert_eq!(bits(&out.net.report()), bits(&rout.net.report()));
}
