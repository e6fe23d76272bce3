//! Property-based engine parity: for *random* (algorithm, p, n, G,
//! broadcast) configurations, the recorded op-program replay must
//! reproduce the thread-per-rank run exactly — bit-identical reports and
//! identical per-rank `(src, dst, bytes)` send multisets — a random
//! dropped collective fragment must stall the same edge on both engines,
//! and a random deadline combined with a random fault of any kind must
//! fail the same ranks the same way on both. The deterministic golden
//! cases live in `replay_parity.rs`; this file walks the configuration
//! space around them.

use hsumma_repro::core::simdrive::{simulate, simulate_on, Schedule, SimEngine};
use hsumma_repro::core::{BrickDecomp, CosmaConfig, HierGrid, MatMulDims};
use hsumma_repro::matrix::GridShape;
use hsumma_repro::netsim::{
    EventLoopSim, Platform, SimBcast, SimNet, SimReport, SimRunOptions, SimWorld,
};
use hsumma_repro::trace::{CommError, CommErrorKind, FaultPlan, TagClass, Tracer};
use proptest::prelude::*;
use std::sync::Arc;

const BCASTS: [SimBcast; 4] = [
    SimBcast::Flat,
    SimBcast::Binomial,
    SimBcast::Ring,
    SimBcast::ScatterAllgather,
];

fn platform() -> Platform {
    Platform::grid5000()
}

type ReportBits = (u64, u64, u64, u64, u64);
type SendMultisets = Vec<Vec<(usize, usize, u64)>>;

fn bits(r: &SimReport) -> ReportBits {
    (
        r.total_time.to_bits(),
        r.comm_time.to_bits(),
        r.comp_time.to_bits(),
        r.msgs,
        r.bytes,
    )
}

fn traced(p: usize, f: impl FnOnce(&mut SimNet) -> SimReport) -> (ReportBits, SendMultisets) {
    let tracer = Tracer::with_capacity(p, 1 << 16);
    let mut net = SimNet::new(p, platform().net);
    net.attach_tracer(&tracer);
    let report = f(&mut net);
    let trace = tracer.collect();
    assert_eq!(trace.dropped, 0, "tracer overflow");
    (bits(&report), trace.per_rank_send_multisets())
}

/// The engine-parity oracle shared by every case below.
fn check(label: &str, sched: &Schedule) {
    let gamma = platform().gamma;
    let run = |engine| {
        traced(sched.ranks(), |net| {
            simulate_on(sched, net, gamma, engine, false)
        })
    };
    let (t_report, t_sets) = run(SimEngine::Threads);
    let (r_report, r_sets) = run(SimEngine::Replay);
    assert_eq!(t_report, r_report, "{label}: reports diverged");
    assert_eq!(t_sets, r_sets, "{label}: multisets diverged");
}

/// Every error collapses to a schedule-meaningful signature: kind, the
/// stalled edge's endpoints and wire tag, and the operation. Context ids
/// are deliberately excluded — they are assigned in thread-scheduling
/// order on the threaded engine and are not part of the contract.
fn sig(e: &CommError) -> (CommErrorKind, usize, usize, u64, &'static str) {
    match e {
        CommError::Timeout { edge, op }
        | CommError::Cancelled { edge, op }
        | CommError::PeerDead { edge, op } => (e.kind(), edge.rank, edge.peer, edge.tag, *op),
        CommError::Shutdown { rank, .. } => (e.kind(), *rank, *rank, 0, "shutdown"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recorded_replay_matches_threaded_for_random_schedules(
        algo_ix in 0usize..4,
        side_pow in 1u32..4,
        n_mult in 1usize..4,
        g_pow in 0u32..4,
        bcast_ix in 0usize..4,
    ) {
        let q = 1usize << side_pow;
        let grid = GridShape::new(q, q);
        let n = q * 8 * n_mult;
        let b = 4;
        let bcast = BCASTS[bcast_ix];
        match algo_ix {
            0 => check("summa", &Schedule::summa(grid, n, b, bcast)),
            1 => {
                // Clamp the random G to one the grid can factor.
                let g = (1usize << g_pow).min(grid.size());
                let groups = HierGrid::factor_groups(grid, g)
                    .unwrap_or_else(|| GridShape::new(1, 1));
                check("hsumma", &Schedule::hsumma(grid, groups, n, b, b, bcast, bcast));
            }
            2 => check("cannon", &Schedule::cannon(q, n)),
            _ => check("fox", &Schedule::Fox { q, n, bcast }),
        }
    }

    /// A dropped collective fragment at a random ring position must
    /// produce the same per-rank error signatures — same kinds, same
    /// stalled edges, same wire tags — on both engines.
    #[test]
    fn random_dropped_fragment_names_the_same_edge_on_both_engines(
        victim in 0usize..4,
        nth in 0u64..3,
    ) {
        let p = 4;
        let sched = Schedule::Cosma {
            p,
            dims: MatMulDims::square(8),
            cfg: CosmaConfig {
                decomp: BrickDecomp::new(1, 1, p),
                ..CosmaConfig::for_problem(p, 8, 8, 8)
            },
        };
        let dst = (victim + 1) % p;
        let plan = Arc::new(
            FaultPlan::new().drop_nth(Some(victim), Some(dst), TagClass::Collective, nth),
        );
        let opts = SimRunOptions::unbounded()
            .with_deadline(1.0)
            .with_faults(Arc::clone(&plan));
        let plat = Platform::bluegene_p_effective();

        let out = SimWorld::run_with(SimNet::new(p, plat.net), plat.gamma, false, &opts, |comm| {
            sched.run(comm)
        });
        let prog = sched.record(false);
        let rout = EventLoopSim::new(SimNet::new(p, plat.net), plat.gamma).run(&prog, &opts);

        let t_sigs: Vec<_> = out
            .results
            .iter()
            .map(|r| r.as_ref().err().map(sig))
            .collect();
        let r_sigs: Vec<_> = rout.errors.iter().map(|e| e.as_ref().map(sig)).collect();
        prop_assert_eq!(&t_sigs, &r_sigs, "error signatures diverged");
        prop_assert_eq!(out.faults_injected, rout.faults_injected);
        prop_assert_eq!(bits(&out.net.report()), bits(&rout.net.report()));
    }
}

/// A one-rule plan of each kind the fault language has, aimed at the
/// `nth` send of world rank `rank` (to any peer, on any tag).
fn one_fault(kind: usize, rank: usize, nth: u64, delay: f64) -> FaultPlan {
    match kind {
        0 => FaultPlan::new().drop_nth(Some(rank), None, TagClass::Any, nth),
        1 => FaultPlan::new().delay_nth(Some(rank), None, TagClass::Any, nth, delay),
        2 => FaultPlan::new().duplicate_nth(Some(rank), None, TagClass::Any, nth),
        _ => FaultPlan::new().kill_rank(rank, nth),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random deadline (5 %–150 % of the clean makespan) × a random
    /// drop, delay, duplicate or kill on a random small schedule: both
    /// engines must give every rank the same error signature, inject the
    /// same number of faults and report the same numbers to the bit.
    /// This is the replay scheduler's own path — quiescence is where a
    /// deadline turns the remaining waits into timeouts, and a deadline
    /// that cuts mid-run makes ranks fail at different virtual times.
    #[test]
    fn random_deadline_and_fault_agree_on_both_engines(
        algo_ix in 0usize..4,
        side_pow in 1u32..3,
        bcast_ix in 0usize..4,
        kind in 0usize..4,
        victim_frac in 0.0f64..1.0,
        nth in 0u64..6,
        cut in 0.05f64..1.5,
    ) {
        let q = 1usize << side_pow;
        let grid = GridShape::new(q, q);
        let n = q * 8;
        let bcast = BCASTS[bcast_ix];
        let sched = match algo_ix {
            0 => Schedule::summa(grid, n, 4, bcast),
            1 => {
                let groups = HierGrid::factor_groups(grid, q).unwrap_or_else(|| GridShape::new(1, 1));
                Schedule::hsumma(grid, groups, n, 4, 4, bcast, bcast)
            }
            2 => Schedule::cannon(q, n),
            _ => Schedule::Cosma {
                p: q * q,
                dims: MatMulDims::square(n),
                cfg: CosmaConfig::for_problem(q * q, n, n, n),
            },
        };
        let p = sched.ranks();
        let plat = Platform::bluegene_p_effective();
        let makespan = simulate(&sched, &plat, SimEngine::Replay, false).total_time;
        let victim = ((victim_frac * p as f64) as usize).min(p - 1);
        let plan = Arc::new(one_fault(kind, victim, nth, 0.5 * makespan));
        let opts = SimRunOptions::unbounded()
            .with_deadline(cut * makespan)
            .with_faults(plan);

        let out = SimWorld::run_with(SimNet::new(p, plat.net), plat.gamma, false, &opts, |comm| {
            sched.run(comm)
        });
        let prog = sched.record(false);
        let rout = EventLoopSim::new(SimNet::new(p, plat.net), plat.gamma).run(&prog, &opts);

        let t_sigs: Vec<_> = out
            .results
            .iter()
            .map(|r| r.as_ref().err().map(sig))
            .collect();
        let r_sigs: Vec<_> = rout.errors.iter().map(|e| e.as_ref().map(sig)).collect();
        prop_assert_eq!(&t_sigs, &r_sigs, "error signatures diverged");
        prop_assert_eq!(out.faults_injected, rout.faults_injected);
        prop_assert_eq!(bits(&out.net.report()), bits(&rout.net.report()));
    }
}
