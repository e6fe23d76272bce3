//! Fault-replay parity between the two substrates, in the style of
//! `sim_model_consistency.rs`: the *same* `FaultPlan` driven through the
//! *same generic algorithm* on the threaded runtime (real data, wall
//! clocks) and the network simulator (phantom payloads, virtual clocks)
//! must produce
//!
//! 1. the same per-rank outcome kind (`Ok` / `Timeout` / `Shutdown` /
//!    …), and
//! 2. the same number of injected faults,
//!
//! because both replay the plan with world-rank cursors at the send path,
//! neither sends a message to split, and both exclude the barrier's
//! bookkeeping from fault eligibility. This is what makes a failure schedule *portable*: debug
//! it in simulation, then reproduce it on real threads (or vice versa).

use hsumma_repro::core::{
    cosma, summa, summa_overlap, BrickDecomp, CosmaConfig, PhantomMat, SummaConfig,
};
use hsumma_repro::matrix::{seeded_uniform, BlockDist, GemmKernel, GridShape};
use hsumma_repro::netsim::{Platform, SimNet, SimRunOptions, SimWorld};
use hsumma_repro::runtime::{JobOptions, Runtime};
use hsumma_repro::trace::{CommErrorKind, FaultPlan, TagClass, Tracer};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 8;
const BLOCK: usize = 2;

fn grid() -> GridShape {
    GridShape::new(2, 2)
}

fn cfg() -> SummaConfig {
    SummaConfig {
        block: BLOCK,
        kernel: GemmKernel::Naive,
        ..SummaConfig::default()
    }
}

/// Per-rank outcome kinds plus the total number of injected faults —
/// the two quantities the acceptance criterion requires to agree.
type Replay = (Vec<Option<CommErrorKind>>, u64);

/// Replays `plan` through SUMMA on the threaded runtime with a wall-clock
/// deadline; faults counted from each rank's own [`CommStats`].
/// `pipelined` selects the nonblocking-collective schedule
/// ([`summa_overlap`]) instead of the blocking reference, so the same
/// plans can be replayed against in-flight `ibcast` traffic.
fn replay_threaded(plan: &Arc<FaultPlan>, pipelined: bool) -> Replay {
    let grid = grid();
    let a = seeded_uniform(N, N, 71);
    let b = seeded_uniform(N, N, 72);
    let dist = BlockDist::new(grid, N, N);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&b);
    let opts = JobOptions::default()
        .with_deadline(Duration::from_millis(300))
        .with_faults(Arc::clone(plan));
    let per_rank = Runtime::try_run_opts(grid.size(), &Tracer::disabled(), &opts, |comm| {
        let (mine_a, mine_b) = (&at[comm.rank()], &bt[comm.rank()]);
        let r = if pipelined {
            summa_overlap(comm, grid, N, mine_a, mine_b, &cfg())
        } else {
            summa(comm, grid, N, mine_a, mine_b, &cfg())
        };
        (
            r.map(|_| ()).map_err(|e| e.kind()),
            comm.stats().faults_injected,
        )
    })
    .expect("faults surface as Err results, not rank panics");
    let kinds = per_rank
        .iter()
        .map(|(r, _)| r.as_ref().err().copied())
        .collect();
    let injected = per_rank.iter().map(|(_, n)| n).sum();
    (kinds, injected)
}

/// Replays `plan` through the *same* SUMMA source on the simulator with a
/// virtual-time deadline; faults counted by the [`SimWorld`] itself.
fn replay_sim(plan: &Arc<FaultPlan>, pipelined: bool) -> Replay {
    let grid = grid();
    let platform = Platform::bluegene_p_effective();
    let tile = PhantomMat {
        rows: N / grid.rows,
        cols: N / grid.cols,
    };
    let opts = SimRunOptions::unbounded()
        .with_deadline(1.0)
        .with_faults(Arc::clone(plan));
    let net = SimNet::new(grid.size(), platform.net);
    let out = SimWorld::run_with(net, platform.gamma, false, &opts, |comm| {
        let r = if pipelined {
            summa_overlap(comm, grid, N, &tile, &tile, &cfg())
        } else {
            summa(comm, grid, N, &tile, &tile, &cfg())
        };
        r.map(|_| ()).map_err(|e| e.kind())
    });
    let kinds = out
        .results
        .iter()
        .map(|r| r.as_ref().err().copied())
        .collect();
    (kinds, out.faults_injected)
}

fn assert_parity_on(plan: FaultPlan, pipelined: bool) -> Replay {
    let plan = Arc::new(plan);
    let threaded = replay_threaded(&plan, pipelined);
    let sim = replay_sim(&plan, pipelined);
    assert_eq!(
        threaded, sim,
        "threaded and simulated replays of the same fault plan disagree \
         (per-rank outcome kinds, injected-fault count)"
    );
    threaded
}

fn assert_parity(plan: FaultPlan) -> Replay {
    assert_parity_on(plan, false)
}

#[test]
fn dropped_collective_message_times_out_identically_on_both_substrates() {
    // Drop the first collective-class message 0 -> 1: the step-0 A-panel
    // broadcast of the {0, 1} row communicator. Rank 1 stalls, and the
    // stall propagates to every rank that transitively needs rank 1.
    let (kinds, injected) =
        assert_parity(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::Collective, 0));
    assert_eq!(injected, 1, "exactly the one planned drop");
    assert_eq!(
        kinds[1],
        Some(CommErrorKind::Timeout),
        "the rank whose broadcast was dropped must time out"
    );
    // By step 2 every other rank transitively depends on rank 1 (its
    // panel roots, or roots stalled on it), so the stall cascades: no
    // rank panics, every rank unwinds with a diagnosed timeout.
    assert!(
        kinds.iter().all(|k| *k == Some(CommErrorKind::Timeout)),
        "the stall must cascade as clean timeouts: {kinds:?}"
    );
}

#[test]
fn killed_rank_reports_shutdown_and_stalls_peers_identically() {
    // Rank 3 dies at its very first send. It must report `Shutdown` on
    // both substrates; its peers stall on it and convert to `Timeout`.
    let (kinds, injected) = assert_parity(FaultPlan::new().kill_rank(3, 0));
    assert_eq!(injected, 1, "the kill counts once");
    assert_eq!(kinds[3], Some(CommErrorKind::Shutdown));
    assert!(
        kinds[..3].contains(&Some(CommErrorKind::Timeout)),
        "at least one peer must stall on the dead rank: {kinds:?}"
    );
}

#[test]
fn delayed_and_duplicated_messages_leave_the_outcome_clean_on_both() {
    // Sub-deadline delay plus a duplicate ghost: the job completes on
    // both substrates, and both count the same two injected faults.
    let (kinds, injected) = assert_parity(
        FaultPlan::new()
            .delay_nth(Some(0), Some(1), TagClass::Collective, 0, 0.01)
            .duplicate_nth(Some(2), Some(3), TagClass::Collective, 0),
    );
    assert_eq!(injected, 2);
    assert!(
        kinds.iter().all(Option::is_none),
        "benign faults must not change the outcome: {kinds:?}"
    );
}

#[test]
fn clean_plan_is_a_no_op_on_both_substrates() {
    let (kinds, injected) = assert_parity(FaultPlan::new());
    assert_eq!(injected, 0);
    assert!(kinds.iter().all(Option::is_none));
}

// ---------------------------------------------------------------------
// The same plans replayed against the *pipelined* schedule: faults now
// land on in-flight `ibcast` traffic — the drop happens at the
// nonblocking start (the root's flat fan-out), but the victim only
// discovers it at the deferred wait, possibly a full pipeline stage
// after the panel "should" have arrived.
// ---------------------------------------------------------------------

#[test]
fn dropped_in_flight_ibcast_times_out_identically_on_both_substrates() {
    // Drop the step-0 A-panel ibcast 0 -> 1. The send vanishes at the
    // pipeline's prologue; rank 1 posts its gemm-side work and only
    // stalls when the deferred `ibcast_wait` finds the mailbox empty.
    let (kinds, injected) = assert_parity_on(
        FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::Collective, 0),
        true,
    );
    assert_eq!(injected, 1, "exactly the one planned drop");
    assert_eq!(
        kinds[1],
        Some(CommErrorKind::Timeout),
        "the rank whose in-flight broadcast was dropped must time out at the wait"
    );
    // Unlike the blocking schedule (where this same drop cascades to
    // every rank), the pipeline *contains* the stall: the roots posted
    // their fan-outs before ever blocking, so ranks 2 and 3 — which
    // never receive from the stalled rank 1 — run to completion. Only
    // rank 0, which needs rank 1's later A-panels (never started,
    // because rank 1 stalled before posting them), times out with it.
    assert_eq!(
        kinds,
        vec![
            Some(CommErrorKind::Timeout),
            Some(CommErrorKind::Timeout),
            None,
            None
        ],
        "the pipelined schedule must contain the stall to the dependent column"
    );
}

#[test]
fn killed_rank_under_pipelined_schedule_matches_across_substrates() {
    let (kinds, injected) = assert_parity_on(FaultPlan::new().kill_rank(3, 0), true);
    assert_eq!(injected, 1, "the kill counts once");
    assert_eq!(kinds[3], Some(CommErrorKind::Shutdown));
    assert!(
        kinds[..3].contains(&Some(CommErrorKind::Timeout)),
        "at least one peer must stall on the dead rank: {kinds:?}"
    );
}

#[test]
fn delayed_in_flight_ibcast_within_deadline_completes_cleanly_on_both() {
    // A sub-deadline delay on an in-flight ibcast is exactly what the
    // pipeline exists to absorb: the panel arrives late but before the
    // deferred wait's deadline, so the job completes clean on both
    // substrates with the same single injected fault.
    let (kinds, injected) = assert_parity_on(
        FaultPlan::new().delay_nth(Some(0), Some(1), TagClass::Collective, 0, 0.01),
        true,
    );
    assert_eq!(injected, 1);
    assert!(
        kinds.iter().all(Option::is_none),
        "a late panel inside the deadline must not change the outcome: {kinds:?}"
    );
}

// ---------------------------------------------------------------------
// The same machinery against the COSMA brick schedule: faults land on
// the reduce-scatter ring of the replication fiber, a communication
// pattern (sub-communicator ring, collective-band tags) none of the 2-D
// schedules exercise.
// ---------------------------------------------------------------------

/// A pure-replication decomposition: `p = 4` ranks as a `1·1·4` fiber,
/// so the only traffic is the reduce-scatter ring plus the gather onto
/// the `l = 0` layer — the fragment drop lands exactly there.
fn cosma_cfg() -> CosmaConfig {
    CosmaConfig {
        decomp: BrickDecomp::new(1, 1, 4),
        ..CosmaConfig::for_problem(4, N, N, N)
    }
}

/// Replays `plan` through COSMA on the threaded runtime.
fn replay_threaded_cosma(plan: &Arc<FaultPlan>) -> Replay {
    let ccfg = cosma_cfg();
    let d = ccfg.decomp;
    let p = 4;
    let at = d.a_distribution(N, N, p).scatter(&seeded_uniform(N, N, 81));
    let bt = d.b_distribution(N, N, p).scatter(&seeded_uniform(N, N, 82));
    let opts = JobOptions::default()
        .with_deadline(Duration::from_millis(300))
        .with_faults(Arc::clone(plan));
    let per_rank = Runtime::try_run_opts(p, &Tracer::disabled(), &opts, |comm| {
        let r = cosma(comm, N, N, N, &at[comm.rank()], &bt[comm.rank()], &ccfg);
        (
            r.map(|_| ()).map_err(|e| e.kind()),
            comm.stats().faults_injected,
        )
    })
    .expect("faults surface as Err results, not rank panics");
    let kinds = per_rank
        .iter()
        .map(|(r, _)| r.as_ref().err().copied())
        .collect();
    let injected = per_rank.iter().map(|(_, n)| n).sum();
    (kinds, injected)
}

/// Replays `plan` through the *same* COSMA source on the simulator.
fn replay_sim_cosma(plan: &Arc<FaultPlan>) -> Replay {
    let ccfg = cosma_cfg();
    let d = ccfg.decomp;
    let p = 4;
    let pm = PhantomMat { rows: N, cols: N };
    let at = d.a_distribution(N, N, p).scatter(&pm);
    let bt = d.b_distribution(N, N, p).scatter(&pm);
    let opts = SimRunOptions::unbounded()
        .with_deadline(1.0)
        .with_faults(Arc::clone(plan));
    let net = SimNet::new(p, Platform::bluegene_p_effective().net);
    let out = SimWorld::run_with(
        net,
        Platform::bluegene_p_effective().gamma,
        false,
        &opts,
        |comm| {
            cosma(comm, N, N, N, &at[comm.rank()], &bt[comm.rank()], &ccfg)
                .map(|_| ())
                .map_err(|e| e.kind())
        },
    );
    let kinds = out
        .results
        .iter()
        .map(|r| r.as_ref().err().copied())
        .collect();
    (kinds, out.faults_injected)
}

#[test]
fn dropped_reduce_scatter_fragment_times_out_identically_on_both_substrates() {
    // Drop rank 1's first collective-class send — its step-0 fragment to
    // ring successor 2. Rank 2 stalls at the matching recv; the stall
    // walks *backwards* around the ring (3 waits on 2's next fragment,
    // 0 waits on 3's), while rank 1 itself finishes clean: its sends are
    // fire-and-forget and its own recv side (rank 0's fragments) was
    // fully posted before rank 0 stalled. Identical on both substrates.
    let plan = Arc::new(FaultPlan::new().drop_nth(Some(1), Some(2), TagClass::Collective, 0));
    let threaded = replay_threaded_cosma(&plan);
    let sim = replay_sim_cosma(&plan);
    assert_eq!(
        threaded, sim,
        "threaded and simulated replays of the cosma fault plan disagree"
    );
    let (kinds, injected) = threaded;
    assert_eq!(injected, 1, "exactly the one planned drop");
    assert_eq!(
        kinds,
        vec![
            Some(CommErrorKind::Timeout),
            None,
            Some(CommErrorKind::Timeout),
            Some(CommErrorKind::Timeout),
        ],
        "the stall must walk the ring's dependents and spare the dropper"
    );
}

/// The cosma diagnostic: the timeout's edge must name the ring
/// predecessor whose fragment vanished and carry a collective-band tag.
#[test]
fn dropped_reduce_scatter_timeout_names_the_ring_edge() {
    use hsumma_repro::trace::{CommError, COLLECTIVE_TAG_FLOOR};

    let ccfg = cosma_cfg();
    let d = ccfg.decomp;
    let p = 4;
    let pm = PhantomMat { rows: N, cols: N };
    let at = d.a_distribution(N, N, p).scatter(&pm);
    let bt = d.b_distribution(N, N, p).scatter(&pm);
    let plan = Arc::new(FaultPlan::new().drop_nth(Some(1), Some(2), TagClass::Collective, 0));
    let opts = SimRunOptions::unbounded()
        .with_deadline(1.0)
        .with_faults(Arc::clone(&plan));
    let net = SimNet::new(p, Platform::bluegene_p_effective().net);
    let out = SimWorld::run_with(
        net,
        Platform::bluegene_p_effective().gamma,
        false,
        &opts,
        |comm| cosma(comm, N, N, N, &at[comm.rank()], &bt[comm.rank()], &ccfg).map(|_| ()),
    );

    let err = out.results[2]
        .as_ref()
        .expect_err("rank 2's dropped fragment must surface as an error");
    match err {
        CommError::Timeout { edge, .. } => {
            assert_eq!(edge.rank, 2, "the error is reported by the stalled rank");
            assert_eq!(edge.peer, 1, "the edge names the ring predecessor");
            assert!(
                edge.tag >= COLLECTIVE_TAG_FLOOR,
                "the stalled tag must be collective-class, got {:#x}",
                edge.tag
            );
        }
        other => panic!("expected Timeout naming the stalled edge, got: {other}"),
    }
}

/// The diagnostic itself (sim substrate, where the full error is easy to
/// capture): a dropped in-flight ibcast must surface as
/// [`CommError::Timeout`] whose edge names the expected sender and a
/// collective-class tag — "which broadcast stalled", not just "a
/// deadline passed".
#[test]
fn dropped_ibcast_timeout_names_the_stalled_edge() {
    use hsumma_repro::trace::{CommError, COLLECTIVE_TAG_FLOOR};

    let grid = grid();
    let platform = Platform::bluegene_p_effective();
    let tile = PhantomMat {
        rows: N / grid.rows,
        cols: N / grid.cols,
    };
    let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::Collective, 0));
    let opts = SimRunOptions::unbounded()
        .with_deadline(1.0)
        .with_faults(Arc::clone(&plan));
    let net = SimNet::new(grid.size(), platform.net);
    let out = SimWorld::run_with(net, platform.gamma, false, &opts, |comm| {
        summa_overlap(comm, grid, N, &tile, &tile, &cfg()).map(|_| ())
    });

    let err = out.results[1]
        .as_ref()
        .expect_err("rank 1's dropped broadcast must surface as an error");
    match err {
        CommError::Timeout { edge, .. } => {
            assert_eq!(edge.rank, 1, "the error is reported by the stalled rank");
            assert_eq!(edge.peer, 0, "the edge names the expected sender");
            assert!(
                edge.tag >= COLLECTIVE_TAG_FLOOR,
                "the stalled tag must be collective-class, got {:#x}",
                edge.tag
            );
        }
        other => panic!("expected Timeout naming the stalled edge, got: {other}"),
    }
    // And the rendered message carries the edge for humans reading logs.
    let msg = err.to_string();
    assert!(
        msg.contains("rank 1") && msg.contains("rank 0"),
        "display must name both endpoints: {msg}"
    );
}
