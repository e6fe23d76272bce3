//! Parity checks for the pipelined (nonblocking-collective) HSUMMA.
//!
//! The double-buffered pivot pipeline reorders *when* panels move, but
//! it must not change *what* moves or *what* is computed:
//!
//! 1. the threaded runtime and the simulator must emit identical
//!    per-rank `(src, dst, bytes)` send multisets for the pipelined
//!    schedule (the same one-schedule-two-substrates identity the
//!    blocking algorithms satisfy);
//! 2. the pipelined schedule must move exactly the wire bytes of the
//!    blocking reference with flat broadcasts (`ibcast_shared`'s
//!    fan-out is flat by design — a relay inside a nonblocking start
//!    would be a hidden blocking receive);
//! 3. the product must be bit-identical to the blocking reference —
//!    same gemm accumulation order, so not just close: equal.

use hsumma_repro::core::{hsumma, hsumma_overlap, HsummaConfig, PhantomMat};
use hsumma_repro::matrix::{seeded_uniform, BlockDist, GemmKernel, GridShape, Matrix};
use hsumma_repro::netsim::{Platform, SimNet};
use hsumma_repro::runtime::{BcastAlgorithm, Comm, Runtime};
use hsumma_repro::trace::{Trace, Tracer};

/// Runs the threaded runtime with a tracer attached and returns the
/// trace (split-protocol control messages carry 0 payload bytes, so the
/// payload multisets below are multiply-phase traffic only).
fn real_trace(p: usize, run: impl Fn(&Comm) + Send + Sync) -> Trace {
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

/// A pipelined-HSUMMA config: flat broadcast fields are what the
/// blocking reference must use to match the nonblocking fan-out.
fn cfg(groups: GridShape, bb: usize, bs: usize) -> HsummaConfig {
    HsummaConfig {
        outer_block: bb,
        inner_block: bs,
        outer_bcast: BcastAlgorithm::Flat,
        inner_bcast: BcastAlgorithm::Flat,
        kernel: GemmKernel::Blocked,
        groups,
    }
}

fn scattered(grid: GridShape, n: usize, seed: u64) -> Vec<Matrix> {
    BlockDist::new(grid, n, n).scatter(&seeded_uniform(n, n, seed))
}

/// Substrate parity for the pipelined schedule itself: real threads
/// moving `Arc<Matrix>` panels and the simulator moving `PhantomMat`
/// stand-ins must send the same per-rank `(src, dst, bytes)` multiset.
#[test]
fn real_and_sim_pipelined_hsumma_emit_identical_payload_multisets() {
    let grid = GridShape::new(4, 4);
    let groups = GridShape::new(2, 2);
    let (n, bb, bs) = (32usize, 8usize, 4usize);
    let c = cfg(groups, bb, bs);
    let at = scattered(grid, n, 1);
    let bt = scattered(grid, n, 2);
    let (th, tw) = (n / grid.rows, n / grid.cols);

    let real = real_trace(grid.size(), |comm| {
        let _ = hsumma_overlap(comm, grid, n, &at[comm.rank()], &bt[comm.rank()], &c);
    });
    let sim = sim_trace(grid.size(), |comm| {
        let t = PhantomMat { rows: th, cols: tw };
        let _ = hsumma_overlap(comm, grid, n, &t, &t, &c);
    });
    assert_eq!(
        real.per_rank_send_multisets(),
        sim.per_rank_send_multisets(),
        "pipelined HSUMMA: real and simulated schedules moved different messages"
    );
}

/// Same identity on a config with a deeper inner pipeline (4 inner
/// steps per outer step) and asymmetric grouping, where the adaptive
/// cross-boundary handoff takes both of its branches.
#[test]
fn real_and_sim_pipelined_hsumma_parity_deep_inner_pipeline() {
    let grid = GridShape::new(4, 4);
    let groups = GridShape::new(4, 1);
    let (n, bb, bs) = (32usize, 8usize, 2usize);
    let c = cfg(groups, bb, bs);
    let at = scattered(grid, n, 3);
    let bt = scattered(grid, n, 4);
    let (th, tw) = (n / grid.rows, n / grid.cols);

    let real = real_trace(grid.size(), |comm| {
        let _ = hsumma_overlap(comm, grid, n, &at[comm.rank()], &bt[comm.rank()], &c);
    });
    let sim = sim_trace(grid.size(), |comm| {
        let t = PhantomMat { rows: th, cols: tw };
        let _ = hsumma_overlap(comm, grid, n, &t, &t, &c);
    });
    assert_eq!(
        real.per_rank_send_multisets(),
        sim.per_rank_send_multisets(),
        "pipelined HSUMMA (4x1 groups, deep inner): substrates moved different messages"
    );
}

/// Wire-multiset invariance across schedules: pipelining changes when
/// panels move, never what moves. Against the blocking reference with
/// flat broadcasts on both levels, every rank's payload send multiset
/// must be identical.
#[test]
fn pipelined_hsumma_moves_the_same_wire_bytes_as_blocking() {
    let grid = GridShape::new(4, 4);
    let groups = GridShape::new(2, 2);
    let (n, bb, bs) = (32usize, 8usize, 4usize);
    let c = cfg(groups, bb, bs);
    let at = scattered(grid, n, 5);
    let bt = scattered(grid, n, 6);

    let pipelined = real_trace(grid.size(), |comm| {
        let _ = hsumma_overlap(comm, grid, n, &at[comm.rank()], &bt[comm.rank()], &c);
    });
    let blocking = real_trace(grid.size(), |comm| {
        let _ = hsumma(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            &c,
        );
    });
    assert_eq!(
        pipelined.per_rank_send_multisets(),
        blocking.per_rank_send_multisets(),
        "pipelining must reorder messages, not change them"
    );
}

/// Bit-identity end to end on the threaded runtime: the pipelined
/// product equals the blocking reference exactly (same accumulation
/// order per rank), tile by tile.
#[test]
fn pipelined_hsumma_is_bit_identical_to_blocking_reference() {
    let grid = GridShape::new(4, 4);
    let groups = GridShape::new(2, 2);
    let (n, bb, bs) = (32usize, 8usize, 4usize);
    let c = cfg(groups, bb, bs);
    let at = scattered(grid, n, 9);
    let bt = scattered(grid, n, 10);

    let pipelined: Vec<Matrix> = Runtime::run(grid.size(), |comm| {
        hsumma_overlap(comm, grid, n, &at[comm.rank()], &bt[comm.rank()], &c).unwrap()
    });
    let blocking: Vec<Matrix> = Runtime::run(grid.size(), |comm| {
        hsumma(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            &c,
        )
        .unwrap()
    });
    assert_eq!(
        pipelined, blocking,
        "pipelined HSUMMA must reproduce the blocking product bit for bit"
    );
}
