//! Substrate parity for the sparse subsystem.
//!
//! The sparse schedules extend the repo's organizing identity — one
//! schedule, two substrates — to nnz-*dependent* message sizes, which is
//! exactly what makes the parity non-trivial: the simulator never sees
//! the CSR buffers, only wire byte counts, yet must move byte-for-byte
//! the messages the threaded runtime moves.
//!
//! 1. `spgemm_2d` on real threads (`Arc<CsrMatrix>` panels priced by the
//!    `WirePayload` hook) and on the simulator (`PhantomSparse` panels
//!    reconstructed from wire bytes via the invertible CSR format) must
//!    emit identical per-rank `(src, dst, bytes)` send multisets;
//! 2. likewise `sddmm_2d` (dense pivot panels; `S` never travels);
//! 3. the wire bytes must actually *depend on nnz*: same shapes,
//!    different fill → different multisets (the dense stack could never
//!    express this — every `n × b` panel cost the same);
//! 4. a `FaultPlan` dropping an in-flight sparse panel broadcast must
//!    produce the same per-rank outcome kinds and injected-fault count
//!    on both substrates (sparse panels travel under user-level
//!    step-index tags, so `TagClass::App` rules reach them).

use hsumma_repro::core::{tile_of, Distribution, PhantomMat};
use hsumma_repro::matrix::sparse::{seeded_sparse, CsrMatrix};
use hsumma_repro::matrix::{seeded_uniform, GridShape, Matrix};
use hsumma_repro::netsim::spmd::{SimComm, SimWorld};
use hsumma_repro::netsim::{Platform, SimNet, SimRunOptions};
use hsumma_repro::runtime::{Comm, JobOptions, Runtime};
use hsumma_repro::sparse::{scatter_csr, sddmm_2d, spgemm_2d, PhantomSparse, SparseConfig};
use hsumma_repro::trace::{CommErrorKind, FaultPlan, TagClass, Trace, Tracer};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 16;

fn grid() -> GridShape {
    GridShape::new(2, 2)
}

fn cfg() -> SparseConfig {
    SparseConfig {
        block: 4,
        ..SparseConfig::default()
    }
}

/// Threaded runtime with a tracer attached; returns the trace.
fn real_trace(p: usize, run: impl Fn(&Comm) + Send + Sync) -> Trace {
    let tracer = Tracer::new(p);
    Runtime::run_traced(p, &tracer, |comm| run(comm));
    tracer.collect()
}

/// The same generic algorithm over simulated clocks, traced.
fn sim_trace(p: usize, f: impl Fn(&SimComm) + Sync) -> Trace {
    let tracer = Tracer::new(p);
    let mut net = SimNet::new(p, Platform::grid5000().net);
    net.attach_tracer(&tracer);
    let _ = SimWorld::run(net, 0.0, false, f);
    tracer.collect()
}

/// Shapes nothing divides, for the multiset checks: `n` = 50 on 2 × 3,
/// prime `p` as `1 × 5`, and an extent smaller than a grid side.
const UNEVEN: [(usize, usize, usize); 3] = [(2, 3, 50), (1, 5, 12), (4, 2, 3)];

/// Real-side spgemm trace for the given operands.
fn spgemm_real(grid: GridShape, n: usize, a: &CsrMatrix, b: &CsrMatrix) -> Trace {
    let at: Vec<Arc<CsrMatrix>> = scatter_csr(grid, a).into_iter().map(Arc::new).collect();
    let bt: Vec<Arc<CsrMatrix>> = scatter_csr(grid, b).into_iter().map(Arc::new).collect();
    real_trace(grid.size(), move |comm| {
        let r = comm.rank();
        spgemm_2d(comm, grid, n, &at[r], &bt[r], &cfg()).unwrap();
    })
}

/// Sim-side spgemm trace for the *same* operands, as patterned phantoms.
fn spgemm_sim(grid: GridShape, n: usize, a: &CsrMatrix, b: &CsrMatrix) -> Trace {
    let at: Vec<PhantomSparse> = scatter_csr(grid, a)
        .iter()
        .map(PhantomSparse::from_csr)
        .collect();
    let bt: Vec<PhantomSparse> = scatter_csr(grid, b)
        .iter()
        .map(PhantomSparse::from_csr)
        .collect();
    sim_trace(grid.size(), move |comm| {
        let r = comm.rank();
        spgemm_2d(comm, grid, n, &at[r], &bt[r], &cfg()).unwrap();
    })
}

#[test]
fn real_and_sim_spgemm_emit_identical_payload_multisets() {
    for (s, t, n) in [(2, 2, N)].into_iter().chain(UNEVEN) {
        let grid = GridShape::new(s, t);
        let a = seeded_sparse(n, n, 0.2, 401);
        let b = seeded_sparse(n, n, 0.3, 402);
        let real = spgemm_real(grid, n, &a, &b);
        let sim = spgemm_sim(grid, n, &a, &b);
        assert_eq!(
            real.per_rank_send_multisets(),
            sim.per_rank_send_multisets(),
            "spgemm_2d on {grid:?}, n = {n}: real and simulated schedules moved different messages"
        );
    }
}

#[test]
fn real_and_sim_sddmm_emit_identical_payload_multisets() {
    for (rows, cols, n) in [(2, 2, N)].into_iter().chain(UNEVEN) {
        let grid = GridShape::new(rows, cols);
        let s = seeded_sparse(n, n, 0.25, 403);
        let a = seeded_uniform(n, n, 404);
        let b = seeded_uniform(n, n, 405);
        let st: Vec<Arc<CsrMatrix>> = scatter_csr(grid, &s).into_iter().map(Arc::new).collect();
        let dist = Distribution::grid2d(grid, n, n);
        let at: Vec<Matrix> = dist.scatter(&a);
        let bt: Vec<Matrix> = dist.scatter(&b);
        let real = real_trace(grid.size(), move |comm| {
            let r = comm.rank();
            sddmm_2d(comm, grid, n, &st[r], &at[r], &bt[r], &cfg()).unwrap();
        });

        let sp: Vec<PhantomSparse> = scatter_csr(grid, &s)
            .iter()
            .map(PhantomSparse::from_csr)
            .collect();
        let sim = sim_trace(grid.size(), move |comm| {
            let r = comm.rank();
            let (rows, cols) = tile_of(grid, r, n, n);
            let tile = PhantomMat { rows, cols };
            sddmm_2d(comm, grid, n, &sp[r], &tile, &tile, &cfg()).unwrap();
        });
        assert_eq!(
            real.per_rank_send_multisets(),
            sim.per_rank_send_multisets(),
            "sddmm_2d on {grid:?}, n = {n}: real and simulated schedules moved different messages"
        );
    }
}

/// The acceptance criterion the dense stack could never express: two
/// operand sets of the *same shape* but different fill must move
/// different wire bytes — on the real substrate (the `WirePayload` hook
/// prices each CSR panel at its serialized size) and equally on the
/// simulator (parity with the real trace transfers the property).
#[test]
fn wire_bytes_depend_on_nnz_not_just_shape() {
    let lo_a = seeded_sparse(N, N, 0.1, 406);
    let lo_b = seeded_sparse(N, N, 0.1, 407);
    let hi_a = seeded_sparse(N, N, 0.7, 406);
    let hi_b = seeded_sparse(N, N, 0.7, 407);

    let lo = spgemm_real(grid(), N, &lo_a, &lo_b);
    let hi = spgemm_real(grid(), N, &hi_a, &hi_b);
    let lo_sets = lo.per_rank_send_multisets();
    let hi_sets = hi.per_rank_send_multisets();
    assert_ne!(lo_sets, hi_sets, "fill must change the wire bytes");
    // Same schedule: message counts agree; only the sizes moved.
    let count = |sets: &[Vec<(usize, usize, u64)>]| -> usize { sets.iter().map(Vec::len).sum() };
    assert_eq!(count(&lo_sets), count(&hi_sets));
    let bytes = |sets: &[Vec<(usize, usize, u64)>]| -> u64 {
        sets.iter().flatten().map(|&(_, _, b)| b).sum()
    };
    assert!(bytes(&hi_sets) > bytes(&lo_sets));
}

/// Per-rank outcome kinds plus total injected faults.
type Replay = (Vec<Option<CommErrorKind>>, u64);

/// Replays `plan` through `spgemm_2d` on the threaded runtime.
fn replay_threaded(plan: &Arc<FaultPlan>) -> Replay {
    let grid = grid();
    let a = seeded_sparse(N, N, 0.3, 408);
    let b = seeded_sparse(N, N, 0.3, 409);
    let at: Vec<Arc<CsrMatrix>> = scatter_csr(grid, &a).into_iter().map(Arc::new).collect();
    let bt: Vec<Arc<CsrMatrix>> = scatter_csr(grid, &b).into_iter().map(Arc::new).collect();
    let opts = JobOptions::default()
        .with_deadline(Duration::from_millis(300))
        .with_faults(Arc::clone(plan));
    let per_rank = Runtime::try_run_opts(grid.size(), &Tracer::disabled(), &opts, |comm| {
        let r = comm.rank();
        (
            spgemm_2d(comm, grid, N, &at[r], &bt[r], &cfg())
                .map(|_| ())
                .map_err(|e| e.kind()),
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

/// Replays `plan` through the *same* `spgemm_2d` source on the simulator.
fn replay_sim(plan: &Arc<FaultPlan>) -> Replay {
    let grid = grid();
    let a = seeded_sparse(N, N, 0.3, 408);
    let b = seeded_sparse(N, N, 0.3, 409);
    let at: Vec<PhantomSparse> = scatter_csr(grid, &a)
        .iter()
        .map(PhantomSparse::from_csr)
        .collect();
    let bt: Vec<PhantomSparse> = scatter_csr(grid, &b)
        .iter()
        .map(PhantomSparse::from_csr)
        .collect();
    let opts = SimRunOptions::unbounded()
        .with_deadline(1.0)
        .with_faults(Arc::clone(plan));
    let net = SimNet::new(grid.size(), Platform::bluegene_p_effective().net);
    let out = SimWorld::run_with(net, 0.0, false, &opts, |comm| {
        let r = comm.rank();
        spgemm_2d(comm, grid, N, &at[r], &bt[r], &cfg())
            .map(|_| ())
            .map_err(|e| e.kind())
    });
    let kinds = out
        .results
        .iter()
        .map(|r| r.as_ref().err().copied())
        .collect();
    (kinds, out.faults_injected)
}

#[test]
fn dropped_sparse_panel_fails_identically_on_both_substrates() {
    // Drop the first user-level (App-tagged) message rank 0 sends to
    // rank 1: the step-0 A-panel broadcast on row communicator {0, 1}.
    let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::App, 0));
    let threaded = replay_threaded(&plan);
    let sim = replay_sim(&plan);
    assert_eq!(
        threaded, sim,
        "the same dropped sparse panel must fail the same ranks the same way"
    );
    assert_eq!(threaded.1, 1, "exactly the one planned drop injected");
    assert!(
        threaded.0.iter().any(Option::is_some),
        "at least the starved rank must fail"
    );
}

#[test]
fn clean_sparse_replay_succeeds_on_both_substrates() {
    // Control: an empty plan injects nothing and nobody fails.
    let plan = Arc::new(FaultPlan::new());
    let threaded = replay_threaded(&plan);
    let sim = replay_sim(&plan);
    assert_eq!(threaded, sim);
    assert_eq!(threaded.1, 0);
    assert!(threaded.0.iter().all(Option::is_none));
}
