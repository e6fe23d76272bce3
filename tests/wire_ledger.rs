//! Wire-ledger pins: the exact bytes and messages the threaded runtime
//! records for a fixed set of runs.
//!
//! Every figure a schedule reports as "bytes moved" — the benchmark's
//! `wire_bytes`, the traces, the lower-bound checks — is the sum of
//! per-message sizes the runtime's send and receive paths record. These
//! tests pin those sums, world-wide, for one run of each payload family
//! the schedules ship:
//!
//! 1. dense `Arc<Matrix>` panels: HSUMMA on the benchmark's `gemm-comm`
//!    shape (4×4 ranks, 2×2 groups, n = 256, b = B = 8);
//! 2. sparse `Arc<CsrMatrix>` panels, whose size depends on nnz:
//!    `spgemm_2d` and `sddmm_2d` as the `distributed_*` drivers run them;
//! 3. the segmenting broadcasts' `f64` segments: `bcast_f64` under
//!    `Pipelined` and `ScatterAllgather`.
//!
//! A change to how the runtime sizes a message must leave every one of
//! these sums bit-equal.

use hsumma_repro::core::{run_planned_gemm, Distribution, HsummaConfig, PlannedAlgo};
use hsumma_repro::matrix::sparse::{seeded_sparse, CsrMatrix};
use hsumma_repro::matrix::{seeded_uniform, BlockDist, GridShape, Matrix};
use hsumma_repro::runtime::collectives::bcast_f64;
use hsumma_repro::runtime::{BcastAlgorithm, CommStats, PoolRun, RankPool};
use hsumma_repro::sparse::{scatter_csr, sddmm_2d, spgemm_2d, SparseConfig};
use std::sync::Arc;

/// World totals `(bytes_sent, bytes_recv, msgs_sent, msgs_recv)` of one
/// pool job.
fn ledger<R>(run: &PoolRun<R>) -> (u64, u64, u64, u64) {
    let t = run
        .stats
        .iter()
        .fold(CommStats::default(), |acc, s| acc.merge(s));
    (t.bytes_sent, t.bytes_recv, t.msgs_sent, t.msgs_recv)
}

#[test]
fn gemm_comm_shape_moves_the_pinned_bytes_and_messages() {
    let (grid, n) = (GridShape::new(4, 4), 256);
    let plan = PlannedAlgo::Hsumma(HsummaConfig::uniform(GridShape::new(2, 2), 8));
    let dist = Distribution::grid2d(grid, n, n);
    let a = Arc::new(dist.scatter(&seeded_uniform(n, n, 1)));
    let b = Arc::new(dist.scatter(&seeded_uniform(n, n, 2)));
    let mut pool = RankPool::new(grid.size()).expect("spawn rank pool");
    let run = pool
        .run(move |comm| {
            let r = comm.rank();
            run_planned_gemm(&*comm, grid, n, n, n, &a[r], &b[r], &plan).expect("planned gemm");
        })
        .expect("pool job");
    assert_eq!(ledger(&run), (3_145_728, 3_145_728, 888, 888));
}

const SPARSE_N: usize = 64;

fn sparse_cfg() -> SparseConfig {
    SparseConfig {
        block: 8,
        ..SparseConfig::default()
    }
}

fn csr_tiles(grid: GridShape, m: &CsrMatrix) -> Arc<Vec<Arc<CsrMatrix>>> {
    Arc::new(scatter_csr(grid, m).into_iter().map(Arc::new).collect())
}

#[test]
fn spgemm_moves_the_pinned_nnz_dependent_bytes() {
    let grid = GridShape::new(2, 2);
    let at = csr_tiles(grid, &seeded_sparse(SPARSE_N, SPARSE_N, 0.1, 11));
    let bt = csr_tiles(grid, &seeded_sparse(SPARSE_N, SPARSE_N, 0.2, 12));
    let mut pool = RankPool::new(grid.size()).expect("spawn rank pool");
    let run = pool
        .run(move |comm| {
            let r = comm.rank();
            spgemm_2d(&*comm, grid, SPARSE_N, &at[r], &bt[r], &sparse_cfg()).expect("spgemm");
        })
        .expect("pool job");
    assert_eq!(ledger(&run), (20_696, 20_696, 44, 44));
}

#[test]
fn sddmm_moves_the_pinned_bytes() {
    let grid = GridShape::new(2, 2);
    let st = csr_tiles(grid, &seeded_sparse(SPARSE_N, SPARSE_N, 0.15, 13));
    let dist = BlockDist::new(grid, SPARSE_N, SPARSE_N);
    let at: Arc<Vec<Matrix>> = Arc::new(dist.scatter(&seeded_uniform(SPARSE_N, SPARSE_N, 14)));
    let bt: Arc<Vec<Matrix>> = Arc::new(dist.scatter(&seeded_uniform(SPARSE_N, SPARSE_N, 15)));
    let mut pool = RankPool::new(grid.size()).expect("spawn rank pool");
    let run = pool
        .run(move |comm| {
            let r = comm.rank();
            sddmm_2d(
                &*comm,
                grid,
                SPARSE_N,
                &st[r],
                &at[r],
                &bt[r],
                &sparse_cfg(),
            )
            .expect("sddmm");
        })
        .expect("pool job");
    assert_eq!(ledger(&run), (65_536, 65_536, 44, 44));
}

/// One `bcast_f64` of 1000 doubles from rank 3 of 8.
fn segmented_bcast(algo: BcastAlgorithm) -> (u64, u64, u64, u64) {
    let mut pool = RankPool::new(8).expect("spawn rank pool");
    let run = pool
        .run(move |comm| {
            let mut buf = vec![f64::from(u8::from(comm.rank() == 3)); 1000];
            bcast_f64(&*comm, algo, 3, &mut buf).expect("bcast");
            assert!(buf.iter().all(|&x| x == 1.0));
        })
        .expect("pool job");
    ledger(&run)
}

#[test]
fn pipelined_bcast_moves_the_pinned_segments() {
    assert_eq!(
        segmented_bcast(BcastAlgorithm::Pipelined { segments: 4 }),
        (56_000, 56_000, 28, 28)
    );
}

#[test]
fn scatter_allgather_bcast_moves_the_pinned_chunks() {
    assert_eq!(
        segmented_bcast(BcastAlgorithm::ScatterAllgather),
        (112_000, 112_000, 63, 63)
    );
}
