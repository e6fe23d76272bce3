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
//!    shape (4×4 ranks, 2×2 groups, n = 256, b = B = 8), and there every
//!    grid plan — SUMMA, HSUMMA and their pipelined forms — with its
//!    payload copies (`payload_clones`, `payload_clone_bytes`): each
//!    panel is cut once, by its owner, and SUMMA's wire traffic is
//!    HSUMMA's. HSUMMA at `B = 2b` pins the inner roots' slice cuts;
//! 2. sparse `Arc<CsrMatrix>` panels, whose size depends on nnz:
//!    `spgemm_2d` and `sddmm_2d` as the `distributed_*` drivers run them;
//! 3. the segmenting broadcasts' `f64` segments: `bcast_f64` under
//!    `Pipelined` and `ScatterAllgather`;
//! 4. whole owned `Matrix` tiles: a served n = 512 job that a 2×2
//!    `GemmServer` plans as Cannon and a served 300×200×260 one it
//!    plans as COSMA, each dealt in its plan's own layouts, whose
//!    products must also match the plan run from the checkerboard on a
//!    bare `RankPool` bit for bit.
//!
//! Cannon and Fox are also pinned to closed forms in whole tiles on the
//! simulator's replay ledger, for `q = 1 … 4`.
//!
//! On shapes neither the grid nor the blocks divide, the dense grid
//! plans are pinned to a closed form instead: `8·(M·L·(t−1) +
//! L·N·(s−1))` bytes on an `s × t` grid.
//!
//! A change to how the runtime sizes a message must leave every one of
//! these sums bit-equal.
//!
//! Communicator splits send nothing: each rank computes its group from a
//! rank → `(color, key)` function all members share. The message pins
//! therefore count only the schedules' own traffic.

use hsumma_repro::core::testutil::reference_product;
use hsumma_repro::core::{
    run_planned_gemm, simulate, Distribution, HsummaConfig, PlannedAlgo, Schedule, SummaConfig,
};
use hsumma_repro::matrix::sparse::{seeded_sparse, CsrMatrix};
use hsumma_repro::matrix::{seeded_uniform, BlockDist, GemmKernel, GridShape, Matrix};
use hsumma_repro::model::related::{cannon_aligned_tile_moves, cannon_tile_moves, fox_tile_moves};
use hsumma_repro::netsim::{Platform, SimBcast};
use hsumma_repro::runtime::collectives::bcast_f64;
use hsumma_repro::runtime::{BcastAlgorithm, CommStats, PoolRun, RankPool};
use hsumma_repro::sparse::{scatter_csr, sddmm_2d, spgemm_2d, SparseConfig};
use hsumma_serve::{GemmServer, JobSpec, ServePlan, ServerConfig};
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

/// World payload copies `(payload_clones, payload_clone_bytes)` of one
/// pool job.
fn copies<R>(run: &PoolRun<R>) -> (u64, u64) {
    let t = run
        .stats
        .iter()
        .fold(CommStats::default(), |acc, s| acc.merge(s));
    (t.payload_clones, t.payload_clone_bytes)
}

/// One `plan` on the gemm-comm shape: 4×4 ranks, n = 256.
fn gemm_comm_run(plan: PlannedAlgo) -> PoolRun<()> {
    let (grid, n) = (GridShape::new(4, 4), 256);
    let dist = Distribution::grid2d(grid, n, n);
    let a = Arc::new(dist.scatter(&seeded_uniform(n, n, 1)));
    let b = Arc::new(dist.scatter(&seeded_uniform(n, n, 2)));
    let mut pool = RankPool::new(grid.size()).expect("spawn rank pool");
    pool.run(move |comm| {
        let r = comm.rank();
        run_planned_gemm(&*comm, grid, n, n, n, &a[r], &b[r], &plan).expect("planned gemm");
    })
    .expect("pool job")
}

/// HSUMMA over 2×2 groups with `B = b = 8`, binomial broadcasts.
fn gemm_comm_hsumma() -> HsummaConfig {
    HsummaConfig::uniform(GridShape::new(2, 2), 8)
}

#[test]
fn gemm_comm_shape_moves_the_pinned_bytes_and_messages() {
    let run = gemm_comm_run(PlannedAlgo::Hsumma(gemm_comm_hsumma()));
    assert_eq!(ledger(&run), (3_145_728, 3_145_728, 768, 768));
}

#[test]
fn every_grid_plan_cuts_each_panel_once_at_the_gemm_comm_shape() {
    // 32 pivot steps, each with 4 owners of an A panel (one per grid
    // row) and 4 of a B panel, each cutting one 64×8 panel (4 KiB). The
    // inner roots forward what they received (B == b), so nobody else
    // copies. On the wire, SUMMA is HSUMMA: 768 messages of 4 KiB.
    let summa = SummaConfig {
        block: 8,
        bcast: BcastAlgorithm::Binomial,
        kernel: GemmKernel::Packed,
    };
    for plan in [
        PlannedAlgo::Summa(summa),
        PlannedAlgo::SummaPipelined(summa),
        PlannedAlgo::Hsumma(gemm_comm_hsumma()),
        PlannedAlgo::HsummaPipelined(gemm_comm_hsumma()),
    ] {
        let run = gemm_comm_run(plan);
        let what = plan.describe();
        assert_eq!(copies(&run), (256, 1_048_576), "{what} payload copies");
        let (bytes, _, msgs, _) = ledger(&run);
        assert_eq!((msgs, bytes), (768, 3_145_728), "{what} wire traffic");
    }
}

#[test]
fn hsumma_inner_roots_cut_their_slices_when_the_outer_block_is_wider() {
    // B = 2b = 16: 16 outer steps. The 4 + 4 owners cut 64×16 outer
    // panels; the 8 inner roots per operand (the pivot inner line of
    // each of the 2×2 groups' 2 inner lines) each cut 2 slices of 64×8
    // from the panel they received. Blocking and pipelined slice alike.
    let steps = 256 / 16;
    let outer = (steps * 2 * 4, steps * 2 * 4 * 64 * 16 * 8);
    let inner = (steps * 2 * 8 * 2, steps * 2 * 8 * 2 * 64 * 8 * 8);
    let want = ((outer.0 + inner.0) as u64, (outer.1 + inner.1) as u64);
    let cfg = HsummaConfig {
        outer_block: 16,
        ..gemm_comm_hsumma()
    };
    for plan in [PlannedAlgo::Hsumma(cfg), PlannedAlgo::HsummaPipelined(cfg)] {
        let run = gemm_comm_run(plan);
        assert_eq!(copies(&run), want, "{}", plan.describe());
    }
}

/// One `plan` over an `(m, l, n)` the grid need not divide, with tiles
/// dealt by `Distribution::grid2d`: the world's wire bytes, after the
/// gathered product is checked against the serial one.
fn uneven_run_bytes(grid: GridShape, (m, l, n): (usize, usize, usize), plan: PlannedAlgo) -> u64 {
    let a = seeded_uniform(m, l, 3);
    let b = seeded_uniform(l, n, 4);
    let at = Arc::new(Distribution::grid2d(grid, m, l).scatter(&a));
    let bt = Arc::new(Distribution::grid2d(grid, l, n).scatter(&b));
    let mut pool = RankPool::new(grid.size()).expect("spawn rank pool");
    let run = pool
        .run(move |comm| {
            let r = comm.rank();
            run_planned_gemm(&*comm, grid, m, n, l, &at[r], &bt[r], &plan).expect("planned gemm")
        })
        .expect("pool job");
    let got = Distribution::grid2d(grid, m, n).gather(&run.results);
    let want = reference_product(&a, &b);
    assert!(got.approx_eq(&want, 1e-9), "{} product", plan.describe());
    ledger(&run).0
}

#[test]
fn uneven_shapes_move_each_panel_to_every_other_rank_of_its_line() {
    // Each element of A crosses its grid row to the t - 1 other ranks
    // once and each element of B its grid column to the s - 1 others,
    // whatever the tiles, the panel widths and the grouping: flat and
    // binomial broadcasts (and the pipelines' flat pushes) send every
    // member one copy, and the two levels of a hierarchy together reach
    // the t - 1 others once. Both the 3×4 grid and the prime 1×5 one
    // divide none of the extents, and B = 4 divides none of the tiles.
    let groupings = |grid: GridShape| {
        let mut gs = vec![GridShape::new(1, 1), grid];
        if grid.rows == 3 {
            gs.push(GridShape::new(3, 2));
        }
        gs
    };
    for (grid, (m, l, n)) in [
        (GridShape::new(3, 4), (13, 17, 11)),
        (GridShape::new(1, 5), (7, 23, 9)),
    ] {
        let (s, t) = (grid.rows, grid.cols);
        let want = (8 * (m * l * (t - 1) + l * n * (s - 1))) as u64;
        for bcast in [BcastAlgorithm::Binomial, BcastAlgorithm::Flat] {
            let summa = SummaConfig {
                block: 4,
                bcast,
                kernel: GemmKernel::Blocked,
            };
            let mut plans = vec![
                PlannedAlgo::Summa(summa),
                PlannedAlgo::SummaPipelined(summa),
            ];
            for groups in groupings(grid) {
                let cfg = HsummaConfig {
                    outer_block: 4,
                    inner_block: 2,
                    outer_bcast: bcast,
                    inner_bcast: bcast,
                    kernel: GemmKernel::Blocked,
                    groups,
                };
                plans.extend([PlannedAlgo::Hsumma(cfg), PlannedAlgo::HsummaPipelined(cfg)]);
            }
            for plan in plans {
                let got = uneven_run_bytes(grid, (m, l, n), plan);
                assert_eq!(got, want, "{grid:?} {bcast:?} {}", plan.describe());
            }
        }
    }
}

#[test]
fn served_cannon_and_cosma_move_the_pinned_bytes_and_match_pooled_runs() {
    // Served, each plan's tiles are dealt in its own layouts, so a job
    // moves its schedule's own traffic and nothing else. Cannon on 2×2
    // at n = 512: the one rotation between its two multiplies, 8 tiles
    // of 256² doubles. COSMA over 4×1×1 bricks at 300×200×260: the
    // broadcast of B's one brick down its fiber, 3 copies of 200×260,
    // after its root cuts that brick once. Cannon copies nothing.
    let grid = GridShape::new(2, 2);
    for ((m, k, n), pinned) in [
        ((512, 512, 512), (4_194_304, 8, 0)),
        ((300, 200, 260), (1_248_000, 3, 416_000)),
    ] {
        let a = seeded_uniform(m, k, 21);
        let b = seeded_uniform(k, n, 22);
        let server = GemmServer::new(ServerConfig::new(grid)).expect("start server");
        let out = server
            .submit(JobSpec::gemm(m, k, n), a.clone(), b.clone())
            .expect("admitted")
            .wait()
            .expect("served");
        let plan = match out.report.plan {
            ServePlan::Dense(plan @ (PlannedAlgo::Cannon { .. } | PlannedAlgo::Cosma(_))) => plan,
            other => panic!(
                "{m}x{k}x{n}: expected Cannon or COSMA, got {}",
                other.describe()
            ),
        };
        let s = out.report.merged_stats();
        let got = (s.bytes_sent, s.msgs_sent, s.payload_clone_bytes);
        assert_eq!(got, pinned, "{}", plan.describe());

        // The same plan from checkerboard tiles on a bare pool.
        let at = Arc::new(Distribution::grid2d(grid, m, k).scatter(&a));
        let bt = Arc::new(Distribution::grid2d(grid, k, n).scatter(&b));
        let mut pool = RankPool::new(grid.size()).expect("spawn rank pool");
        let run = pool
            .run(move |comm| {
                let r = comm.rank();
                run_planned_gemm(&*comm, grid, m, n, k, &at[r], &bt[r], &plan).expect("plan")
            })
            .expect("pool job");
        let want = Distribution::grid2d(grid, m, n).gather(&run.results);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(out.c.dense()) == bits(&want),
            "served {} differs from pooled",
            plan.describe()
        );
    }
}

#[test]
fn cannon_and_fox_ledgers_match_their_closed_forms() {
    // In tiles of (n/q)² doubles: checkerboard Cannon 2q(q-1)(q+1),
    // Cannon dealt aligned 2q²(q-1), Fox with binomial row broadcasts
    // 2q²(q-1). Every message carries one whole tile.
    let plat = Platform::grid5000();
    for q in 1..=4u64 {
        let (qs, n) = (q as usize, 12 * q as usize);
        let tile = (12 * 12 * 8) as u64;
        let Schedule::Gemm { grid, dims, plan } = Schedule::cannon(qs, n) else {
            unreachable!("Cannon is a planned grid multiply");
        };
        let fox = Schedule::Fox {
            q: qs,
            n,
            bcast: SimBcast::Binomial,
        };
        for (what, sched, moves) in [
            (
                "checkerboard cannon",
                Schedule::cannon(qs, n),
                cannon_tile_moves(q),
            ),
            (
                "aligned cannon",
                Schedule::Native { grid, dims, plan },
                cannon_aligned_tile_moves(q),
            ),
            ("fox", fox, fox_tile_moves(q)),
        ] {
            let r = simulate(&sched, &plat, false);
            assert_eq!((r.bytes, r.msgs), (moves * tile, moves), "q={q} {what}");
        }
    }
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
    assert_eq!(ledger(&run), (20_696, 20_696, 32, 32));
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
    assert_eq!(ledger(&run), (65_536, 65_536, 32, 32));
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
    // Scatter: each of the 7 tree edges carries its subtree's 125-double
    // chunks, 4 + 2 + 1 from the root and 2 + 1 + 1 + 1 below, 12 000
    // bytes. Allgather: 8 ranks × 7 rounds of one chunk, 56 000 bytes.
    assert_eq!(
        segmented_bcast(BcastAlgorithm::ScatterAllgather),
        (68_000, 68_000, 63, 63)
    );
}
