//! End-to-end correctness of every distributed algorithm through the
//! public façade (`hsumma_repro`): scatter → SPMD multiply → gather →
//! compare against the serial reference, across grids, block sizes,
//! groupings and broadcast algorithms.

use hsumma_repro::core::testutil::{distributed_product, reference_product};
use hsumma_repro::core::{
    fox, hsumma, run_planned_gemm, summa, HierGrid, HsummaConfig, PlannedAlgo, SummaConfig,
};
use hsumma_repro::matrix::{seeded_uniform, BlockDist, GemmKernel, GridShape, Matrix};
use hsumma_repro::runtime::{BcastAlgorithm, Comm, Runtime};
use hsumma_repro::trace::Tracer;
use proptest::prelude::*;

const TOL: f64 = 1e-9;

#[test]
fn summa_across_grids_and_blocks() {
    for (s, t) in [(1, 1), (1, 4), (2, 2), (2, 4), (4, 4), (3, 3)] {
        let grid = GridShape::new(s, t);
        // n divisible by both grid extents, with room for several blocks.
        let n = s * t * 4;
        let a = seeded_uniform(n, n, 10);
        let b = seeded_uniform(n, n, 20);
        let want = reference_product(&a, &b);
        for block in [1usize, 2, 4] {
            if (n / s) % block != 0 || (n / t) % block != 0 {
                continue;
            }
            let cfg = SummaConfig {
                block,
                kernel: GemmKernel::Blocked,
                ..Default::default()
            };
            let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
                summa(comm, grid, n, &at, &bt, &cfg).unwrap()
            });
            assert!(
                got.approx_eq(&want, TOL),
                "summa {s}x{t} n={n} block={block}: err {}",
                got.max_abs_diff(&want)
            );
        }
    }
}

/// Sends of one run, per rank: `(src, dst, bytes)`, sorted.
type SendMultisets = Vec<Vec<(usize, usize, u64)>>;

/// One traced run on rank threads: the gathered product, the world's
/// `(msgs, bytes)` ledger and every rank's send multiset.
fn ledgered_product(
    grid: GridShape,
    n: usize,
    a: &Matrix,
    b: &Matrix,
    algo: impl Fn(&mut Comm, &Matrix, &Matrix) -> Matrix + Send + Sync,
) -> (Matrix, (u64, u64), SendMultisets) {
    let dist = BlockDist::new(grid, n, n);
    let (at, bt) = (dist.scatter(a), dist.scatter(b));
    let tracer = Tracer::new(grid.size());
    let out = Runtime::run_traced(grid.size(), &tracer, |comm| {
        let c = algo(comm, &at[comm.rank()], &bt[comm.rank()]);
        let stats = comm.stats();
        (c, stats.msgs_sent, stats.bytes_sent)
    });
    let ledger = out.iter().fold((0, 0), |(m, b), o| (m + o.1, b + o.2));
    let tiles: Vec<Matrix> = out.into_iter().map(|o| o.0).collect();
    let sends = tracer.collect().per_rank_send_multisets();
    (dist.gather(&tiles), ledger, sends)
}

#[test]
fn hsumma_matches_summa_bit_for_bit_when_schedules_align() {
    // The paper's theorem: with b = B and the same kernel, HSUMMA at
    // G = 1 and at G = p performs the same local operations in the same
    // order as SUMMA, and one of its two levels runs on singleton
    // communicators that send nothing. So the products agree to the last
    // bit, and the message ledgers and per-rank send multisets outright.
    let grid = GridShape::new(4, 4);
    let n = 32;
    let a = seeded_uniform(n, n, 77);
    let b = seeded_uniform(n, n, 88);
    let scfg = SummaConfig {
        block: 4,
        kernel: GemmKernel::Blocked,
        ..Default::default()
    };
    let by_summa = ledgered_product(grid, n, &a, &b, |comm, at, bt| {
        summa(comm, grid, n, at, bt, &scfg).unwrap()
    });
    for groups in [GridShape::new(1, 1), grid] {
        let hcfg = HsummaConfig {
            kernel: GemmKernel::Blocked,
            ..HsummaConfig::uniform(groups, 4)
        };
        let by_hsumma = ledgered_product(grid, n, &a, &b, |comm, at, bt| {
            hsumma(comm, grid, n, at, bt, &hcfg).unwrap()
        });
        let g = groups.size();
        assert_eq!(
            by_summa.0, by_hsumma.0,
            "G={g} HSUMMA must equal SUMMA exactly"
        );
        assert_eq!(
            by_summa.1, by_hsumma.1,
            "G={g} HSUMMA must send SUMMA's ledger"
        );
        assert_eq!(
            by_summa.2, by_hsumma.2,
            "G={g} HSUMMA must send SUMMA's messages"
        );
    }
}

#[test]
fn all_four_algorithms_agree_on_a_square_grid() {
    let grid = GridShape::new(3, 3);
    let n = 18;
    let a = seeded_uniform(n, n, 5);
    let b = seeded_uniform(n, n, 6);
    let want = reference_product(&a, &b);

    let by_cannon = distributed_product(grid, n, &a, &b, |comm, at, bt| {
        let plan = PlannedAlgo::Cannon {
            kernel: GemmKernel::Blocked,
        };
        run_planned_gemm(comm, grid, n, n, n, &at, &bt, &plan).unwrap()
    });
    let by_fox = distributed_product(grid, n, &a, &b, |comm, at, bt| {
        fox(comm, grid, n, &at, &bt, GemmKernel::Blocked).unwrap()
    });
    let scfg = SummaConfig {
        block: 2,
        ..Default::default()
    };
    let by_summa = distributed_product(grid, n, &a, &b, |comm, at, bt| {
        summa(comm, grid, n, &at, &bt, &scfg).unwrap()
    });
    let hcfg = HsummaConfig::uniform(GridShape::new(3, 3), 2);
    let by_hsumma = distributed_product(grid, n, &a, &b, |comm, at, bt| {
        hsumma(comm, grid, n, &at, &bt, &hcfg).unwrap()
    });

    for (name, got) in [
        ("cannon", by_cannon),
        ("fox", by_fox),
        ("summa", by_summa),
        ("hsumma", by_hsumma),
    ] {
        assert!(got.approx_eq(&want, TOL), "{name} diverged");
    }
}

#[test]
fn hsumma_with_larger_outer_block_and_vdg_broadcasts() {
    // The paper's general configuration: B > b, long-message broadcast
    // between groups, tree broadcast inside.
    let grid = GridShape::new(4, 4);
    let n = 32;
    let a = seeded_uniform(n, n, 41);
    let b = seeded_uniform(n, n, 42);
    let want = reference_product(&a, &b);
    let cfg = HsummaConfig {
        groups: GridShape::new(2, 2),
        outer_block: 8,
        inner_block: 2,
        outer_bcast: BcastAlgorithm::ScatterAllgather,
        inner_bcast: BcastAlgorithm::Binomial,
        kernel: GemmKernel::Blocked,
    };
    let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
        hsumma(comm, grid, n, &at, &bt, &cfg).unwrap()
    });
    assert!(got.approx_eq(&want, TOL), "err {}", got.max_abs_diff(&want));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn summa_random_configs(
        s in 1usize..4,
        t in 1usize..4,
        tiles in 1usize..4,
        seed in 0u64..1000,
        pad in 0usize..3,
        block in 1usize..5,
    ) {
        // `pad` makes n indivisible by the grid, `block` > 1 leaves the
        // last panel of a tile short.
        let grid = GridShape::new(s, t);
        let n = s * t * tiles * 2 + pad;
        let a = seeded_uniform(n, n, seed);
        let b = seeded_uniform(n, n, seed.wrapping_add(1));
        let want = reference_product(&a, &b);
        let cfg = SummaConfig { block, kernel: GemmKernel::Blocked, ..Default::default() };
        let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            summa(comm, grid, n, &at, &bt, &cfg).unwrap()
        });
        prop_assert!(got.approx_eq(&want, TOL));
    }

    #[test]
    fn hsumma_random_groupings(
        side in 1usize..5usize,
        g_seed in 0usize..100,
        seed in 0u64..1000,
        pad in 0usize..4,
        inner in 1usize..4,
        slices in 1usize..3,
    ) {
        // `pad` makes n indivisible by the grid; B = slices·b need not
        // divide the tiles, so steps and slices end short.
        let grid = GridShape::new(side, side);
        let counts = HierGrid::valid_group_counts(grid);
        let (_, groups) = counts[g_seed % counts.len()];
        let n = side * 4 + pad;
        let a = seeded_uniform(n, n, seed);
        let b = seeded_uniform(n, n, seed.wrapping_add(1));
        let want = reference_product(&a, &b);
        let cfg = HsummaConfig {
            outer_block: inner * slices,
            inner_block: inner,
            kernel: GemmKernel::Blocked,
            ..HsummaConfig::uniform(groups, 2)
        };
        let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            hsumma(comm, grid, n, &at, &bt, &cfg).unwrap()
        });
        prop_assert!(got.approx_eq(&want, TOL));
    }
}
