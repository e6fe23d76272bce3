//! End-to-end correctness of every distributed algorithm through the
//! public façade (`hsumma_repro`): scatter → SPMD multiply → gather →
//! compare against the serial reference, across grids, block sizes,
//! groupings and broadcast algorithms.

use hsumma_repro::core::testutil::{distributed_product, reference_product};
use hsumma_repro::core::{cannon, fox, hsumma, summa, HierGrid, HsummaConfig, SummaConfig};
use hsumma_repro::matrix::{seeded_uniform, GemmKernel, GridShape};
use hsumma_repro::runtime::BcastAlgorithm;
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

#[test]
fn hsumma_matches_summa_bit_for_bit_when_schedules_align() {
    // With G = 1, b = B and the same kernel, HSUMMA performs the same
    // local operations in the same order as SUMMA, so results agree to
    // the last bit, not just within tolerance.
    let grid = GridShape::new(2, 2);
    let n = 16;
    let a = seeded_uniform(n, n, 77);
    let b = seeded_uniform(n, n, 88);
    let scfg = SummaConfig {
        block: 4,
        kernel: GemmKernel::Blocked,
        ..Default::default()
    };
    let by_summa = distributed_product(grid, n, &a, &b, |comm, at, bt| {
        summa(comm, grid, n, &at, &bt, &scfg).unwrap()
    });
    let hcfg = HsummaConfig {
        kernel: GemmKernel::Blocked,
        ..HsummaConfig::uniform(GridShape::new(1, 1), 4)
    };
    let by_hsumma = distributed_product(grid, n, &a, &b, |comm, at, bt| {
        hsumma(comm, grid, n, &at, &bt, &hcfg).unwrap()
    });
    assert_eq!(by_summa, by_hsumma, "G=1 HSUMMA must equal SUMMA exactly");
}

#[test]
fn all_four_algorithms_agree_on_a_square_grid() {
    let grid = GridShape::new(3, 3);
    let n = 18;
    let a = seeded_uniform(n, n, 5);
    let b = seeded_uniform(n, n, 6);
    let want = reference_product(&a, &b);

    let by_cannon = distributed_product(grid, n, &a, &b, |comm, at, bt| {
        cannon(comm, grid, n, at, bt, GemmKernel::Blocked).unwrap()
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
    ) {
        let grid = GridShape::new(s, t);
        let n = s * t * tiles * 2;
        let a = seeded_uniform(n, n, seed);
        let b = seeded_uniform(n, n, seed.wrapping_add(1));
        let want = reference_product(&a, &b);
        let cfg = SummaConfig { block: 1, kernel: GemmKernel::Blocked, ..Default::default() };
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
    ) {
        let grid = GridShape::new(side, side);
        let counts = HierGrid::valid_group_counts(grid);
        let (_, groups) = counts[g_seed % counts.len()];
        let n = side * 4;
        let a = seeded_uniform(n, n, seed);
        let b = seeded_uniform(n, n, seed.wrapping_add(1));
        let want = reference_product(&a, &b);
        let cfg = HsummaConfig {
            kernel: GemmKernel::Blocked,
            ..HsummaConfig::uniform(groups, 2)
        };
        let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            hsumma(comm, grid, n, &at, &bt, &cfg).unwrap()
        });
        prop_assert!(got.approx_eq(&want, TOL));
    }
}
