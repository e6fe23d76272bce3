//! Property-based invariants spanning crates: randomized configurations
//! of the simulator and the executable algorithms must uphold the
//! paper's structural guarantees.

use hsumma_repro::core::grid::HierGrid;
use hsumma_repro::core::simdrive::{simulate, Schedule, SimEngine};
use hsumma_repro::core::testutil::{distributed_product, reference_product};
use hsumma_repro::core::{hsumma, HsummaConfig};
use hsumma_repro::matrix::{seeded_uniform, GemmKernel, GridShape};
use hsumma_repro::netsim::{Hockney, Platform, SimBcast, SimReport};
use proptest::prelude::*;

/// Simulates under blocking-collective (step-synchronized) semantics.
fn sync(sched: Schedule, platform: &Platform) -> SimReport {
    simulate(&sched, platform, SimEngine::Threads, true)
}

const BCASTS: [SimBcast; 4] = [
    SimBcast::Flat,
    SimBcast::Binomial,
    SimBcast::Binary,
    SimBcast::ScatterAllgather,
];

fn arb_platform(alpha_exp: i32, beta_exp: i32) -> Platform {
    Platform {
        name: "random",
        net: Hockney::new(10f64.powi(alpha_exp), 10f64.powi(beta_exp)),
        gamma: 1e-10,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// "HSUMMA can never be worse than SUMMA" (§V-A): across random
    /// platforms, broadcast algorithms and grids, the best grouping is
    /// at most SUMMA (G = 1 is always a candidate).
    #[test]
    fn hsumma_never_loses_anywhere(
        side_pow in 1u32..4,
        alpha_exp in -7i32..-2,
        beta_exp in -12i32..-8,
        bcast_ix in 0usize..4,
    ) {
        let side = 1usize << side_pow;
        let grid = GridShape::new(side, side);
        let platform = arb_platform(alpha_exp, beta_exp);
        let bcast = BCASTS[bcast_ix];
        let n = side * 8;
        let b = 4;
        let summa = sync(Schedule::summa(grid, n, b, bcast), &platform);
        let best = HierGrid::valid_group_counts(grid)
            .iter()
            .map(|&(_, groups)| {
                sync(Schedule::hsumma(grid, groups, n, b, b, bcast, bcast), &platform).comm_time
            })
            .fold(f64::INFINITY, f64::min);
        prop_assert!(
            best <= summa.comm_time * (1.0 + 1e-9),
            "best {best} > SUMMA {} on {platform:?} {bcast:?}",
            summa.comm_time
        );
    }

    /// Simulated time is invariant to the broadcast *data* (phantom
    /// payloads): two sweeps with identical parameters agree exactly.
    #[test]
    fn simulation_is_configuration_deterministic(
        side_pow in 1u32..4,
        bcast_ix in 0usize..4,
        g_seed in 0usize..100,
    ) {
        let side = 1usize << side_pow;
        let grid = GridShape::new(side, side);
        let counts = HierGrid::valid_group_counts(grid);
        let (_, groups) = counts[g_seed % counts.len()];
        let platform = Platform::bluegene_p();
        let bcast = BCASTS[bcast_ix];
        let a = sync(Schedule::hsumma(grid, groups, side * 8, 4, 4, bcast, bcast), &platform);
        let b = sync(Schedule::hsumma(grid, groups, side * 8, 4, 4, bcast, bcast), &platform);
        prop_assert_eq!(a, b);
    }

    /// Compute time and moved bytes are functions of (n, p) only — never
    /// of the grouping or the broadcast algorithm (for tree broadcasts).
    #[test]
    fn work_and_volume_are_grouping_invariant(
        side_pow in 1u32..4,
        g_seed in 0usize..100,
        bcast_ix in 0usize..3, // tree broadcasts only (vdG splits payloads)
    ) {
        let side = 1usize << side_pow;
        let grid = GridShape::new(side, side);
        let counts = HierGrid::valid_group_counts(grid);
        let (_, groups) = counts[g_seed % counts.len()];
        let platform = Platform::grid5000();
        let bcast = BCASTS[bcast_ix];
        let n = side * 8;
        let summa = sync(Schedule::summa(grid, n, 4, bcast), &platform);
        let h = sync(Schedule::hsumma(grid, groups, n, 4, 4, bcast, bcast), &platform);
        prop_assert!((h.comp_time - summa.comp_time).abs() < 1e-12 * summa.comp_time.max(1e-30));
        prop_assert_eq!(h.bytes, summa.bytes);
    }

    /// The executable HSUMMA is correct for random square problems and
    /// random groupings (the cross-crate end-to-end property).
    #[test]
    fn executable_hsumma_random_configs(
        side in 1usize..4,
        tiles in 1usize..3,
        g_seed in 0usize..50,
        seed in 0u64..500,
    ) {
        let grid = GridShape::new(side, side);
        let counts = HierGrid::valid_group_counts(grid);
        let (_, groups) = counts[g_seed % counts.len()];
        let n = side * tiles * 2;
        let a = seeded_uniform(n, n, seed);
        let b = seeded_uniform(n, n, seed.wrapping_add(1));
        let want = reference_product(&a, &b);
        let cfg = HsummaConfig {
            kernel: GemmKernel::Blocked,
            ..HsummaConfig::uniform(groups, 1)
        };
        let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            hsumma(comm, grid, n, &at, &bt, &cfg).unwrap()
        });
        prop_assert!(got.approx_eq(&want, 1e-9));
    }
}
