//! The paper's claims, as executable assertions.
//!
//! Each test names the claim (§ reference) and checks it against the
//! reproduction at a scale the test suite can afford; `EXPERIMENTS.md`
//! records the full-scale numbers from the bench binaries.

use hsumma_repro::core::grid::HierGrid;
use hsumma_repro::core::simdrive::{simulate, Schedule, SimEngine};
use hsumma_repro::core::tuning::{best_by_comm, power_of_two_gs, sweep_groups};
use hsumma_repro::matrix::GridShape;
use hsumma_repro::model::{classify_regime, Regime};
use hsumma_repro::netsim::{Platform, SimBcast, SimReport};

/// Simulates under blocking-collective (step-synchronized) semantics,
/// which is what the paper's measurements — and so its claims — are
/// stated under.
fn sync(sched: Schedule, platform: &Platform) -> SimReport {
    simulate(&sched, platform, SimEngine::Threads, true)
}

/// §III: "It is clear that SUMMA is a special case of HSUMMA when the
/// number of groups equals to one or to the total number of processors."
#[test]
fn claim_summa_is_special_case_at_endpoints() {
    let platform = Platform::bluegene_p_effective();
    let grid = GridShape::new(8, 8);
    let (n, b) = (256usize, 32usize);
    for bcast in [
        SimBcast::Flat,
        SimBcast::Binomial,
        SimBcast::ScatterAllgather,
    ] {
        let s = sync(Schedule::summa(grid, n, b, bcast), &platform);
        for groups in [GridShape::new(1, 1), GridShape::new(8, 8)] {
            let h = sync(
                Schedule::hsumma(grid, groups, n, b, b, bcast, bcast),
                &platform,
            );
            let rel = (h.comm_time - s.comm_time).abs() / s.comm_time;
            assert!(
                rel < 1e-9,
                "{bcast:?} {groups:?}: {} vs {}",
                h.comm_time,
                s.comm_time
            );
        }
    }
}

/// §IV-C / §V: "HSUMMA will either outperform SUMMA or be at least
/// equally fast" — over every valid grouping, min(HSUMMA) ≤ SUMMA.
#[test]
fn claim_hsumma_never_loses() {
    for platform in [
        Platform::grid5000(),
        Platform::grid5000_effective(),
        Platform::bluegene_p(),
        Platform::bluegene_p_effective(),
    ] {
        for bcast in [
            SimBcast::Binomial,
            SimBcast::ScatterAllgather,
            SimBcast::Flat,
        ] {
            let grid = GridShape::new(8, 8);
            let (n, b) = (256usize, 32usize);
            let s = sync(Schedule::summa(grid, n, b, bcast), &platform);
            let gs: Vec<usize> = HierGrid::valid_group_counts(grid)
                .iter()
                .map(|c| c.0)
                .collect();
            let sweep = sweep_groups(grid, &gs, |groups| {
                sync(
                    Schedule::hsumma(grid, groups, n, b, b, bcast, bcast),
                    &platform,
                )
            });
            let best = best_by_comm(&sweep);
            assert!(
                best.report.comm_time <= s.comm_time * (1.0 + 1e-9),
                "{} {bcast:?}: best HSUMMA {} > SUMMA {}",
                platform.name,
                best.report.comm_time,
                s.comm_time
            );
        }
    }
}

/// Abstract / §V-B: the communication gain grows with the processor
/// count (2.08× at 2048 → 5.89× at 16384 in the paper's measurements).
/// Scaled-down check: the gain at p=256 exceeds the gain at p=64.
#[test]
fn claim_gain_grows_with_processor_count() {
    let platform = Platform::bluegene_p_effective();
    let bcast = SimBcast::Flat;
    let (n, b) = (2048usize, 32usize);
    let mut gains = Vec::new();
    for side in [8usize, 16] {
        let grid = GridShape::new(side, side);
        let s = sync(Schedule::summa(grid, n, b, bcast), &platform);
        let sweep = sweep_groups(grid, &power_of_two_gs(grid.size()), |groups| {
            sync(
                Schedule::hsumma(grid, groups, n, b, b, bcast, bcast),
                &platform,
            )
        });
        let best = best_by_comm(&sweep);
        gains.push(s.comm_time / best.report.comm_time);
    }
    assert!(gains[1] > gains[0], "gain should grow with p: {gains:?}");
}

/// §V-A.1 / §V-B.1 / §V-C: the model-validation inequality α/β > 2nb/p
/// holds on all three platforms with the paper's parameters.
#[test]
fn claim_regime_condition_holds_on_all_platforms() {
    let cases = [
        (Platform::grid5000(), 8192.0, 128.0, 64.0),
        (Platform::bluegene_p(), 65536.0, 16384.0, 256.0),
        (
            Platform::exascale(),
            (1u64 << 22) as f64,
            (1u64 << 20) as f64,
            256.0,
        ),
    ];
    for (platform, n, p, b) in cases {
        assert_eq!(
            classify_regime(platform.net.alpha, platform.net.beta, n, p, b),
            Regime::InteriorMinimum,
            "{} should be latency-dominated",
            platform.name
        );
    }
}

/// §V-B (Fig. 8 shape): on the measured-effective BlueGene/P profile the
/// comm-vs-G curve is U-shaped — endpoints worst, interior minimum, and
/// the interior minimum is a multiple-fold improvement.
#[test]
fn claim_u_shape_with_interior_minimum_on_bluegene() {
    let platform = Platform::bluegene_p_effective();
    let grid = GridShape::new(16, 16);
    let (n, b) = (1024usize, 32usize);
    let sweep = sweep_groups(grid, &power_of_two_gs(grid.size()), |groups| {
        sync(
            Schedule::hsumma(grid, groups, n, b, b, SimBcast::Flat, SimBcast::Flat),
            &platform,
        )
    });
    let best = best_by_comm(&sweep);
    let first = sweep.first().expect("sweep non-empty");
    let last = sweep.last().expect("sweep non-empty");
    assert!(
        best.g > 1 && best.g < grid.size(),
        "minimum must be interior, got {}",
        best.g
    );
    assert!(
        best.report.comm_time < first.report.comm_time / 2.0,
        "multiple-fold win at best G"
    );
    let rel = (first.report.comm_time - last.report.comm_time).abs() / first.report.comm_time;
    assert!(
        rel < 1e-9,
        "endpoints must match each other (both are SUMMA)"
    );
}

/// §VI (future work, implemented here): with a latency-heavy broadcast,
/// three hierarchy levels improve on two, which improve on one.
#[test]
fn claim_deeper_hierarchies_can_help_further() {
    use hsumma_repro::core::multilevel::sim_summa_hier;
    let platform = Platform {
        name: "latency-heavy",
        net: hsumma_repro::netsim::Hockney::new(1e-2, 1e-12),
        gamma: 0.0,
    };
    let grid = GridShape::new(16, 16);
    let (n, b) = (256usize, 16usize);
    let algo = SimBcast::ScatterAllgather;
    let one = sim_summa_hier(&platform, grid, n, b, algo, &[16]);
    let two = sim_summa_hier(&platform, grid, n, b, algo, &[4, 4]);
    let three = sim_summa_hier(&platform, grid, n, b, algo, &[2, 2, 4]);
    assert!(
        two.comm_time < one.comm_time,
        "2 levels {} < 1 level {}",
        two.comm_time,
        one.comm_time
    );
    assert!(
        three.comm_time < two.comm_time,
        "3 levels {} < 2 levels {}",
        three.comm_time,
        two.comm_time
    );
}
