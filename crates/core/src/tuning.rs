//! Selecting the number of groups.
//!
//! The paper selects the optimal `G` by "sampling over valid values" and
//! notes it "can be easily automated ... by using few iterations of
//! HSUMMA" (§VI). This module does exactly that against the timing
//! simulator: sweep every achievable group count (or a caller-chosen
//! subset, e.g. powers of two as in Fig. 8) and return the best.

use crate::grid::HierGrid;
use crate::hsumma::HsummaConfig;
use crate::partition::MatMulDims;
use crate::pivot::{self, Spec};
use hsumma_matrix::{GridShape, Matrix};
use hsumma_netsim::SimReport;
use hsumma_runtime::{collectives, Comm, CommError};

/// One evaluated grouping.
#[derive(Clone, Copy, Debug)]
pub struct GroupPoint {
    /// Total number of groups `G = I·J`.
    pub g: usize,
    /// The `I × J` factorization used.
    pub groups: GridShape,
    /// Simulated timing at this grouping.
    pub report: SimReport,
}

/// Prices every group count in `gs` that factors on `grid` (the others
/// are skipped) with `price`, typically a [`crate::simulate`] call on
/// [`crate::Schedule::hsumma`] — under [`crate::SimEngine::Replay`] a
/// G sweep at p = 2¹⁶ is a planner call, not an overnight job.
pub fn sweep_groups(
    grid: GridShape,
    gs: &[usize],
    mut price: impl FnMut(GridShape) -> SimReport,
) -> Vec<GroupPoint> {
    gs.iter()
        .filter_map(|&g| {
            let groups = HierGrid::factor_groups(grid, g)?;
            let report = price(groups);
            Some(GroupPoint { g, groups, report })
        })
        .collect()
}

/// Power-of-two group counts `1, 2, 4, …, p` — the x-axis of Fig. 8.
pub fn power_of_two_gs(p: usize) -> Vec<usize> {
    let mut gs = Vec::new();
    let mut g = 1usize;
    while g <= p {
        gs.push(g);
        if g > p / 2 {
            break;
        }
        g *= 2;
    }
    gs
}

/// The grouping with the smallest simulated *communication* time — the
/// quantity the paper optimizes.
pub fn best_by_comm(sweep: &[GroupPoint]) -> GroupPoint {
    *sweep
        .iter()
        .min_by(|a, b| {
            a.report
                .comm_time
                .partial_cmp(&b.report.comm_time)
                .expect("simulated times are finite")
        })
        .expect("sweep must not be empty")
}

/// Outer steps of the real schedule each candidate grouping is sampled
/// on — §VI's "few iterations of HSUMMA".
const SAMPLE_STEPS: usize = 2;

/// Auto-tuned HSUMMA — §VI made executable: "the optimal number of
/// groups ... can be easily automated and incorporated into the
/// implementation by using few iterations of HSUMMA."
///
/// For each candidate grouping, all ranks run the first two
/// outer steps of the real algorithm (the same communicators and panel
/// sizes as the full run), agree (via an all-reduce of the slowest rank's
/// communication time) on its measured cost, then run the full multiply
/// with the winner. Returns the local `C` tile and the grouping chosen.
///
/// SPMD: every rank must call this with the same configuration.
pub fn tuned_hsumma(
    comm: &Comm,
    grid: GridShape,
    n: usize,
    a: &Matrix,
    b: &Matrix,
    block: usize,
    candidates: &[usize],
) -> Result<(Matrix, GridShape), CommError> {
    assert!(
        !candidates.is_empty(),
        "need at least one candidate grouping"
    );
    let spec = |groups| {
        Spec::hsumma(
            grid,
            MatMulDims::square(n),
            &HsummaConfig::uniform(groups, block),
        )
    };
    let mut best: Option<(f64, GridShape)> = None;
    for &g in candidates {
        let Some(groups) = HierGrid::factor_groups(grid, g) else {
            continue;
        };
        let before = comm.stats().comm_seconds;
        pivot::blocking(comm, &spec(groups), a, b, |kg| kg < SAMPLE_STEPS)?;
        let elapsed = comm.stats().comm_seconds - before;
        // Algorithm choice must be identical on every rank: agree on the
        // slowest rank's time.
        let agreed = collectives::allreduce(comm, elapsed, f64::max)?;
        if best.is_none_or(|(t, _)| agreed < t) {
            best = Some((agreed, groups));
        }
    }
    let (_, groups) = best.expect("at least one candidate must factor the grid");
    let c = pivot::blocking(comm, &spec(groups), a, b, |_| true)?;
    Ok((c, groups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simdrive::{simulate, Schedule, SimEngine};
    use crate::testutil::{distributed_product, reference_product};
    use hsumma_matrix::seeded_uniform;
    use hsumma_netsim::{Platform, SimBcast};

    /// Sweeps all valid group counts on `grid`.
    fn sweep_all_groups(
        platform: &Platform,
        grid: GridShape,
        n: usize,
        block: usize,
        bcast: SimBcast,
    ) -> Vec<GroupPoint> {
        let gs: Vec<usize> = HierGrid::valid_group_counts(grid)
            .iter()
            .map(|c| c.0)
            .collect();
        sweep_groups(grid, &gs, |groups| {
            let sched = Schedule::hsumma(grid, groups, n, block, block, bcast, bcast);
            simulate(&sched, platform, SimEngine::Threads, false)
        })
    }

    #[test]
    fn tuned_hsumma_returns_correct_product_and_valid_grouping() {
        let grid = GridShape::new(4, 4);
        let n = 32;
        let a = seeded_uniform(n, n, 1);
        let b = seeded_uniform(n, n, 2);
        let want = reference_product(&a, &b);
        let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            let (c, groups) = tuned_hsumma(comm, grid, n, &at, &bt, 4, &[1, 4, 16]).unwrap();
            // Every rank must have agreed on the same grouping; encode it
            // into the tile for a cheap cross-rank consistency check.
            assert!(grid.rows.is_multiple_of(groups.rows) && grid.cols.is_multiple_of(groups.cols));
            c
        });
        assert!(
            got.approx_eq(&want, 1e-9),
            "err {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn tuned_hsumma_all_ranks_agree_on_grouping() {
        let grid = GridShape::new(2, 2);
        let n = 16;
        let a = seeded_uniform(n, n, 3);
        let b = seeded_uniform(n, n, 4);
        let groups: Vec<(usize, usize)> = hsumma_runtime::Runtime::run(grid.size(), |comm| {
            let dist = hsumma_matrix::BlockDist::new(grid, n, n);
            let at = dist.scatter(&a)[comm.rank()].clone();
            let bt = dist.scatter(&b)[comm.rank()].clone();
            let (_, g) = tuned_hsumma(comm, grid, n, &at, &bt, 2, &[1, 2, 4]).unwrap();
            (g.rows, g.cols)
        });
        assert!(
            groups.windows(2).all(|w| w[0] == w[1]),
            "ranks disagreed: {groups:?}"
        );
    }

    #[test]
    fn power_of_two_gs_covers_range() {
        assert_eq!(power_of_two_gs(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(power_of_two_gs(1), vec![1]);
    }

    #[test]
    fn sweep_skips_invalid_group_counts() {
        let plat = Platform::grid5000();
        let grid = GridShape::new(4, 4);
        // G = 3 has no factorization on a 4x4 grid and must be skipped.
        let pts = sweep_groups(grid, &[1, 3, 4], |groups| {
            let bc = SimBcast::Binomial;
            let sched = Schedule::hsumma(grid, groups, 32, 8, 8, bc, bc);
            simulate(&sched, &plat, SimEngine::Threads, false)
        });
        let gs: Vec<usize> = pts.iter().map(|p| p.g).collect();
        assert_eq!(gs, vec![1, 4]);
    }

    #[test]
    fn best_grouping_never_loses_to_summa() {
        // The G=1 endpoint *is* SUMMA, so min over the sweep ≤ SUMMA.
        let plat = Platform::bluegene_p();
        let grid = GridShape::new(8, 8);
        let sweep = sweep_all_groups(&plat, grid, 128, 16, SimBcast::Binomial);
        let best = best_by_comm(&sweep);
        let summa_like = sweep.iter().find(|p| p.g == 1).expect("G=1 present");
        assert!(best.report.comm_time <= summa_like.report.comm_time + 1e-12);
    }

    #[test]
    fn replay_sweep_is_bit_identical_to_threaded_sweep() {
        let plat = Platform::bluegene_p();
        let grid = GridShape::new(8, 8);
        let gs = power_of_two_gs(grid.size());
        let sweep = |engine| {
            sweep_groups(grid, &gs, |groups| {
                let bc = SimBcast::Binomial;
                simulate(
                    &Schedule::hsumma(grid, groups, 64, 8, 8, bc, bc),
                    &plat,
                    engine,
                    false,
                )
            })
        };
        let threaded = sweep(SimEngine::Threads);
        let replayed = sweep(SimEngine::Replay);
        assert_eq!(threaded.len(), replayed.len());
        for (t, r) in threaded.iter().zip(&replayed) {
            assert_eq!((t.g, t.groups), (r.g, r.groups));
            assert_eq!(t.report, r.report, "G={}", t.g);
        }
    }

    #[test]
    fn latency_bound_platform_prefers_interior_grouping() {
        let plat = Platform {
            name: "latency-bound",
            net: hsumma_netsim::Hockney::new(0.5, 1e-12),
            gamma: 0.0,
        };
        let grid = GridShape::new(8, 8);
        let sweep = sweep_all_groups(&plat, grid, 64, 8, SimBcast::ScatterAllgather);
        let best = best_by_comm(&sweep);
        assert!(
            best.g > 1 && best.g < 64,
            "expected interior optimum, got G={}",
            best.g
        );
    }
}
