//! More than two hierarchy levels — the paper's future work (§VI).
//!
//! "We also plan to investigate the algorithm with more than two levels
//! of hierarchy as we believe that in this case it is possible to get
//! even better performance."
//!
//! With equal block sizes at every level (`b = B`, the paper's
//! experimental setting), an `L`-level HSUMMA schedule is SUMMA whose
//! row/column panel broadcast is replaced by an `L`-level *hierarchical
//! broadcast*: broadcast among the leaders of the top-level subgroups,
//! then recurse inside each subgroup. [`hier_bcast`] implements that
//! schedule generically over any [`Communicator`] — real ranks moving
//! real panels or simulated clocks moving phantom ones — and
//! [`sim_summa_hier`] runs the resulting multi-level algorithm on the
//! simulator. Two levels reproduce simulated HSUMMA exactly (verified by
//! tests), so this is a strict generalization.

use crate::comm::{Communicator, PhantomMat};
use crate::grid::grid_lines;
use crate::partition::{pivot_owner, tile_shape};
use crate::simdrive::replay_on;
use hsumma_matrix::GridShape;
use hsumma_netsim::{record, Platform, SimBcast, SimNet, SimReport};
use hsumma_runtime::{BcastAlgorithm, CommError};

/// Hierarchically broadcasts `mat` from rank `root` of `comm`:
/// `levels[0]` subgroups at the top, recursing with `levels[1..]`. The
/// product of `levels` must equal the communicator size; a single level
/// is a plain `algo` broadcast.
///
/// Collective: every rank of `comm` must call this with the same `root`
/// and `levels` (the subgroup splits are themselves collective).
///
/// # Panics
/// Panics if `levels` is empty or its product differs from the
/// communicator size.
pub fn hier_bcast<C: Communicator>(
    comm: &C,
    algo: BcastAlgorithm,
    root: usize,
    mat: &mut C::Mat,
    levels: &[usize],
) -> Result<(), CommError> {
    assert!(!levels.is_empty(), "need at least one level");
    assert_eq!(
        levels.iter().product::<usize>(),
        comm.size(),
        "levels {levels:?} must multiply to the group size {}",
        comm.size()
    );
    if levels.len() == 1 {
        return comm.bcast_mat(algo, root, mat);
    }
    let top = levels[0];
    let sub = comm.size() / top;
    // The leaders sit at the root's offset within each subgroup, so the
    // original root is itself a leader.
    let offset = root % sub;
    // Leaders share color 0 (ordered by subgroup index), everyone else
    // lands in a singleton group.
    let is_leader = |r: usize| r % sub == offset;
    let leader_comm = comm.split(|r| {
        if is_leader(r) {
            (0, (r / sub) as i64)
        } else {
            (1 + r as u64, 0)
        }
    });
    if is_leader(comm.rank()) {
        leader_comm.bcast_mat(algo, root / sub, mat)?;
    }
    let sub_comm = comm.split(|r| ((r / sub) as u64, (r % sub) as i64));
    hier_bcast(&sub_comm, algo, offset, mat, &levels[1..])
}

/// SUMMA on a square grid where every panel broadcast is an `levels`-level
/// hierarchical broadcast — i.e. multi-level HSUMMA at `b = B` — recorded
/// and replayed. `step_sync` selects blocking-collective semantics (see
/// [`crate::simdrive::simulate`]).
///
/// `levels` applies to both row and column broadcasts, so the grid side
/// must equal the product of `levels`.
pub fn sim_summa_hier(
    platform: &Platform,
    grid: GridShape,
    n: usize,
    b: usize,
    algo: SimBcast,
    levels: &[usize],
    step_sync: bool,
) -> SimReport {
    assert_eq!(
        grid.rows, grid.cols,
        "multi-level driver assumes a square grid"
    );
    assert_eq!(
        levels.iter().product::<usize>(),
        grid.cols,
        "levels must multiply to the grid side"
    );
    let (th, tw) = tile_shape(grid, n);
    assert!(
        b > 0 && tw % b == 0 && th % b == 0,
        "block must divide tile extents"
    );

    let prog = record(grid.size(), step_sync, |comm| {
        summa_hier(comm, grid, n, b, algo, levels)
    });
    replay_on(
        &mut SimNet::new(grid.size(), platform.net),
        platform.gamma,
        &prog,
    )
}

/// One rank of [`sim_summa_hier`]'s schedule over phantom tiles: per
/// pivot step, the `A` panel along the grid row and the `B` panel along
/// the grid column, each by [`hier_bcast`], then the local update.
fn summa_hier<C: Communicator<Mat = PhantomMat>>(
    comm: &C,
    grid: GridShape,
    n: usize,
    b: usize,
    algo: SimBcast,
    levels: &[usize],
) -> Result<(), CommError> {
    let (th, tw) = tile_shape(grid, n);
    let (row_comm, col_comm) = grid_lines(comm, grid);
    let pairs = th * tw * b;
    let mut a_panel = PhantomMat { rows: th, cols: b };
    let mut b_panel = PhantomMat { rows: b, cols: tw };
    for k in 0..n / b {
        hier_bcast(&row_comm, algo, pivot_owner(k, b, tw), &mut a_panel, levels)?;
        hier_bcast(&col_comm, algo, pivot_owner(k, b, th), &mut b_panel, levels)?;
        comm.compute(pairs as f64, 2 * pairs as u64, || ());
        comm.maybe_step_sync()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simdrive::{simulate, Schedule};
    use hsumma_netsim::spmd::SimWorld;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    /// Runs a bare hierarchical broadcast of `elems` f64s over `p`
    /// simulated ranks and returns the network for inspection.
    fn run_hier_bcast(p: usize, root: usize, elems: usize, levels: &[usize]) -> SimNet {
        let plat = Platform::grid5000();
        let levels: Vec<usize> = levels.to_vec();
        let (net, _) = SimWorld::run(SimNet::new(p, plat.net), plat.gamma, false, move |comm| {
            let mut m = PhantomMat {
                rows: 1,
                cols: elems,
            };
            hier_bcast(comm, SimBcast::Binomial, root, &mut m, &levels).unwrap();
        });
        net
    }

    #[test]
    fn one_level_equals_plain_summa() {
        let plat = Platform::grid5000();
        let grid = GridShape::new(8, 8);
        let sched = Schedule::summa(grid, 128, 16, SimBcast::Binomial);
        let flat = simulate(&sched, &plat, false);
        let hier = sim_summa_hier(&plat, grid, 128, 16, SimBcast::Binomial, &[8], false);
        assert!(close(flat.total_time, hier.total_time));
        assert_eq!(flat.msgs, hier.msgs);
    }

    #[test]
    fn two_levels_equal_hsumma_with_square_groups() {
        // levels [2, 4] on a side of 8 = 2x2 groups of 4x4 processors.
        let plat = Platform::bluegene_p();
        let grid = GridShape::new(8, 8);
        let two = sim_summa_hier(&plat, grid, 128, 16, SimBcast::Binomial, &[2, 4], false);
        let (groups, bc) = (GridShape::new(2, 2), SimBcast::Binomial);
        let sched = Schedule::hsumma(grid, groups, 128, 16, 16, bc, bc);
        let hs = simulate(&sched, &plat, false);
        assert!(
            close(two.total_time, hs.total_time),
            "hier {two:?} vs hsumma {hs:?}"
        );
        assert!(close(two.comm_time, hs.comm_time));
        assert_eq!(two.msgs, hs.msgs);
        assert_eq!(two.bytes, hs.bytes);
    }

    #[test]
    fn recorded_hierarchy_matches_the_threaded_reference() {
        // The recorded schedule must price exactly as the same body on
        // rank threads, at every depth and under both sync modes. Flat
        // broadcasts leave the free run unaligned, so a recording that
        // dropped the sync would show.
        let plat = Platform::bluegene_p();
        let grid = GridShape::new(8, 8);
        let (n, b, algo) = (128, 16, SimBcast::Flat);
        for levels in [&[8][..], &[2, 4], &[2, 2, 2]] {
            for step_sync in [false, true] {
                let replayed = sim_summa_hier(&plat, grid, n, b, algo, levels, step_sync);
                let net = SimNet::new(grid.size(), plat.net);
                let (net, _) = SimWorld::run(net, plat.gamma, step_sync, |comm| {
                    summa_hier(comm, grid, n, b, algo, levels).unwrap()
                });
                assert_eq!(
                    replayed,
                    net.report(),
                    "levels {levels:?}, step_sync {step_sync}"
                );
            }
        }
    }

    #[test]
    fn hier_bcast_preserves_total_bytes_per_receiver() {
        // Every rank receives the payload exactly once per tree level it
        // participates in; total bytes = (group−1) · payload for trees.
        // 125 f64 elements = 1000 bytes on the wire.
        let net = run_hier_bcast(8, 0, 125, &[2, 2, 2]);
        assert_eq!(net.report().bytes, 7 * 1000);
    }

    #[test]
    fn three_levels_help_on_latency_bound_vdg() {
        // With van de Geijn's linear-in-p latency, deeper hierarchies cut
        // latency further (Σ q_ℓ ≪ q); on a latency-bound platform three
        // levels must beat one.
        let plat = Platform {
            name: "latency-bound",
            net: hsumma_netsim::Hockney::new(0.1, 1e-12),
            gamma: 0.0,
        };
        let grid = GridShape::new(16, 16);
        let one = sim_summa_hier(
            &plat,
            grid,
            256,
            16,
            SimBcast::ScatterAllgather,
            &[16],
            false,
        );
        let two = sim_summa_hier(
            &plat,
            grid,
            256,
            16,
            SimBcast::ScatterAllgather,
            &[4, 4],
            false,
        );
        let three = sim_summa_hier(
            &plat,
            grid,
            256,
            16,
            SimBcast::ScatterAllgather,
            &[2, 2, 4],
            false,
        );
        assert!(two.comm_time < one.comm_time, "two levels should help");
        assert!(three.comm_time < one.comm_time, "three levels should help");
    }

    #[test]
    fn root_offset_respected_in_hierarchy() {
        // Root at rank 5 of an 8-rank world, 2 levels: leader set must
        // include the root, and all ranks must advance past zero.
        let net = run_hier_bcast(8, 5, 8, &[2, 4]);
        for r in 0..8 {
            if r != 5 {
                assert!(net.now(r) > 0.0, "rank {r} never received");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must multiply to the group size")]
    fn mismatched_levels_rejected() {
        run_hier_bcast(8, 0, 8, &[3, 2]);
    }
}
