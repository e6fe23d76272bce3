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
use crate::partition::{pivot_owner, tile_shape};
use hsumma_matrix::GridShape;
use hsumma_netsim::spmd::SimWorld;
use hsumma_netsim::{Platform, SimBcast, SimNet, SimReport};
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
    let me = comm.rank();
    let is_leader = me % sub == offset;
    // Collective split: leaders share color 0 (ordered by subgroup index),
    // everyone else lands in a singleton group.
    let leader_comm = if is_leader {
        comm.split(0, (me / sub) as i64)?
    } else {
        comm.split(1 + me as u64, 0)?
    };
    if is_leader {
        leader_comm.bcast_mat(algo, root / sub, mat)?;
    }
    let sub_comm = comm.split((me / sub) as u64, (me % sub) as i64)?;
    hier_bcast(&sub_comm, algo, offset, mat, &levels[1..])
}

/// SUMMA on a square grid where every panel broadcast is an `levels`-level
/// hierarchical broadcast — i.e. multi-level HSUMMA at `b = B`.
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
) -> SimReport {
    sim_summa_hier_with(platform, grid, n, b, algo, levels, false)
}

/// [`sim_summa_hier`] with selectable per-step synchronization
/// (blocking-collective semantics; see [`crate::simdrive::simulate`]).
pub fn sim_summa_hier_with(
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

    let levels: Vec<usize> = levels.to_vec();
    let (net, _) = SimWorld::run(
        SimNet::new(grid.size(), platform.net),
        platform.gamma,
        step_sync,
        move |comm| {
            let (gi, gj) = grid.coords(comm.rank());
            let row_comm = comm.split(gi as u64, gj as i64).unwrap();
            let col_comm = comm.split((grid.rows + gj) as u64, gi as i64).unwrap();
            let pairs = th * tw * b;
            let mut a_panel = PhantomMat { rows: th, cols: b };
            let mut b_panel = PhantomMat { rows: b, cols: tw };
            for k in 0..n / b {
                let owner_col = pivot_owner(k, b, tw);
                hier_bcast(&row_comm, algo, owner_col, &mut a_panel, &levels).unwrap();
                let owner_row = pivot_owner(k, b, th);
                hier_bcast(&col_comm, algo, owner_row, &mut b_panel, &levels).unwrap();
                comm.compute(pairs as f64, 2 * pairs as u64);
                comm.maybe_step_sync().unwrap();
            }
        },
    );
    net.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simdrive::{simulate, Schedule, SimEngine};

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
        let flat = simulate(&sched, &plat, SimEngine::Threads, false);
        let hier = sim_summa_hier(&plat, grid, 128, 16, SimBcast::Binomial, &[8]);
        assert!(close(flat.total_time, hier.total_time));
        assert_eq!(flat.msgs, hier.msgs);
    }

    #[test]
    fn two_levels_equal_hsumma_with_square_groups() {
        // levels [2, 4] on a side of 8 = 2x2 groups of 4x4 processors.
        let plat = Platform::bluegene_p();
        let grid = GridShape::new(8, 8);
        let two = sim_summa_hier(&plat, grid, 128, 16, SimBcast::Binomial, &[2, 4]);
        let (groups, bc) = (GridShape::new(2, 2), SimBcast::Binomial);
        let sched = Schedule::hsumma(grid, groups, 128, 16, 16, bc, bc);
        let hs = simulate(&sched, &plat, SimEngine::Threads, false);
        assert!(
            close(two.total_time, hs.total_time),
            "hier {two:?} vs hsumma {hs:?}"
        );
        assert!(close(two.comm_time, hs.comm_time));
        assert_eq!(two.msgs, hs.msgs);
        assert_eq!(two.bytes, hs.bytes);
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
        let one = sim_summa_hier(&plat, grid, 256, 16, SimBcast::ScatterAllgather, &[16]);
        let two = sim_summa_hier(&plat, grid, 256, 16, SimBcast::ScatterAllgather, &[4, 4]);
        let three = sim_summa_hier(&plat, grid, 256, 16, SimBcast::ScatterAllgather, &[2, 2, 4]);
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
