//! Hierarchical SUMMA (HSUMMA) — the paper's contribution (§III).
//!
//! HSUMMA overlays an `I × J` grid of groups on SUMMA's `s × t` processor
//! grid and splits each pivot-panel broadcast in two:
//!
//! 1. **inter-group** (outer) phase: the owners of an outer panel of block
//!    size `B` broadcast it *horizontally across groups* (for `A`) or
//!    *vertically across groups* (for `B`) to the processors with the same
//!    inner coordinates — Algorithm 1's `group_row_comm`/`group_col_comm`;
//! 2. **intra-group** (inner) phase: inside each group the panel is
//!    re-broadcast in inner blocks of size `b ≤ B` along the group-local
//!    row/column communicators, followed by the local `DGEMM` update.
//!
//! With `G = 1` or `G = p` groups the schedule degenerates to SUMMA
//! (verified by tests), so HSUMMA can never lose to it — the paper's
//! "worst case" claim.

use crate::comm::Communicator;
use crate::partition::MatMulDims;
use crate::pivot::{self, Spec};
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_runtime::{BcastAlgorithm, CommError};

/// Parameters of an HSUMMA run.
#[derive(Clone, Copy, Debug)]
pub struct HsummaConfig {
    /// The `I × J` arrangement of groups (`G = I·J`).
    pub groups: GridShape,
    /// Outer (inter-group) block size `B`.
    pub outer_block: usize,
    /// Inner (intra-group) block size `b ≤ B`; must divide `B`.
    pub inner_block: usize,
    /// Broadcast algorithm between groups.
    pub outer_bcast: BcastAlgorithm,
    /// Broadcast algorithm inside groups.
    pub inner_bcast: BcastAlgorithm,
    /// Local multiply kernel.
    pub kernel: GemmKernel,
}

impl HsummaConfig {
    /// A config with both block sizes equal (`b = B`, the setting of all
    /// the paper's experiments) and binomial broadcasts.
    pub fn uniform(groups: GridShape, block: usize) -> Self {
        HsummaConfig {
            groups,
            outer_block: block,
            inner_block: block,
            outer_bcast: BcastAlgorithm::Binomial,
            inner_bcast: BcastAlgorithm::Binomial,
            kernel: GemmKernel::Packed,
        }
    }

    /// Checks this configuration against `grid` and a square `n × n`
    /// problem: `Err` carries the message [`hsumma`] would panic with.
    /// For callers that hold outside input and want to refuse it before
    /// any rank starts.
    pub fn validate(&self, grid: GridShape, n: usize) -> Result<(), String> {
        Spec::hsumma(grid, MatMulDims::square(n), self).validate()
    }
}

/// Runs HSUMMA on the calling rank. SPMD over `comm`; operands are
/// block-checkerboard distributed over `grid` exactly as in [`crate::summa::summa`]
/// (HSUMMA "does not change the distribution of the matrices", §VI).
/// Returns the local tile of `C`. The loop is the pivot engine's
/// blocking loop with a hierarchy.
///
/// # Panics
/// Panics on inconsistent configuration: the blocks must be positive,
/// `groups` must divide `grid`, `inner_block` must divide `outer_block`,
/// and each tile must be this rank's share of the grid. Neither block
/// needs to divide `n` or a tile: an outer panel ends at its tile's end,
/// and its last inner slice may be narrower.
pub fn hsumma<C: Communicator>(
    comm: &C,
    grid: GridShape,
    n: usize,
    a: &C::Mat,
    b: &C::Mat,
    cfg: &HsummaConfig,
) -> Result<C::Mat, CommError> {
    let spec = Spec::hsumma(grid, MatMulDims::square(n), cfg);
    pivot::blocking(comm, &spec, a, b, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::HierGrid;
    use crate::summa::{summa, SummaConfig};
    use crate::testutil::{distributed_product, reference_product};
    use hsumma_matrix::seeded_uniform;

    fn run_hsumma_case(grid: GridShape, n: usize, cfg: HsummaConfig) {
        let a = seeded_uniform(n, n, 300);
        let b = seeded_uniform(n, n, 400);
        let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            hsumma(comm, grid, n, &at, &bt, &cfg).unwrap()
        });
        let want = reference_product(&a, &b);
        assert!(
            got.approx_eq(&want, 1e-9),
            "grid {grid:?} n={n} cfg={cfg:?}: max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn hsumma_paperlike_grouping_matches_serial() {
        // 4x4 grid, 2x2 groups of 2x2 processors.
        let cfg = HsummaConfig::uniform(GridShape::new(2, 2), 2);
        run_hsumma_case(GridShape::new(4, 4), 16, cfg);
    }

    #[test]
    fn hsumma_single_group_degenerates_to_summa_result() {
        let cfg = HsummaConfig::uniform(GridShape::new(1, 1), 2);
        run_hsumma_case(GridShape::new(4, 4), 16, cfg);
    }

    #[test]
    fn hsumma_all_singleton_groups() {
        let cfg = HsummaConfig::uniform(GridShape::new(4, 4), 2);
        run_hsumma_case(GridShape::new(4, 4), 16, cfg);
    }

    #[test]
    fn hsumma_rectangular_grid_and_groups() {
        let cfg = HsummaConfig::uniform(GridShape::new(1, 2), 2);
        run_hsumma_case(GridShape::new(2, 4), 16, cfg);
        let cfg = HsummaConfig::uniform(GridShape::new(2, 1), 2);
        run_hsumma_case(GridShape::new(4, 2), 16, cfg);
    }

    #[test]
    fn hsumma_distinct_inner_and_outer_blocks() {
        // B = 4, b = 1: 4 inner steps per outer step.
        let cfg = HsummaConfig {
            outer_block: 4,
            inner_block: 1,
            ..HsummaConfig::uniform(GridShape::new(2, 2), 4)
        };
        run_hsumma_case(GridShape::new(4, 4), 16, cfg);
        // B = 4, b = 2.
        let cfg = HsummaConfig {
            outer_block: 4,
            inner_block: 2,
            ..HsummaConfig::uniform(GridShape::new(2, 2), 4)
        };
        run_hsumma_case(GridShape::new(4, 4), 16, cfg);
    }

    #[test]
    fn hsumma_mixed_broadcast_algorithms() {
        let cfg = HsummaConfig {
            outer_bcast: BcastAlgorithm::ScatterAllgather,
            inner_bcast: BcastAlgorithm::Pipelined { segments: 2 },
            ..HsummaConfig::uniform(GridShape::new(2, 2), 2)
        };
        run_hsumma_case(GridShape::new(4, 4), 16, cfg);
    }

    #[test]
    fn hsumma_every_valid_group_count_same_answer() {
        let grid = GridShape::new(4, 4);
        let n = 8;
        let a = seeded_uniform(n, n, 7);
        let b = seeded_uniform(n, n, 8);
        let want = reference_product(&a, &b);
        for (g, groups) in HierGrid::valid_group_counts(grid) {
            let cfg = HsummaConfig::uniform(groups, 2);
            let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
                hsumma(comm, grid, n, &at, &bt, &cfg).unwrap()
            });
            assert!(got.approx_eq(&want, 1e-9), "G={g} ({groups:?}) diverged");
        }
    }

    #[test]
    fn hsumma_g1_sends_same_message_count_as_summa() {
        // With G=1 and b=B the schedule must be exactly SUMMA's: the same
        // per-rank payload multiset and the same message count (splits
        // send nothing).
        use hsumma_runtime::Runtime;
        use hsumma_trace::Tracer;
        let grid = GridShape::new(2, 2);
        let n = 8;
        let a = seeded_uniform(n, n, 1);
        let b = seeded_uniform(n, n, 2);
        let dist = hsumma_matrix::BlockDist::new(grid, n, n);
        let at = dist.scatter(&a);
        let bt = dist.scatter(&b);

        // (total messages sent, per-rank payload multisets) of one run.
        let measure = |hier: bool| {
            let tracer = Tracer::new(grid.size());
            let sent = Runtime::run_traced(grid.size(), &tracer, |comm| {
                let (a_tile, b_tile) = (at[comm.rank()].clone(), bt[comm.rank()].clone());
                comm.reset_stats();
                if hier {
                    let cfg = HsummaConfig::uniform(GridShape::new(1, 1), 2);
                    hsumma(comm, grid, n, &a_tile, &b_tile, &cfg).unwrap();
                } else {
                    let cfg = SummaConfig {
                        block: 2,
                        ..Default::default()
                    };
                    summa(comm, grid, n, &a_tile, &b_tile, &cfg).unwrap();
                }
                comm.stats().msgs_sent
            });
            (
                sent.iter().sum::<u64>(),
                tracer.collect().per_rank_send_multisets(),
            )
        };
        let (summa_msgs, summa_sets) = measure(false);
        let (hsumma_msgs, hsumma_sets) = measure(true);
        assert_eq!(hsumma_sets, summa_sets, "payload multisets must agree");
        assert_eq!(hsumma_msgs, summa_msgs, "message counts must agree");
    }

    #[test]
    #[should_panic(expected = "inner block must divide outer block")]
    fn hsumma_rejects_non_dividing_inner_block() {
        let cfg = HsummaConfig {
            outer_block: 4,
            inner_block: 3,
            ..HsummaConfig::uniform(GridShape::new(2, 2), 4)
        };
        run_hsumma_case(GridShape::new(4, 4), 16, cfg);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn hsumma_rejects_groups_not_dividing_grid() {
        let cfg = HsummaConfig::uniform(GridShape::new(3, 3), 2);
        run_hsumma_case(GridShape::new(4, 4), 16, cfg);
    }
}
