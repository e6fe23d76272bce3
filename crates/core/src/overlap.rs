//! Communication/computation overlap — the paper's §VI remark made
//! concrete.
//!
//! §VI: "until now we got all these improvements without overlapping the
//! communications on the virtual hierarchies", i.e. further gains are
//! available by hiding panel transfers behind the local multiply. The
//! pivot engine's pipelined loop realizes that remark as a
//! *double-buffered pivot pipeline* built on the nonblocking collective
//! handles of [`crate::comm::Communicator::ibcast_shared`]:
//!
//! * [`summa_overlap`] keeps a two-slot panel buffer per operand. While
//!   the kernel consumes the panels in slot `k mod 2`, the broadcasts
//!   for step `k+1` stream into the other slot; the wait for a panel is
//!   deferred until the moment the kernel needs it, so a transfer that
//!   finished during the previous multiply costs nothing.
//! * [`hsumma_overlap`] runs the same two-slot protocol on *both* levels
//!   of the hierarchy — inter-group outer panels and intra-group inner
//!   slices — and lets the inner pipeline cross outer-step boundaries:
//!   the last slice of outer step `kg` overlaps with landing outer step
//!   `kg+1` and starting its first slice, so neither broadcast level
//!   ever stalls the multiply loop.
//!
//! The broadcasts are flat pushes (relays would have to block inside the
//! "nonblocking" start, putting the transfer right back on the critical
//! path), so the wire traffic — every (src, dst, bytes) — is that of the
//! blocking schedule under `BcastAlgorithm::Flat`; only *when* each rank
//! blocks changes. The benchmark's `core.pipelined_over_blocking` row
//! times the two against each other, `figures overlap` prices them on
//! the simulator, and `trace_run --algo overlap` shows the
//! broadcast edges leaving the critical path once the compute term
//! dominates.

use crate::comm::Communicator;
use crate::hsumma::HsummaConfig;
use crate::partition::MatMulDims;
use crate::pivot::{self, Spec};
use hsumma_matrix::GridShape;
use hsumma_runtime::CommError;

pub use crate::summa::SummaConfig;

/// SUMMA with a double-buffered pivot pipeline. Same distribution,
/// operands and result (bit for bit) as [`crate::summa::summa`]; the
/// `cfg.bcast` field is ignored (the flat nonblocking push schedule
/// replaces it).
///
/// Generic over the [`Communicator`] substrate: pushed panels travel as
/// shared handles (an `Arc` refcount bump per destination on the real
/// runtime, a byte charge on the simulator), and completion is deferred
/// to the moment the kernel needs the panel, so transfers that landed
/// during the previous step's multiply are free. With one group every
/// outer handle is complete at its start, so no poll depends on timing:
/// the schedule records.
///
/// # Panics
/// Panics on the same inconsistencies as `summa`.
pub fn summa_overlap<C: Communicator>(
    comm: &C,
    grid: GridShape,
    n: usize,
    a: &C::Mat,
    b: &C::Mat,
    cfg: &SummaConfig,
) -> Result<C::Mat, CommError> {
    let spec = Spec::summa(grid, MatMulDims::square(n), cfg);
    pivot::pipelined(comm, &spec, a, b)
}

/// HSUMMA with the double-buffered pivot pipeline *on the virtual
/// hierarchies* (§VI verbatim): two-slot buffers at both broadcast
/// levels, with an adaptive `ibcast_test` hand-off at outer-step
/// boundaries — which makes the op sequence depend on timing, so this
/// schedule runs on rank threads (real or simulated) but does not record.
///
/// Same operands, distribution and result (bit for bit) as
/// [`crate::hsumma::hsumma`]; the `outer_bcast`/`inner_bcast` fields are
/// ignored (flat nonblocking pushes replace them).
///
/// # Panics
/// Panics on the same configuration inconsistencies as `hsumma`.
pub fn hsumma_overlap<C: Communicator>(
    comm: &C,
    grid: GridShape,
    n: usize,
    a: &C::Mat,
    b: &C::Mat,
    cfg: &HsummaConfig,
) -> Result<C::Mat, CommError> {
    let spec = Spec::hsumma(grid, MatMulDims::square(n), cfg);
    pivot::pipelined(comm, &spec, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::HierGrid;
    use crate::hsumma::hsumma;
    use crate::simdrive::{simulate, Schedule};
    use crate::summa::summa;
    use crate::testutil::{distributed_product, reference_product};
    use hsumma_matrix::{seeded_uniform, GemmKernel};
    use hsumma_netsim::{Platform, SimBcast};
    use proptest::prelude::*;

    fn cfg(block: usize) -> SummaConfig {
        SummaConfig {
            block,
            kernel: GemmKernel::Blocked,
            ..Default::default()
        }
    }

    #[test]
    fn overlap_summa_matches_serial() {
        for (s, t, n, block) in [(2, 2, 16, 4), (2, 4, 16, 2), (1, 1, 8, 4), (3, 3, 9, 1)] {
            let grid = GridShape::new(s, t);
            let a = seeded_uniform(n, n, 60);
            let b = seeded_uniform(n, n, 61);
            let want = reference_product(&a, &b);
            let c = cfg(block);
            let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
                summa_overlap(comm, grid, n, &at, &bt, &c).unwrap()
            });
            assert!(
                got.approx_eq(&want, 1e-9),
                "{s}x{t} n={n} block={block}: err {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn overlap_equals_plain_summa_exactly() {
        // Same local operation order => bit-identical result.
        let grid = GridShape::new(2, 2);
        let n = 16;
        let a = seeded_uniform(n, n, 71);
        let b = seeded_uniform(n, n, 72);
        let c = cfg(4);
        let plain = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            summa(comm, grid, n, &at, &bt, &c).unwrap()
        });
        let overlapped = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            summa_overlap(comm, grid, n, &at, &bt, &c).unwrap()
        });
        assert_eq!(plain, overlapped);
    }

    #[test]
    fn hsumma_overlap_matches_serial_across_groupings() {
        let grid = GridShape::new(4, 4);
        let n = 16;
        let a = seeded_uniform(n, n, 81);
        let b = seeded_uniform(n, n, 82);
        let want = reference_product(&a, &b);
        for (g, groups) in HierGrid::valid_group_counts(grid) {
            let hcfg = HsummaConfig {
                kernel: GemmKernel::Blocked,
                ..HsummaConfig::uniform(groups, 2)
            };
            let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
                hsumma_overlap(comm, grid, n, &at, &bt, &hcfg).unwrap()
            });
            assert!(got.approx_eq(&want, 1e-9), "G={g} diverged");
        }
    }

    #[test]
    fn hsumma_overlap_equals_hsumma_exactly() {
        let grid = GridShape::new(4, 4);
        let n = 32;
        let a = seeded_uniform(n, n, 83);
        let b = seeded_uniform(n, n, 84);
        let hcfg = HsummaConfig {
            outer_block: 8,
            inner_block: 2,
            kernel: GemmKernel::Blocked,
            ..HsummaConfig::uniform(GridShape::new(2, 2), 8)
        };
        let plain = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            hsumma(comm, grid, n, &at, &bt, &hcfg).unwrap()
        });
        let overlapped = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            hsumma_overlap(comm, grid, n, &at, &bt, &hcfg).unwrap()
        });
        assert_eq!(plain, overlapped, "same local op order => bitwise equal");
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    fn divisors(v: usize) -> Vec<usize> {
        (1..=v).filter(|d| v.is_multiple_of(*d)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn pipelined_paths_match_reference_on_awkward_shapes(
            rows in 1usize..4,
            cols in 1usize..4,
            tile in 1usize..4,
            pick in 0usize..1024,
            pad in 0usize..3,
        ) {
            // Non-square grids, non-square tiles, every valid grouping
            // reachable by `pick` — including shapes where a group owns
            // the pivot panel several steps in a row (bb < tile extent).
            // A nonzero `pad` deals uneven tiles that bb need not divide,
            // so outer steps differ in width and last slices run short.
            let grid = GridShape::new(rows, cols);
            let n = rows * cols * tile * 2 + pad;
            let (th, tw) = (n / rows, n / cols);
            let bbs = divisors(gcd(th, tw));
            let bb = bbs[pick % bbs.len()];
            let bss = divisors(bb);
            let bs = bss[(pick / bbs.len()) % bss.len()];
            let groupings = HierGrid::valid_group_counts(grid);
            let (_, groups) = groupings[(pick / 7) % groupings.len()];

            let a = seeded_uniform(n, n, 90 + pick as u64);
            let b = seeded_uniform(n, n, 91 + pick as u64);
            let want = reference_product(&a, &b);

            let scfg = cfg(bs);
            let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
                summa_overlap(comm, grid, n, &at, &bt, &scfg).unwrap()
            });
            prop_assert!(
                got.approx_eq(&want, 1e-9),
                "summa {rows}x{cols} n={n} bs={bs}: err {}",
                got.max_abs_diff(&want)
            );

            let hcfg = HsummaConfig {
                outer_block: bb,
                inner_block: bs,
                kernel: GemmKernel::Blocked,
                ..HsummaConfig::uniform(groups, bb)
            };
            let blocking = distributed_product(grid, n, &a, &b, |comm, at, bt| {
                hsumma(comm, grid, n, &at, &bt, &hcfg).unwrap()
            });
            let pipelined = distributed_product(grid, n, &a, &b, |comm, at, bt| {
                hsumma_overlap(comm, grid, n, &at, &bt, &hcfg).unwrap()
            });
            prop_assert!(
                pipelined.approx_eq(&want, 1e-9),
                "hsumma {rows}x{cols} n={n} G={groups:?} bb={bb} bs={bs}: err {}",
                pipelined.max_abs_diff(&want)
            );
            // Stronger than approx: the pipeline preserves the exact
            // accumulation order of the blocking reference.
            prop_assert_eq!(blocking, pipelined);
        }
    }

    #[test]
    fn simulated_overlap_beats_blocking() {
        // With flat pushes, the root's serialization overlaps with other
        // ranks' compute once the per-step barrier is dropped.
        let platform = Platform::bluegene_p_effective();
        let grid = GridShape::new(8, 8);
        let sched = Schedule::summa(grid, 512, 32, SimBcast::Flat);
        let free = simulate(&sched, &platform, false).total_time;
        let sync = simulate(&sched, &platform, true).total_time;
        assert!(free < sync, "overlapped {free} should beat blocking {sync}");
    }
}
