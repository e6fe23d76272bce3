//! Grid-free data distributions: who owns which block of an `m × n` global.
//!
//! Every schedule in this crate used to phrase ownership through a
//! process grid — `GridShape` coordinates plus the divisibility
//! assumptions of [`crate::partition`]. A [`Distribution`] drops the
//! grid: it is nothing but one owned [`BlockRange`] per rank over an
//! `m × n` global, validated to tile the global **exactly** (no overlap,
//! full cover — the same invariant `tile_shape_rect` enforces through
//! divisibility, now checked structurally so arbitrary extents work).
//! Empty ranges are legal and describe ranks that own nothing, e.g. the
//! idle remainder of a brick decomposition over a prime-ish `p`.
//!
//! Three things are built on it here:
//!
//! * [`Distribution::grid2d`] — the block-checkerboard layout as a
//!   special case, extended to extents the grid does *not* divide by
//!   dealing each dimension with [`chunk_range`] (uneven tiles, still an
//!   exact cover);
//! * [`Distribution::scatter`]/[`Distribution::gather`] — the serving
//!   layer's host-side partition paths, generic over [`MatLike`];
//! * [`redistribute`] — an SPMD all-to-all that moves a matrix from one
//!   distribution to another over any [`Communicator`], one message per
//!   intersecting (owner, new-owner) pair in a deterministic order, so
//!   real and simulated runs move identical (src, dst, bytes) multisets.
//!
//! [`BrickDecomp`] describes the 3-D `(a, b, c)` decomposition of the
//! `m × n × k` iteration cube used by [`crate::cosma()`], and derives the
//! [`Distribution`]s of the `A`, `B` and `C` operands it implies.

use crate::comm::{Communicator, MatLike};
use crate::partition::{ceil_div, chunk_range};
use hsumma_matrix::{BlockRange, GridShape};
use hsumma_runtime::CommError;

/// Tag band for [`redistribute`] traffic: application-class (faults and
/// deadlines configured for `TagClass::App` reach it), far above the
/// small step indices the schedules use for their own point-to-point
/// messages.
pub const REDIST_TAG: u64 = 1 << 32;

/// One owned rectangular block per rank over an `m × n` global matrix.
///
/// The descriptor is pure data — it implies no process grid, no
/// divisibility, and no communicator; it only promises that the ranges
/// tile the global exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Distribution {
    rows: usize,
    cols: usize,
    ranges: Vec<BlockRange>,
}

impl Distribution {
    /// Builds a distribution from explicit per-rank ranges.
    ///
    /// # Panics
    /// Panics unless the non-empty ranges tile the `rows × cols` global
    /// exactly: every cell covered, no cell covered twice, nothing
    /// outside the global.
    pub fn new(rows: usize, cols: usize, ranges: Vec<BlockRange>) -> Self {
        let dist = Distribution { rows, cols, ranges };
        dist.assert_exact_cover();
        dist
    }

    /// The block-checkerboard layout of an `rows × cols` global over a
    /// process grid, without the divisibility requirement of
    /// `BlockDist`: each dimension is dealt with [`chunk_range`], so
    /// tiles differ by at most one row/column and still cover exactly.
    pub fn grid2d(grid: GridShape, rows: usize, cols: usize) -> Self {
        let ranges = (0..grid.size())
            .map(|rank| {
                let (i, j) = grid.coords(rank);
                let (r0, r1) = chunk_range(rows, grid.rows, i);
                let (c0, c1) = chunk_range(cols, grid.cols, j);
                BlockRange::new(r0, r1, c0, c1)
            })
            .collect();
        Distribution::new(rows, cols, ranges)
    }

    /// Global row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Global column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of ranks the descriptor covers (including empty owners).
    pub fn num_ranks(&self) -> usize {
        self.ranges.len()
    }

    /// The block `rank` owns.
    pub fn range(&self, rank: usize) -> BlockRange {
        self.ranges[rank]
    }

    /// All per-rank ranges, indexed by rank.
    pub fn ranges(&self) -> &[BlockRange] {
        &self.ranges
    }

    /// The rank owning global cell `(i, j)`.
    ///
    /// # Panics
    /// Panics if `(i, j)` is outside the global (an exact cover makes
    /// ownership total otherwise).
    pub fn owner_of(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows && j < self.cols, "cell outside the global");
        self.ranges
            .iter()
            .position(|r| r.row0 <= i && i < r.row1 && r.col0 <= j && j < r.col1)
            .expect("exact cover owns every cell")
    }

    /// An all-zero local tile of `rank`'s owned shape.
    pub fn local_zeros<M: MatLike>(&self, rank: usize) -> M {
        let r = self.range(rank);
        M::zeros(r.rows(), r.cols())
    }

    /// Cuts `rank`'s local tile out of the global matrix (a `0 × 0` tile
    /// for an empty owner): one rank's share of [`Self::scatter`], for a
    /// rank that cuts its own tile from a shared global.
    ///
    /// # Panics
    /// Panics if `global`'s shape differs from the descriptor's.
    pub fn local_tile<M: MatLike>(&self, global: &M, rank: usize) -> M {
        assert_eq!(
            (global.rows(), global.cols()),
            (self.rows, self.cols),
            "global shape does not match the distribution"
        );
        let r = self.range(rank);
        global.block(r.row0, r.col0, r.rows(), r.cols())
    }

    /// Splits the global matrix into per-rank local tiles (empty owners
    /// get `0 × 0` tiles).
    ///
    /// # Panics
    /// Panics if `global`'s shape differs from the descriptor's.
    pub fn scatter<M: MatLike>(&self, global: &M) -> Vec<M> {
        (0..self.num_ranks())
            .map(|rank| self.local_tile(global, rank))
            .collect()
    }

    /// Reassembles the global matrix from per-rank local tiles.
    ///
    /// # Panics
    /// Panics if the number or shapes of tiles don't match the
    /// descriptor.
    pub fn gather<M: MatLike>(&self, tiles: &[M]) -> M {
        assert_eq!(tiles.len(), self.ranges.len(), "wrong number of tiles");
        let mut global = M::zeros(self.rows, self.cols);
        for (rank, (tile, r)) in tiles.iter().zip(&self.ranges).enumerate() {
            assert_eq!(
                (tile.rows(), tile.cols()),
                (r.rows(), r.cols()),
                "tile {rank} does not match its owned range"
            );
            if !r.is_empty() {
                global.set_block(r.row0, r.col0, tile);
            }
        }
        global
    }

    /// Checks the exact-cover invariant by a row-band sweep: between any
    /// two consecutive row boundaries, the column intervals of the
    /// ranges spanning the band must partition `[0, cols)` exactly.
    fn assert_exact_cover(&self) {
        let total: usize = self.ranges.iter().map(|r| r.elems()).sum();
        assert_eq!(
            total,
            self.rows * self.cols,
            "owned areas must sum to the global area"
        );
        if self.rows == 0 || self.cols == 0 {
            return;
        }
        for r in &self.ranges {
            assert!(
                r.is_empty() || (r.row1 <= self.rows && r.col1 <= self.cols),
                "range {r:?} reaches outside the {}x{} global",
                self.rows,
                self.cols
            );
        }
        // Distinct row boundaries, ascending.
        let mut bounds: Vec<usize> = vec![0, self.rows];
        for r in self.ranges.iter().filter(|r| !r.is_empty()) {
            bounds.push(r.row0);
            bounds.push(r.row1);
        }
        bounds.sort_unstable();
        bounds.dedup();
        // Bucket each range into the bands it spans. Boundaries include
        // every range's row0/row1, so a range covers whole bands only.
        let band_of = |row: usize| bounds.binary_search(&row).expect("boundary");
        let mut bands: Vec<Vec<(usize, usize)>> = vec![Vec::new(); bounds.len() - 1];
        for r in self.ranges.iter().filter(|r| !r.is_empty()) {
            for band in bands[band_of(r.row0)..band_of(r.row1)].iter_mut() {
                band.push((r.col0, r.col1));
            }
        }
        for (band, intervals) in bands.iter_mut().enumerate() {
            intervals.sort_unstable();
            let mut at = 0;
            for &(c0, c1) in intervals.iter() {
                assert_eq!(
                    c0,
                    at,
                    "rows {}..{}: columns {at}..{c0} covered {} times",
                    bounds[band],
                    bounds[band + 1],
                    if c0 > at { "zero" } else { "multiple" }
                );
                at = c1;
            }
            assert_eq!(
                at,
                self.cols,
                "rows {}..{}: columns {at}..{} uncovered",
                bounds[band],
                bounds[band + 1],
                self.cols
            );
        }
    }
}

/// SPMD redistribution: moves a matrix owned per `src` into the layout
/// of `dst` over `comm`, returning this rank's new local tile.
///
/// Each rank sends the intersection of its owned block with every new
/// owner's block (one message per pair, ascending destination rank),
/// keeps the self-intersection locally, then receives from old owners
/// in ascending source rank. The schedule depends only on the two
/// descriptors, so both substrates move identical multisets.
///
/// # Panics
/// Panics unless the descriptors describe the same global over
/// `comm.size()` ranks and `mine` has this rank's `src` shape.
pub fn redistribute<C: Communicator>(
    comm: &C,
    src: &Distribution,
    dst: &Distribution,
    mine: &C::Mat,
) -> Result<C::Mat, CommError> {
    assert_eq!(
        (src.rows(), src.cols()),
        (dst.rows(), dst.cols()),
        "source and destination describe different globals"
    );
    assert_eq!(src.num_ranks(), comm.size(), "src ranks != comm size");
    assert_eq!(dst.num_ranks(), comm.size(), "dst ranks != comm size");
    let me = comm.rank();
    let my_src = src.range(me);
    let my_dst = dst.range(me);
    assert_eq!(
        (mine.rows(), mine.cols()),
        (my_src.rows(), my_src.cols()),
        "local tile does not match the source distribution"
    );

    for peer in 0..comm.size() {
        if peer == me {
            continue;
        }
        if let Some(part) = my_src.intersect(&dst.range(peer)) {
            let tile = mine.block(
                part.row0 - my_src.row0,
                part.col0 - my_src.col0,
                part.rows(),
                part.cols(),
            );
            comm.send_mat(peer, REDIST_TAG, tile)?;
        }
    }

    let mut out = C::Mat::zeros(my_dst.rows(), my_dst.cols());
    if let Some(keep) = my_src.intersect(&my_dst) {
        let tile = mine.block(
            keep.row0 - my_src.row0,
            keep.col0 - my_src.col0,
            keep.rows(),
            keep.cols(),
        );
        out.set_block(keep.row0 - my_dst.row0, keep.col0 - my_dst.col0, &tile);
    }
    for peer in 0..comm.size() {
        if peer == me {
            continue;
        }
        if let Some(part) = src.range(peer).intersect(&my_dst) {
            let tile = comm.recv_mat(peer, REDIST_TAG, part.rows(), part.cols())?;
            out.set_block(part.row0 - my_dst.row0, part.col0 - my_dst.col0, &tile);
        }
    }
    Ok(out)
}

/// The `(a, b, c)` brick decomposition of the `m × n × k` iteration
/// cube: `a` bricks along `m`, `b` along `n`, `c` along `k` (the
/// replication / reduction dimension). Rank `r < a·b·c` sits at
/// coordinates `(i, j, l) = ((r mod a·b) / b, r mod b, r / (a·b))` —
/// layer-major, like the 2.5D schedule — and computes the partial
/// product `A[i-th m-chunk, l-th k-chunk] · B[l-th k-chunk, j-th
/// n-chunk]`. Ranks `r ≥ a·b·c` idle. Chunks are dealt with
/// [`chunk_range`], so no extent needs to divide anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrickDecomp {
    /// Bricks along the `m` (rows of `A`/`C`) dimension.
    pub a: usize,
    /// Bricks along the `n` (columns of `B`/`C`) dimension.
    pub b: usize,
    /// Bricks along the contraction dimension `k` — the replication
    /// factor the partial-`C` reduction folds away.
    pub c: usize,
}

impl BrickDecomp {
    /// Creates a decomposition; panics if any factor is zero.
    pub fn new(a: usize, b: usize, c: usize) -> Self {
        assert!(a > 0 && b > 0 && c > 0, "brick factors must be positive");
        BrickDecomp { a, b, c }
    }

    /// Active rank count `a·b·c`.
    pub fn ranks(&self) -> usize {
        self.a * self.b * self.c
    }

    /// Coordinates `(i, j, l)` of an active rank.
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        debug_assert!(rank < self.ranks());
        let layer = self.a * self.b;
        (rank % layer / self.b, rank % self.b, rank / layer)
    }

    /// Rank at coordinates `(i, j, l)`.
    pub fn rank(&self, i: usize, j: usize, l: usize) -> usize {
        debug_assert!(i < self.a && j < self.b && l < self.c);
        l * self.a * self.b + i * self.b + j
    }

    /// The `i`-th chunk of the `m` dimension.
    pub fn m_range(&self, i: usize, m: usize) -> (usize, usize) {
        chunk_range(m, self.a, i)
    }

    /// The `j`-th chunk of the `n` dimension.
    pub fn n_range(&self, j: usize, n: usize) -> (usize, usize) {
        chunk_range(n, self.b, j)
    }

    /// The `l`-th chunk of the `k` dimension.
    pub fn k_range(&self, l: usize, k: usize) -> (usize, usize) {
        chunk_range(k, self.c, l)
    }

    /// Input distribution of the `m × k` operand `A` over `p` ranks:
    /// rank `(i, 0, l)` owns the `i`-th `m`-chunk × `l`-th `k`-chunk
    /// brick; everyone else owns nothing.
    pub fn a_distribution(&self, m: usize, k: usize, p: usize) -> Distribution {
        self.operand_distribution(p, m, k, |_, i, j, l| {
            (j == 0).then(|| (self.m_range(i, m), self.k_range(l, k)))
        })
    }

    /// Input distribution of the `k × n` operand `B` over `p` ranks:
    /// rank `(0, j, l)` owns the `l`-th `k`-chunk × `j`-th `n`-chunk
    /// brick.
    pub fn b_distribution(&self, k: usize, n: usize, p: usize) -> Distribution {
        self.operand_distribution(p, k, n, |_, i, j, l| {
            (i == 0).then(|| (self.k_range(l, k), self.n_range(j, n)))
        })
    }

    /// Output distribution of the `m × n` product `C` over `p` ranks:
    /// rank `(i, j, 0)` owns the `(i, j)` brick after the reduction
    /// over `l`.
    pub fn c_distribution(&self, m: usize, n: usize, p: usize) -> Distribution {
        self.operand_distribution(p, m, n, |_, i, j, l| {
            (l == 0).then(|| (self.m_range(i, m), self.n_range(j, n)))
        })
    }

    fn operand_distribution(
        &self,
        p: usize,
        rows: usize,
        cols: usize,
        own: impl Fn(&BrickDecomp, usize, usize, usize) -> Option<((usize, usize), (usize, usize))>,
    ) -> Distribution {
        assert!(
            p >= self.ranks(),
            "decomposition needs {} ranks",
            self.ranks()
        );
        let ranges = (0..p)
            .map(|r| {
                if r >= self.ranks() {
                    return BlockRange::empty();
                }
                let (i, j, l) = self.coords(r);
                match own(self, i, j, l) {
                    Some(((r0, r1), (c0, c1))) => BlockRange::new(r0, r1, c0, c1),
                    None => BlockRange::empty(),
                }
            })
            .collect();
        Distribution::new(rows, cols, ranges)
    }

    /// Per-rank received-element count of the schedule this
    /// decomposition implies: the surrogate the search minimizes.
    fn recv_volume(&self, m: usize, n: usize, k: usize) -> f64 {
        let ma = ceil_div(m, self.a) as f64;
        let nb = ceil_div(n, self.b) as f64;
        let kc = ceil_div(k, self.c) as f64;
        let mut v = 0.0;
        if self.b > 1 {
            v += ma * kc; // A brick replicated along j
        }
        if self.a > 1 {
            v += kc * nb; // B brick replicated along i
        }
        if self.c > 1 {
            v += 2.0 * ma * nb; // partial-C reduce-scatter + gather
        }
        v
    }

    /// Near-optimal decomposition of the `m × n × k` cube over at most
    /// `p` ranks: minimizes per-rank received elements plus a
    /// compute-imbalance proxy (`0.1` element-equivalents per extra
    /// multiply-add, roughly `γ / (8·β)` on the modeled platforms), so
    /// leaving ranks idle is penalized exactly as much as the longer
    /// local GEMM it causes. For platform-aware selection the model
    /// crate prices candidates with real `α/β/γ`; this search is the
    /// dependency-free default.
    pub fn search(p: usize, m: usize, n: usize, k: usize) -> BrickDecomp {
        const PAIR_WEIGHT: f64 = 0.1;
        assert!(p > 0 && m > 0 && n > 0 && k > 0, "extents must be positive");
        let mut best = BrickDecomp::new(1, 1, 1);
        let mut best_cost = f64::INFINITY;
        for a in 1..=p.min(m) {
            for b in 1..=(p / a).min(n) {
                let c_max = (p / (a * b)).min(k);
                // recv_volume is monotone between the endpoints: larger c
                // shrinks the replicated A/B bricks, c > 1 adds the fixed
                // partial-C reduction term — so only the endpoints matter.
                for c in [1, c_max] {
                    let cand = BrickDecomp::new(a, b, c);
                    let pairs =
                        ceil_div(m, a) as f64 * ceil_div(n, b) as f64 * ceil_div(k, c) as f64;
                    let cost = cand.recv_volume(m, n, k) + PAIR_WEIGHT * pairs;
                    if cost < best_cost {
                        best_cost = cost;
                        best = cand;
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsumma_matrix::Matrix;

    #[test]
    fn grid2d_matches_block_dist_when_divisible() {
        let grid = GridShape::new(2, 3);
        let dist = Distribution::grid2d(grid, 10, 9);
        assert_eq!(dist.range(0), BlockRange::new(0, 5, 0, 3));
        assert_eq!(dist.range(5), BlockRange::new(5, 10, 6, 9));
    }

    #[test]
    fn grid2d_covers_non_dividing_extents() {
        // 7 x 5 over 2 x 3: tiles differ by one row/column but cover.
        let dist = Distribution::grid2d(GridShape::new(2, 3), 7, 5);
        let total: usize = dist.ranges().iter().map(|r| r.elems()).sum();
        assert_eq!(total, 35);
        assert_eq!(dist.owner_of(0, 0), 0);
        assert_eq!(dist.owner_of(6, 4), 5);
    }

    #[test]
    #[should_panic(expected = "uncovered")]
    fn exact_cover_rejects_holes() {
        // Areas sum to the global, but the first row band has a hole
        // (balanced by an overlap in the second): the sweep must see it.
        let _ = Distribution::new(
            2,
            2,
            vec![
                BlockRange::new(0, 1, 0, 1),
                BlockRange::new(1, 2, 0, 2),
                BlockRange::new(1, 2, 0, 1),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "sum to the global area")]
    fn exact_cover_rejects_overlap() {
        let _ = Distribution::new(
            4,
            4,
            vec![BlockRange::new(0, 4, 0, 3), BlockRange::new(0, 4, 2, 4)],
        );
    }

    #[test]
    #[should_panic(expected = "covered")]
    fn exact_cover_rejects_equal_area_overlap() {
        // Areas sum correctly but a column is covered twice and another
        // never: the band sweep must catch it.
        let _ = Distribution::new(
            2,
            2,
            vec![BlockRange::new(0, 2, 0, 1), BlockRange::new(0, 2, 0, 1)],
        );
    }

    #[test]
    fn scatter_gather_roundtrip_uneven() {
        let dist = Distribution::grid2d(GridShape::new(3, 2), 7, 9);
        let m = hsumma_matrix::seeded_uniform(7, 9, 11);
        let tiles = dist.scatter(&m);
        assert_eq!(dist.gather::<Matrix>(&tiles), m);
    }

    #[test]
    fn brick_coords_roundtrip_and_operands_cover() {
        let d = BrickDecomp::new(3, 2, 4);
        for r in 0..d.ranks() {
            let (i, j, l) = d.coords(r);
            assert_eq!(d.rank(i, j, l), r);
        }
        // Operand distributions over more ranks than the decomposition
        // uses: idle ranks own nothing, cover still exact (validated in
        // the constructors).
        let p = d.ranks() + 3;
        let da = d.a_distribution(10, 13, p);
        let db = d.b_distribution(13, 7, p);
        let dc = d.c_distribution(10, 7, p);
        assert!(da.range(p - 1).is_empty());
        assert_eq!(db.rows(), 13);
        assert!(!dc.range(d.rank(2, 1, 0)).is_empty());
    }

    #[test]
    fn search_prefers_flat_grids_for_flat_problems() {
        // Tall-skinny m >> n = k: the best decomposition spends its
        // ranks along m.
        let d = BrickDecomp::search(16, 4096, 64, 64);
        assert!(d.a >= d.b && d.a >= d.c, "{d:?}");
        // Cube problem with a cube-friendly p uses all ranks.
        let d = BrickDecomp::search(64, 512, 512, 512);
        assert_eq!(d.ranks(), 64);
    }

    #[test]
    fn search_handles_prime_p_by_idling_ranks() {
        let d = BrickDecomp::search(13, 256, 256, 256);
        assert!(d.ranks() <= 13);
        assert!(d.ranks() >= 8, "should not waste most ranks: {d:?}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `grid2d` tiles any global exactly for any grid — the 2-D
            /// lift of `chunk_range`'s exact dealing. The constructor's
            /// own sweep would panic on a violation; this pins the cover
            /// and the scatter/gather roundtrip independently.
            #[test]
            fn grid2d_exactly_covers_arbitrary_shapes(
                rows in 1usize..40, cols in 1usize..40,
                s in 1usize..7, t in 1usize..7,
            ) {
                let dist = Distribution::grid2d(GridShape::new(s, t), rows, cols);
                let area: usize = dist.ranges().iter().map(|r| r.elems()).sum();
                prop_assert_eq!(area, rows * cols);
                // Every cell has exactly one owner.
                for r in (0..rows).step_by(3) {
                    for c in (0..cols).step_by(3) {
                        let owners = dist
                            .ranges()
                            .iter()
                            .filter(|b| b.row0 <= r && r < b.row1 && b.col0 <= c && c < b.col1)
                            .count();
                        prop_assert_eq!(owners, 1, "cell ({}, {})", r, c);
                    }
                }
                let m = hsumma_matrix::seeded_uniform(rows, cols, 7);
                prop_assert_eq!(dist.gather::<Matrix>(&dist.scatter(&m)), m);
            }

            /// Every brick operand distribution is an exact cover for
            /// arbitrary extents and rank counts ≥ the decomposition's —
            /// including awkward primes in every position.
            #[test]
            fn brick_distributions_exactly_cover(
                a in 1usize..5, b in 1usize..5, c in 1usize..5,
                m in 1usize..30, n in 1usize..30, k in 1usize..30,
                spare in 0usize..4,
            ) {
                let d = BrickDecomp::new(a, b, c);
                let p = d.ranks() + spare;
                for (dist, rows, cols) in [
                    (d.a_distribution(m, k, p), m, k),
                    (d.b_distribution(k, n, p), k, n),
                    (d.c_distribution(m, n, p), m, n),
                ] {
                    let area: usize = dist.ranges().iter().map(|r| r.elems()).sum();
                    prop_assert_eq!(area, rows * cols);
                    prop_assert_eq!(dist.ranges().len(), p);
                }
            }
        }
    }
}
