//! Two-dimensional data distributions over a processor grid.
//!
//! SUMMA and HSUMMA distribute the operand matrices over an `s × t`
//! grid of processors by *block-checkerboard* distribution: processor
//! `(i, j)` owns the contiguous `m/s × n/t` tile whose top-left corner is
//! `(i·m/s, j·n/t)` ([`BlockDist`]). The paper's future-work extension,
//! *block-cyclic* distribution, deals blocks of a fixed size round-robin
//! over the grid ([`BlockCyclicDist`]).
//!
//! Both are special cases of "each rank owns one rectangular sub-block of
//! the global": [`BlockRange`] is that primitive — a half-open rectangle
//! with extract/place against a global [`Matrix`] — and is what the
//! grid-free `Distribution` descriptors in the core crate are built from.
//!
//! Ranks are ordered row-major over the grid: `rank = i·t + j`.

use crate::dense::Matrix;

/// A half-open rectangular block `[row0, row1) × [col0, col1)` of some
/// global matrix: the unit of ownership in grid-free distributions.
///
/// Empty ranges (zero rows or columns) are legal and describe ranks that
/// own no part of the operand — e.g. idle ranks of a brick decomposition
/// whose processor count doesn't factor evenly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRange {
    /// First owned row.
    pub row0: usize,
    /// One past the last owned row.
    pub row1: usize,
    /// First owned column.
    pub col0: usize,
    /// One past the last owned column.
    pub col1: usize,
}

impl BlockRange {
    /// Creates a range; panics if either interval is inverted.
    pub fn new(row0: usize, row1: usize, col0: usize, col1: usize) -> Self {
        assert!(row0 <= row1, "inverted row range {row0}..{row1}");
        assert!(col0 <= col1, "inverted col range {col0}..{col1}");
        BlockRange {
            row0,
            row1,
            col0,
            col1,
        }
    }

    /// The empty range at the origin.
    pub fn empty() -> Self {
        BlockRange::new(0, 0, 0, 0)
    }

    /// Owned row count.
    pub fn rows(&self) -> usize {
        self.row1 - self.row0
    }

    /// Owned column count.
    pub fn cols(&self) -> usize {
        self.col1 - self.col0
    }

    /// Owned element count.
    pub fn elems(&self) -> usize {
        self.rows() * self.cols()
    }

    /// Whether the range owns nothing.
    pub fn is_empty(&self) -> bool {
        self.elems() == 0
    }

    /// The intersection with `other`, or `None` if they are disjoint.
    pub fn intersect(&self, other: &BlockRange) -> Option<BlockRange> {
        let r0 = self.row0.max(other.row0);
        let r1 = self.row1.min(other.row1);
        let c0 = self.col0.max(other.col0);
        let c1 = self.col1.min(other.col1);
        (r0 < r1 && c0 < c1).then(|| BlockRange::new(r0, r1, c0, c1))
    }

    /// Extracts this block from the global matrix as a fresh local tile.
    ///
    /// # Panics
    /// Panics if the range reaches outside `global`.
    pub fn extract(&self, global: &Matrix) -> Matrix {
        assert!(
            self.row1 <= global.rows() && self.col1 <= global.cols(),
            "range {self:?} outside global {:?}",
            global.shape()
        );
        global.block(self.row0, self.col0, self.rows(), self.cols())
    }

    /// Places a local tile of this range's shape back into the global.
    ///
    /// # Panics
    /// Panics on a shape mismatch or if the range reaches outside `global`.
    pub fn place(&self, global: &mut Matrix, tile: &Matrix) {
        assert_eq!(
            tile.shape(),
            (self.rows(), self.cols()),
            "tile shape does not match range {self:?}"
        );
        if !self.is_empty() {
            global.set_block(self.row0, self.col0, tile);
        }
    }
}

/// An `s × t` arrangement of `p = s·t` processors, row-major rank order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridShape {
    /// Grid rows (`s` in the paper).
    pub rows: usize,
    /// Grid columns (`t` in the paper).
    pub cols: usize,
}

impl GridShape {
    /// Creates a grid; panics if either extent is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid extents must be positive");
        GridShape { rows, cols }
    }

    /// A square `√p × √p` grid.
    ///
    /// # Panics
    /// Panics if `p` is not a perfect square.
    pub fn square(p: usize) -> Self {
        let side = (p as f64).sqrt().round() as usize;
        assert_eq!(side * side, p, "{p} is not a perfect square");
        GridShape::new(side, side)
    }

    /// Total processor count `p = s·t`.
    #[inline]
    pub fn size(&self) -> usize {
        self.rows * self.cols
    }

    /// Grid coordinates of `rank`.
    #[inline]
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.size());
        (rank / self.cols, rank % self.cols)
    }

    /// Rank at grid coordinates `(i, j)`.
    #[inline]
    pub fn rank(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols);
        i * self.cols + j
    }
}

/// Block-checkerboard distribution of an `m × n` matrix over a grid.
///
/// Requires the matrix extents to be divisible by the grid extents, the
/// same simplifying assumption the paper makes (`n` a multiple of `b`,
/// blocks evenly dividing the grid).
#[derive(Clone, Copy, Debug)]
pub struct BlockDist {
    grid: GridShape,
    mat_rows: usize,
    mat_cols: usize,
}

impl BlockDist {
    /// Creates the distribution.
    ///
    /// # Panics
    /// Panics if `mat_rows % grid.rows != 0` or `mat_cols % grid.cols != 0`.
    pub fn new(grid: GridShape, mat_rows: usize, mat_cols: usize) -> Self {
        assert_eq!(
            mat_rows % grid.rows,
            0,
            "matrix rows {mat_rows} not divisible by grid rows {}",
            grid.rows
        );
        assert_eq!(
            mat_cols % grid.cols,
            0,
            "matrix cols {mat_cols} not divisible by grid cols {}",
            grid.cols
        );
        BlockDist {
            grid,
            mat_rows,
            mat_cols,
        }
    }

    /// Local tile extents: `(m/s, n/t)`.
    pub fn tile_shape(&self) -> (usize, usize) {
        (
            self.mat_rows / self.grid.rows,
            self.mat_cols / self.grid.cols,
        )
    }

    /// Top-left global coordinate of `rank`'s tile.
    pub fn tile_origin(&self, rank: usize) -> (usize, usize) {
        let (i, j) = self.grid.coords(rank);
        let (th, tw) = self.tile_shape();
        (i * th, j * tw)
    }

    /// `rank`'s owned block as a [`BlockRange`].
    pub fn tile_range(&self, rank: usize) -> BlockRange {
        let (r0, c0) = self.tile_origin(rank);
        let (th, tw) = self.tile_shape();
        BlockRange::new(r0, r0 + th, c0, c0 + tw)
    }

    /// Extracts `rank`'s local tile from the global matrix.
    pub fn local_tile(&self, global: &Matrix, rank: usize) -> Matrix {
        assert_eq!(global.shape(), (self.mat_rows, self.mat_cols));
        self.tile_range(rank).extract(global)
    }

    /// Splits the global matrix into per-rank tiles, indexed by rank.
    pub fn scatter(&self, global: &Matrix) -> Vec<Matrix> {
        (0..self.grid.size())
            .map(|r| self.local_tile(global, r))
            .collect()
    }

    /// Reassembles the global matrix from per-rank tiles.
    ///
    /// # Panics
    /// Panics if the number or shapes of tiles don't match the distribution.
    pub fn gather(&self, tiles: &[Matrix]) -> Matrix {
        assert_eq!(tiles.len(), self.grid.size(), "wrong number of tiles");
        let (th, tw) = self.tile_shape();
        let mut global = Matrix::zeros(self.mat_rows, self.mat_cols);
        for (rank, tile) in tiles.iter().enumerate() {
            assert_eq!(tile.shape(), (th, tw), "tile {rank} has wrong shape");
            self.tile_range(rank).place(&mut global, tile);
        }
        global
    }
}

/// Block-cyclic distribution with square dealing blocks of edge `nb`.
///
/// Block `(bi, bj)` of the global matrix goes to grid position
/// `(bi mod s, bj mod t)`; the local tile stores its blocks contiguously in
/// block-row-major order, which is the ScaLAPACK convention.
#[derive(Clone, Copy, Debug)]
pub struct BlockCyclicDist {
    grid: GridShape,
    mat_rows: usize,
    mat_cols: usize,
    nb: usize,
}

impl BlockCyclicDist {
    /// Creates the distribution.
    ///
    /// # Panics
    /// Panics unless `nb` divides both matrix extents and the block grid is
    /// divisible by the processor grid (uniform local tiles keep the
    /// algorithms simple, matching the paper's assumptions).
    pub fn new(grid: GridShape, mat_rows: usize, mat_cols: usize, nb: usize) -> Self {
        assert!(nb > 0, "dealing block must be positive");
        assert_eq!(mat_rows % nb, 0, "rows not divisible by dealing block");
        assert_eq!(mat_cols % nb, 0, "cols not divisible by dealing block");
        let brows = mat_rows / nb;
        let bcols = mat_cols / nb;
        assert_eq!(
            brows % grid.rows,
            0,
            "block rows not divisible by grid rows"
        );
        assert_eq!(
            bcols % grid.cols,
            0,
            "block cols not divisible by grid cols"
        );
        BlockCyclicDist {
            grid,
            mat_rows,
            mat_cols,
            nb,
        }
    }

    /// Local tile extents (every rank holds the same amount).
    pub fn tile_shape(&self) -> (usize, usize) {
        (
            self.mat_rows / self.grid.rows,
            self.mat_cols / self.grid.cols,
        )
    }

    /// Owning rank of global dealing block `(bi, bj)`.
    pub fn block_owner(&self, bi: usize, bj: usize) -> usize {
        self.grid.rank(bi % self.grid.rows, bj % self.grid.cols)
    }

    /// Local block coordinates of global block `(bi, bj)` inside its owner.
    pub fn local_block(&self, bi: usize, bj: usize) -> (usize, usize) {
        (bi / self.grid.rows, bj / self.grid.cols)
    }

    /// Splits the global matrix into per-rank local tiles.
    pub fn scatter(&self, global: &Matrix) -> Vec<Matrix> {
        assert_eq!(global.shape(), (self.mat_rows, self.mat_cols));
        let (th, tw) = self.tile_shape();
        let mut tiles = vec![Matrix::zeros(th, tw); self.grid.size()];
        self.for_each_block(|bi, bj| {
            let owner = self.block_owner(bi, bj);
            let (li, lj) = self.local_block(bi, bj);
            let blk = global.block(bi * self.nb, bj * self.nb, self.nb, self.nb);
            tiles[owner].set_block(li * self.nb, lj * self.nb, &blk);
        });
        tiles
    }

    /// Reassembles the global matrix from per-rank local tiles.
    pub fn gather(&self, tiles: &[Matrix]) -> Matrix {
        assert_eq!(tiles.len(), self.grid.size(), "wrong number of tiles");
        let mut global = Matrix::zeros(self.mat_rows, self.mat_cols);
        self.for_each_block(|bi, bj| {
            let owner = self.block_owner(bi, bj);
            let (li, lj) = self.local_block(bi, bj);
            let blk = tiles[owner].block(li * self.nb, lj * self.nb, self.nb, self.nb);
            global.set_block(bi * self.nb, bj * self.nb, &blk);
        });
        global
    }

    fn for_each_block(&self, mut f: impl FnMut(usize, usize)) {
        for bi in 0..self.mat_rows / self.nb {
            for bj in 0..self.mat_cols / self.nb {
                f(bi, bj);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{deterministic, seeded_uniform};
    use proptest::prelude::*;

    #[test]
    fn grid_coords_roundtrip() {
        let g = GridShape::new(3, 4);
        for rank in 0..g.size() {
            let (i, j) = g.coords(rank);
            assert_eq!(g.rank(i, j), rank);
        }
    }

    #[test]
    fn square_grid_from_perfect_square() {
        assert_eq!(GridShape::square(16), GridShape::new(4, 4));
    }

    #[test]
    #[should_panic(expected = "not a perfect square")]
    fn square_grid_rejects_non_square() {
        let _ = GridShape::square(12);
    }

    #[test]
    fn block_scatter_gather_roundtrip() {
        let g = GridShape::new(2, 3);
        let dist = BlockDist::new(g, 4, 6);
        let m = deterministic(4, 6);
        let tiles = dist.scatter(&m);
        assert_eq!(tiles.len(), 6);
        assert_eq!(tiles[0].shape(), (2, 2));
        assert_eq!(dist.gather(&tiles), m);
    }

    #[test]
    fn tile_contents_match_origin() {
        let g = GridShape::new(2, 2);
        let dist = BlockDist::new(g, 4, 4);
        let m = deterministic(4, 4);
        // Rank 3 = grid (1,1) owns rows 2..4, cols 2..4.
        let tile = dist.local_tile(&m, 3);
        assert_eq!(tile.get(0, 0), m.get(2, 2));
        assert_eq!(tile.get(1, 1), m.get(3, 3));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn block_dist_requires_divisibility() {
        let _ = BlockDist::new(GridShape::new(3, 3), 8, 9);
    }

    #[test]
    fn cyclic_scatter_gather_roundtrip() {
        let g = GridShape::new(2, 2);
        let dist = BlockCyclicDist::new(g, 8, 8, 2);
        let m = seeded_uniform(8, 8, 11);
        let tiles = dist.scatter(&m);
        assert_eq!(dist.gather(&tiles), m);
    }

    #[test]
    fn cyclic_block_ownership_wraps() {
        let g = GridShape::new(2, 2);
        let dist = BlockCyclicDist::new(g, 8, 8, 2);
        // Blocks (0,0) and (2,2) both belong to rank 0; (1,1) to rank 3.
        assert_eq!(dist.block_owner(0, 0), 0);
        assert_eq!(dist.block_owner(2, 2), 0);
        assert_eq!(dist.block_owner(1, 1), 3);
        assert_eq!(dist.local_block(2, 2), (1, 1));
    }

    #[test]
    fn cyclic_differs_from_block_for_nontrivial_sizes() {
        let g = GridShape::new(2, 2);
        let m = deterministic(8, 8);
        let block = BlockDist::new(g, 8, 8).scatter(&m);
        let cyclic = BlockCyclicDist::new(g, 8, 8, 2).scatter(&m);
        assert_ne!(block[0], cyclic[0]);
    }

    proptest! {
        #[test]
        fn block_roundtrip_any_grid(
            s in 1usize..5, t in 1usize..5, th in 1usize..5, tw in 1usize..5, seed in 0u64..100
        ) {
            let g = GridShape::new(s, t);
            let dist = BlockDist::new(g, s * th, t * tw);
            let m = seeded_uniform(s * th, t * tw, seed);
            prop_assert_eq!(dist.gather(&dist.scatter(&m)), m);
        }

        #[test]
        fn cyclic_roundtrip_any_grid(
            s in 1usize..4, t in 1usize..4, bl in 1usize..4, reps in 1usize..4, seed in 0u64..100
        ) {
            let g = GridShape::new(s, t);
            let rows = s * reps * bl;
            let cols = t * reps * bl;
            let dist = BlockCyclicDist::new(g, rows, cols, bl);
            let m = seeded_uniform(rows, cols, seed);
            prop_assert_eq!(dist.gather(&dist.scatter(&m)), m);
        }
    }

    #[test]
    fn block_range_extract_place_roundtrip() {
        let m = seeded_uniform(7, 9, 3);
        let r = BlockRange::new(2, 5, 4, 9);
        assert_eq!((r.rows(), r.cols(), r.elems()), (3, 5, 15));
        let tile = r.extract(&m);
        assert_eq!(tile, m.block(2, 4, 3, 5));
        let mut out = Matrix::zeros(7, 9);
        r.place(&mut out, &tile);
        assert_eq!(out.block(2, 4, 3, 5), tile);
        assert_eq!(out.get(0, 0), 0.0);
    }

    #[test]
    fn block_range_intersection() {
        let a = BlockRange::new(0, 4, 0, 4);
        let b = BlockRange::new(2, 6, 3, 8);
        assert_eq!(a.intersect(&b), Some(BlockRange::new(2, 4, 3, 4)));
        let far = BlockRange::new(4, 6, 0, 4);
        assert_eq!(a.intersect(&far), None);
        assert!(BlockRange::empty().is_empty());
        assert_eq!(a.intersect(&BlockRange::empty()), None);
    }

    #[test]
    fn block_dist_tile_range_matches_origin_and_shape() {
        let dist = BlockDist::new(GridShape::new(2, 3), 10, 9);
        for rank in 0..6 {
            let r = dist.tile_range(rank);
            assert_eq!((r.row0, r.col0), dist.tile_origin(rank));
            assert_eq!((r.rows(), r.cols()), dist.tile_shape());
        }
    }
}
