//! Processor grids and the two-level group hierarchy.
//!
//! SUMMA arranges `p = s × t` processors in a 2-D grid. HSUMMA (§III)
//! overlays an `I × J` arrangement of *groups* on that grid, so each group
//! is internally an `s/I × t/J` grid. [`HierGrid`] owns all the coordinate
//! algebra: global grid coordinates ↔ (group, inner) coordinates, and the
//! rank lists and splits of the four communicators of Algorithm 1.

use crate::comm::Communicator;
use hsumma_matrix::GridShape;

/// Encodes up to three 20-bit coordinates into one `split` color — the
/// shared color scheme of every hierarchical communicator construction in
/// this crate (HSUMMA's four communicators, LU's and the rectangular
/// forms' group splits).
pub(crate) fn color3(a: usize, b: usize, c: usize) -> u64 {
    debug_assert!(a < (1 << 20) && b < (1 << 20) && c < (1 << 20));
    ((a as u64) << 40) | ((b as u64) << 20) | c as u64
}

/// The row and column communicators of `comm`, which spans `grid` in
/// row-major rank order: grid row `gi` ordered by column, grid column `gj`
/// ordered by row.
pub fn grid_lines<C: Communicator>(comm: &C, grid: GridShape) -> (C, C) {
    let row = comm.split(|r| {
        let (gi, gj) = grid.coords(r);
        (gi as u64, gj as i64)
    });
    let col = comm.split(|r| {
        let (gi, gj) = grid.coords(r);
        ((grid.rows + gj) as u64, gi as i64)
    });
    (row, col)
}

/// A two-level hierarchical view of an `s × t` processor grid as an
/// `I × J` grid of groups, each an `s/I × t/J` inner grid.
///
/// The paper's processor `P(x,y)(i,j)` is the processor at inner
/// coordinates `(i, j)` of group `(x, y)`.
///
/// ```
/// use hsumma_core::HierGrid;
/// use hsumma_matrix::GridShape;
///
/// // The paper's Fig. 2: a 6x6 grid as 3x3 groups of 2x2 processors.
/// let hg = HierGrid::new(GridShape::new(6, 6), GridShape::new(3, 3));
/// assert_eq!(hg.num_groups(), 9);
/// assert_eq!(hg.group_of(5, 1), (2, 0));
/// assert_eq!(hg.inner_of(5, 1), (1, 1));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierGrid {
    grid: GridShape,
    groups: GridShape,
}

impl HierGrid {
    /// Overlays `groups = I × J` on `grid = s × t`.
    ///
    /// # Panics
    /// Panics unless `I` divides `s` and `J` divides `t`.
    pub fn new(grid: GridShape, groups: GridShape) -> Self {
        assert_eq!(
            grid.rows % groups.rows,
            0,
            "group rows {} must divide grid rows {}",
            groups.rows,
            grid.rows
        );
        assert_eq!(
            grid.cols % groups.cols,
            0,
            "group cols {} must divide grid cols {}",
            groups.cols,
            grid.cols
        );
        HierGrid { grid, groups }
    }

    /// The flat processor grid (`s × t`).
    pub fn grid(&self) -> GridShape {
        self.grid
    }

    /// The arrangement of groups (`I × J`).
    pub fn groups(&self) -> GridShape {
        self.groups
    }

    /// The grid inside one group (`s/I × t/J`).
    pub fn inner(&self) -> GridShape {
        GridShape::new(
            self.grid.rows / self.groups.rows,
            self.grid.cols / self.groups.cols,
        )
    }

    /// Total number of groups `G = I·J`.
    pub fn num_groups(&self) -> usize {
        self.groups.size()
    }

    /// Group coordinates `(x, y)` of the processor at grid `(gi, gj)`.
    pub fn group_of(&self, gi: usize, gj: usize) -> (usize, usize) {
        let inner = self.inner();
        (gi / inner.rows, gj / inner.cols)
    }

    /// Inner coordinates `(i, j)` of the processor at grid `(gi, gj)`.
    pub fn inner_of(&self, gi: usize, gj: usize) -> (usize, usize) {
        let inner = self.inner();
        (gi % inner.rows, gj % inner.cols)
    }

    /// Grid coordinates of processor `P(x,y)(i,j)`.
    pub fn grid_coords(&self, (x, y): (usize, usize), (i, j): (usize, usize)) -> (usize, usize) {
        let inner = self.inner();
        debug_assert!(x < self.groups.rows && y < self.groups.cols);
        debug_assert!(i < inner.rows && j < inner.cols);
        (x * inner.rows + i, y * inner.cols + j)
    }

    /// World ranks of the *group-row communicator* through `P(x,·)(i,j)`:
    /// the processors with the same group row `x` and inner coordinates,
    /// ordered by group column `y`. A's inter-group broadcast runs here.
    pub fn group_row_ranks(&self, x: usize, i: usize, j: usize) -> Vec<usize> {
        (0..self.groups.cols)
            .map(|y| {
                let (gi, gj) = self.grid_coords((x, y), (i, j));
                self.grid.rank(gi, gj)
            })
            .collect()
    }

    /// World ranks of the *group-column communicator* through `P(·,y)(i,j)`,
    /// ordered by group row `x`. B's inter-group broadcast runs here.
    pub fn group_col_ranks(&self, y: usize, i: usize, j: usize) -> Vec<usize> {
        (0..self.groups.rows)
            .map(|x| {
                let (gi, gj) = self.grid_coords((x, y), (i, j));
                self.grid.rank(gi, gj)
            })
            .collect()
    }

    /// World ranks of the *intra-group row communicator* through
    /// `P(x,y)(i,·)`, ordered by inner column `j`.
    pub fn inner_row_ranks(&self, x: usize, y: usize, i: usize) -> Vec<usize> {
        (0..self.inner().cols)
            .map(|j| {
                let (gi, gj) = self.grid_coords((x, y), (i, j));
                self.grid.rank(gi, gj)
            })
            .collect()
    }

    /// World ranks of the *intra-group column communicator* through
    /// `P(x,y)(·,j)`, ordered by inner row `i`.
    pub fn inner_col_ranks(&self, x: usize, y: usize, j: usize) -> Vec<usize> {
        (0..self.inner().rows)
            .map(|i| {
                let (gi, gj) = self.grid_coords((x, y), (i, j));
                self.grid.rank(gi, gj)
            })
            .collect()
    }

    /// Splits `comm`, which spans the grid in row-major rank order, by
    /// `line`: each rank's `((x, y), (i, j))` → its `(color, key)`.
    fn split<C: Communicator>(
        &self,
        comm: &C,
        line: impl Fn((usize, usize), (usize, usize)) -> (u64, i64),
    ) -> C {
        comm.split(|r| {
            let (gi, gj) = self.grid.coords(r);
            line(self.group_of(gi, gj), self.inner_of(gi, gj))
        })
    }

    /// The inter-group communicators through each rank of `comm`:
    /// `P(x,·)(i,j)` ordered by `y`, where A's outer broadcasts run, and
    /// `P(·,y)(i,j)` ordered by `x`, where B's run.
    pub(crate) fn outer_comms<C: Communicator>(&self, comm: &C) -> (C, C) {
        (
            self.split(comm, |(x, y), (i, j)| (color3(x, i, j), y as i64)),
            self.split(comm, |(x, y), (i, j)| (color3(y, i, j), x as i64)),
        )
    }

    /// The intra-group communicators through each rank of `comm`:
    /// `P(x,y)(i,·)` ordered by `j`, where A's inner broadcasts run, and
    /// `P(x,y)(·,j)` ordered by `i`, where B's run.
    pub(crate) fn inner_comms<C: Communicator>(&self, comm: &C) -> (C, C) {
        (
            self.split(comm, |(x, y), (i, j)| (color3(x, y, i), j as i64)),
            self.split(comm, |(x, y), (i, j)| (color3(x, y, j), i as i64)),
        )
    }

    /// A balanced `I × J` factorization of `g` compatible with `grid`
    /// (`I | s`, `J | t`), or `None` if no factorization exists.
    ///
    /// "Balanced" = the group aspect ratio tracks the grid aspect ratio
    /// (maximizing squareness of the inner grids), which is the shape the
    /// paper's `√G × √G` analysis assumes when it exists.
    pub fn factor_groups(grid: GridShape, g: usize) -> Option<GridShape> {
        let mut best: Option<GridShape> = None;
        let mut best_score = f64::INFINITY;
        for i in 1..=g {
            if !g.is_multiple_of(i) {
                continue;
            }
            let j = g / i;
            if !grid.rows.is_multiple_of(i) || !grid.cols.is_multiple_of(j) {
                continue;
            }
            // Squareness of the inner grid: ratio of its longer side to its
            // shorter side (1.0 = perfectly square).
            let ir = (grid.rows / i) as f64;
            let ic = (grid.cols / j) as f64;
            let score = (ir / ic).max(ic / ir);
            if score < best_score {
                best_score = score;
                best = Some(GridShape::new(i, j));
            }
        }
        best
    }

    /// Every achievable group count on `grid`, ascending, with its
    /// balanced factorization. Always contains `1` and `p`.
    pub fn valid_group_counts(grid: GridShape) -> Vec<(usize, GridShape)> {
        (1..=grid.size())
            .filter_map(|g| Self::factor_groups(grid, g).map(|f| (g, f)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_six_by_six_grid_three_by_three_groups() {
        // Fig. 2: a 6×6 grid arranged as 3×3 groups of 2×2 processors.
        let hg = HierGrid::new(GridShape::new(6, 6), GridShape::new(3, 3));
        assert_eq!(hg.inner(), GridShape::new(2, 2));
        assert_eq!(hg.num_groups(), 9);
        assert_eq!(hg.group_of(5, 0), (2, 0));
        assert_eq!(hg.inner_of(5, 0), (1, 0));
        assert_eq!(hg.grid_coords((2, 0), (1, 0)), (5, 0));
    }

    #[test]
    fn coordinate_roundtrip_for_every_rank() {
        let hg = HierGrid::new(GridShape::new(4, 6), GridShape::new(2, 3));
        let grid = hg.grid();
        for rank in 0..grid.size() {
            let (gi, gj) = grid.coords(rank);
            let g = hg.group_of(gi, gj);
            let inner = hg.inner_of(gi, gj);
            assert_eq!(hg.grid_coords(g, inner), (gi, gj));
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn incompatible_groups_rejected() {
        let _ = HierGrid::new(GridShape::new(4, 4), GridShape::new(3, 1));
    }

    #[test]
    fn group_row_ranks_walk_group_columns() {
        let hg = HierGrid::new(GridShape::new(4, 4), GridShape::new(2, 2));
        // Inner grid 2x2. P(0,·)(1,1): grid rows 1, cols 1 and 3.
        let ranks = hg.group_row_ranks(0, 1, 1);
        assert_eq!(ranks, vec![hg.grid().rank(1, 1), hg.grid().rank(1, 3)]);
    }

    #[test]
    fn group_col_ranks_walk_group_rows() {
        let hg = HierGrid::new(GridShape::new(4, 4), GridShape::new(2, 2));
        let ranks = hg.group_col_ranks(1, 0, 1);
        assert_eq!(ranks, vec![hg.grid().rank(0, 3), hg.grid().rank(2, 3)]);
    }

    #[test]
    fn inner_row_and_col_ranks_stay_inside_group() {
        let hg = HierGrid::new(GridShape::new(4, 4), GridShape::new(2, 2));
        let row = hg.inner_row_ranks(1, 1, 0);
        assert_eq!(row, vec![hg.grid().rank(2, 2), hg.grid().rank(2, 3)]);
        let col = hg.inner_col_ranks(1, 1, 1);
        assert_eq!(col, vec![hg.grid().rank(2, 3), hg.grid().rank(3, 3)]);
    }

    #[test]
    fn degenerate_single_group_is_whole_grid() {
        let hg = HierGrid::new(GridShape::new(4, 4), GridShape::new(1, 1));
        assert_eq!(hg.inner(), GridShape::new(4, 4));
        assert_eq!(hg.group_row_ranks(0, 2, 3), vec![hg.grid().rank(2, 3)]);
        assert_eq!(hg.inner_row_ranks(0, 0, 2).len(), 4);
    }

    #[test]
    fn degenerate_all_singleton_groups() {
        let hg = HierGrid::new(GridShape::new(4, 4), GridShape::new(4, 4));
        assert_eq!(hg.inner(), GridShape::new(1, 1));
        assert_eq!(hg.group_row_ranks(2, 0, 0).len(), 4);
        assert_eq!(hg.inner_row_ranks(1, 1, 0).len(), 1);
    }

    #[test]
    fn factor_groups_prefers_square_inner_grids() {
        let grid = GridShape::new(8, 8);
        assert_eq!(HierGrid::factor_groups(grid, 4), Some(GridShape::new(2, 2)));
        assert_eq!(
            HierGrid::factor_groups(grid, 16),
            Some(GridShape::new(4, 4))
        );
        // G=2 on a square grid must pick a 1x2 or 2x1 split.
        let f = HierGrid::factor_groups(grid, 2).unwrap();
        assert_eq!(f.size(), 2);
    }

    #[test]
    fn factor_groups_respects_divisibility() {
        let grid = GridShape::new(4, 8);
        assert_eq!(HierGrid::factor_groups(grid, 3), None);
        let f = HierGrid::factor_groups(grid, 8).unwrap();
        assert_eq!(f.size(), 8);
        assert_eq!(grid.rows % f.rows, 0);
        assert_eq!(grid.cols % f.cols, 0);
    }

    #[test]
    fn valid_group_counts_bracket_includes_1_and_p() {
        let grid = GridShape::new(8, 16);
        let counts = HierGrid::valid_group_counts(grid);
        assert_eq!(counts.first().map(|c| c.0), Some(1));
        assert_eq!(counts.last().map(|c| c.0), Some(128));
        // Powers of two in between are representable on this grid.
        let gs: Vec<usize> = counts.iter().map(|c| c.0).collect();
        for g in [2usize, 4, 8, 16, 32, 64] {
            assert!(gs.contains(&g), "missing G={g}");
        }
    }
}
