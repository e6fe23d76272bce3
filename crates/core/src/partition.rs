//! Block-partition arithmetic shared by every 2-D algorithm.
//!
//! Each schedule in this crate walks the same block-checkerboard
//! geometry: a `rows × cols` operand over an `s × t` grid yields
//! `(rows/s) × (cols/t)` local tiles (square `n × n` being the common
//! case), and pivot step `k` with panel width `bs` lives on the grid
//! row/column owning global index `k·bs`. That arithmetic lives here
//! exactly once: the pivot engine, LU and the sparse panel schedules all
//! walk the tiles through [`pivot_owner`]/[`pivot_offset`].
//!
//! The 1-D "deal `len` elements over `p` parts" helper used by the
//! segmented collectives is [`chunk_range`], re-exported from the
//! runtime so core-side schedule code has a single import path. It is
//! also the dealing rule behind [`crate::distribution::Distribution`]'s
//! checkerboard constructor, which drops the divisibility requirement
//! entirely; the exact-cover invariant both must satisfy is property
//! tested below.

use hsumma_matrix::GridShape;

pub use hsumma_runtime::collectives::chunk_range;

/// Global operand dimensions of `C(M×N) = A(M×L) · B(L×N)` — Algorithm 1
/// of the paper is stated for general `(M, L, N)`; the pivot traversal
/// runs along the shared `L` dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatMulDims {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// The shared (contraction) dimension: columns of `A`, rows of `B`.
    pub l: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
}

impl MatMulDims {
    /// Square `n × n × n` dimensions.
    pub fn square(n: usize) -> Self {
        MatMulDims { m: n, l: n, n }
    }
}

/// `⌈a / b⌉` for positive `b`.
///
/// # Panics
/// Panics if `b == 0`.
pub fn ceil_div(a: usize, b: usize) -> usize {
    assert!(b > 0, "ceil_div by zero");
    a.div_ceil(b)
}

/// Local tile shape `(rows, cols)` of a square `n × n` operand
/// block-distributed over `grid`.
///
/// # Panics
/// Panics unless both grid extents divide `n` (the block-checkerboard
/// precondition every algorithm here checks).
pub fn tile_shape(grid: GridShape, n: usize) -> (usize, usize) {
    tile_shape_rect(grid, n, n)
}

/// Local tile shape of a rectangular `rows × cols` operand
/// block-distributed over `grid`.
///
/// # Panics
/// Panics unless `grid.rows` divides `rows` and `grid.cols` divides
/// `cols`.
pub fn tile_shape_rect(grid: GridShape, rows: usize, cols: usize) -> (usize, usize) {
    assert_eq!(
        rows % grid.rows,
        0,
        "rows must be divisible by the grid rows"
    );
    assert_eq!(
        cols % grid.cols,
        0,
        "cols must be divisible by the grid cols"
    );
    (rows / grid.rows, cols / grid.cols)
}

/// Grid row/column owning pivot step `k`: the tile of extent `extent`
/// containing global index `k·bs`.
///
/// # Panics
/// Panics if `extent == 0`.
pub fn pivot_owner(k: usize, bs: usize, extent: usize) -> usize {
    assert!(extent > 0, "tile extent must be positive");
    k * bs / extent
}

/// Offset of pivot step `k`'s panel within its owner's tile.
///
/// # Panics
/// Panics if `extent == 0`.
pub fn pivot_offset(k: usize, bs: usize, extent: usize) -> usize {
    assert!(extent > 0, "tile extent must be positive");
    k * bs % extent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_shape_divides_the_grid() {
        assert_eq!(tile_shape(GridShape::new(2, 4), 16), (8, 4));
        assert_eq!(tile_shape(GridShape::new(1, 1), 7), (7, 7));
        assert_eq!(tile_shape_rect(GridShape::new(2, 3), 10, 9), (5, 3));
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn tile_shape_rejects_non_dividing_grid() {
        let _ = tile_shape(GridShape::new(3, 3), 16);
    }

    #[test]
    fn pivot_owner_and_offset_walk_the_tiles() {
        // Tiles of extent 8, panels of 4: steps 0,1 live on owner 0 at
        // offsets 0,4; steps 2,3 on owner 1; and so on.
        let (bs, tw) = (4, 8);
        let walk: Vec<(usize, usize)> = (0..6)
            .map(|k| (pivot_owner(k, bs, tw), pivot_offset(k, bs, tw)))
            .collect();
        assert_eq!(walk, [(0, 0), (0, 4), (1, 0), (1, 4), (2, 0), (2, 4)]);
    }

    #[test]
    fn pivot_offset_plus_width_stays_in_tile() {
        for (bs, extent) in [(1, 5), (2, 8), (4, 8), (8, 8), (3, 12)] {
            for k in 0..(4 * extent / bs) {
                assert!(
                    pivot_offset(k, bs, extent) + bs <= extent,
                    "{bs}/{extent}/{k}"
                );
            }
        }
    }

    #[test]
    fn ceil_div_rounds_up() {
        assert_eq!(ceil_div(0, 4), 0);
        assert_eq!(ceil_div(8, 4), 2);
        assert_eq!(ceil_div(9, 4), 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `ceil_div` is the least multiple-count covering `a`.
            #[test]
            fn ceil_div_is_the_least_cover(a in 0usize..10_000, b in 1usize..100) {
                let q = ceil_div(a, b);
                prop_assert!(q * b >= a, "covers");
                if a > 0 {
                    prop_assert!((q - 1) * b < a, "least");
                }
            }

            /// `chunk_range` deals `len` over `p` parts with no gap, no
            /// overlap, and near-even extents — for *any* `p`, dividing
            /// or not. This is the 1-D invariant `Distribution::grid2d`
            /// lifts to two dimensions.
            #[test]
            fn chunk_range_tiles_exactly(len in 0usize..500, p in 1usize..40) {
                let mut cursor = 0usize;
                let (mut min_ext, mut max_ext) = (usize::MAX, 0usize);
                for i in 0..p {
                    let (start, end) = chunk_range(len, p, i);
                    prop_assert_eq!(start, cursor, "contiguous, in order");
                    prop_assert!(end >= start);
                    min_ext = min_ext.min(end - start);
                    max_ext = max_ext.max(end - start);
                    cursor = end;
                }
                prop_assert_eq!(cursor, len, "full cover");
                prop_assert!(max_ext - min_ext <= 1, "balanced dealing");
            }

            /// On dividing shapes the rectangular tile shape reassembles
            /// the global exactly: `s·(rows/s) = rows`, `t·(cols/t) = cols`.
            #[test]
            fn tile_shape_rect_reassembles_the_global(
                s in 1usize..8, t in 1usize..8,
                rf in 1usize..10, cf in 1usize..10,
            ) {
                let grid = GridShape::new(s, t);
                let (rows, cols) = (s * rf, t * cf);
                let (th, tw) = tile_shape_rect(grid, rows, cols);
                prop_assert_eq!(th * grid.rows, rows);
                prop_assert_eq!(tw * grid.cols, cols);
                // And it agrees with the chunk_range dealing (which is
                // uniform exactly when the grid divides).
                for i in 0..s {
                    let (r0, r1) = chunk_range(rows, s, i);
                    prop_assert_eq!(r1 - r0, th);
                }
                for j in 0..t {
                    let (c0, c1) = chunk_range(cols, t, j);
                    prop_assert_eq!(c1 - c0, tw);
                }
            }
        }
    }
}
