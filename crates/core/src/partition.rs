//! The geometry every 2-D schedule walks: operand extents and the pivot
//! steps along the shared dimension `L`.
//!
//! A block-checkerboard operand deals each dimension over the grid lines
//! with [`chunk_range`] (the dealing rule of
//! [`crate::distribution::Distribution::grid2d`]), so tiles differ by at
//! most one row or column and no extent needs to divide. [`pivot_steps`]
//! is the one builder of the pivot walk: it cuts each grid line's share
//! of `L` into panels of width at most the block, once along `A`'s
//! columns and once along `B`'s rows, and pairs them up by their common
//! refinement. Each [`Panel`] names its owning grid line, its offset in
//! that line's tile and its width. The pivot engine, LU, the multilevel
//! driver and the sparse schedules all read their owners from it; the
//! block-cyclic walk is the same pairing over whole blocks dealt round
//! robin.
//!
//! [`chunk_range`] is re-exported from the broadcast schedule in
//! `hsumma-trace` so core-side schedule code has a single import path;
//! its exact-cover invariant is property tested below.

use hsumma_matrix::{BlockRange, GridShape};

pub use hsumma_trace::chunk_range;

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

/// `rank`'s range of a `rows × cols` operand dealt over `grid`, one
/// [`chunk_range`] share per dimension: the one dealing rule behind
/// [`crate::distribution::Distribution::grid2d`] and [`tile_of`].
pub(crate) fn grid_range(grid: GridShape, rank: usize, rows: usize, cols: usize) -> BlockRange {
    let (gi, gj) = grid.coords(rank);
    let (r0, r1) = chunk_range(rows, grid.rows, gi);
    let (c0, c1) = chunk_range(cols, grid.cols, gj);
    BlockRange::new(r0, r1, c0, c1)
}

/// The shape of `rank`'s tile of a `rows × cols` operand dealt over
/// `grid`: its [`crate::distribution::Distribution::grid2d`] range.
pub fn tile_of(grid: GridShape, rank: usize, rows: usize, cols: usize) -> (usize, usize) {
    let r = grid_range(grid, rank, rows, cols);
    (r.rows(), r.cols())
}

/// One pivot panel along a dealt extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Panel {
    /// The grid column (for `A`) or row (for `B`) holding the panel.
    pub owner: usize,
    /// Offset of the panel within the owner's tile.
    pub offset: usize,
    /// Panel width: the block, or less at the end of a tile.
    pub width: usize,
}

impl Panel {
    /// What is left of the panel once its first `width` indices are taken.
    fn after(self, width: usize) -> Option<Panel> {
        (self.width > width).then(|| Panel {
            offset: self.offset + width,
            width: self.width - width,
            ..self
        })
    }
}

/// The outer pivot steps of a multiply over `grid` along a shared extent
/// `l`, in global order. `A`'s columns and `B`'s rows are each dealt over
/// their grid lines by [`chunk_range`] and each line's tile is cut into
/// panels of width `block`, the last one narrower. Step `k` pairs `A`'s
/// panel with `B`'s over the same global range, so both have one width:
/// where the two axes cut at different places, the steps cut at both.
/// When the grid and the block divide `l`, step `k` is global range
/// `[k·block, (k+1)·block)` on both axes.
///
/// # Panics
/// Panics if `block == 0`.
pub fn pivot_steps(l: usize, grid: GridShape, block: usize) -> Vec<(Panel, Panel)> {
    assert!(block > 0, "block must be positive");
    let deal = |parts: usize| {
        (0..parts).flat_map(move |owner| {
            let (start, end) = chunk_range(l, parts, owner);
            (0..end - start).step_by(block).map(move |offset| Panel {
                owner,
                offset,
                width: block.min(end - start - offset),
            })
        })
    };
    refine(deal(grid.cols), deal(grid.rows))
}

/// Block-cyclic pivot steps: `l / block` whole blocks dealt round robin,
/// so block `k` lives on grid line `k mod parts` at offset
/// `(k div parts)·block` (the ScaLAPACK convention).
///
/// # Panics
/// Panics unless both grid extents divide `l` in whole blocks.
pub(crate) fn cyclic_steps(l: usize, grid: GridShape, block: usize) -> Vec<(Panel, Panel)> {
    let deal = |parts: usize| {
        assert!(
            l.is_multiple_of(block * parts),
            "L must be divisible by the grid in whole blocks"
        );
        (0..l / block).map(move |k| Panel {
            owner: k % parts,
            offset: k / parts * block,
            width: block,
        })
    };
    refine(deal(grid.cols), deal(grid.rows))
}

/// The common refinement of two panel lists that cover the same extent
/// in global order: each step is as wide as the narrower of the two
/// current panels, and the wider one's remainder carries on.
fn refine(
    mut a: impl Iterator<Item = Panel>,
    mut b: impl Iterator<Item = Panel>,
) -> Vec<(Panel, Panel)> {
    let mut steps = Vec::new();
    let (mut pa, mut pb) = (a.next(), b.next());
    while let (Some(x), Some(y)) = (pa, pb) {
        let width = x.width.min(y.width);
        steps.push((Panel { width, ..x }, Panel { width, ..y }));
        pa = x.after(width).or_else(|| a.next());
        pb = y.after(width).or_else(|| b.next());
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(owner, offset, width)` of each step's `A` panel and `B` panel.
    type Walk = Vec<((usize, usize, usize), (usize, usize, usize))>;

    fn walk(steps: &[(Panel, Panel)]) -> Walk {
        let t = |p: &Panel| (p.owner, p.offset, p.width);
        steps.iter().map(|(a, b)| (t(a), t(b))).collect()
    }

    #[test]
    fn tile_shape_divides_the_grid() {
        // 16 over a 2×4 grid in blocks of 2: every step is one whole
        // block, A's four column tiles hold 4 each, B's two row tiles 8.
        let steps = pivot_steps(16, GridShape::new(2, 4), 2);
        assert_eq!(steps.len(), 8);
        for (k, (a, b)) in steps.iter().enumerate() {
            assert_eq!((a.owner, a.offset, a.width), (k / 2, k % 2 * 2, 2));
            assert_eq!((b.owner, b.offset, b.width), (k / 4, k % 4 * 2, 2));
        }
    }

    #[test]
    fn pivot_steps_deal_a_non_dividing_grid() {
        // 7 over a 2×3 grid in blocks of 2. A's columns deal 3, 2, 2 and
        // cut [0,2) [2,3) | [3,5) | [5,7); B's rows deal 4, 3 and cut
        // [0,2) [2,4) | [4,6) [6,7). The steps cut at both.
        let steps = pivot_steps(7, GridShape::new(2, 3), 2);
        let want: Walk = vec![
            ((0, 0, 2), (0, 0, 2)),
            ((0, 2, 1), (0, 2, 1)),
            ((1, 0, 1), (0, 3, 1)),
            ((1, 1, 1), (1, 0, 1)),
            ((2, 0, 1), (1, 1, 1)),
            ((2, 1, 1), (1, 2, 1)),
        ];
        assert_eq!(walk(&steps), want);
    }

    #[test]
    fn pivot_owner_and_offset_walk_the_tiles() {
        // Tiles of extent 8, panels of 4: steps 0,1 live on owner 0 at
        // offsets 0,4; steps 2,3 on owner 1; and so on.
        let steps = pivot_steps(24, GridShape::new(3, 3), 4);
        let at = [
            (0, 0, 4),
            (0, 4, 4),
            (1, 0, 4),
            (1, 4, 4),
            (2, 0, 4),
            (2, 4, 4),
        ];
        let want: Walk = at.iter().map(|&p| (p, p)).collect();
        assert_eq!(walk(&steps), want);
    }

    #[test]
    fn pivot_offset_plus_width_stays_in_tile() {
        for (l, s, t, block) in [
            (5, 1, 1, 1),
            (16, 2, 2, 4),
            (30, 4, 4, 3),
            (17, 3, 5, 4),
            (3, 4, 2, 2),
        ] {
            for (a, b) in pivot_steps(l, GridShape::new(s, t), block) {
                for (p, parts) in [(a, t), (b, s)] {
                    let (start, end) = chunk_range(l, parts, p.owner);
                    assert!(
                        p.width > 0 && p.width <= block,
                        "{l}/{s}x{t}/{block}: {p:?}"
                    );
                    assert!(
                        p.offset + p.width <= end - start,
                        "{l}/{s}x{t}/{block}: {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn cyclic_steps_refuse_a_partial_block() {
        // 12 columns in blocks of 4 leave 3 blocks for 2 grid lines.
        let _ = cyclic_steps(12, GridShape::new(2, 2), 4);
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

            /// The steps walk both operands' tiles through the whole of
            /// `L` in order, dividing or not: on each axis, step `k`
            /// starts where step `k - 1` ended, inside its owner's
            /// `chunk_range` tile, so the tiles reassemble the global.
            #[test]
            fn tile_shape_rect_reassembles_the_global(
                s in 1usize..8, t in 1usize..8,
                l in 0usize..100, block in 1usize..10,
            ) {
                let mut cursor = 0usize;
                for (a, b) in pivot_steps(l, GridShape::new(s, t), block) {
                    prop_assert_eq!(a.width, b.width);
                    prop_assert_eq!(chunk_range(l, t, a.owner).0 + a.offset, cursor);
                    prop_assert_eq!(chunk_range(l, s, b.owner).0 + b.offset, cursor);
                    cursor += a.width;
                }
                prop_assert_eq!(cursor, l);
            }
        }
    }
}
