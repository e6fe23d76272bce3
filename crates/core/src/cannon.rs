//! Cannon's algorithm (1969) — the paper's historical baseline (§I).
//!
//! Works on a square `q × q` grid with one tile per processor, over
//! tiles that are already aligned: rank `(i, j)` holds `A(i, i+j)` and
//! `B(i+j, j)` (block indices mod `q`), the layouts of
//! [`aligned_layouts`]. The algorithm performs `q` multiplies and the
//! `q − 1` rotations between them (`A` left and `B` up by one); no
//! rotation follows the last multiply. Its restriction to square
//! processor counts is exactly why SUMMA superseded it in general
//! purpose libraries.
//!
//! The alignment is a layout, not a phase: a caller that deals its own
//! tiles (the serving layer) cuts them aligned and moves only the
//! rotations, and [`crate::run_planned_gemm`] reaches the aligned
//! layouts from the checkerboard with one [`crate::redistribute`] per
//! operand, which sends what the classic alignment shifts send. Cannon
//! consumes its tiles: the rotations send them themselves.

use crate::comm::{Communicator, MatLike};
use crate::distribution::Distribution;
use crate::partition::chunk_range;
use hsumma_matrix::{BlockRange, GemmKernel, GridShape};
use hsumma_runtime::CommError;

const TAG_SHIFT_A: u64 = 11;
const TAG_SHIFT_B: u64 = 12;

/// Sends `mat` to `dst` and receives the replacement from `src` on `comm`
/// (an `MPI_Sendrecv_replace`). Eager sends make the exchange deadlock-free.
fn shift<C: Communicator>(
    comm: &C,
    dst: usize,
    src: usize,
    tag: u64,
    mat: C::Mat,
) -> Result<C::Mat, CommError> {
    let (r, c) = (mat.rows(), mat.cols());
    comm.send_mat(dst, tag, mat)?;
    comm.recv_mat(src, tag, r, c)
}

/// Cannon's aligned layouts `(A, B)` of `n × n` operands over the square
/// `grid`: rank `(i, j)` owns `A(i, i+j)` and `B(i+j, j)`, block indices
/// mod `q` and blocks dealt by [`chunk_range`]. `C` stays on the
/// checkerboard of [`Distribution::grid2d`].
///
/// # Panics
/// Panics if the grid is not square.
pub fn aligned_layouts(grid: GridShape, n: usize) -> (Distribution, Distribution) {
    assert_eq!(
        grid.rows, grid.cols,
        "Cannon requires a square processor grid"
    );
    let q = grid.rows;
    let block = |bi: usize, bj: usize| {
        let ((r0, r1), (c0, c1)) = (chunk_range(n, q, bi), chunk_range(n, q, bj));
        BlockRange::new(r0, r1, c0, c1)
    };
    let (a, b) = (0..grid.size())
        .map(|rank| {
            let (i, j) = grid.coords(rank);
            let l = (i + j) % q;
            (block(i, l), block(l, j))
        })
        .unzip();
    (Distribution::dealt(n, n, a), Distribution::dealt(n, n, b))
}

/// Runs Cannon's algorithm on the calling rank. SPMD over a square grid;
/// `a` and `b` are this rank's tiles under [`aligned_layouts`], and the
/// result is its checkerboard `C` tile. Consumes the tiles: they are
/// what the rotations send.
///
/// Generic over the [`Communicator`] substrate: real matrices over the
/// threaded runtime, or phantom payloads over the simulator's clocks.
///
/// # Panics
/// Panics if the grid is not square or tile shapes are inconsistent.
pub fn cannon<C: Communicator>(
    comm: &C,
    grid: GridShape,
    n: usize,
    a: C::Mat,
    b: C::Mat,
    kernel: GemmKernel,
) -> Result<C::Mat, CommError> {
    assert_eq!(
        grid.rows, grid.cols,
        "Cannon requires a square processor grid"
    );
    let q = grid.rows;
    assert_eq!(comm.size(), grid.size(), "communicator must span the grid");
    assert_eq!(n % q, 0, "n must be divisible by the grid side");
    let ts = n / q;
    assert_eq!((a.rows(), a.cols()), (ts, ts), "A tile has wrong shape");
    assert_eq!((b.rows(), b.cols()), (ts, ts), "B tile has wrong shape");

    let (i, j) = grid.coords(comm.rank());
    let (left, right) = (grid.rank(i, (j + q - 1) % q), grid.rank(i, (j + 1) % q));
    let (up, down) = (grid.rank((i + q - 1) % q, j), grid.rank((i + 1) % q, j));

    let (mut a_cur, mut b_cur) = (a, b);
    let mut c = C::Mat::zeros(ts, ts);
    let step_pairs = ts * ts * ts;
    for k in 0..q {
        (a_cur, b_cur) = comm.trace_step(k, ts, ts, || -> Result<_, CommError> {
            comm.compute(step_pairs as f64, 2 * step_pairs as u64, || {
                C::Mat::gemm(kernel, &a_cur, &b_cur, &mut c)
            });
            if k + 1 == q {
                return Ok((a_cur, b_cur)); // no multiply reads another rotation
            }
            let a_next = shift(comm, left, right, TAG_SHIFT_A, a_cur)?;
            let b_next = shift(comm, up, down, TAG_SHIFT_B, b_cur)?;
            Ok((a_next, b_next))
        })?;
        comm.maybe_step_sync()?;
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{distributed_product, reference_product};
    use crate::{run_planned_gemm, PlannedAlgo};
    use hsumma_matrix::{seeded_uniform, Matrix};
    use hsumma_runtime::{CommStats, RankPool};
    use std::sync::Arc;

    fn run_cannon_case(q: usize, n: usize) {
        let grid = GridShape::new(q, q);
        let a = seeded_uniform(n, n, 500);
        let b = seeded_uniform(n, n, 600);
        let plan = PlannedAlgo::Cannon {
            kernel: GemmKernel::Blocked,
        };
        let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            run_planned_gemm(comm, grid, n, n, n, &at, &bt, &plan).unwrap()
        });
        let want = reference_product(&a, &b);
        assert!(
            got.approx_eq(&want, 1e-9),
            "q={q} n={n}: max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn cannon_2x2() {
        run_cannon_case(2, 8);
    }

    #[test]
    fn cannon_3x3() {
        run_cannon_case(3, 9);
    }

    #[test]
    fn cannon_4x4() {
        run_cannon_case(4, 16);
    }

    #[test]
    fn cannon_single_rank() {
        run_cannon_case(1, 4);
    }

    /// Every rank's `C` tile and the world's totals, with Cannon
    /// consuming owned tiles cut in its aligned layouts, or borrowing
    /// checkerboard tiles through [`crate::run_planned_gemm`].
    fn cannon_tiles(q: usize, n: usize, owned: bool) -> (Vec<Matrix>, CommStats) {
        let grid = GridShape::new(q, q);
        let (a, b) = (seeded_uniform(n, n, 700), seeded_uniform(n, n, 800));
        let (da, db) = if owned {
            aligned_layouts(grid, n)
        } else {
            let cb = Distribution::grid2d(grid, n, n);
            (cb.clone(), cb)
        };
        let (at, bt) = (Arc::new(da.scatter(&a)), Arc::new(db.scatter(&b)));
        let kernel = GemmKernel::Packed;
        let mut pool = RankPool::new(grid.size()).unwrap();
        let run = pool
            .run(move |comm| {
                let r = comm.rank();
                let c = if owned {
                    cannon(&*comm, grid, n, at[r].clone(), bt[r].clone(), kernel)
                } else {
                    let plan = PlannedAlgo::Cannon { kernel };
                    run_planned_gemm(&*comm, grid, n, n, n, &at[r], &bt[r], &plan)
                };
                c.unwrap()
            })
            .unwrap();
        let total = run
            .stats
            .iter()
            .fold(CommStats::default(), |t, s| t.merge(s));
        (run.results, total)
    }

    #[test]
    fn owned_and_borrowed_cannon_agree_bit_for_bit() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ts = 12;
        for q in [2, 3, 4] {
            let n = q * ts;
            let (owned, owned_stats) = cannon_tiles(q, n, true);
            let (borrowed, borrowed_stats) = cannon_tiles(q, n, false);
            for (r, (o, b)) in owned.iter().zip(&borrowed).enumerate() {
                assert!(bits(o) == bits(b), "q={q}: rank {r}'s C tile differs");
            }
            assert_eq!(
                owned_stats.payload_clone_bytes, 0,
                "q={q}: owned tiles are never copied"
            );
            // The checkerboard pays the alignment: every rank off the
            // first block row (A) or column (B) receives one tile.
            let tile = (ts * ts * 8) as u64;
            let align = 2 * (q * (q - 1)) as u64;
            assert_eq!(
                borrowed_stats.bytes_sent - owned_stats.bytes_sent,
                align * tile,
                "q={q}"
            );
            assert_eq!(
                borrowed_stats.msgs_sent - owned_stats.msgs_sent,
                align,
                "q={q}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "square processor grid")]
    fn cannon_rejects_rectangular_grid() {
        let grid = GridShape::new(2, 4);
        let a = seeded_uniform(8, 8, 1);
        let b = seeded_uniform(8, 8, 2);
        let _ = distributed_product(grid, 8, &a, &b, |comm, at, bt| {
            cannon(comm, grid, 8, at, bt, GemmKernel::Blocked).unwrap()
        });
    }
}
