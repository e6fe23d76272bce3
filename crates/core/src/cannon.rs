//! Cannon's algorithm (1969) — the paper's historical baseline (§I).
//!
//! Works on a square `q × q` grid with one tile per processor. After an
//! initial alignment (tile row `i` of `A` rotated left by `i`, tile column
//! `j` of `B` rotated up by `j`), the algorithm performs `q` rounds of
//! "multiply, then rotate `A` left and `B` up by one". Its restriction to
//! square processor counts is exactly why SUMMA superseded it in general
//! purpose libraries.
//!
//! Cannon consumes its tiles: the alignment shifts send the caller's
//! `A` and `B` tiles themselves, so a caller that owns them (the serving
//! layer) copies nothing. A caller holding only borrows goes through
//! [`crate::run_planned_gemm`], which makes the one copy and counts it
//! as a payload materialization.

use crate::comm::{Communicator, MatLike};
use hsumma_matrix::{GemmKernel, GridShape};
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
    if dst == comm.rank() {
        return Ok(mat); // rotation by zero
    }
    let (r, c) = (mat.rows(), mat.cols());
    comm.send_mat(dst, tag, mat)?;
    comm.recv_mat(src, tag, r, c)
}

/// Runs Cannon's algorithm on the calling rank. SPMD over a square grid;
/// operands block-checkerboard distributed. Consumes the local `A` and
/// `B` tiles (they are what the first shifts send) and returns the local
/// `C` tile.
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
    let left = |steps: usize| grid.rank(i, (j + q - steps % q) % q);
    let right = |steps: usize| grid.rank(i, (j + steps) % q);
    let up = |steps: usize| grid.rank((i + q - steps % q) % q, j);
    let down = |steps: usize| grid.rank((i + steps) % q, j);

    // Initial alignment: A_i· moves i positions left, B·_j moves j up.
    let mut a_cur = shift(comm, left(i), right(i), TAG_SHIFT_A, a)?;
    let mut b_cur = shift(comm, up(j), down(j), TAG_SHIFT_B, b)?;

    let mut c = C::Mat::zeros(ts, ts);
    let step_pairs = ts * ts * ts;
    for k in 0..q {
        (a_cur, b_cur) = comm.trace_step(k, ts, ts, || -> Result<_, CommError> {
            comm.compute(step_pairs as f64, 2 * step_pairs as u64, || {
                C::Mat::gemm(kernel, &a_cur, &b_cur, &mut c)
            });
            let a_next = shift(comm, left(1), right(1), TAG_SHIFT_A, a_cur)?;
            let b_next = shift(comm, up(1), down(1), TAG_SHIFT_B, b_cur)?;
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
    use crate::{run_planned_gemm, Distribution, PlannedAlgo};
    use hsumma_matrix::{seeded_uniform, Matrix};
    use hsumma_runtime::RankPool;
    use std::sync::Arc;

    fn run_cannon_case(q: usize, n: usize) {
        let grid = GridShape::new(q, q);
        let a = seeded_uniform(n, n, 500);
        let b = seeded_uniform(n, n, 600);
        let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            cannon(comm, grid, n, at, bt, GemmKernel::Blocked).unwrap()
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

    /// Every rank's `C` tile and the world's payload-clone bytes, with
    /// Cannon consuming owned tiles or borrowing them through
    /// [`crate::run_planned_gemm`].
    fn cannon_tiles(q: usize, n: usize, owned: bool) -> (Vec<Matrix>, u64) {
        let grid = GridShape::new(q, q);
        let dist = Distribution::grid2d(grid, n, n);
        let at = Arc::new(dist.scatter(&seeded_uniform(n, n, 700)));
        let bt = Arc::new(dist.scatter(&seeded_uniform(n, n, 800)));
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
        let copied = run.stats.iter().map(|s| s.payload_clone_bytes).sum();
        (run.results, copied)
    }

    #[test]
    fn owned_and_borrowed_cannon_agree_bit_for_bit() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ts = 12;
        for q in [2, 3, 4] {
            let n = q * ts;
            let (owned, owned_copied) = cannon_tiles(q, n, true);
            let (borrowed, borrowed_copied) = cannon_tiles(q, n, false);
            for (r, (o, b)) in owned.iter().zip(&borrowed).enumerate() {
                assert!(bits(o) == bits(b), "q={q}: rank {r}'s C tile differs");
            }
            assert_eq!(owned_copied, 0, "q={q}: owned tiles are never copied");
            // Borrowing costs each rank one copy of its A and B tile.
            assert_eq!(borrowed_copied, (q * q * 2 * ts * ts * 8) as u64, "q={q}");
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
