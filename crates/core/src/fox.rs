//! Fox's algorithm (1987) — broadcast-multiply-roll baseline (§I).
//!
//! Square `q × q` grid, one tile per processor. In round `k`, each
//! processor row broadcasts its diagonal-offset tile `A[i][(i+k) mod q]`
//! along the row, multiplies it with the current `B` tile, then rolls `B`
//! one position up. Like Cannon's, the square-grid restriction kept it out
//! of general-purpose libraries.

use crate::comm::{Communicator, MatLike};
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_runtime::{BcastAlgorithm, CommError};

const TAG_ROLL_B: u64 = 21;

/// Runs Fox's algorithm on the calling rank. SPMD over a square grid;
/// operands block-checkerboard distributed. Returns the local `C` tile.
///
/// # Panics
/// Panics if the grid is not square or tile shapes are inconsistent.
pub fn fox<C: Communicator>(
    comm: &C,
    grid: GridShape,
    n: usize,
    a: &C::Mat,
    b: &C::Mat,
    kernel: GemmKernel,
) -> Result<C::Mat, CommError> {
    fox_with(comm, grid, n, a, b, kernel, BcastAlgorithm::Binomial)
}

/// [`fox`] with an explicit row-broadcast algorithm. Generic over the
/// [`Communicator`] substrate, so the same schedule runs on the threaded
/// runtime or on simulated clocks.
///
/// # Panics
/// Panics if the grid is not square or tile shapes are inconsistent.
pub fn fox_with<C: Communicator>(
    comm: &C,
    grid: GridShape,
    n: usize,
    a: &C::Mat,
    b: &C::Mat,
    kernel: GemmKernel,
    bcast: BcastAlgorithm,
) -> Result<C::Mat, CommError> {
    assert_eq!(grid.rows, grid.cols, "Fox requires a square processor grid");
    let q = grid.rows;
    assert_eq!(comm.size(), grid.size(), "communicator must span the grid");
    assert_eq!(n % q, 0, "n must be divisible by the grid side");
    let ts = n / q;
    assert_eq!((a.rows(), a.cols()), (ts, ts), "A tile has wrong shape");
    assert_eq!((b.rows(), b.cols()), (ts, ts), "B tile has wrong shape");

    let (i, j) = grid.coords(comm.rank());
    let row_comm = comm.split(|r| {
        let (i, j) = grid.coords(r);
        (i as u64, j as i64)
    });
    let up = grid.rank((i + q - 1) % q, j);
    let down = grid.rank((i + 1) % q, j);

    let mut b_cur = b.clone();
    let mut c = C::Mat::zeros(ts, ts);
    let step_pairs = ts * ts * ts;
    for k in 0..q {
        b_cur = comm.trace_step(k, ts, ts, || -> Result<_, CommError> {
            // Broadcast A[i][(i+k) mod q] along row i.
            let root = (i + k) % q;
            let mut a_bc = if j == root {
                a.clone()
            } else {
                C::Mat::zeros(ts, ts)
            };
            row_comm.bcast_mat(bcast, root, &mut a_bc)?;

            comm.compute(step_pairs as f64, 2 * step_pairs as u64, || {
                C::Mat::gemm(kernel, &a_bc, &b_cur, &mut c)
            });

            // Roll B up by one (skip on a 1-wide column).
            if q > 1 {
                comm.send_mat(up, TAG_ROLL_B, b_cur)?;
                comm.recv_mat(down, TAG_ROLL_B, ts, ts)
            } else {
                Ok(b_cur)
            }
        })?;
        comm.maybe_step_sync()?;
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{distributed_product, reference_product};
    use hsumma_matrix::seeded_uniform;

    fn run_fox_case(q: usize, n: usize) {
        let grid = GridShape::new(q, q);
        let a = seeded_uniform(n, n, 700);
        let b = seeded_uniform(n, n, 800);
        let got = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            fox(comm, grid, n, &at, &bt, GemmKernel::Blocked).unwrap()
        });
        let want = reference_product(&a, &b);
        assert!(
            got.approx_eq(&want, 1e-9),
            "q={q} n={n}: max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn fox_2x2() {
        run_fox_case(2, 8);
    }

    #[test]
    fn fox_3x3() {
        run_fox_case(3, 9);
    }

    #[test]
    fn fox_4x4() {
        run_fox_case(4, 16);
    }

    #[test]
    fn fox_single_rank() {
        run_fox_case(1, 4);
    }

    #[test]
    fn fox_cannon_summa_hsumma_agree() {
        use crate::hsumma::{hsumma, HsummaConfig};
        use crate::summa::{summa, SummaConfig};

        let grid = GridShape::new(2, 2);
        let n = 8;
        let a = seeded_uniform(n, n, 31);
        let b = seeded_uniform(n, n, 32);
        let want = reference_product(&a, &b);

        let by_fox = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            fox(comm, grid, n, &at, &bt, GemmKernel::Blocked).unwrap()
        });
        let by_cannon = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            crate::cannon::cannon(comm, grid, n, at, bt, GemmKernel::Blocked).unwrap()
        });
        let by_summa = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            summa(
                comm,
                grid,
                n,
                &at,
                &bt,
                &SummaConfig {
                    block: 2,
                    ..Default::default()
                },
            )
            .unwrap()
        });
        let by_hsumma = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            hsumma(
                comm,
                grid,
                n,
                &at,
                &bt,
                &HsummaConfig::uniform(GridShape::new(2, 2), 2),
            )
            .unwrap()
        });

        for (name, got) in [
            ("fox", by_fox),
            ("cannon", by_cannon),
            ("summa", by_summa),
            ("hsumma", by_hsumma),
        ] {
            assert!(got.approx_eq(&want, 1e-9), "{name} diverged from reference");
        }
    }
}
