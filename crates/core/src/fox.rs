//! Fox's algorithm (1987) — broadcast-multiply-roll baseline (§I).
//!
//! Square `q × q` grid, one tile per processor. In round `k`, each
//! processor row broadcasts its diagonal-offset tile `A[i][(i+k) mod q]`
//! along the row and multiplies it with the current `B` tile; between
//! rounds `B` rolls one position up (`q − 1` rolls, none after the last
//! multiply). Like Cannon's, the square-grid restriction kept it out of
//! general-purpose libraries.

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

    // The rolls send `B` as a shared handle: the one copy is this cut of
    // the borrowed tile (counted, as every cut is), and each later roll
    // passes on the panel that landed.
    let mut b_cur = comm.cut(b, 0, 0, ts, ts);
    let mut c = C::Mat::zeros(ts, ts);
    let step_pairs = ts * ts * ts;
    for k in 0..q {
        b_cur = comm.trace_step(k, ts, ts, || -> Result<_, CommError> {
            // Broadcast A[i][(i+k) mod q] along row i: the root cuts its
            // tile once, the receivers take the panel that lands.
            let root = (i + k) % q;
            let mine = (j == root).then(|| row_comm.cut(a, 0, 0, ts, ts));
            let a_bc = row_comm.bcast_shared(bcast, root, ts, ts, mine)?;

            comm.compute(step_pairs as f64, 2 * step_pairs as u64, || {
                C::Mat::gemm(kernel, C::shared_ref(&a_bc), C::shared_ref(&b_cur), &mut c)
            });

            // Roll B up by one, unless no multiply reads the result.
            if k + 1 == q {
                return Ok(b_cur);
            }
            comm.send_shared(up, TAG_ROLL_B, &b_cur)?;
            comm.recv_shared(down, TAG_ROLL_B, ts, ts)
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
    fn fox_copies_each_operand_once() {
        // Each rank cuts its own `B` tile once for the rolls, and every
        // step's row root cuts its `A` tile once for the broadcast: `n²`
        // elements of each operand are copied, and nothing else is.
        use crate::distribution::Distribution;
        use hsumma_runtime::{CommStats, RankPool};
        use std::sync::Arc;
        for q in [2, 3] {
            let n = 5 * q;
            let grid = GridShape::new(q, q);
            let (a, b) = (seeded_uniform(n, n, 41), seeded_uniform(n, n, 42));
            let dist = Distribution::grid2d(grid, n, n);
            let (at, bt) = (Arc::new(dist.scatter(&a)), Arc::new(dist.scatter(&b)));
            let mut pool = RankPool::new(grid.size()).unwrap();
            let run = pool
                .run(move |comm| {
                    let r = comm.rank();
                    fox(&*comm, grid, n, &at[r], &bt[r], GemmKernel::Packed).unwrap()
                })
                .unwrap();
            let total = run
                .stats
                .iter()
                .fold(CommStats::default(), |t, s| t.merge(s));
            let tiles = 2 * (q * q) as u64;
            assert_eq!(total.payload_clones, tiles, "q={q}");
            assert_eq!(total.payload_clone_bytes, 2 * (n * n * 8) as u64, "q={q}");
            assert!(dist
                .gather(&run.results)
                .approx_eq(&reference_product(&a, &b), 1e-9));
        }
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
        let cannon = crate::PlannedAlgo::Cannon {
            kernel: GemmKernel::Blocked,
        };
        let by_cannon = distributed_product(grid, n, &a, &b, |comm, at, bt| {
            crate::run_planned_gemm(comm, grid, n, n, n, &at, &bt, &cannon).unwrap()
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
