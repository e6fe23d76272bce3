//! The 2.5D algorithm (Solomonik & Demmel 2011) — §I's communication-
//! avoiding competitor, implemented executably as an extension.
//!
//! `p = q² · c` processors form a `q × q × c` arrangement: `c` *layers*,
//! each a `q × q` grid. The algorithm trades memory for communication:
//!
//! 1. **replicate** — layer 0 holds the operands; each `(i, j)` position
//!    broadcasts its `A`/`B` tiles down its depth communicator, so every
//!    layer owns a full copy (`c`× the 2-D memory footprint — exactly
//!    the §I argument against it at exascale);
//! 2. **partial SUMMA** — layer `l` runs SUMMA steps `k ≡ l (mod c)`
//!    only, producing a partial `C`;
//! 3. **reduce** — depth communicators sum the partial `C`s onto layer 0.
//!
//! With `c = 1` this degenerates to plain SUMMA (tested). The paper
//! argues HSUMMA is preferable because it reduces communication *without*
//! the `c`× memory blowup; `hsumma-model::related` quantifies that
//! trade-off analytically, and this module lets the claim be exercised
//! with real data movement — or replayed on simulated clocks at
//! BlueGene/P scale as `simdrive::Schedule::TwoDotFive`.

use crate::comm::{Communicator, MatLike};
use crate::partition::MatMulDims;
use crate::pivot::{self, Layout, Spec};
use crate::summa::SummaConfig;
use hsumma_matrix::GridShape;
use hsumma_runtime::{BcastAlgorithm, CommError};

/// Parameters of a 2.5D run.
#[derive(Clone, Copy, Debug)]
pub struct TwoDotFiveConfig {
    /// Layer grid side `q` (each layer is `q × q`).
    pub q: usize,
    /// Replication factor `c` (number of layers).
    pub c: usize,
    /// SUMMA configuration used within each layer.
    pub summa: SummaConfig,
}

/// Position of a rank in the `q × q × c` arrangement (layer-major:
/// `rank = layer·q² + i·q + j`).
pub fn coords_3d(rank: usize, q: usize) -> (usize, usize, usize) {
    (rank / (q * q), (rank / q) % q, rank % q)
}

/// Runs the 2.5D multiplication on the calling rank. SPMD over a
/// communicator of `q²·c` ranks. The `a`/`b` tiles (block-checkerboard
/// over the `q × q` grid) are read on **layer 0 only**; other layers may
/// pass zero matrices of the same shape. Returns `Some(local C tile)` on
/// layer 0 and `None` elsewhere.
///
/// # Panics
/// Panics if the communicator size is not `q²·c` or tile shapes are
/// inconsistent.
pub fn twodotfive<C: Communicator>(
    comm: &C,
    n: usize,
    a: &C::Mat,
    b: &C::Mat,
    cfg: &TwoDotFiveConfig,
) -> Result<Option<C::Mat>, CommError> {
    let (q, c) = (cfg.q, cfg.c);
    assert!(q > 0 && c > 0, "arrangement extents must be positive");
    assert_eq!(comm.size(), q * q * c, "communicator must span q*q*c ranks");
    assert_eq!(n % q, 0, "n must be divisible by the layer grid side");
    let ts = n / q;
    assert_eq!((a.rows(), a.cols()), (ts, ts), "A tile has wrong shape");
    assert_eq!((b.rows(), b.cols()), (ts, ts), "B tile has wrong shape");
    let bs = cfg.summa.block;
    assert!(
        bs > 0 && ts.is_multiple_of(bs),
        "block must divide the tile"
    );
    let steps = n / bs;
    assert_eq!(
        steps % c,
        0,
        "the number of SUMMA steps (n/b = {steps}) must be divisible by c = {c}"
    );

    let (layer, _, _) = coords_3d(comm.rank(), q);
    // Layer communicator: all ranks of my layer, row-major rank order.
    let layer_comm = comm.split(|r| {
        let (layer, i, j) = coords_3d(r, q);
        (layer as u64, (i * q + j) as i64)
    });
    // Depth communicator: same (i, j) across layers, ordered by layer.
    let depth_comm = comm.split(|r| {
        let (layer, i, j) = coords_3d(r, q);
        ((c + i * q + j) as u64, layer as i64)
    });

    // --- 1. replicate the operands from layer 0 ------------------------
    let mut a_rep = if layer == 0 {
        a.clone()
    } else {
        C::Mat::zeros(ts, ts)
    };
    let mut b_rep = if layer == 0 {
        b.clone()
    } else {
        C::Mat::zeros(ts, ts)
    };
    depth_comm.bcast_mat(BcastAlgorithm::Binomial, 0, &mut a_rep)?;
    depth_comm.bcast_mat(BcastAlgorithm::Binomial, 0, &mut b_rep)?;

    // --- 2. partial SUMMA: this layer takes steps k ≡ layer (mod c) ----
    // The loop runs on the layer communicator, where the simulator's
    // world-wide step alignment cannot apply: 2.5D is never simulated
    // step-synchronized.
    let spec = Spec::summa(
        GridShape::new(q, q),
        MatMulDims::square(n),
        &cfg.summa,
        Layout::Block,
    );
    let mut partial = pivot::blocking(&layer_comm, &spec, &a_rep, &b_rep, |k| k % c == layer)?;

    // --- 3. reduce the partials onto layer 0 ----------------------------
    depth_comm.reduce_sum_mat(0, &mut partial)?;
    Ok((layer == 0).then_some(partial))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::reference_product;
    use hsumma_matrix::{seeded_uniform, BlockDist, GemmKernel, Matrix};
    use hsumma_runtime::Runtime;

    fn run_25d_case(q: usize, c: usize, n: usize, block: usize) {
        let grid = GridShape::new(q, q);
        let a = seeded_uniform(n, n, 1000);
        let b = seeded_uniform(n, n, 1001);
        let dist = BlockDist::new(grid, n, n);
        let at = dist.scatter(&a);
        let bt = dist.scatter(&b);
        let cfg = TwoDotFiveConfig {
            q,
            c,
            summa: SummaConfig {
                block,
                kernel: GemmKernel::Blocked,
                ..Default::default()
            },
        };
        let out = Runtime::run(q * q * c, |comm| {
            let (layer, i, j) = coords_3d(comm.rank(), q);
            let tile_rank = grid.rank(i, j);
            // Only layer 0 receives real data; other layers see zeros.
            let (a_in, b_in) = if layer == 0 {
                (at[tile_rank].clone(), bt[tile_rank].clone())
            } else {
                let (th, tw) = dist.tile_shape();
                (Matrix::zeros(th, tw), Matrix::zeros(th, tw))
            };
            twodotfive(comm, n, &a_in, &b_in, &cfg).unwrap()
        });
        // Collect layer-0 tiles in grid order.
        let tiles: Vec<Matrix> = (0..q * q)
            .map(|r| out[r].clone().expect("layer 0 must hold the result"))
            .collect();
        for (rank, res) in out.iter().enumerate().skip(q * q) {
            assert!(res.is_none(), "rank {rank} is not on layer 0");
        }
        let got = dist.gather(&tiles);
        let want = reference_product(&a, &b);
        assert!(
            got.approx_eq(&want, 1e-9),
            "q={q} c={c} n={n} block={block}: err {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn twodotfive_c1_degenerates_to_summa() {
        run_25d_case(2, 1, 8, 2);
    }

    #[test]
    fn twodotfive_two_layers() {
        run_25d_case(2, 2, 8, 2);
    }

    #[test]
    fn twodotfive_four_layers() {
        run_25d_case(2, 4, 16, 2);
    }

    #[test]
    fn twodotfive_odd_grid() {
        run_25d_case(3, 2, 12, 2);
    }

    #[test]
    fn twodotfive_block_one() {
        run_25d_case(2, 2, 8, 1);
    }

    #[test]
    #[should_panic(expected = "must be divisible by c")]
    fn twodotfive_rejects_indivisible_steps() {
        // n/b = 3 steps, c = 2: cannot split evenly.
        run_25d_case(1, 2, 3, 1);
    }

    #[test]
    fn coords_roundtrip() {
        let q = 3;
        for rank in 0..q * q * 2 {
            let (l, i, j) = coords_3d(rank, q);
            assert_eq!(rank, l * q * q + i * q + j);
        }
    }
}
