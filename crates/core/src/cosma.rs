//! A COSMA-style near-communication-optimal schedule over brick
//! decompositions of the `m × n × k` iteration cube.
//!
//! COSMA (Kwasniewski et al., *Red-Blue Pebbling Revisited*, SC'19,
//! arXiv:1908.09606) derives a parallel schedule from the sequential
//! I/O lower bound: instead of projecting the computation onto a 2-D
//! process grid, it cuts the iteration cube itself into `a × b × c`
//! near-cubic bricks ([`BrickDecomp`]), one per rank. Rank `(i, j, l)`
//! computes the partial product of `A`'s `(i, l)` brick and `B`'s
//! `(l, j)` brick; partial `C(i, j)` bricks are then reduced over the
//! `c` replication layers. The payoff over SUMMA/HSUMMA is twofold:
//! a handful of large transfers instead of `n/b` pivot-step broadcasts
//! (latency), and — when memory allows `c > 1` — strictly less traffic
//! per rank (bandwidth), exactly as in the 2.5D schedule but without
//! requiring `p = q²·c` or any divisibility at all. An awkward `p`
//! (prime-ish, say) simply idles `p − a·b·c` ranks.
//!
//! The schedule here is written once over the [`Communicator`] trait:
//!
//! 1. three sub-communicator splits carve the BFS fibers of the cube —
//!    the `j`-fiber that replicates `A[i, l]`, the `i`-fiber that
//!    replicates `B[l, j]`, and the `l`-fiber that reduces `C(i, j)`;
//! 2. operand bricks are broadcast along their fibers in
//!    [`CosmaConfig::steps`] `k`-slices (more steps = smaller in-flight
//!    panels = lower peak memory, at more latency — the DFS knob);
//! 3. every rank runs one local GEMM per slice;
//! 4. partial `C` bricks are combined by a ring **reduce-scatter**
//!    followed by a gather onto the `l = 0` layer, under dedicated tags
//!    in the collective band so `TagClass::Collective` fault rules and
//!    deadlines reach the fragments on both substrates.
//!
//! Input/output layouts are the [`BrickDecomp::a_distribution`] /
//! `b_distribution` / `c_distribution` descriptors; callers holding
//! block-checkerboard tiles can convert with
//! [`crate::distribution::redistribute`] (the planner's dispatch path in
//! [`crate::plan`] does exactly that).

use crate::comm::{Communicator, MatLike};
use crate::distribution::BrickDecomp;
use crate::grid::color3;
use crate::partition::chunk_range;
use hsumma_matrix::GemmKernel;
use hsumma_runtime::{BcastAlgorithm, CommError};

/// Tag base for reduce-scatter fragments of the partial-`C` reduction:
/// in the collective band (≥ `COLLECTIVE_TAG_FLOOR`), clear of the
/// simulator's internal collective tags and of the ibcast band.
pub const COSMA_TAG_RS: u64 = (1 << 62) + (1 << 50);

/// Tag base for the post-reduce-scatter gather of owned fragments onto
/// the `l = 0` layer (offset by the fragment index).
pub const COSMA_TAG_GATHER: u64 = (1 << 62) + (1 << 50) + (1 << 20);

/// Parameters of a COSMA run.
#[derive(Clone, Copy, Debug)]
pub struct CosmaConfig {
    /// The `(a, b, c)` brick decomposition of the iteration cube.
    pub decomp: BrickDecomp,
    /// Number of `k`-slices each brick's replication is pipelined over
    /// (≥ 1). Total traffic is unchanged; peak in-flight panel memory
    /// shrinks by the same factor the latency term grows.
    pub steps: usize,
    /// Broadcast algorithm for the brick replication fibers.
    pub bcast: BcastAlgorithm,
    /// Local multiply kernel.
    pub kernel: GemmKernel,
}

impl CosmaConfig {
    /// A default configuration for multiplying `m × k` by `k × n` over
    /// `p` ranks: searched brick decomposition, single-slice
    /// replication, binomial broadcasts.
    pub fn for_problem(p: usize, m: usize, n: usize, k: usize) -> Self {
        Self::with_decomp(BrickDecomp::search(p, m, n, k))
    }

    /// The [`CosmaConfig::for_problem`] defaults around an
    /// already-searched decomposition — the entry point for callers that
    /// memoize [`BrickDecomp::search`] (the expensive part) across jobs
    /// of the same exact shape.
    pub fn with_decomp(decomp: BrickDecomp) -> Self {
        CosmaConfig {
            decomp,
            steps: 1,
            bcast: BcastAlgorithm::Binomial,
            kernel: GemmKernel::Packed,
        }
    }
}

/// Runs COSMA on the calling rank. SPMD: every rank of `comm` must call
/// this. Active ranks (`rank < decomp.ranks()`) pass their owned bricks
/// of `A` and `B` per [`BrickDecomp::a_distribution`] /
/// [`BrickDecomp::b_distribution`] — non-owners and idle ranks pass
/// `0 × 0` matrices. Returns `Some(C brick)` on the `l = 0` layer
/// (the owners in [`BrickDecomp::c_distribution`]) and `None`
/// everywhere else.
///
/// Generic over the [`Communicator`] substrate; the schedule (splits,
/// fiber broadcasts, reduce-scatter ring, gather) depends only on
/// `(m, n, k)` and the configuration, so real and simulated runs move
/// identical per-rank `(src, dst, bytes)` multisets.
///
/// # Panics
/// Panics if the decomposition needs more ranks than `comm` has, if
/// `steps == 0`, or if a local operand does not match its owned brick.
pub fn cosma<C: Communicator>(
    comm: &C,
    m: usize,
    n: usize,
    k: usize,
    a: &C::Mat,
    b: &C::Mat,
    cfg: &CosmaConfig,
) -> Result<Option<C::Mat>, CommError> {
    let d = cfg.decomp;
    assert!(
        d.ranks() <= comm.size(),
        "decomposition {d:?} needs {} ranks, communicator has {}",
        d.ranks(),
        comm.size()
    );
    assert!(cfg.steps > 0, "steps must be positive");
    let me = comm.rank();

    if me >= d.ranks() {
        // Idle remainder: splits are collective over the parent
        // communicator, so idle ranks must participate — each lands in
        // its own singleton group and then does nothing.
        for _ in 0..3 {
            let _ = comm.split(color3(3, 0, me), 0)?;
        }
        assert_eq!(a.elems(), 0, "idle ranks pass an empty A");
        assert_eq!(b.elems(), 0, "idle ranks pass an empty B");
        return Ok(None);
    }

    let (i, j, l) = d.coords(me);
    let (m0, m1) = d.m_range(i, m);
    let (n0, n1) = d.n_range(j, n);
    let (k0, k1) = d.k_range(l, k);
    let (mi, nj, kl) = (m1 - m0, n1 - n0, k1 - k0);
    if j == 0 {
        assert_eq!((a.rows(), a.cols()), (mi, kl), "A brick has wrong shape");
    } else {
        assert_eq!(a.elems(), 0, "only the j = 0 fiber root holds A");
    }
    if i == 0 {
        assert_eq!((b.rows(), b.cols()), (kl, nj), "B brick has wrong shape");
    } else {
        assert_eq!(b.elems(), 0, "only the i = 0 fiber root holds B");
    }

    // BFS fibers of the cube, as sub-communicator splits. Keys order
    // each fiber by its free coordinate, so fiber rank 0 is the brick
    // owner (`j = 0`, `i = 0`) or the reduction root (`l = 0`).
    let j_comm = comm.split(color3(0, i, l), j as i64)?;
    let i_comm = comm.split(color3(1, j, l), i as i64)?;
    let l_comm = comm.split(color3(2, i, j), l as i64)?;

    let mut c_part = C::Mat::zeros(mi, nj);
    for s in 0..cfg.steps {
        let (s0, s1) = chunk_range(kl, cfg.steps, s);
        let kw = s1 - s0;
        comm.trace_step(s, kw, kw, || -> Result<(), CommError> {
            let mut a_panel = if j == 0 {
                a.block(0, s0, mi, kw)
            } else {
                C::Mat::zeros(mi, kw)
            };
            j_comm.bcast_mat(cfg.bcast, 0, &mut a_panel)?;

            let mut b_panel = if i == 0 {
                b.block(s0, 0, kw, nj)
            } else {
                C::Mat::zeros(kw, nj)
            };
            i_comm.bcast_mat(cfg.bcast, 0, &mut b_panel)?;

            let pairs = mi * nj * kw;
            comm.compute(pairs as f64, 2 * pairs as u64, || {
                C::Mat::gemm(cfg.kernel, &a_panel, &b_panel, &mut c_part)
            });
            Ok(())
        })?;
    }

    reduce_scatter_gather(&l_comm, &mut c_part)?;
    Ok((l == 0).then_some(c_part))
}

/// Combines identically shaped partial matrices over `comm` onto rank 0:
/// a ring reduce-scatter over row fragments (each of the `N` ranks ends
/// owning one fully reduced fragment) followed by a gather of owned
/// fragments to the root. `2·(N−1)` fragment-sized transfers per rank's
/// critical path instead of the binomial reduce's `log₂N` full-matrix
/// hops — the classic large-message reduction.
///
/// Fragments are dealt with [`chunk_range`]; when `N` exceeds the row
/// count the surplus fragments are empty and their messages are skipped
/// (identically on both substrates, since the fragment table is a pure
/// function of shape).
pub fn reduce_scatter_gather<C: Communicator>(comm: &C, mat: &mut C::Mat) -> Result<(), CommError> {
    let p = comm.size();
    if p <= 1 {
        return Ok(());
    }
    let r = comm.rank();
    let (rows, cols) = (mat.rows(), mat.cols());
    let next = (r + 1) % p;
    let prev = (r + p - 1) % p;

    // Reduce-scatter ring: at step t, send fragment (r − t), receive and
    // accumulate fragment (r − t − 1). After p − 1 steps rank r owns the
    // fully reduced fragment (r + 1) mod p.
    for t in 0..p - 1 {
        let s_idx = (r + p - t) % p;
        let (ss, se) = chunk_range(rows, p, s_idx);
        if se > ss {
            comm.send_mat(
                next,
                COSMA_TAG_RS + t as u64,
                mat.block(ss, 0, se - ss, cols),
            )?;
        }
        let r_idx = (r + 2 * p - t - 1) % p;
        let (rs, re) = chunk_range(rows, p, r_idx);
        if re > rs {
            let got = comm.recv_mat(prev, COSMA_TAG_RS + t as u64, re - rs, cols)?;
            let mut acc = mat.block(rs, 0, re - rs, cols);
            acc.add_assign(&got);
            mat.set_block(rs, 0, &acc);
        }
    }

    let owned = (r + 1) % p;
    if r == 0 {
        for src in 1..p {
            let idx = (src + 1) % p;
            let (fs, fe) = chunk_range(rows, p, idx);
            if fe > fs {
                let got = comm.recv_mat(src, COSMA_TAG_GATHER + idx as u64, fe - fs, cols)?;
                mat.set_block(fs, 0, &got);
            }
        }
    } else {
        let (fs, fe) = chunk_range(rows, p, owned);
        if fe > fs {
            comm.send_mat(
                0,
                COSMA_TAG_GATHER + owned as u64,
                mat.block(fs, 0, fe - fs, cols),
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::reference_product;
    use hsumma_matrix::{seeded_uniform, Matrix};
    use hsumma_runtime::Runtime;

    /// Scatter per the brick distributions, run cosma on the threaded
    /// runtime, gather the l = 0 bricks, compare against the serial
    /// reference.
    fn run_cosma_case(p: usize, m: usize, n: usize, k: usize, cfg: CosmaConfig) {
        let a = seeded_uniform(m, k, 7);
        let b = seeded_uniform(k, n, 13);
        let da = cfg.decomp.a_distribution(m, k, p);
        let db = cfg.decomp.b_distribution(k, n, p);
        let dc = cfg.decomp.c_distribution(m, n, p);
        let a_tiles = std::sync::Arc::new(da.scatter(&a));
        let b_tiles = std::sync::Arc::new(db.scatter(&b));
        let outs = Runtime::run(p, {
            let (a_tiles, b_tiles) = (a_tiles.clone(), b_tiles.clone());
            move |comm| {
                let at = a_tiles[comm.rank()].clone();
                let bt = b_tiles[comm.rank()].clone();
                cosma(comm, m, n, k, &at, &bt, &cfg).unwrap()
            }
        });
        let tiles: Vec<Matrix> = outs
            .into_iter()
            .enumerate()
            .map(|(r, o)| o.unwrap_or_else(|| dc.local_zeros(r)))
            .collect();
        let got = dc.gather(&tiles);
        let want = reference_product(&a, &b);
        assert!(
            got.approx_eq(&want, 1e-9),
            "p={p} m={m} n={n} k={k} cfg={cfg:?}: max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn cosma_square_matches_serial() {
        run_cosma_case(
            8,
            8,
            8,
            8,
            CosmaConfig {
                decomp: BrickDecomp::new(2, 2, 2),
                ..CosmaConfig::for_problem(8, 8, 8, 8)
            },
        );
    }

    #[test]
    fn cosma_rectangular_uneven_matches_serial() {
        // Nothing divides anything: 7 x 5 x 9 cube over (2, 2, 2).
        run_cosma_case(
            8,
            7,
            5,
            9,
            CosmaConfig {
                decomp: BrickDecomp::new(2, 2, 2),
                ..CosmaConfig::for_problem(8, 7, 5, 9)
            },
        );
    }

    #[test]
    fn cosma_idles_surplus_ranks() {
        // p = 5 prime: a 2x2x1 decomposition idles the fifth rank.
        run_cosma_case(
            5,
            12,
            10,
            6,
            CosmaConfig {
                decomp: BrickDecomp::new(2, 2, 1),
                ..CosmaConfig::for_problem(5, 12, 10, 6)
            },
        );
    }

    #[test]
    fn cosma_multi_step_replication_matches_serial() {
        run_cosma_case(
            12,
            12,
            8,
            10,
            CosmaConfig {
                decomp: BrickDecomp::new(2, 2, 3),
                steps: 3,
                ..CosmaConfig::for_problem(12, 12, 8, 10)
            },
        );
    }

    #[test]
    fn cosma_searched_decomposition_tall_skinny() {
        let cfg = CosmaConfig::for_problem(6, 48, 4, 4);
        run_cosma_case(6, 48, 4, 4, cfg);
    }

    #[test]
    fn reduce_scatter_gather_reduces_to_root() {
        let outs = Runtime::run(4, |comm| {
            let mut m = Matrix::from_fn(6, 3, |i, j| (comm.rank() + 1) as f64 * (i * 3 + j) as f64);
            reduce_scatter_gather(comm, &mut m).unwrap();
            m
        });
        // Sum over ranks of (r+1)·base = 10·base.
        let want = Matrix::from_fn(6, 3, |i, j| 10.0 * (i * 3 + j) as f64);
        assert!(outs[0].approx_eq(&want, 1e-12));
    }

    #[test]
    fn reduce_scatter_gather_handles_more_ranks_than_rows() {
        let outs = Runtime::run(5, |comm| {
            let mut m = Matrix::from_fn(3, 2, |i, j| (comm.rank() as f64) + (i + j) as f64);
            reduce_scatter_gather(comm, &mut m).unwrap();
            m
        });
        let want = Matrix::from_fn(3, 2, |i, j| 10.0 + 5.0 * (i + j) as f64);
        assert!(outs[0].approx_eq(&want, 1e-12));
    }
}
