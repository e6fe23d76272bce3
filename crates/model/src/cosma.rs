//! Closed-form cost model for the COSMA-style brick schedule
//! (`hsumma-core::cosma`), after Kwasniewski et al.,
//! *"Red-Blue Pebbling Revisited: Near Optimal Parallel Matrix-Matrix
//! Multiplication"* (SC'19, arXiv:1908.09606).
//!
//! The schedule decomposes the `m × n × k` iteration cube into
//! `a × b × c` bricks, one per active rank. Per DFS step it broadcasts
//! an A k-slice over each `b`-rank j-fiber and a B k-slice over each
//! `a`-rank i-fiber, multiplies locally, and — when `c > 1` — combines
//! the layered partial C bricks with a ring reduce-scatter followed by a
//! gather onto the fiber root. The model here prices exactly that
//! schedule's critical path and its total wire volume, continuously in
//! `(m, n, k)` like the rest of this crate.
//!
//! Two entry points matter to callers:
//!
//! * [`cosma_volume`] — *exact* total wire bytes for any broadcast whose
//!   relays forward the full payload (binomial, binary, flat, ring,
//!   pipelined — everything but scatter/allgather). The per-fiber sums
//!   telescope, so the answer is independent of the step count and of
//!   how unevenly the bricks divide: `(b−1)·mk + (a−1)·kn` elements for
//!   the operand broadcasts, plus `(c−1)·mn` for the reduce-scatter and
//!   `(c−1)/c·mn` for the gather when `c > 1`. The simulator's measured
//!   byte counter must match this to within chunking round-off — the
//!   model-vs-sim acceptance check of the `figures cosma` table.
//! * [`best_brick`] — grid search over `(a, b, c)` and the power-of-two
//!   step counts, minimizing the critical-path total under an optional
//!   per-rank memory budget (elements). The budget bends the shape
//!   toward the cube-balanced decomposition and forces more, smaller
//!   DFS steps (replication itself is memory-lean — a deeper `c`
//!   partitions `k`, shrinking each rank's resident A/B bricks).

use crate::bcast::BcastModel;
use crate::cost::{CostBreakdown, ModelParams};
use crate::ELEM_BYTES;

/// An `(a, b, c)` brick decomposition of the `m × n × k` cube — the
/// model-side mirror of `hsumma-core`'s `BrickDecomp` (this crate stays
/// dependency-free, so it carries its own copy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrickShape {
    /// Bricks along the `m` dimension.
    pub a: usize,
    /// Bricks along the `n` dimension.
    pub b: usize,
    /// Replication layers along the `k` dimension.
    pub c: usize,
}

impl BrickShape {
    /// Active ranks: `a·b·c` (ranks beyond this idle).
    pub fn ranks(&self) -> usize {
        self.a * self.b * self.c
    }
}

/// The winning brick configuration and its predicted cost.
#[derive(Clone, Copy, Debug)]
pub struct BrickAdvice {
    /// The `(a, b, c)` decomposition.
    pub shape: BrickShape,
    /// DFS step count (k-slices per layer).
    pub steps: usize,
    /// Critical-path cost breakdown.
    pub cost: CostBreakdown,
}

/// Exact total wire bytes of the cosma schedule across all ranks, for
/// any full-payload-relay broadcast (see module docs). Counts the A and
/// B fiber broadcasts, and — when `c > 1` — the ring reduce-scatter
/// plus the gather of reduced C fragments onto each fiber root.
pub fn cosma_volume(shape: BrickShape, m: f64, n: f64, k: f64) -> f64 {
    let (a, b, c) = (shape.a as f64, shape.b as f64, shape.c as f64);
    let bcast = (b - 1.0) * m * k + (a - 1.0) * k * n;
    let combine = if shape.c > 1 {
        (c - 1.0) * m * n + (c - 1.0) / c * m * n
    } else {
        0.0
    };
    (bcast + combine) * ELEM_BYTES
}

/// Per-rank working-set bound for the schedule, in elements: resident
/// A and B bricks (`m/a·k/c + k/c·n/b` — the fiber roots hold both),
/// the partial and gathered C bricks (`2·m/a·n/b`), and the two
/// broadcast panels of one DFS step (`(m/a + n/b)·k/(c·steps)`).
pub fn cosma_footprint_elems(shape: BrickShape, m: f64, n: f64, k: f64, steps: usize) -> f64 {
    let ma = m / shape.a as f64;
    let nb = n / shape.b as f64;
    let kc = k / shape.c as f64;
    let kw = kc / steps as f64;
    ma * kc + kc * nb + 2.0 * ma * nb + (ma + nb) * kw
}

/// Critical-path cost of the cosma schedule for one brick shape and
/// step count: per step, an A broadcast over the `b`-rank j-fiber and a
/// B broadcast over the `a`-rank i-fiber (Eq. 1 multipliers); after all
/// steps, when `c > 1`, a `c−1`-step ring reduce-scatter plus a serial
/// gather of `c−1` fragments at the fiber root, each moving
/// `(c−1)/c · m/a·n/b` elements along the critical path.
///
/// At `a = b = √p`, `c = 1`, `steps = k/width` this reduces exactly to
/// [`crate::summa_cost`]'s communication term — SUMMA is the degenerate
/// unreplicated brick schedule (checked in the tests).
///
/// # Panics
/// Panics unless the shape extents and `steps` are positive.
pub fn cosma_cost(
    params: &ModelParams,
    bcast: BcastModel,
    shape: BrickShape,
    m: f64,
    n: f64,
    k: f64,
    steps: usize,
) -> CostBreakdown {
    assert!(
        shape.a >= 1 && shape.b >= 1 && shape.c >= 1 && steps >= 1,
        "brick extents and steps must be positive"
    );
    let (fa, fb, fc) = (shape.a as f64, shape.b as f64, shape.c as f64);
    let (ma, nb, kc) = (m / fa, n / fb, k / fc);
    let s = steps as f64;

    let mut latency = s * (bcast.latency(fb) + bcast.latency(fa)) * params.alpha;
    let mut bandwidth =
        (bcast.bandwidth(fb) * ma * kc + bcast.bandwidth(fa) * kc * nb) * ELEM_BYTES * params.beta;
    if shape.c > 1 {
        // Ring reduce-scatter (c−1 rounds) + serial gather at the root
        // (c−1 receives), each direction moving (c−1)/c of the brick.
        latency += 2.0 * (fc - 1.0) * params.alpha;
        bandwidth += 2.0 * (fc - 1.0) / fc * ma * nb * ELEM_BYTES * params.beta;
    }
    CostBreakdown {
        latency,
        bandwidth,
        compute: params.gamma * ma * nb * kc,
    }
}

/// One-time cost of redistributing checkerboard-distributed operands
/// into brick layouts and the product back (`core::distribution::
/// redistribute`): every rank streams roughly its `1/p` share of all
/// three operands out and the brick share back in, as concurrent
/// point-to-point messages. Charged to cosma by [`crate::advise_gemm`]
/// because the serving layer's input contract is the checkerboard.
pub fn redistribution_cost(params: &ModelParams, p: f64, m: f64, n: f64, k: f64) -> CostBreakdown {
    CostBreakdown {
        // Three redistributions, each about one exchange wave deep.
        latency: 3.0 * p.log2().max(1.0) * params.alpha,
        bandwidth: 2.0 * (m * k + k * n + m * n) / p * ELEM_BYTES * params.beta,
        compute: 0.0,
    }
}

/// Grid search over brick shapes `(a, b, c)` with `a·b·c ≤ p` and
/// power-of-two step counts, minimizing [`cosma_cost`]'s total under an
/// optional per-rank memory budget (elements, [`cosma_footprint_elems`]).
/// Returns `None` only when no candidate fits the budget.
pub fn best_brick(
    params: &ModelParams,
    bcast: BcastModel,
    p: usize,
    m: f64,
    n: f64,
    k: f64,
    mem_elems: Option<f64>,
) -> Option<BrickAdvice> {
    assert!(p >= 1 && m >= 1.0 && n >= 1.0 && k >= 1.0, "invalid domain");
    let mut best: Option<BrickAdvice> = None;
    // Don't cut bricks finer than unit extents: surplus ranks idle.
    let a_max = p.min(m.ceil() as usize);
    for a in 1..=a_max {
        let b_max = (p / a).min(n.ceil() as usize);
        for b in 1..=b_max {
            let c_max = (p / (a * b)).min(k.ceil() as usize);
            for c in 1..=c_max {
                let shape = BrickShape { a, b, c };
                let kc = (k / c as f64).ceil().max(1.0) as usize;
                let mut steps = 1usize;
                loop {
                    let fits = mem_elems
                        .is_none_or(|lim| cosma_footprint_elems(shape, m, n, k, steps) <= lim);
                    if fits {
                        let cost = cosma_cost(params, bcast, shape, m, n, k, steps);
                        if best.is_none_or(|w| cost.total() < w.cost.total()) {
                            best = Some(BrickAdvice { shape, steps, cost });
                        }
                        break;
                    }
                    if steps >= kc {
                        break; // even unit k-slices blow the budget
                    }
                    steps = (steps * 2).min(kc);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::summa_cost;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12)
    }

    #[test]
    fn square_unreplicated_brick_cost_reduces_to_summa() {
        // a = b = √p, c = 1, steps = n/width: SUMMA is the degenerate
        // brick schedule, so the comm terms must agree exactly.
        let params = ModelParams::bluegene_p();
        let (n, p, width) = (65536.0, 16384.0f64, 256.0);
        let q = p.sqrt() as usize;
        for bcast in [BcastModel::Binomial, BcastModel::VanDeGeijn] {
            let s = summa_cost(&params, bcast, n, p, width);
            let shape = BrickShape { a: q, b: q, c: 1 };
            let c = cosma_cost(&params, bcast, shape, n, n, n, (n / width) as usize);
            assert!(close(s.latency, c.latency), "{bcast:?}");
            assert!(close(s.bandwidth, c.bandwidth), "{bcast:?}");
            assert!(close(s.compute, c.compute), "{bcast:?}");
        }
    }

    #[test]
    fn volume_counts_tree_broadcast_copies_and_combine() {
        let shape = BrickShape { a: 2, b: 4, c: 3 };
        let (m, n, k) = (16.0, 8.0, 12.0);
        let want = ((4.0 - 1.0) * m * k
            + (2.0 - 1.0) * k * n
            + (3.0 - 1.0) * m * n
            + (3.0 - 1.0) / 3.0 * m * n)
            * ELEM_BYTES;
        assert!(close(cosma_volume(shape, m, n, k), want));
        // c = 1: no combine traffic at all.
        let flat = BrickShape { a: 2, b: 4, c: 1 };
        assert!(close(
            cosma_volume(flat, m, n, k),
            (3.0 * m * k + k * n) * ELEM_BYTES
        ));
    }

    #[test]
    fn tall_skinny_search_stretches_a_along_m() {
        // m ≫ n = k: splitting n or k wastes ranks; the cube is a rod
        // along m and the search must slice it that way.
        let params = ModelParams::bluegene_p();
        let got = best_brick(
            &params,
            BcastModel::Binomial,
            64,
            (1u64 << 20) as f64,
            256.0,
            256.0,
            None,
        )
        .expect("unconstrained search always succeeds");
        assert!(
            got.shape.a > got.shape.b && got.shape.a > got.shape.c,
            "expected m-major bricks, got {:?}",
            got.shape
        );
    }

    #[test]
    fn memory_budget_constrains_but_never_improves_the_search() {
        // Bandwidth-bound square problem: unlimited memory buys deep
        // k-replication; a tight per-rank budget steers the search to a
        // different shape/step count that honors the bound — and a
        // constrained optimum can never beat the unconstrained one.
        let params = ModelParams::bluegene_p();
        let (p, n) = (4096usize, 8192.0);
        let rich = best_brick(&params, BcastModel::Binomial, p, n, n, n, None).unwrap();
        assert!(
            rich.shape.c > 1,
            "unlimited memory should replicate: {rich:?}"
        );
        let budget = 1.2e6; // elements: just above the leanest footprint
        let poor = best_brick(&params, BcastModel::Binomial, p, n, n, n, Some(budget))
            .expect("the budget admits near-cubic bricks with more steps");
        assert!(
            cosma_footprint_elems(poor.shape, n, n, n, poor.steps) <= budget,
            "winner must honor the budget: {poor:?}"
        );
        assert!(
            poor.cost.total() >= rich.cost.total(),
            "a constraint can never improve the optimum"
        );
    }

    #[test]
    fn footprint_shrinks_with_more_steps() {
        let shape = BrickShape { a: 8, b: 8, c: 2 };
        let f1 = cosma_footprint_elems(shape, 1024.0, 1024.0, 1024.0, 1);
        let f8 = cosma_footprint_elems(shape, 1024.0, 1024.0, 1024.0, 8);
        assert!(f8 < f1);
    }

    #[test]
    fn search_never_uses_more_ranks_than_given() {
        let params = ModelParams::grid5000();
        for p in [7usize, 12, 64] {
            let got =
                best_brick(&params, BcastModel::Binomial, p, 512.0, 512.0, 512.0, None).unwrap();
            assert!(got.shape.ranks() <= p, "p={p}: {:?}", got.shape);
        }
    }

    #[test]
    fn impossible_budget_returns_none() {
        let params = ModelParams::grid5000();
        assert!(best_brick(
            &params,
            BcastModel::Binomial,
            4,
            64.0,
            64.0,
            64.0,
            Some(1.0)
        )
        .is_none());
    }

    #[test]
    fn redistribution_scales_with_per_rank_share() {
        let params = ModelParams::bluegene_p();
        let r1 = redistribution_cost(&params, 1024.0, 4096.0, 4096.0, 4096.0);
        let r2 = redistribution_cost(&params, 4096.0, 4096.0, 4096.0, 4096.0);
        assert!(r2.bandwidth < r1.bandwidth, "more ranks, smaller shares");
        assert_eq!(r1.compute, 0.0);
    }
}
