//! Algorithm selection from the closed-form models — the planning half
//! of the serving layer's "model-driven planner".
//!
//! The paper's analysis (§IV) already knows, for a given `(n, p, b)` and
//! platform `(α, β, γ)`, what SUMMA costs and what HSUMMA costs at every
//! group count `G`; COSMA and Demmel et al.'s strong-scaling analysis
//! (see PAPERS.md) make the broader point that the *winning algorithm*
//! depends on the problem regime. [`advise_gemm`] turns that into a
//! decision procedure for a general `C(m×n) = A(m×k)·B(k×n)`: evaluate
//! SUMMA, HSUMMA at its best `G` (seeded by the paper's `G = √p`
//! extremum, Eq. 6), Cannon's nearest-neighbor schedule (square shapes
//! only), and the COSMA-style brick schedule at its best power-of-two
//! `(a, b, c)` decomposition, and return the predicted winner with the
//! full scoreboard so callers can log *why* the choice fell where it
//! did.
//!
//! COSMA's candidate is priced *including* the one-time cost of
//! redistributing checkerboard-distributed operands into brick layouts
//! and back ([`crate::cosma::redistribution_cost`]), and Cannon's
//! including its alignment shifts ([`crate::related::cannon_cost`]):
//! the checkerboard entry point pays both. The serving layer deals
//! each plan's tiles in its own layouts and pays neither, so for served
//! jobs both candidates carry a known conservative bias.
//!
//! The advice is intentionally coarse — closed-form, contention-free. The
//! serving planner treats it as the first pass and refines HSUMMA's `G`
//! against the timing simulator (`hsumma-core::tuning`), then caches the
//! final plan per shape class.

use crate::bcast::BcastModel;
use crate::cosma::{cosma_cost, redistribution_cost, BrickAdvice, BrickShape};
use crate::cost::{hsumma_gemm_cost, summa_gemm_cost, CostBreakdown, ModelParams};
use crate::predict::power_of_two_gs;
use crate::related::cannon_cost;

/// The algorithm a plan selects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AlgoChoice {
    /// Plain SUMMA (the `G = 1` degenerate of the hierarchy).
    Summa,
    /// HSUMMA with the predicted-best number of groups.
    Hsumma {
        /// Predicted-optimal group count (a power of two in `[1, p]`).
        g: f64,
    },
    /// Cannon's nearest-neighbor rotation schedule.
    Cannon,
    /// The COSMA-style brick schedule at the given decomposition.
    Cosma {
        /// Predicted-best `(a, b, c)` brick decomposition.
        shape: BrickShape,
    },
}

/// The scoreboard behind a choice: every candidate's predicted cost.
#[derive(Clone, Copy, Debug)]
pub struct PlanAdvice {
    /// The predicted winner (by communication time, the quantity the
    /// paper optimizes — compute is identical across candidates).
    pub choice: AlgoChoice,
    /// The winner's predicted cost.
    pub predicted: CostBreakdown,
    /// SUMMA's predicted cost.
    pub summa: CostBreakdown,
    /// HSUMMA's predicted-best `(G, cost)` over power-of-two group counts.
    pub hsumma: (f64, CostBreakdown),
    /// Cannon's predicted cost — `None` when the problem is not square
    /// or `√p` is not integral (Cannon requires both, §I).
    pub cannon: Option<CostBreakdown>,
    /// COSMA's predicted-best brick configuration. Its cost *includes*
    /// the checkerboard→brick redistribution toll, so it is directly
    /// comparable with the grid algorithms' entries above.
    pub cosma: Option<BrickAdvice>,
    /// The winner's predicted time with the double-buffered pivot
    /// pipeline (the §VI overlap term): `α·log + max(β·bytes, γ·flops)`
    /// instead of the blocking sum. Always ≤ `predicted.total()`; the
    /// gap is [`CostBreakdown::overlap_win`].
    pub predicted_pipelined: f64,
}

impl PlanAdvice {
    /// Fraction of the winner's blocking time the pipeline hides:
    /// `1 − pipelined/total`. Zero when the schedule is pure latency.
    pub fn overlap_win_fraction(&self) -> f64 {
        let total = self.predicted.total();
        if total <= 0.0 {
            0.0
        } else {
            1.0 - self.predicted_pipelined / total
        }
    }
}

/// Powers of two not exceeding `limit` (always contains 1).
pub(crate) fn pow2s_upto(limit: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1usize), |v| v.checked_mul(2)).take_while(move |v| *v <= limit)
}

/// COSMA candidate for the advisory: power-of-two `(a, b, c)` bricks
/// (mirroring the power-of-two `G` sweep) at the caller's panel
/// granularity — `steps = ⌈(k/c)/b_width⌉`, so every candidate streams
/// k-slices of the same width the grid algorithms use. The returned
/// cost includes the checkerboard↔brick redistribution toll.
fn best_pow2_brick(
    params: &ModelParams,
    bcast: BcastModel,
    p: usize,
    m: f64,
    n: f64,
    k: f64,
    width: f64,
) -> Option<BrickAdvice> {
    let toll = redistribution_cost(params, p as f64, m, n, k);
    let mut best: Option<BrickAdvice> = None;
    for a in pow2s_upto(p.min(m.ceil() as usize)).collect::<Vec<_>>() {
        for b in pow2s_upto((p / a).min(n.ceil() as usize)).collect::<Vec<_>>() {
            for c in pow2s_upto((p / (a * b)).min(k.ceil() as usize)) {
                let shape = BrickShape { a, b, c };
                let steps = ((k / c as f64) / width).ceil().max(1.0) as usize;
                let sched = cosma_cost(params, bcast, shape, m, n, k, steps);
                let cost = CostBreakdown {
                    latency: sched.latency + toll.latency,
                    bandwidth: sched.bandwidth + toll.bandwidth,
                    compute: sched.compute,
                };
                if best.is_none_or(|w| cost.total() < w.cost.total()) {
                    best = Some(BrickAdvice { shape, steps, cost });
                }
            }
        }
    }
    best
}

/// Picks the predicted-cheapest algorithm for `C(m×n) = A(m×k)·B(k×n)`
/// on `p` ranks with panel width `b`.
///
/// The 2-D grid candidates (SUMMA, HSUMMA, Cannon) all perform the same
/// `m·n·k/p` multiply-add pairs, so they compete on communication time,
/// exactly as the paper's §IV frames it; HSUMMA candidates are the
/// power-of-two group counts of Fig. 8, evaluated at `b = B`. The COSMA
/// brick candidate may idle ranks (its compute term can exceed
/// `m·n·k/p`), so it competes on *total* predicted time, and carries
/// the checkerboard↔brick redistribution toll — see `best_pow2_brick`.
///
/// # Panics
/// Panics unless `p ≥ 1` and `m, n, k ≥ b ≥ 1` (the cost models'
/// domain).
pub fn advise_gemm(
    params: &ModelParams,
    bcast: BcastModel,
    m: f64,
    n: f64,
    k: f64,
    p: f64,
    b: f64,
) -> PlanAdvice {
    let summa = summa_gemm_cost(params, bcast, m, n, k, p, b);
    let mut best_h = (1.0, summa);
    for g in power_of_two_gs(p) {
        let cost = hsumma_gemm_cost(params, bcast, bcast, m, n, k, p, g, b, b);
        if cost.comm() < best_h.1.comm() {
            best_h = (g, cost);
        }
    }

    let q = p.sqrt();
    let square_p = (q.round() - q).abs() < 1e-9;
    let square_shape = m == n && k == n;
    let cannon = if square_p && square_shape {
        Some(cannon_cost(params, n, p))
    } else {
        None
    };
    let cosma = best_pow2_brick(params, bcast, p.round() as usize, m, n, k, b);

    let mut choice = AlgoChoice::Summa;
    let mut predicted = summa;
    if best_h.1.comm() < predicted.comm() {
        choice = AlgoChoice::Hsumma { g: best_h.0 };
        predicted = best_h.1;
    }
    // Cannon is only credible where its α term dominates: its bandwidth
    // term assumes all 2(√p+1) ring shifts proceed contention-free in
    // lockstep, which no hierarchical network honors (the paper's §I
    // premise). Latency-bound problems are where its √p-message schedule
    // beats log-depth collectives for certain.
    if let Some(c) = cannon {
        if c.latency >= c.bandwidth && c.comm() < predicted.comm() {
            choice = AlgoChoice::Cannon;
            predicted = c;
        }
    }
    // COSMA competes on total time (its brick grid may idle ranks, so
    // its compute term is not the shared m·n·k/p of the 2-D grids).
    // Winning on total with compute ≥ m·n·k/p implies winning on comm
    // too, so the scoreboard stays monotone vs SUMMA.
    if let Some(cb) = cosma {
        if cb.cost.total() < predicted.total() {
            choice = AlgoChoice::Cosma { shape: cb.shape };
            predicted = cb.cost;
        }
    }
    PlanAdvice {
        choice,
        predicted,
        summa,
        hsumma: best_h,
        cannon,
        cosma,
        predicted_pipelined: predicted.pipelined(),
    }
}

/// One point on a strong-scaling curve: predicted best-algorithm total
/// time for the problem at a candidate rank count.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    /// Candidate rank count (a power of two).
    pub ranks: usize,
    /// Predicted total seconds of the scoreboard winner at that count.
    pub total: f64,
}

/// Strong-scaling advice: how many ranks a job is actually worth.
#[derive(Clone, Debug)]
pub struct RankAdvice {
    /// Smallest candidate within `tolerance` of the best predicted
    /// total — the job's "perfect-scaling range" endpoint. Giving the
    /// job more ranks than this buys < `tolerance` speedup.
    pub preferred: usize,
    /// The candidate with the outright best predicted total.
    pub best: usize,
    /// The full curve, ascending in rank count.
    pub curve: Vec<ScalePoint>,
}

/// Sweeps power-of-two rank counts in `[1, p_max]` and reports the
/// smallest count whose predicted total is within `tolerance`
/// (fractional, e.g. `0.10`) of the sweep's best.
///
/// This is the Ballard–Demmel strong-scaling observation turned into a
/// packing policy: past its perfect-scaling range a job's communication
/// terms flatten or grow while compute shrinks sublinearly, so the
/// marginal ranks are better spent running another job concurrently.
/// Each candidate is scored by the full [`advise_gemm`] scoreboard, so
/// the curve accounts for algorithm switches along the way (e.g. the
/// winner flipping from SUMMA to HSUMMA as `p` grows).
///
/// # Panics
/// Panics unless `p_max ≥ 1` and `m, n, k ≥ b ≥ 1` (inherited from
/// [`advise_gemm`]).
#[allow(clippy::too_many_arguments)]
pub fn advise_ranks(
    params: &ModelParams,
    bcast: BcastModel,
    m: f64,
    n: f64,
    k: f64,
    p_max: usize,
    b: f64,
    tolerance: f64,
) -> RankAdvice {
    assert!(p_max >= 1, "advise_ranks needs at least one rank");
    let curve: Vec<ScalePoint> = pow2s_upto(p_max)
        .map(|p| ScalePoint {
            ranks: p,
            total: advise_gemm(params, bcast, m, n, k, p as f64, b)
                .predicted
                .total(),
        })
        .collect();
    rank_advice_from_curve(curve, tolerance)
}

/// The advice tail shared with the sparse sweeps: the smallest rank
/// count within `tolerance` of the curve's best predicted total.
pub(crate) fn rank_advice_from_curve(curve: Vec<ScalePoint>, tolerance: f64) -> RankAdvice {
    let best = curve
        .iter()
        .min_by(|a, b| a.total.total_cmp(&b.total))
        .expect("curve has at least one point");
    let cutoff = best.total * (1.0 + tolerance);
    let preferred = curve
        .iter()
        .find(|pt| pt.total <= cutoff)
        .expect("best point itself is within tolerance")
        .ranks;
    let best = best.ranks;
    RankAdvice {
        preferred,
        best,
        curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`advise_gemm`] for a square `n × n × n` multiply.
    fn square_advice(
        params: &ModelParams,
        bcast: BcastModel,
        n: f64,
        p: f64,
        b: f64,
    ) -> PlanAdvice {
        advise_gemm(params, bcast, n, n, n, p, b)
    }

    #[test]
    fn exascale_regime_prefers_hierarchical_grouping() {
        // Fig. 10's regime: the interior G minimum is real, so on the
        // 2-D scoreboard HSUMMA's best grouping is the √p-adjacent one
        // and it beats SUMMA. The overall winner is the brick schedule
        // — COSMA's near-optimal decomposition out-communicates every
        // 2-D grid here even after the redistribution toll.
        let params = ModelParams::exascale();
        let p = (1u64 << 20) as f64;
        let advice = square_advice(
            &params,
            BcastModel::VanDeGeijn,
            (1u64 << 22) as f64,
            p,
            256.0,
        );
        let (g, hsumma) = advice.hsumma;
        assert_eq!(g, 1024.0, "√p extremum");
        assert!(hsumma.comm() < advice.summa.comm());
        match advice.choice {
            AlgoChoice::Cosma { shape } => {
                assert!(shape.c > 1, "exascale bandwidth regime replicates");
            }
            other => panic!("expected COSMA to displace the 2-D grids, got {other:?}"),
        }
        assert!(advice.predicted.comm() < hsumma.comm());
    }

    #[test]
    fn tiny_latency_bound_problems_prefer_cannon() {
        // Small p, small n, huge α: log-depth collectives cost more than
        // √p nearest-neighbor hops.
        let params = ModelParams {
            alpha: 1e-2,
            beta: 1e-12,
            gamma: 0.0,
        };
        let advice = square_advice(&params, BcastModel::Binomial, 256.0, 16.0, 16.0);
        assert_eq!(advice.choice, AlgoChoice::Cannon);
        let cannon = advice.cannon.expect("square grid");
        assert!(cannon.comm() < advice.summa.comm());
    }

    #[test]
    fn non_square_p_never_advises_cannon() {
        let params = ModelParams::grid5000();
        let advice = square_advice(&params, BcastModel::Binomial, 1024.0, 8.0, 32.0);
        assert!(advice.cannon.is_none());
        assert_ne!(advice.choice, AlgoChoice::Cannon);
    }

    #[test]
    fn advice_always_at_least_ties_summa() {
        // G = 1 is in every sweep, so the winner can never lose to SUMMA.
        for (n, p, b) in [(1024.0, 64.0, 32.0), (8192.0, 128.0, 64.0)] {
            let advice = square_advice(&ModelParams::grid5000(), BcastModel::Binomial, n, p, b);
            assert!(advice.predicted.comm() <= advice.summa.comm() + 1e-15);
        }
    }

    #[test]
    fn scoreboard_is_consistent_with_choice() {
        let params = ModelParams::bluegene_p();
        let advice = square_advice(&params, BcastModel::VanDeGeijn, 65536.0, 16384.0, 256.0);
        // The 2-D winner is the min over the *eligible* candidates:
        // Cannon only competes when its own cost is latency-bound.
        let best_2d = [
            Some(advice.summa.comm()),
            Some(advice.hsumma.1.comm()),
            advice
                .cannon
                .filter(|c| c.latency >= c.bandwidth)
                .map(|c| c.comm()),
        ]
        .into_iter()
        .flatten()
        .fold(f64::INFINITY, f64::min);
        // COSMA displaces them by *total* time; the scoreboard entry
        // must be what the choice points at, and must genuinely win.
        match advice.choice {
            AlgoChoice::Cosma { shape } => {
                let cb = advice.cosma.expect("choice must appear on the scoreboard");
                assert_eq!(shape, cb.shape);
                assert_eq!(advice.predicted.comm(), cb.cost.comm());
                let summa_total = advice.summa.total();
                assert!(cb.cost.total() < summa_total);
                assert!(cb.cost.total() < advice.hsumma.1.total());
            }
            _ => assert!((advice.predicted.comm() - best_2d).abs() <= 1e-12 * best_2d),
        }
    }

    #[test]
    fn overlap_term_is_the_pipelined_cost_of_the_winner() {
        let params = ModelParams::bluegene_p();
        let advice = square_advice(&params, BcastModel::VanDeGeijn, 65536.0, 16384.0, 256.0);
        assert_eq!(advice.predicted_pipelined, advice.predicted.pipelined());
        assert!(advice.predicted_pipelined <= advice.predicted.total());
        let f = advice.overlap_win_fraction();
        assert!((0.0..1.0).contains(&f), "hid {f} of the blocking time");
    }

    #[test]
    fn cannon_candidate_uses_related_work_model() {
        let params = ModelParams::grid5000();
        let advice = square_advice(&params, BcastModel::Binomial, 1024.0, 16.0, 32.0);
        let expected = cannon_cost(&params, 1024.0, 16.0);
        let got = advice.cannon.expect("square grid");
        assert_eq!(got.comm(), expected.comm());
    }

    #[test]
    fn rank_advice_caps_small_jobs_below_the_pool() {
        let params = ModelParams::grid5000();
        // A small job: past its scaling range, extra ranks only add
        // communication. A job 64× bigger in every dimension keeps
        // scaling further.
        let small = advise_ranks(
            &params,
            BcastModel::Binomial,
            128.0,
            128.0,
            128.0,
            64,
            8.0,
            0.1,
        );
        let big = advise_ranks(
            &params,
            BcastModel::Binomial,
            8192.0,
            8192.0,
            8192.0,
            64,
            8.0,
            0.1,
        );
        assert!(small.preferred <= small.best);
        assert!(small.preferred.is_power_of_two());
        assert_eq!(small.curve.len(), 7, "1..=64 powers of two");
        assert!(
            small.preferred < 64,
            "a 128³ job should not be worth the whole 64-rank pool \
             (preferred {})",
            small.preferred
        );
        assert!(
            big.preferred >= small.preferred,
            "bigger problems scale at least as far ({} vs {})",
            big.preferred,
            small.preferred
        );
    }
}
