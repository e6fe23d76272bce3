//! Cost models of the related algorithms the paper positions against
//! (§I): Cannon's algorithm, the 3-D algorithm, and the 2.5D algorithm.
//!
//! These are *context*, not reproductions of those papers: the closed
//! forms below are the standard ones (Agarwal et al. 1995 for 3D;
//! Solomonik & Demmel 2011 for 2.5D) in the same `(α, β, γ)` vocabulary
//! as [`crate::cost`], so a single table can show where HSUMMA sits —
//! including the *memory* axis on which the paper argues 3D/2.5D are
//! impractical at exascale ("dramatically shrinking memory space per
//! core", §I).

use crate::cost::{CostBreakdown, ModelParams};
use crate::ELEM_BYTES;

/// Predicted cost of Cannon's algorithm on a `√p × √p` grid over
/// checkerboard tiles of `n²/p` elements: on each rank's path, one
/// alignment shift per operand and two shifts for each of the `q − 1`
/// rotations between the `q` multiplies — `2q` shifts for `q ≥ 2`, none
/// at `q = 1`.
///
/// This prices the checkerboard schedule even where a caller deals the
/// tiles aligned (the serving layer), which skips the two alignment
/// shifts: a known conservative bias of `2(α + β·8n²/p)`.
pub fn cannon_cost(params: &ModelParams, n: f64, p: f64) -> CostBreakdown {
    let q = p.sqrt();
    let tile_bytes = n * n / p * ELEM_BYTES;
    let shifts = if q >= 2.0 { 2.0 * q } else { 0.0 };
    CostBreakdown {
        latency: shifts * params.alpha,
        bandwidth: shifts * tile_bytes * params.beta,
        compute: params.gamma * n * n * n / p,
    }
}

/// World-wide tile moves of checkerboard Cannon on a `q × q` grid, in
/// tiles of `(n/q)²` elements: the alignment (`q(q−1)` per operand) plus
/// `2q²` for each of the `q − 1` rotations — `2q(q−1)(q+1)`.
pub fn cannon_tile_moves(q: u64) -> u64 {
    2 * q * (q - 1) * (q + 1)
}

/// World-wide tile moves of Cannon over tiles dealt in its aligned
/// layouts: the `q − 1` rotations alone, `2q²(q−1)`.
pub fn cannon_aligned_tile_moves(q: u64) -> u64 {
    2 * q * q * (q - 1)
}

/// World-wide tile moves of Fox on a `q × q` grid with binomial (or any
/// tree) row broadcasts: each of `q` rounds reaches the `q − 1` other
/// ranks of each of `q` rows, and `q − 1` rolls move `q²` tiles each —
/// `2q²(q−1)`.
pub fn fox_tile_moves(q: u64) -> u64 {
    2 * q * q * (q - 1)
}

/// Predicted cost of the 3-D algorithm on a `p^⅓ × p^⅓ × p^⅓` mesh
/// (Agarwal et al.): each processor exchanges `O(n²/p^⅔)` words in
/// `O(log p)` rounds; communication volume is a factor `p^⅙` below the
/// 2-D algorithms.
pub fn threed_cost(params: &ModelParams, n: f64, p: f64) -> CostBreakdown {
    let words = 3.0 * n * n / p.powf(2.0 / 3.0); // gather A, B; reduce C
    CostBreakdown {
        latency: 3.0 * p.log2() * params.alpha,
        bandwidth: words * ELEM_BYTES * params.beta,
        compute: params.gamma * n * n * n / p,
    }
}

/// Per-processor matrix storage of the 3-D algorithm relative to the 2-D
/// algorithms: `p^⅓` replicas (§I: "on one million cores the 3D
/// algorithm will require 100 extra copies").
pub fn threed_memory_blowup(p: f64) -> f64 {
    p.powf(1.0 / 3.0)
}

/// Predicted cost of the 2.5D algorithm with replication factor
/// `c ∈ [1, p^⅓]` on a `√(p/c) × √(p/c) × c` arrangement (Solomonik &
/// Demmel): bandwidth `O(n²/√(cp))`, latency `O(√(p/c³) + log c)`.
pub fn twodotfive_cost(params: &ModelParams, n: f64, p: f64, c: f64) -> CostBreakdown {
    assert!(
        c >= 1.0 && c <= p.powf(1.0 / 3.0) + 1e-9,
        "c must lie in [1, p^1/3]"
    );
    let bandwidth_words = 2.0 * n * n / (c * p).sqrt();
    let latency_msgs = (p / (c * c * c)).sqrt() + c.log2().max(0.0);
    CostBreakdown {
        latency: latency_msgs * params.alpha,
        bandwidth: bandwidth_words * ELEM_BYTES * params.beta,
        compute: params.gamma * n * n * n / p,
    }
}

/// Per-processor matrix storage of the 2.5D algorithm relative to 2-D:
/// `c` replicas of each operand.
pub fn twodotfive_memory_blowup(c: f64) -> f64 {
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast::BcastModel;
    use crate::cost::summa_cost;

    #[test]
    fn cannon_moves_less_than_summa_per_paper_history() {
        // Cannon's shift-based schedule is bandwidth-optimal among 2-D
        // algorithms: its bandwidth term is below binomial-tree SUMMA's.
        let params = ModelParams::bluegene_p();
        let (n, p) = (65536.0, 16384.0);
        let cannon = cannon_cost(&params, n, p);
        let summa = summa_cost(&params, BcastModel::Binomial, n, p, 256.0);
        assert!(cannon.bandwidth < summa.bandwidth);
    }

    #[test]
    fn cannon_prices_two_shifts_per_rank_and_round_but_none_on_one_rank() {
        let params = ModelParams::bluegene_p();
        let n = 1024.0;
        let tile = n * n / 16.0 * ELEM_BYTES;
        let c = cannon_cost(&params, n, 16.0);
        assert!((c.latency - 8.0 * params.alpha).abs() < 1e-15);
        assert!((c.bandwidth - 8.0 * tile * params.beta).abs() < 1e-12);
        assert_eq!(cannon_cost(&params, n, 1.0).comm(), 0.0);
    }

    #[test]
    fn threed_beats_2d_bandwidth_by_sixth_root_factor() {
        let params = ModelParams::exascale();
        let (n, p) = ((1u64 << 22) as f64, (1u64 << 20) as f64);
        let c2d = cannon_cost(&params, n, p);
        let c3d = threed_cost(&params, n, p);
        // Factor p^(1/6) ≈ 10 at p = 2^20 (§I), modulo constants.
        let ratio = c2d.bandwidth / c3d.bandwidth;
        assert!(ratio > 3.0 && ratio < 30.0, "ratio {ratio}");
    }

    #[test]
    fn threed_memory_blowup_is_100x_at_a_million_cores() {
        // §I: "on one million cores the 3D algorithm will require 100
        // extra copies of the matrices".
        let blowup = threed_memory_blowup(1e6);
        assert!((blowup - 100.0).abs() < 1.0, "got {blowup}");
    }

    #[test]
    fn twodotfive_interpolates_between_2d_and_3d() {
        let params = ModelParams::exascale();
        let (n, p) = ((1u64 << 22) as f64, (1u64 << 20) as f64);
        let at_c1 = twodotfive_cost(&params, n, p, 1.0);
        let c3 = p.powf(1.0 / 3.0);
        let at_cmax = twodotfive_cost(&params, n, p, c3);
        let c3d = threed_cost(&params, n, p);
        // c = 1 is the 2-D extreme; c = p^(1/3) approaches the 3-D cost.
        assert!(at_c1.bandwidth > at_cmax.bandwidth);
        let ratio = at_cmax.bandwidth / c3d.bandwidth;
        assert!(ratio > 0.2 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn twodotfive_memory_grows_linearly_in_c() {
        assert_eq!(twodotfive_memory_blowup(4.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "c must lie")]
    fn twodotfive_rejects_oversized_replication() {
        let params = ModelParams::exascale();
        let _ = twodotfive_cost(&params, 1e6, 64.0, 16.0);
    }

    #[test]
    fn hsumma_needs_no_extra_memory_unlike_25d() {
        // The paper's §I argument: HSUMMA's win costs no extra replicas.
        // (HSUMMA memory factor is 1 by construction — the distribution
        // is unchanged; here we just pin the related-work factors.)
        assert!(twodotfive_memory_blowup(4.0) > 1.0);
        assert!(threed_memory_blowup(1e6) > 1.0);
    }
}
