//! Closed-form cost models for SUMMA and HSUMMA (§IV of the paper).
//!
//! Pure math, no dependencies: every formula of the paper's theoretical
//! analysis, in executable form.
//!
//! * [`bcast`] — the general broadcast-cost model of Eq. (1),
//!   `T_bcast(m, p) = L(p)·α + m·W(p)·β`, instantiated for binomial tree,
//!   van de Geijn scatter/allgather, and the other homogeneous algorithms
//!   it generalizes;
//! * [`cost`] — SUMMA and HSUMMA latency/bandwidth/compute breakdowns
//!   (Tables I and II, Eqs. 2–5), for a square `√p × √p` grid;
//! * [`regime`] — the extremum analysis (Eqs. 6–12): `∂T/∂G` vanishes at
//!   `G = √p`, and the sign of `α/β − 2nb/p` decides whether the interior
//!   extremum is the minimum (HSUMMA wins) or the maximum (HSUMMA falls
//!   back to `G ∈ {1, p}`, tying SUMMA);
//! * [`predict`] — parameter sweeps over `G` and platform presets used to
//!   regenerate Fig. 10 (exascale) and validate Figs. 5–9;
//! * [`mod@cosma`] — the COSMA-style brick schedule's critical path and
//!   exact wire volume over `(a, b, c)` decompositions of the
//!   `m × n × k` cube, with a memory-budgeted [`best_brick`] search;
//! * [`plan`] — algorithm selection on top of the cost models: given
//!   `(m, n, k, p, b)` and a platform, pick SUMMA vs HSUMMA-at-best-`G`
//!   vs Cannon vs COSMA by predicted time (the entry point the serving
//!   layer's planner consults);
//! * [`sparse`] — nnz-aware extensions: CSR wire-format byte models,
//!   sampled [`SparsityProfile`]s, SpGEMM/SDDMM cost breakdowns and the
//!   [`advise_sparse`] densify-vs-SpGEMM scoreboard.
//!
//! ## Units
//!
//! The paper quotes `β` as "reciprocal bandwidth" and measures messages in
//! matrix elements. This crate keeps everything explicit: `alpha` in
//! seconds, `beta` in seconds per **byte**, message sizes in elements of
//! [`ELEM_BYTES`] bytes, `gamma` in seconds per fused multiply-add pair.

pub mod bcast;
pub mod cosma;
pub mod cost;
pub mod plan;
pub mod predict;
pub mod regime;
pub mod related;
pub mod sparse;

pub use bcast::BcastModel;
pub use cosma::{
    best_brick, cosma_cost, cosma_footprint_elems, cosma_volume, redistribution_cost, BrickAdvice,
    BrickShape,
};
pub use cost::{
    hsumma_cost, hsumma_gemm_cost, summa_cost, summa_gemm_cost, CostBreakdown, ModelParams,
};
pub use plan::{advise_gemm, advise_ranks, AlgoChoice, PlanAdvice, RankAdvice, ScalePoint};
pub use predict::{sweep_groups, SweepPoint};
pub use regime::{classify_regime, dtheta_dg_vdg, Regime};
pub use sparse::{
    advise_sddmm_ranks, advise_sparse, advise_spgemm_ranks, sddmm_cost, spgemm_cost, spgemm_flops,
    SparseAdvice, SparseChoice, SparsityProfile,
};

/// Bytes per matrix element (`f64`).
pub const ELEM_BYTES: f64 = 8.0;
