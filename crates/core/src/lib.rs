//! SUMMA, Hierarchical SUMMA (HSUMMA) and the classic baselines — the
//! paper's algorithms, both *executable* (real data over the threaded
//! message-passing runtime) and *simulated* (timed schedule replay at
//! BlueGene/P scale).
//!
//! Reproduction of Quintin, Hasanov & Lastovetsky, *"Hierarchical
//! Parallel Matrix Multiplication on Large-Scale Distributed Memory
//! Platforms"* (ICPP 2013).
//!
//! * [`grid`] — the two-level group hierarchy over a 2-D processor grid;
//! * `pivot` (private) — the pivot engine: one set-up function and two
//!   loops (blocking, two-slot pipelined) over general `(M, L, N)`
//!   extents that every entry point below instantiates;
//! * [`mod@summa`] — SUMMA (van de Geijn & Watts), the paper's baseline:
//!   the engine over one group;
//! * [`mod@hsumma`] — HSUMMA per Algorithm 1, the paper's contribution:
//!   the engine over `I × J` groups;
//! * [`cyclic`] — SUMMA over a block-cyclic distribution (future work of
//!   §VI): the engine with rotating pivot owners;
//! * [`overlap`] — pipelined SUMMA/HSUMMA hiding panel transfers behind
//!   the local multiply (§VI's overlap remark): the engine's second loop;
//! * [`mod@twodotfive`] — the 2.5D algorithm of §I, executable, for the
//!   memory-vs-communication trade-off comparison: the engine on a
//!   subset of pivot steps per layer;
//! * [`mod@cannon`], [`mod@fox`] — the historical square-grid baselines of §I;
//! * [`simdrive`] — every schedule as a [`Schedule`] value, simulated on
//!   `hsumma-netsim` clocks (Figs. 5–9);
//! * [`tuning`] — optimal group count selection by sampling (§VI);
//! * [`multilevel`] — ≥ 2 hierarchy levels (the paper's future work);
//! * [`plan`] — executable algorithm plans ([`PlannedAlgo`]), each naming
//!   its operand [`Layouts`], and the generic dispatchers
//!   [`run_planned_gemm`] (checkerboard in and out) and
//!   [`run_in_layouts`] (the plan's own layouts, which the serving layer
//!   deals);
//! * [`lu`] — distributed block LU with optional hierarchical panel
//!   broadcasts, and [`mod@tsqr`] — communication-avoiding tall-skinny QR
//!   (the §VI plan to carry the approach to LU/QR);
//! * [`distribution`] — grid-free ownership descriptors ([`Distribution`],
//!   [`BrickDecomp`]) with exact-cover validation, host-side
//!   scatter/gather, and SPMD [`redistribute`];
//! * [`mod@cosma`] — the COSMA-style near-communication-optimal schedule
//!   over `(a, b, c)` brick decompositions of the `m × n × k` cube;
//! * [`testutil`] — scatter/run/gather drivers shared by tests, examples
//!   and benchmarks.

pub mod cannon;
pub mod comm;
pub mod cosma;
pub mod cyclic;
pub mod distribution;
pub mod fox;
pub mod grid;
pub mod hsumma;
pub mod lu;
pub mod multilevel;
pub mod overlap;
pub mod partition;
mod pivot;
pub mod plan;
pub mod simdrive;
pub mod summa;
pub mod testutil;
pub mod tsqr;
pub mod tuning;
pub mod twodotfive;

pub use cannon::{aligned_layouts, cannon};
pub use comm::{Communicator, MatLike, PanelBcast, PhantomMat};
pub use cosma::{cosma, reduce_scatter_gather, CosmaConfig};
pub use cyclic::summa_cyclic;
pub use distribution::{redistribute, BrickDecomp, Distribution};
pub use fox::fox;
pub use grid::{grid_lines, HierGrid};
pub use hsumma::{hsumma, HsummaConfig};
pub use lu::{block_lu, LuConfig};
pub use multilevel::hier_bcast;
pub use overlap::{hsumma_overlap, summa_overlap};
pub use partition::{ceil_div, chunk_range, pivot_steps, tile_of, MatMulDims, Panel};
pub use plan::{run_in_layouts, run_planned_gemm, Layouts, PlannedAlgo};
pub use simdrive::{
    record_cosma, record_hsumma, replay_on, sim_hsumma_engine, sim_summa_engine, simulate,
    simulate_on, Schedule, SimEngine,
};
pub use summa::{summa, SummaConfig};
pub use tsqr::tsqr;
pub use tuning::tuned_hsumma;
pub use twodotfive::{twodotfive, TwoDotFiveConfig};
