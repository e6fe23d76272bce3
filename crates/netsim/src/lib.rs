//! Discrete-event network simulator under the Hockney model.
//!
//! The paper's evaluation ran on platforms we cannot access (a 16-rack
//! BlueGene/P and the Grid5000 Graphene cluster). Its *analysis*, however,
//! is entirely in terms of the Hockney point-to-point model
//! `T(m) = α + m·β` (§IV). This crate turns that model into an executable
//! substrate:
//!
//! * [`model::Hockney`] / [`model::Platform`] — latency/bandwidth/compute
//!   parameters, with presets for the paper's three platforms (Grid5000,
//!   BlueGene/P, the exascale roadmap of §V-C);
//! * [`sim::SimNet`] — per-rank virtual clocks advanced message-by-message
//!   (eager sends: a sender is busy for `α + m·β`, the receiver waits for
//!   arrival), with communication and computation time accounted
//!   separately per rank;
//! * [`spmd`] — SPMD execution over the simulated network: one thread per
//!   rank, each holding a [`spmd::SimComm`] with the same communicator
//!   algebra as the real runtime's `Comm` (rank/size/split, tagged
//!   point-to-point, barriers), but carrying phantom payloads (sizes
//!   only) and advancing virtual clocks. This is what lets the *same*
//!   generic algorithm code run on both substrates — there is no longer a
//!   separate hand-written replay of each schedule;
//! * [`topology`] — an optional 3-D torus latency refinement (per-hop
//!   latency), the mechanism behind the "zigzags" the paper observes on
//!   BlueGene/P when a group layout maps badly onto the torus.
//!
//! The broadcast-algorithm selector ([`SimBcast`]) is the shared
//! [`hsumma_trace::BcastAlgorithm`]: one enum for both substrates, so the
//! runtime and the simulator cannot drift apart. The schedules themselves
//! live once, generically, in `hsumma-core`.
//!
//! Simulated clocks are `f64` seconds; the simulation is deterministic —
//! including under [`NoiseModel`] jitter, whose draws are keyed by
//! `(sender, message index)` rather than a global sequence.

pub mod model;
pub mod record;
pub mod replay;
pub mod sim;
pub mod spmd;
pub mod topology;

/// The shared broadcast-algorithm selector, re-exported under the name
/// the simulator APIs have always used.
pub use hsumma_trace::BcastAlgorithm as SimBcast;
pub use model::{Hockney, Platform};
pub use record::{record, RecordComm, RecordedProgram};
pub use replay::{EventLoopSim, ReplayOutcome};
pub use sim::{NoiseModel, SimNet, SimReport};
pub use spmd::{SimComm, SimOutcome, SimRunOptions, SimWorld};
pub use topology::{Topology, Torus3D};
