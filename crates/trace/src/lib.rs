//! Unified per-rank event tracing for the HSUMMA reproduction.
//!
//! The paper's argument is entirely about *where time goes*: the
//! comm/compute split of Figs. 5–9 and the message-level broadcast
//! schedules of §II. This crate gives both execution substrates — the
//! threaded runtime (`hsumma-runtime`, wall clocks) and the discrete-event
//! simulator (`hsumma-netsim`, virtual clocks) — one structured event
//! model, so a real run and a simulated run of the same algorithm produce
//! structurally comparable traces.
//!
//! The pieces:
//!
//! * [`TraceEvent`] / [`EventKind`] — the event model: p2p sends and
//!   receives (src/dst/tag/bytes), collective spans (operation, algorithm,
//!   root), pivot-step spans (`k`, outer block `B`, inner block `b`) and
//!   local compute spans with flop counts.
//! * [`Tracer`] / [`TraceSink`] — a zero-cost-when-off handle. Each rank
//!   records into its own lock-free bounded ring buffer; a disabled tracer
//!   is a `None` and every record call is a single branch.
//! * [`Trace`] — the collected events, with analyses on top:
//!   [`Trace::to_chrome_json`] (Chrome-trace/Perfetto export, one track
//!   per rank, nested spans, flow arrows for messages),
//!   [`Trace::critical_path`] (longest chain through the send→recv
//!   dependency graph with per-edge α/β attribution) and
//!   [`Trace::step_breakdown`] (per-pivot-step comm/compute table).

mod algo;
mod breakdown;
mod chrome;
mod critical;
mod event;
pub mod fault;
mod payload;
mod ring;
mod split;
mod tracer;

pub use algo::{
    allgather_rounds, auto_bcast, bcast_edges, bcast_range, bcast_segments, chunk_range,
    reduce_edges, BcastAlgorithm,
};
pub use breakdown::{render_breakdown, StepRow};
pub use chrome::validate_json;
pub use critical::{CriticalPath, MessageEdge, PathCost};
pub use event::{EventKind, TraceEvent};
pub use fault::{
    primary_comm_error, CommEdge, CommError, CommErrorKind, FaultAction, FaultDecision, FaultPlan,
    FaultRule, FaultState, KillRule, TagClass, COLLECTIVE_TAG_FLOOR,
};
pub use payload::WirePayload;
pub use split::split_order;
pub use tracer::{Trace, TraceSink, Tracer};
