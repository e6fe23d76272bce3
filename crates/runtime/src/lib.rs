//! A threaded message-passing runtime — the MPI substitute.
//!
//! The paper's algorithms are expressed against MPI: ranks, communicators
//! created with `MPI_Comm_split`, point-to-point messages and rooted
//! collectives (`MPI_Bcast`). No mature MPI binding is available in this
//! environment, so this crate reimplements that programming model on OS
//! threads within one process:
//!
//! * [`Runtime::run`] spawns one thread per rank and hands each a
//!   [`Comm`] spanning all ranks (the "world" communicator);
//! * [`Comm::send`] / [`Comm::recv`] are typed, tagged, buffered
//!   point-to-point operations with MPI-style `(source, tag)` matching.
//!   Every payload implements [`WirePayload`], whose `payload_bytes` is
//!   the one rule for the `m` the byte ledgers and traces record;
//! * each rank owns one [`message::Mailbox`]: a queue behind one mutex
//!   that senders append to and its owner matches under the same lock,
//!   oldest match first. A receiver about to park posts the key it waits
//!   for, and only a matching message, a dying peer's poison marker or a
//!   cancellation wakes it;
//! * [`Comm::split`] partitions a communicator by `(color, key)` exactly
//!   like `MPI_Comm_split`, but from a rank → `(color, key)` function
//!   every member shares, so it sends nothing — HSUMMA's four
//!   communicators (row, column, group-row, group-column; Algorithm 1 of
//!   the paper) are built this way;
//! * [`collectives`] provides `barrier`, `bcast` (with selectable
//!   algorithms: flat, binomial, binary, ring, pipelined, and van de
//!   Geijn's scatter/allgather), `reduce` and `allreduce`, all
//!   implemented message-by-message over point-to-point — so the
//!   runtime's communication behaviour is fully observable;
//! * every operation accumulates wall-clock time into per-rank
//!   [`stats::CommStats`], which is how the experiments separate
//!   *communication* from *computation* time, mirroring the paper's
//!   measurements;
//! * [`RankPool`] is the long-lived variant of [`Runtime::run`]: the `p`
//!   rank threads are created once and execute a sequence of SPMD jobs,
//!   each demarcated by an epoch (per-job stats, per-job tracing, stale
//!   messages purged at the boundary) — the substrate of the serving
//!   layer (`hsumma-serve`);
//! * failures surface as [`RuntimeError`] through [`Runtime::try_run`]
//!   and the pool API, so a server can fail one job without aborting the
//!   process;
//! * communication is **fallible end-to-end**: every send, receive and
//!   collective returns `Result<_, CommError>`. A job can carry a
//!   wall-clock deadline and a cancellation flag ([`runtime::JobOptions`],
//!   [`message::JobCtl`]) observed by every blocking wait — no busy
//!   spinning — and a deterministic fault plan
//!   ([`hsumma_trace::FaultPlan`]) can drop, delay, duplicate or kill at
//!   the send path, for testing how the schedules degrade.

pub mod collectives;
pub mod comm;
pub mod error;
pub mod message;
pub mod pool;
pub mod runtime;
pub mod stats;

pub use comm::Comm;
pub use error::RuntimeError;
pub use message::{CancelToken, JobCtl};
pub use pool::{PoolExec, PoolRun, RankPool, SubPool};
pub use runtime::{JobOptions, Runtime};
pub use stats::CommStats;

// The broadcast algorithms and the fault vocabulary live in
// `hsumma-trace` (shared with the simulator); re-export them so runtime
// users need one import path.
pub use hsumma_trace::{
    BcastAlgorithm, CommEdge, CommError, CommErrorKind, FaultAction, FaultPlan, FaultRule,
    KillRule, TagClass, WirePayload,
};
