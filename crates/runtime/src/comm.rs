//! Communicators: rank groups with isolated communication contexts.
//!
//! A [`Comm`] is the handle a rank thread uses for all communication. Like
//! an MPI communicator it has a *group* (an ordered list of member world
//! ranks), a *local rank* for the calling thread, and a *context* that
//! isolates its traffic from every other communicator's. [`Comm::split`]
//! reproduces `MPI_Comm_split(color, key)` semantics and is how the
//! distributed algorithms build row, column and group communicators.

use crate::collectives::{bcast_tree, BcastAlgorithm};
use crate::message::{Context, Envelope, JobCtl, Mailbox, MailboxSender, RecvFault, Tag};
use crate::stats::CommStats;
use hsumma_trace::{
    CommEdge, CommError, EventKind, FaultDecision, FaultState, TraceSink, WirePayload,
};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Tags with this bit set are reserved for runtime-internal protocols
/// (split, collectives). User code must keep tags below this value.
pub const INTERNAL_TAG_BASE: Tag = 1 << 63;

const TAG_SPLIT_GATHER: Tag = INTERNAL_TAG_BASE;
const TAG_SPLIT_BCAST: Tag = INTERNAL_TAG_BASE + 1;
/// Tag carried by the extra envelope of a `Duplicate` fault. Nothing ever
/// posts a receive for it, so the duplicate is pure stray traffic absorbed
/// by the epoch purge — mirroring the simulator, where the duplicate sits
/// in a reserved mail slot until the run ends.
const TAG_FAULT_DUP: Tag = INTERNAL_TAG_BASE + 63;

/// Whether a message tag participates in fault injection and kill-rule
/// send counting. The split and barrier bookkeeping protocols are
/// excluded: the simulator implements split/barrier by rendezvous without
/// sending messages, so counting them here would desynchronise the two
/// substrates' fault-replay cursors.
fn fault_eligible(tag: Tag) -> bool {
    tag != TAG_SPLIT_GATHER && tag != TAG_SPLIT_BCAST && tag != crate::collectives::TAG_BARRIER
}

/// State shared by every communicator a single rank thread holds: the
/// routes to all peers, this rank's mailbox, and its timing counters.
pub(crate) struct RankShared {
    pub senders: Arc<Vec<MailboxSender>>,
    pub mailbox: RefCell<Mailbox>,
    pub stats: RefCell<CommStats>,
    pub world_rank: usize,
    /// Job epoch stamped on every outgoing envelope. 0 for one-shot
    /// [`crate::Runtime`] worlds; the pooled runtime advances it per job
    /// so stragglers of finished jobs can never match a later one.
    pub epoch: u64,
    /// Event recorder for this rank; a disabled sink (the default) is a
    /// `None` and every trace call below collapses to one branch.
    pub sink: TraceSink,
    /// The job's wait bounds: optional deadline plus shared cancellation
    /// flag, consulted by every blocking operation.
    pub ctl: JobCtl,
    /// Fault-injection replay cursor for this rank, when the job runs
    /// under a `FaultPlan`. Consulted at the send path.
    pub faults: Option<RefCell<FaultState>>,
}

/// A runtime bookkeeping message — the split protocol's key and table.
/// Like an MPI implementation's internal handshakes it stays out of the
/// byte ledgers: it counts as a message but moves 0 payload bytes.
#[derive(Clone)]
struct Control<T>(T);

impl<T> WirePayload for Control<T> {
    fn payload_bytes(&self) -> u64 {
        0
    }
}

/// A communicator: an ordered group of ranks plus an isolated context.
///
/// `Comm` is intentionally *not* `Send`: it lives on the rank thread that
/// created it, like an MPI communicator belongs to its process.
#[derive(Clone)]
pub struct Comm {
    shared: Rc<RankShared>,
    ctx: Context,
    /// Member world ranks, indexed by communicator-local rank.
    members: Rc<Vec<usize>>,
    /// This thread's local rank within `members`.
    my_rank: usize,
    /// Counts `split`/`dup` calls so every derived context is fresh.
    /// All members advance it in lockstep, keeping contexts consistent.
    derive_epoch: Rc<Cell<u64>>,
}

impl Comm {
    /// Builds the world communicator for one rank thread (one job of a
    /// pooled rank thread, or the one-shot runtime at epoch 0). The world
    /// context is derived from `epoch`, so even the ctx-0-level traffic
    /// of two jobs can never cross-match; the mailbox must already be
    /// advanced to the same epoch (see `Mailbox::begin_epoch`). Carries
    /// the job's wait bounds and an optional fault-injection cursor.
    pub(crate) fn world_opts(
        senders: Arc<Vec<MailboxSender>>,
        mailbox: Mailbox,
        world_rank: usize,
        sink: TraceSink,
        epoch: u64,
        ctl: JobCtl,
        faults: Option<FaultState>,
    ) -> Self {
        let size = senders.len();
        Comm::group_opts(
            senders,
            mailbox,
            world_rank,
            (0..size).collect(),
            sink,
            epoch,
            ctl,
            faults,
        )
    }

    /// Builds a communicator over a *subset* of the world's ranks — the
    /// non-collective analogue of [`Comm::split`], used by the rank
    /// pool's carved sub-pools where the member table is known up front
    /// (so no gather/broadcast round is needed, and disjoint sub-pools
    /// can enter their jobs at independent times). `members` are world
    /// ranks ordered by local rank; the calling thread's world rank must
    /// be among them. Traffic is isolated from concurrent sub-pool jobs
    /// twice over: by the epoch stamped on every envelope (sub-pools
    /// draw epochs from one shared counter, so no two in-flight jobs
    /// share one) and by the epoch-derived context.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn group_opts(
        senders: Arc<Vec<MailboxSender>>,
        mailbox: Mailbox,
        world_rank: usize,
        members: Vec<usize>,
        sink: TraceSink,
        epoch: u64,
        ctl: JobCtl,
        faults: Option<FaultState>,
    ) -> Self {
        debug_assert_eq!(mailbox.epoch(), epoch, "mailbox not at the job epoch");
        let my_rank = members
            .iter()
            .position(|&w| w == world_rank)
            .expect("calling rank must be a member of its own group");
        Comm {
            shared: Rc::new(RankShared {
                senders,
                mailbox: RefCell::new(mailbox),
                stats: RefCell::new(CommStats::default()),
                world_rank,
                epoch,
                sink,
                ctl,
                faults: faults.map(RefCell::new),
            }),
            ctx: if epoch == 0 {
                0
            } else {
                derive_context(epoch, 0, 0)
            },
            members: Rc::new(members),
            my_rank,
            derive_epoch: Rc::new(Cell::new(0)),
        }
    }

    /// Tears a job's world communicator back down into its persistent
    /// parts — the mailbox (kept by the pool worker for the next job) and
    /// the job's accumulated statistics. Returns `None` if communicator
    /// clones outlive the job (they would keep the shared state alive, so
    /// the mailbox cannot be recovered).
    ///
    /// The rank's trace sink is dropped here, releasing its ring for the
    /// next traced job.
    pub(crate) fn into_parts(self) -> Option<(Mailbox, CommStats)> {
        let Comm { shared, .. } = self;
        match Rc::try_unwrap(shared) {
            Ok(s) => Some((s.mailbox.into_inner(), s.stats.into_inner())),
            Err(_) => None,
        }
    }

    /// This rank's position within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This thread's rank in the world communicator.
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.shared.world_rank
    }

    /// World rank of communicator-local rank `r`.
    #[inline]
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.members[r]
    }

    /// The communicator's context id (diagnostic).
    pub fn context(&self) -> Context {
        self.ctx
    }

    /// The `(rank, peer, ctx, tag, epoch)` edge a failing operation on
    /// this communicator reports; `peer_world` is a *world* rank.
    fn edge(&self, peer_world: usize, tag: Tag) -> CommEdge {
        CommEdge {
            rank: self.shared.world_rank,
            peer: peer_world,
            ctx: self.ctx,
            tag,
            epoch: self.shared.epoch,
        }
    }

    /// Sends `value` to local rank `dst` with `tag`. Buffered: returns
    /// immediately (eager protocol), so exchanges can't deadlock. The
    /// byte ledgers and the trace account the payload's own
    /// [`WirePayload::payload_bytes`]. Fails only when the job is
    /// already cancelled, past its deadline, or this rank is killed by
    /// the job's fault plan.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or `tag` uses the reserved high bit.
    pub fn send<T: Any + Send + WirePayload>(
        &self,
        dst: usize,
        tag: Tag,
        value: T,
    ) -> Result<(), CommError> {
        assert!(tag < INTERNAL_TAG_BASE, "tag uses reserved high bit");
        self.send_internal(dst, tag, value)
    }

    /// Receives a `T` from local rank `src` with `tag`, blocking until
    /// the message arrives, the job deadline passes, the job is
    /// cancelled, or the peer dies. Bytes are taken from the *received*
    /// value, so nnz-dependent sizes are accounted exactly.
    pub fn recv<T: Any + Send + WirePayload>(&self, src: usize, tag: Tag) -> Result<T, CommError> {
        assert!(tag < INTERNAL_TAG_BASE, "tag uses reserved high bit");
        self.recv_internal(src, tag)
    }

    /// Non-blocking receive: `Ok(Some(value))` if a matching message has
    /// already arrived, `Ok(None)` otherwise (poll again later). Lets
    /// callers overlap local work with pending transfers, and is the
    /// completion probe behind nonblocking collectives: it never parks
    /// the rank and charges bytes only when a message is consumed.
    /// Surfaces a peer's death as an error like the blocking form does.
    pub fn try_recv<T: Any + Send + WirePayload>(
        &self,
        src: usize,
        tag: Tag,
    ) -> Result<Option<T>, CommError> {
        assert!(tag < INTERNAL_TAG_BASE, "tag uses reserved high bit");
        let t0 = Instant::now();
        let tr0 = self.shared.sink.now();
        let src_world = self.members[src];
        let value = self
            .shared
            .mailbox
            .borrow_mut()
            .try_recv::<T>(self.ctx, src_world, tag)
            .map_err(|f| self.map_recv_fault(f, src_world, tag, "try_recv"))?;
        match &value {
            Some(v) => self.account_recv(src_world, tag, v.payload_bytes(), t0, tr0),
            None => self.shared.stats.borrow_mut().comm_seconds += t0.elapsed().as_secs_f64(),
        }
        Ok(value)
    }

    /// The one send body: bounded-job checks, fault injection, delivery
    /// and accounting, for user and internal tags alike.
    pub(crate) fn send_internal<T: Any + Send + WirePayload>(
        &self,
        dst: usize,
        tag: Tag,
        value: T,
    ) -> Result<(), CommError> {
        let t0 = Instant::now();
        let tr0 = self.shared.sink.now();
        let dst_world = self.members[dst];
        // Bounded-job checks: a cancelled or expired job must stop
        // feeding its peers. (`t0` doubles as "now" — the clock was read
        // for the stats anyway, so the clean path pays no extra syscall.)
        if self.shared.ctl.is_cancelled() {
            self.shared.stats.borrow_mut().cancelled += 1;
            return Err(CommError::Cancelled {
                edge: self.edge(dst_world, tag),
                op: "send",
            });
        }
        if self.shared.ctl.deadline().is_some_and(|d| t0 >= d) {
            self.shared.stats.borrow_mut().timeouts += 1;
            return Err(CommError::Timeout {
                edge: self.edge(dst_world, tag),
                op: "send",
            });
        }
        // Fault injection: consult the plan's replay cursor for every
        // eligible send (split/barrier bookkeeping excluded — see
        // `fault_eligible`).
        let mut not_before = None;
        let mut duplicate = false;
        if fault_eligible(tag) {
            if let Some(f) = &self.shared.faults {
                let mut f = f.borrow_mut();
                let before = f.injected();
                let decision = f.on_send(dst_world, tag);
                let injected_now = f.injected() - before;
                drop(f);
                self.shared.stats.borrow_mut().faults_injected += injected_now;
                match decision {
                    FaultDecision::Deliver => {}
                    FaultDecision::Drop => {
                        // The message vanishes at the send path: no
                        // delivery, no msgs_sent — the world's send/recv
                        // ledgers stay balanced.
                        self.shared.stats.borrow_mut().comm_seconds += t0.elapsed().as_secs_f64();
                        return Ok(());
                    }
                    FaultDecision::DeliverDelayed(s) => {
                        not_before = Some(t0 + std::time::Duration::from_secs_f64(s));
                    }
                    FaultDecision::DeliverTwice => duplicate = true,
                    FaultDecision::Kill => {
                        return Err(CommError::Shutdown {
                            rank: self.shared.world_rank,
                            detail: "killed by fault plan at send".to_string(),
                        });
                    }
                }
            }
        }
        let bytes = value.payload_bytes();
        if duplicate {
            // The duplicate travels on a reserved tag nothing matches, so
            // it is stray wire traffic (absorbed by the epoch purge), not
            // a second deliverable copy — mirroring the simulator.
            self.shared.senders[dst_world].deliver(Envelope {
                ctx: self.ctx,
                src: self.shared.world_rank,
                tag: TAG_FAULT_DUP,
                epoch: self.shared.epoch,
                not_before: None,
                payload: Box::new(()),
            });
        }
        self.shared.senders[dst_world].deliver(Envelope {
            ctx: self.ctx,
            src: self.shared.world_rank,
            tag,
            epoch: self.shared.epoch,
            not_before,
            payload: Box::new(value),
        });
        {
            let mut stats = self.shared.stats.borrow_mut();
            stats.msgs_sent += 1;
            stats.bytes_sent += bytes;
            stats.comm_seconds += t0.elapsed().as_secs_f64();
        }
        if self.shared.sink.enabled() {
            self.shared.sink.record(
                EventKind::Send {
                    dst: dst_world,
                    tag,
                    channel: self.ctx,
                    bytes,
                },
                tr0,
                self.shared.sink.now(),
            );
        }
        Ok(())
    }

    /// The one blocking receive body, for user and internal tags alike.
    pub(crate) fn recv_internal<T: Any + Send + WirePayload>(
        &self,
        src: usize,
        tag: Tag,
    ) -> Result<T, CommError> {
        let t0 = Instant::now();
        let tr0 = self.shared.sink.now();
        let src_world = self.members[src];
        let value =
            self.shared
                .mailbox
                .borrow_mut()
                .recv::<T>(self.ctx, src_world, tag, &self.shared.ctl);
        match value {
            Ok(v) => {
                self.account_recv(src_world, tag, v.payload_bytes(), t0, tr0);
                Ok(v)
            }
            Err(fault) => {
                self.shared.stats.borrow_mut().comm_seconds += t0.elapsed().as_secs_f64();
                Err(self.map_recv_fault(fault, src_world, tag, "recv"))
            }
        }
    }

    /// Books one consumed message of `bytes` from `src_world`: the
    /// receive ledgers, the wait time since `t0`, and the trace event.
    fn account_recv(&self, src_world: usize, tag: Tag, bytes: u64, t0: Instant, tr0: f64) {
        {
            let mut stats = self.shared.stats.borrow_mut();
            stats.msgs_recv += 1;
            stats.bytes_recv += bytes;
            stats.comm_seconds += t0.elapsed().as_secs_f64();
        }
        if self.shared.sink.enabled() {
            self.shared.sink.record(
                EventKind::Recv {
                    src: src_world,
                    tag,
                    channel: self.ctx,
                    bytes,
                },
                tr0,
                self.shared.sink.now(),
            );
        }
    }

    /// Translates a mailbox-level [`RecvFault`] into a [`CommError`]
    /// naming the stalled edge, bumping the matching counter.
    fn map_recv_fault(
        &self,
        fault: RecvFault,
        src_world: usize,
        tag: Tag,
        op: &'static str,
    ) -> CommError {
        match fault {
            RecvFault::Timeout => {
                self.shared.stats.borrow_mut().timeouts += 1;
                CommError::Timeout {
                    edge: self.edge(src_world, tag),
                    op,
                }
            }
            RecvFault::Cancelled => {
                self.shared.stats.borrow_mut().cancelled += 1;
                CommError::Cancelled {
                    edge: self.edge(src_world, tag),
                    op,
                }
            }
            RecvFault::PeerDead { src: dead } => CommError::PeerDead {
                edge: self.edge(dead, tag),
                op,
            },
            // Every sender is gone: the mailbox closing is a mass
            // peer death, reported against the rank we were waiting on.
            RecvFault::Closed => CommError::PeerDead {
                edge: self.edge(src_world, tag),
                op: "recv (all peers gone)",
            },
        }
    }

    /// Records one payload-buffer materialization of `bytes` bytes.
    /// Collectives and broadcast roots call this whenever they
    /// allocate-and-copy a payload to put on the wire; relays that
    /// forward `Arc`-shared payloads don't.
    pub fn count_payload_clone(&self, bytes: u64) {
        let mut stats = self.shared.stats.borrow_mut();
        stats.payload_clones += 1;
        stats.payload_clone_bytes += bytes;
    }

    /// Snapshot of this rank's accumulated statistics (shared across all
    /// communicators derived from the same world rank).
    pub fn stats(&self) -> CommStats {
        self.shared.stats.borrow().clone()
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&self) {
        *self.shared.stats.borrow_mut() = CommStats::default();
    }

    /// Runs `f`, accounting its wall time as *computation* in the stats.
    pub fn time_compute<R>(&self, f: impl FnOnce() -> R) -> R {
        self.time_compute_flops(0, f)
    }

    /// Like [`Comm::time_compute`], also stamping the trace event with a
    /// flop count (for per-step compute attribution; pass 0 if unknown).
    pub fn time_compute_flops<R>(&self, flops: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let tr0 = self.shared.sink.now();
        let r = f();
        self.shared.stats.borrow_mut().comp_seconds += t0.elapsed().as_secs_f64();
        if self.shared.sink.enabled() {
            self.shared
                .sink
                .record(EventKind::Compute { flops }, tr0, self.shared.sink.now());
        }
        r
    }

    /// Whether this rank is recording trace events.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.shared.sink.enabled()
    }

    /// Runs `f` inside a pivot-step span: iteration `k`, outer block
    /// `outer` (the paper's `B`), inner block `inner` (`b`). A no-op
    /// wrapper when tracing is off.
    pub fn trace_step<R>(&self, k: usize, outer: usize, inner: usize, f: impl FnOnce() -> R) -> R {
        if !self.shared.sink.enabled() {
            return f();
        }
        let tr0 = self.shared.sink.now();
        let r = f();
        self.shared.sink.record(
            EventKind::PivotStep { k, outer, inner },
            tr0,
            self.shared.sink.now(),
        );
        r
    }

    /// Runs `f` inside a collective span (used by the `collectives`
    /// module so every collective shows up as one nested slab per rank).
    pub(crate) fn trace_collective<R>(
        &self,
        op: &'static str,
        algo: &'static str,
        root: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.shared.sink.enabled() {
            return f();
        }
        let tr0 = self.shared.sink.now();
        let r = f();
        self.shared.sink.record(
            EventKind::Collective { op, algo, root },
            tr0,
            self.shared.sink.now(),
        );
        r
    }

    /// Duplicates the communicator with a fresh context; same group.
    ///
    /// Collective: every member must call it.
    pub fn dup(&self) -> Comm {
        let epoch = self.bump_epoch();
        Comm {
            shared: Rc::clone(&self.shared),
            ctx: derive_context(self.ctx, epoch, 0),
            members: Rc::clone(&self.members),
            my_rank: self.my_rank,
            derive_epoch: Rc::new(Cell::new(0)),
        }
    }

    /// Partitions the communicator: ranks passing equal `color` end up in
    /// the same child communicator, ordered by `(key, parent rank)` —
    /// `MPI_Comm_split` semantics.
    ///
    /// Collective: every member must call it in the same program order.
    pub fn split(&self, color: u64, key: i64) -> Result<Comm, CommError> {
        let epoch = self.bump_epoch();
        let p = self.size();

        // Allgather (color, key) over the parent communicator: flat gather
        // to parent rank 0, then binomial broadcast of the table.
        let table = if self.my_rank == 0 {
            let mut table = vec![(0u64, 0i64); p];
            table[0] = (color, key);
            for (src, slot) in table.iter_mut().enumerate().skip(1) {
                *slot = self
                    .recv_internal::<Control<(u64, i64)>>(src, TAG_SPLIT_GATHER)?
                    .0;
            }
            Some(Control(table))
        } else {
            self.send_internal(0, TAG_SPLIT_GATHER, Control((color, key)))?;
            None
        };
        let Control(table) = bcast_tree(self, BcastAlgorithm::Binomial, 0, TAG_SPLIT_BCAST, table)?;

        // My group: parent ranks with my color, sorted by (key, parent rank).
        let mut group: Vec<usize> = (0..p).filter(|&r| table[r].0 == color).collect();
        group.sort_by_key(|&r| (table[r].1, r));
        let my_pos = group
            .iter()
            .position(|&r| r == self.my_rank)
            .expect("caller must be in its own color group");
        let members: Vec<usize> = group.iter().map(|&r| self.members[r]).collect();

        Ok(Comm {
            shared: Rc::clone(&self.shared),
            ctx: derive_context(self.ctx, epoch, color),
            members: Rc::new(members),
            my_rank: my_pos,
            derive_epoch: Rc::new(Cell::new(0)),
        })
    }

    fn bump_epoch(&self) -> u64 {
        let e = self.derive_epoch.get() + 1;
        self.derive_epoch.set(e);
        e
    }

    /// A handle that raises this job's cancellation flag from any thread.
    /// Note that ranks parked in a blocking wait only notice the flag when
    /// next woken; [`Comm::cancel_job`] (or the pool watchdog) also pokes
    /// every mailbox so no rank sleeps through its own cancellation.
    pub fn cancel_token(&self) -> crate::message::CancelToken {
        self.shared.ctl.cancel_token()
    }

    /// Cancels the whole job: raises the shared cancellation flag and
    /// wakes every rank of the world so blocked waits return
    /// [`CommError::Cancelled`] promptly instead of sleeping on.
    pub fn cancel_job(&self) {
        self.shared.ctl.cancel_token().cancel();
        for tx in self.shared.senders.iter() {
            tx.deliver_cancel(self.shared.epoch);
        }
    }
}

/// Deterministic context derivation: every member computes the same child
/// context without extra communication. SplitMix64-style finalizer gives a
/// collision probability negligible for realistic communicator trees.
fn derive_context(parent: Context, epoch: u64, color: u64) -> Context {
    let mut z = parent
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(epoch)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(color)
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Keep 0 reserved for the world communicator.
    z | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_context_is_deterministic_and_distinguishes_inputs() {
        let a = derive_context(0, 1, 3);
        let b = derive_context(0, 1, 3);
        assert_eq!(a, b);
        assert_ne!(derive_context(0, 1, 3), derive_context(0, 1, 4));
        assert_ne!(derive_context(0, 1, 3), derive_context(0, 2, 3));
        assert_ne!(derive_context(7, 1, 3), derive_context(8, 1, 3));
    }

    #[test]
    fn derived_context_never_zero() {
        for e in 0..100 {
            for c in 0..10 {
                assert_ne!(derive_context(0, e, c), 0);
            }
        }
    }
}
