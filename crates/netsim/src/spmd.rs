//! SPMD execution of communication schedules on the simulated network.
//!
//! The pre-refactor simulator replayed each algorithm from a hand-written
//! central driver — a second copy of every schedule that had to be kept
//! in sync with the executable one by eye. This module removes the need
//! for that copy: it runs the *same* per-rank program the threaded
//! runtime runs, but over [`SimNet`] virtual clocks and phantom payloads
//! (sizes only, no data).
//!
//! [`SimWorld::run`] spawns one thread per simulated rank, hands each a
//! [`SimComm`] handle, and lets the ranks exchange messages through
//! tag-addressed mailboxes of [`crate::sim::PendingMsg`]s. Determinism does not
//! depend on thread scheduling: every [`SimNet`] operation only moves the
//! clock of the rank performing it (`isend` the sender, `deliver` the
//! receiver, `compute` the owner), so each rank's virtual timeline is a
//! function of its own program order plus which messages it matched —
//! both fixed by the algorithm, not by the interleaving. This is what
//! lets the SPMD path reproduce the old central-driver timings
//! bit-for-bit (see `tests/sim_golden_parity.rs` at the workspace root).
//!
//! Threads block on per-rank condition variables; a sender wakes only the
//! destination rank, so a `p`-rank simulation does `O(1)` wakeups per
//! message rather than `O(p)`. Stacks are kept small so `p = 4096` ranks
//! (the paper's Fig. 7 scale) fit comfortably.
//!
//! Like the threaded runtime, the simulated substrate is **fallible**:
//! every transfer returns `Result<_, CommError>`, a run can carry a
//! virtual-time deadline ([`SimRunOptions::deadline`]) and a
//! deterministic [`FaultPlan`] replayed at the send path — the same plan
//! type, with the same replay-cursor semantics, as the threaded runtime,
//! so one fault scenario can be compared across both substrates. A
//! blocked rank whose matching message will never come does not hang the
//! simulation: when every live rank is blocked, the world either advances
//! the stuck clocks to the deadline (turning the stall into per-rank
//! `CommError::Timeout`s) or, with no deadline set, panics with a
//! deadlock diagnosis.

use crate::record::SplitTable;
use crate::sim::{SimNet, SimReport};
use hsumma_trace::{CommEdge, CommError, FaultDecision, FaultPlan, FaultState};
use std::cell::Cell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Mailbox key: `(context, src, dst, tag)`, world ranks. FIFO per key
/// gives MPI's non-overtaking guarantee, matching the runtime's mailboxes.
type MailKey = (u64, usize, usize, u64);

/// Ghost tag for the extra copy a `FaultAction::Duplicate` injects: no
/// receive ever matches it, mirroring the threaded runtime's reserved
/// duplicate tag, so a duplicate is stray wire traffic on both substrates
/// rather than a second deliverable copy.
const SIM_TAG_FAULT_DUP: u64 = u64::MAX;

const DEADLOCK_MSG: &str = "simulated program deadlocked: every live rank is blocked on a message \
     that can never arrive (set a deadline via SimRunOptions to turn stalls into timeouts)";

/// Failure policy for one simulated run: the virtual-time twin of the
/// runtime's `JobOptions`.
#[derive(Clone, Default)]
pub struct SimRunOptions {
    /// Virtual deadline in seconds. A rank still blocked when the world
    /// quiesces has its clock advanced to the deadline and fails with
    /// [`CommError::Timeout`]; a rank whose own clock passes the deadline
    /// fails at its next communication call.
    pub deadline: Option<f64>,
    /// Fault plan replayed at every rank's send path (same plan type and
    /// cursor semantics as the threaded runtime).
    pub faults: Option<Arc<FaultPlan>>,
}

impl SimRunOptions {
    /// Clean, unbounded options.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Sets the virtual deadline (seconds).
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// What a simulated run produced: the network (with all accounting), the
/// per-rank results, and how many faults the plan actually injected —
/// comparable one-to-one with the threaded runtime's `faults_injected`
/// stats counter for substrate-parity checks.
pub struct SimOutcome<R> {
    /// The network after the run, with clocks and accounting final.
    pub net: SimNet,
    /// Per-rank results, indexed by rank.
    pub results: Vec<R>,
    /// Total faults injected across all ranks (kills count once).
    pub faults_injected: u64,
}

/// In-progress group barrier for one `(context, sequence number)`.
struct BarrierState {
    arrived: usize,
    departed: usize,
    done: bool,
}

struct WorldState {
    net: SimNet,
    mail: HashMap<MailKey, VecDeque<crate::sim::PendingMsg>>,
    /// Every split so far, by `(parent context, epoch)`.
    splits: HashMap<(u64, u64), SplitTable>,
    barriers: HashMap<(u64, u64), BarrierState>,
    /// Next fresh communicator context id (0 is the world context).
    next_ctx: u64,
    /// Ranks currently blocked on a condition variable *with no pending
    /// wake signal*. A notified-but-not-yet-scheduled rank is runnable,
    /// so it must not count towards quiescence.
    waiting: usize,
    /// Per-rank wake-signal generation: bumped (under the lock) whenever
    /// someone wakes that rank, so `park` can tell a real signal from a
    /// spurious wakeup and the quiescence census stays exact.
    signals: Vec<u64>,
    /// Whether each rank is currently parked with no pending signal
    /// (i.e. counted in `waiting`). Cleared by the *waker*, not the
    /// waker's target, so the census updates at signal time.
    parked: Vec<bool>,
    /// Ranks whose SPMD closure has returned (or unwound).
    finished: usize,
    /// Raised when the world quiesced with a deadline set: every blocked
    /// wait turns into a `Timeout` at the deadline.
    timed_out: bool,
    /// Raised when the world quiesced with no deadline: every blocked
    /// rank panics with a deadlock diagnosis.
    deadlocked: bool,
    /// Virtual deadline, if any.
    deadline: Option<f64>,
    /// Per-world-rank fault replay cursors, if a plan is attached.
    faults: Option<Vec<FaultState>>,
}

/// A simulated machine shared by all rank threads of one SPMD run.
pub struct SimWorld {
    state: Mutex<WorldState>,
    /// One condition variable per world rank: senders wake only the
    /// destination, barriers wake only their members.
    wake: Vec<Condvar>,
    gamma: f64,
    step_sync: bool,
}

impl SimWorld {
    /// Runs `f` as an SPMD program: one thread per rank of `net`, each
    /// receiving its own [`SimComm`] spanning the whole world. Returns
    /// the network (with all accounting) and the per-rank results.
    ///
    /// `gamma` is the virtual cost of one multiply-add pair in seconds
    /// (see [`SimComm::compute`]); `step_sync` makes
    /// [`SimComm::maybe_step_sync`] a world-wide clock alignment.
    pub fn run<R, F>(net: SimNet, gamma: f64, step_sync: bool, f: F) -> (SimNet, Vec<R>)
    where
        R: Send,
        F: Fn(&SimComm) -> R + Sync,
    {
        let out = Self::run_with(net, gamma, step_sync, &SimRunOptions::default(), f);
        (out.net, out.results)
    }

    /// Like [`SimWorld::run`] with a failure policy: a virtual deadline
    /// and/or a fault plan (see [`SimRunOptions`]).
    ///
    /// # Panics
    /// Panics if the plan contains kill rules but no deadline is set (a
    /// killed rank's peers can only unblock by timing out), or if the
    /// program deadlocks with no deadline set.
    pub fn run_with<R, F>(
        net: SimNet,
        gamma: f64,
        step_sync: bool,
        opts: &SimRunOptions,
        f: F,
    ) -> SimOutcome<R>
    where
        R: Send,
        F: Fn(&SimComm) -> R + Sync,
    {
        let p = net.size();
        if let Some(plan) = &opts.faults {
            assert!(
                !plan.has_kills() || opts.deadline.is_some(),
                "kill faults require a deadline: a killed rank's peers can only unblock by timing out"
            );
        }
        // A run under faults or a deadline may legitimately leave
        // undelivered messages behind (dropped receives, ghost
        // duplicates, ranks that timed out mid-schedule).
        let relaxed = opts.deadline.is_some() || opts.faults.is_some();
        let fault_states = opts.faults.as_ref().map(|plan| {
            (0..p)
                .map(|r| FaultState::new(Arc::clone(plan), r))
                .collect()
        });
        let world = SimWorld {
            state: Mutex::new(WorldState {
                net,
                mail: HashMap::new(),
                splits: HashMap::new(),
                barriers: HashMap::new(),
                next_ctx: 1,
                waiting: 0,
                signals: vec![0; p],
                parked: vec![false; p],
                finished: 0,
                timed_out: false,
                deadlocked: false,
                deadline: opts.deadline,
                faults: fault_states,
            }),
            wake: (0..p).map(|_| Condvar::new()).collect(),
            gamma,
            step_sync,
        };
        let members: Arc<Vec<usize>> = Arc::new((0..p).collect());
        let mut results: Vec<Option<R>> = (0..p).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for rank in 0..p {
                let comm = SimComm {
                    world: &world,
                    ctx: 0,
                    members: members.clone(),
                    my_rank: rank,
                    epoch: Cell::new(0),
                    barrier_seq: Cell::new(0),
                };
                let f = &f;
                let world = &world;
                let handle = std::thread::Builder::new()
                    .name(format!("sim-rank-{rank}"))
                    // Schedules recurse shallowly; small stacks keep
                    // thousands of rank threads cheap.
                    .stack_size(512 * 1024)
                    .spawn_scoped(scope, move || {
                        let out = f(&comm);
                        // This rank is done; if everyone still out is
                        // blocked, the world has quiesced — resolve it.
                        let mut st = world.lock();
                        st.finished += 1;
                        let dead = world.check_quiescence(&mut st);
                        drop(st);
                        if dead {
                            panic!("{DEADLOCK_MSG}");
                        }
                        out
                    })
                    .expect("failed to spawn simulated rank thread");
                handles.push(handle);
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(r) => results[rank] = Some(r),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        let state = world.state.into_inner().expect("no rank may hold the lock");
        if !relaxed {
            assert!(
                state.mail.values().all(VecDeque::is_empty),
                "simulated program left undelivered messages behind"
            );
        }
        let faults_injected = state
            .faults
            .as_ref()
            .map(|v| v.iter().map(FaultState::injected).sum())
            .unwrap_or(0);
        SimOutcome {
            net: state.net,
            results: results.into_iter().map(Option::unwrap).collect(),
            faults_injected,
        }
    }

    fn lock(&self) -> MutexGuard<'_, WorldState> {
        self.state.lock().expect("a simulated rank panicked")
    }

    /// If every live rank is blocked, no message can ever arrive again:
    /// with a deadline, raise `timed_out` (blocked waits become
    /// `Timeout`s at the deadline); without one, raise `deadlocked`
    /// (blocked ranks panic). Returns the `deadlocked` flag so callers
    /// holding the lock can drop it before panicking.
    fn check_quiescence(&self, st: &mut WorldState) -> bool {
        if st.waiting + st.finished == self.wake.len()
            && st.waiting > 0
            && !st.timed_out
            && !st.deadlocked
        {
            if st.deadline.is_some() {
                st.timed_out = true;
            } else {
                st.deadlocked = true;
            }
            for cv in &self.wake {
                cv.notify_all();
            }
        }
        st.deadlocked
    }

    /// Bumps `m`'s wake-signal generation and notifies its condition
    /// variable. Must be called with the world lock held so the census
    /// and the signal move together.
    fn wake_rank(&self, st: &mut WorldState, m: usize) {
        st.signals[m] += 1;
        if st.parked[m] {
            // The target is runnable from this instant; take it out of
            // the census now rather than when it gets scheduled, or a
            // fast waker re-parking could trip a false quiescence.
            st.parked[m] = false;
            st.waiting -= 1;
        }
        self.wake[m].notify_all();
    }

    /// Parks `me_w` on its condition variable until someone signals it
    /// (or the world resolves a quiescence), maintaining the waiting
    /// census and running the quiescence check. Returns the reacquired
    /// guard plus the deadlock flag (callers drop the guard, then panic).
    fn park<'a>(
        &'a self,
        mut st: MutexGuard<'a, WorldState>,
        me_w: usize,
    ) -> (MutexGuard<'a, WorldState>, bool) {
        let gen = st.signals[me_w];
        st.parked[me_w] = true;
        st.waiting += 1;
        if self.check_quiescence(&mut st) {
            st.parked[me_w] = false;
            st.waiting -= 1;
            return (st, true);
        }
        while st.signals[me_w] == gen && !st.timed_out && !st.deadlocked {
            st = self.wake[me_w].wait(st).expect("a simulated rank panicked");
        }
        // A quiescence resolution (timeout/deadlock) wakes us without a
        // signal; clean up our own census entry in that case.
        if st.parked[me_w] {
            st.parked[me_w] = false;
            st.waiting -= 1;
        }
        let dead = st.deadlocked;
        (st, dead)
    }
}

/// One rank's handle onto a [`SimWorld`]: the simulator-substrate
/// counterpart of the runtime's `Comm`. Supports the same communicator
/// algebra (`rank`/`size`/`split`) plus phantom point-to-point transfers
/// that move virtual clocks instead of data.
pub struct SimComm<'w> {
    world: &'w SimWorld,
    ctx: u64,
    /// World ranks of this communicator's members, in rank order.
    members: Arc<Vec<usize>>,
    my_rank: usize,
    /// Per-communicator split counter (disambiguates successive splits).
    epoch: Cell<u64>,
    /// Per-communicator barrier counter (sequences successive barriers).
    barrier_seq: Cell<u64>,
}

impl<'w> SimComm<'w> {
    /// Rank within this communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// World rank of this communicator's rank `r`.
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.members[r]
    }

    fn world_me(&self) -> usize {
        self.members[self.my_rank]
    }

    /// This rank's virtual clock.
    pub fn now(&self) -> f64 {
        let st = self.world.lock();
        st.net.now(self.world_me())
    }

    /// Whether [`SimComm::maybe_step_sync`] aligns clocks.
    pub fn step_sync(&self) -> bool {
        self.world.step_sync
    }

    fn timeout(&self, rank_w: usize, peer_w: usize, tag: u64, op: &'static str) -> CommError {
        CommError::Timeout {
            edge: CommEdge {
                rank: rank_w,
                peer: peer_w,
                ctx: self.ctx,
                tag,
                epoch: 0,
            },
            op,
        }
    }

    /// Sends `bytes` phantom payload bytes to `dst` (communicator rank):
    /// occupies this rank's clock for the transfer and enqueues the
    /// message for `dst`. Zero-byte messages model control traffic.
    ///
    /// Fails with [`CommError::Timeout`] if this rank's clock is already
    /// past the deadline, and with [`CommError::Shutdown`] if the fault
    /// plan kills this rank at this send.
    pub fn send_bytes(&self, dst: usize, tag: u64, bytes: u64) -> Result<(), CommError> {
        let src_w = self.world_me();
        let dst_w = self.members[dst];
        let mut st = self.world.lock();
        if let Some(d) = st.deadline {
            if st.net.now(src_w) >= d {
                return Err(self.timeout(src_w, dst_w, tag, "send"));
            }
        }
        // Fault injection: same replay-cursor semantics as the threaded
        // runtime (every send here is cursor-eligible — the simulator's
        // barrier sends no messages, matching the tag the runtime
        // excludes).
        let mut delay = None;
        let mut duplicate = false;
        if let Some(faults) = st.faults.as_mut() {
            match faults[src_w].on_send(dst_w, tag) {
                FaultDecision::Deliver => {}
                FaultDecision::Drop => {
                    // The sender does the work; the message vanishes.
                    // Uncount it so the world send ledger matches what
                    // receivers can observe (threaded drops do not count
                    // `msgs_sent` either).
                    let msg = st.net.isend(src_w, dst_w, bytes);
                    st.net.uncount_send(msg.payload_bytes());
                    return Ok(());
                }
                FaultDecision::DeliverDelayed(s) => delay = Some(s),
                FaultDecision::DeliverTwice => duplicate = true,
                FaultDecision::Kill => {
                    return Err(CommError::Shutdown {
                        rank: src_w,
                        detail: "killed by fault plan at send".to_string(),
                    });
                }
            }
        }
        let mut msg = st.net.isend(src_w, dst_w, bytes);
        if let Some(s) = delay {
            msg.delay(s);
        }
        if duplicate {
            // Ghost copy on the reserved tag: enqueued but never matched
            // and never counted, mirroring the threaded runtime.
            st.mail
                .entry((self.ctx, src_w, dst_w, SIM_TAG_FAULT_DUP))
                .or_default()
                .push_back(msg);
        }
        st.mail
            .entry((self.ctx, src_w, dst_w, tag))
            .or_default()
            .push_back(msg);
        self.world.wake_rank(&mut st, dst_w);
        Ok(())
    }

    /// Receives the next phantom message from `src` (communicator rank)
    /// with `tag`, blocking this rank's virtual clock until it arrives.
    /// Returns the payload size in bytes.
    ///
    /// Fails with [`CommError::Timeout`] — naming the stalled edge — if
    /// the deadline passes first: because this rank's clock is already
    /// past it, because the matching message would arrive after it, or
    /// because the whole world quiesced with the message never sent.
    pub fn recv_bytes(&self, src: usize, tag: u64) -> Result<u64, CommError> {
        let src_w = self.members[src];
        let dst_w = self.world_me();
        let key = (self.ctx, src_w, dst_w, tag);
        let mut st = self.world.lock();
        loop {
            let d = st.deadline;
            // Deadline before matching, mirroring the runtime's mailbox.
            if let Some(d) = d {
                if st.net.now(dst_w) >= d {
                    return Err(self.timeout(dst_w, src_w, tag, "recv"));
                }
            }
            let head = st.mail.get(&key).and_then(|q| q.front().copied());
            if let Some(msg) = head {
                if let Some(d) = d {
                    if msg.arrival() > d {
                        // The wait for this message would cross the
                        // deadline: fail at the deadline, not at arrival.
                        st.net.wait_until(dst_w, d);
                        return Err(self.timeout(dst_w, src_w, tag, "recv"));
                    }
                }
                let msg = st
                    .mail
                    .get_mut(&key)
                    .and_then(VecDeque::pop_front)
                    .expect("head message vanished under the lock");
                let bytes = msg.payload_bytes();
                st.net.deliver(dst_w, msg);
                return Ok(bytes);
            }
            if st.timed_out {
                // World quiesced: this message will never be sent.
                if let Some(d) = d {
                    st.net.wait_until(dst_w, d);
                }
                return Err(self.timeout(dst_w, src_w, tag, "recv"));
            }
            let (guard, dead) = self.world.park(st, dst_w);
            st = guard;
            if dead {
                drop(st);
                panic!("{DEADLOCK_MSG}");
            }
        }
    }

    /// Non-blocking receive probe in *virtual* time: `Ok(Some(bytes))`
    /// when the next phantom message from `src` with `tag` has arrived
    /// by this rank's current virtual clock (it is then consumed and
    /// delivered, advancing the clock at most to its arrival),
    /// `Ok(None)` when it has not. A negative probe neither advances
    /// the clock nor charges waiting time — polling is free in virtual
    /// time, which is what lets the critical-path analyzer see a
    /// deferred completion as overlapped rather than serialized.
    ///
    /// Determinism: the probe's answer is a function of virtual clocks
    /// only, never of host-thread scheduling. When no matching message
    /// is queued yet the rank *parks in wall-clock time* (conservative
    /// parallel-discrete-event synchronization) until the sender's
    /// matching send is posted — whose virtual `arrival` then decides
    /// Some/None exactly — or the world quiesces. Parking costs no
    /// virtual time, so the probe is still "free"; it merely refuses to
    /// answer before the answer is determined.
    ///
    /// Fails with [`CommError::Timeout`] — naming the stalled edge —
    /// when the deadline has already passed or the world quiesced with
    /// no deliverable message, so a poll loop over a dropped broadcast
    /// diagnoses the stall instead of spinning forever.
    pub fn try_recv_bytes(&self, src: usize, tag: u64) -> Result<Option<u64>, CommError> {
        let src_w = self.members[src];
        let dst_w = self.world_me();
        let key = (self.ctx, src_w, dst_w, tag);
        let mut st = self.world.lock();
        loop {
            let d = st.deadline;
            if let Some(d) = d {
                if st.net.now(dst_w) >= d {
                    return Err(self.timeout(dst_w, src_w, tag, "try_recv"));
                }
            }
            let head = st.mail.get(&key).and_then(|q| q.front().copied());
            if let Some(msg) = head {
                if msg.arrival() <= st.net.now(dst_w) {
                    let msg = st
                        .mail
                        .get_mut(&key)
                        .and_then(VecDeque::pop_front)
                        .expect("head message vanished under the lock");
                    let bytes = msg.payload_bytes();
                    st.net.deliver(dst_w, msg);
                    return Ok(Some(bytes));
                }
                // Posted but virtually still in flight: a poll at this
                // rank's `now` deterministically sees nothing. Leave it
                // queued for the eventual wait.
                return Ok(None);
            }
            if st.net.now(src_w) > st.net.now(dst_w) {
                // The sender's clock is already past ours, so any send
                // it has yet to post departs later than our `now` and
                // cannot have arrived: deterministically None.
                return Ok(None);
            }
            if st.timed_out {
                // World quiesced: nothing further will arrive, and this
                // rank's clock will never advance to meet an in-flight
                // arrival. Fail at the deadline exactly like `recv_bytes`.
                if let Some(d) = d {
                    st.net.wait_until(dst_w, d);
                }
                return Err(self.timeout(dst_w, src_w, tag, "try_recv"));
            }
            let (guard, dead) = self.world.park(st, dst_w);
            st = guard;
            if dead {
                drop(st);
                panic!("{DEADLOCK_MSG}");
            }
        }
    }

    /// Charges `pairs` multiply-add pairs of local compute to this rank's
    /// clock at the world's `γ` seconds per pair — the paper's compute
    /// model. `pairs` is fractional because non-GEMM kernels charge
    /// fractions of a cube (LU's diagonal factorization is `bs³/3` pairs,
    /// a triangular solve `m·bs²/2`). `flops` stamps the accounting only.
    pub fn compute(&self, pairs: f64, flops: u64) {
        let me = self.world_me();
        let seconds = self.world.gamma * pairs;
        let mut st = self.world.lock();
        st.net.compute_flops(me, seconds, flops);
    }

    /// Records a pivot-step span around `f` on this rank's trace track.
    pub fn trace_step<R>(&self, k: usize, outer: usize, inner: usize, f: impl FnOnce() -> R) -> R {
        let me = self.world_me();
        let t0 = {
            let st = self.world.lock();
            st.net.now(me)
        };
        let out = f();
        let st = self.world.lock();
        st.net.record_step(me, k, outer, inner, t0, st.net.now(me));
        out
    }

    /// Aligns every member of this communicator to the group's latest
    /// clock; the wait is accounted as communication. No messages are
    /// modelled — this is the idealized barrier the analytic model uses.
    ///
    /// Fails with [`CommError::Timeout`] if the deadline passes while
    /// waiting (e.g. a member died and will never arrive).
    pub fn barrier(&self) -> Result<(), CommError> {
        let seq = self.barrier_seq.get();
        self.barrier_seq.set(seq + 1);
        let key = (self.ctx, seq);
        let group = self.members.len();
        let me_w = self.world_me();
        let mut st = self.world.lock();
        if let Some(d) = st.deadline {
            if st.net.now(me_w) >= d {
                return Err(self.timeout(me_w, me_w, 0, "barrier"));
            }
        }
        let entry = st.barriers.entry(key).or_insert(BarrierState {
            arrived: 0,
            departed: 0,
            done: false,
        });
        entry.arrived += 1;
        if entry.arrived == group {
            entry.done = true;
            let members = self.members.clone();
            st.net.barrier_group(&members);
            for &m in members.iter() {
                if m != me_w {
                    self.world.wake_rank(&mut st, m);
                }
            }
        } else {
            while !st.barriers[&key].done {
                if st.timed_out {
                    if let Some(d) = st.deadline {
                        st.net.wait_until(me_w, d);
                    }
                    return Err(self.timeout(me_w, me_w, 0, "barrier"));
                }
                let (guard, dead) = self.world.park(st, me_w);
                st = guard;
                if dead {
                    drop(st);
                    panic!("{DEADLOCK_MSG}");
                }
            }
        }
        let entry = st.barriers.get_mut(&key).expect("barrier entry vanished");
        entry.departed += 1;
        if entry.departed == group {
            st.barriers.remove(&key);
        }
        Ok(())
    }

    /// A world-wide clock alignment after a schedule step, if this run
    /// was configured with `step_sync` (the per-step-synchronized
    /// variants of the `sim_*` drivers); otherwise a no-op.
    pub fn maybe_step_sync(&self) -> Result<(), CommError> {
        if self.world.step_sync {
            // Alignment is world-wide regardless of which communicator
            // the handle spans, matching the old drivers' `barrier_all`.
            let world_members = self.members.len() == self.world.wake.len();
            assert!(
                world_members,
                "maybe_step_sync must be called on the world communicator"
            );
            self.barrier()?;
        }
        Ok(())
    }

    /// Splits this communicator by `f`, which maps each parent rank to
    /// its `(color, key)`; members of the new group are ordered by
    /// `(key, parent rank)`. Pure control plane: no message and no wait,
    /// as on the runtime, and the simulator charges nothing, matching the
    /// analytic model. The first member to reach the split resolves it
    /// for every member.
    pub fn split(&self, f: impl Fn(usize) -> (u64, i64)) -> SimComm<'w> {
        let epoch = self.epoch.get();
        self.epoch.set(epoch + 1);
        let own = f(self.my_rank);
        let mut st = self.world.lock();
        let st = &mut *st;
        let table = st.splits.entry((self.ctx, epoch)).or_insert_with(|| {
            let first = u32::try_from(st.next_ctx).expect("too many communicators");
            let table = SplitTable::resolve(&self.members, first, f);
            st.next_ctx += table.groups().len() as u64;
            table
        });
        let (ctx, members, my_rank) = table.place(self.my_rank, own);
        SimComm {
            world: self.world,
            ctx: u64::from(ctx),
            members,
            my_rank,
            epoch: Cell::new(0),
            barrier_seq: Cell::new(0),
        }
    }
}

/// Convenience wrapper: runs `f` SPMD over a fresh flat network and
/// returns the final [`SimReport`].
pub fn simulate<F>(p: usize, net: SimNet, gamma: f64, step_sync: bool, f: F) -> SimReport
where
    F: Fn(&SimComm) + Sync,
{
    assert_eq!(p, net.size(), "rank count must match the network");
    let (net, _) = SimWorld::run(net, gamma, step_sync, f);
    net.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Hockney;
    use hsumma_trace::TagClass;

    fn world(p: usize) -> SimNet {
        SimNet::new(p, Hockney::new(1e-3, 1e-6))
    }

    #[test]
    fn spmd_send_matches_central_driver() {
        // Central driver.
        let mut net = world(2);
        net.send(0, 1, 1000);
        let want = net.report();
        // SPMD program.
        let (net2, _) = SimWorld::run(world(2), 0.0, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 7, 1000).unwrap();
            } else {
                assert_eq!(comm.recv_bytes(0, 7).unwrap(), 1000);
            }
        });
        assert_eq!(net2.report(), want);
    }

    #[test]
    fn messages_between_same_pair_are_fifo() {
        let (_, sizes) = SimWorld::run(world(2), 0.0, false, |comm| {
            if comm.rank() == 0 {
                for b in [10, 20, 30] {
                    comm.send_bytes(1, 3, b).unwrap();
                }
                vec![]
            } else {
                (0..3)
                    .map(|_| comm.recv_bytes(0, 3).unwrap())
                    .collect::<Vec<_>>()
            }
        });
        assert_eq!(sizes[1], vec![10, 20, 30]);
    }

    #[test]
    fn distinct_tags_do_not_interfere() {
        let (_, got) = SimWorld::run(world(2), 0.0, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 1, 111).unwrap();
                comm.send_bytes(1, 2, 222).unwrap();
                (0, 0)
            } else {
                // Receive in the opposite order of sending.
                let b2 = comm.recv_bytes(0, 2).unwrap();
                let b1 = comm.recv_bytes(0, 1).unwrap();
                (b1, b2)
            }
        });
        assert_eq!(got[1], (111, 222));
    }

    #[test]
    fn compute_charges_gamma_per_pair() {
        let gamma = 2e-9;
        let (net, _) = SimWorld::run(world(1), gamma, false, |comm| comm.compute(500.0, 1000));
        assert_eq!(net.report().comp_time, gamma * 500.0);
    }

    #[test]
    fn split_is_free_and_orders_by_key_then_parent_rank() {
        let (net, ranks) = SimWorld::run(world(4), 0.0, false, |comm| {
            // Two colors; reversed keys flip the rank order.
            let sub = comm.split(|r| ((r % 2) as u64, -(r as i64)));
            (sub.rank(), sub.size(), sub.world_rank_of(0))
        });
        // Color 0 holds world ranks {0, 2} with keys {0, -2}: rank order 2, 0.
        assert_eq!(ranks[0], (1, 2, 2));
        assert_eq!(ranks[2], (0, 2, 2));
        // Color 1 holds world ranks {1, 3} with keys {-1, -3}: order 3, 1.
        assert_eq!(ranks[1], (1, 2, 3));
        assert_eq!(ranks[3], (0, 2, 3));
        let r = net.report();
        assert_eq!((r.msgs, r.bytes), (0, 0), "split must cost nothing");
    }

    #[test]
    fn sub_communicator_messages_are_isolated() {
        let (net, _) = SimWorld::run(world(4), 0.0, false, |comm| {
            let sub = comm.split(|r| ((r / 2) as u64, r as i64));
            if sub.rank() == 0 {
                comm.send_bytes(comm.rank() + 1, 5, 64).unwrap(); // world-context send
                sub.send_bytes(1, 5, 32).unwrap(); // same tag, sub-context
            } else {
                let w = comm.recv_bytes(comm.rank() - 1, 5).unwrap();
                let s = sub.recv_bytes(0, 5).unwrap();
                assert_eq!((w, s), (64, 32));
            }
        });
        assert_eq!(net.report().msgs, 4);
    }

    #[test]
    fn barrier_aligns_group_clocks() {
        let (net, _) = SimWorld::run(world(3), 1e-6, false, |comm| {
            if comm.rank() == 1 {
                comm.compute(1_000_000.0, 2_000_000); // 1 second ahead
            }
            comm.barrier().unwrap();
            assert_eq!(comm.now(), 1.0);
        });
        let r = net.report();
        assert_eq!(r.msgs, 0, "barrier models no messages");
        assert_eq!(r.total_time, 1.0);
        assert_eq!(r.comm_time, 1.0, "waiting at the barrier is comm time");
    }

    #[test]
    fn successive_barriers_do_not_entangle() {
        let (net, _) = SimWorld::run(world(2), 1e-6, false, |comm| {
            for step in 0..3 {
                if comm.rank() == step % 2 {
                    comm.compute(1_000_000.0, 2_000_000);
                }
                comm.barrier().unwrap();
            }
        });
        assert_eq!(net.report().total_time, 3.0);
    }

    #[test]
    #[should_panic(expected = "undelivered messages")]
    fn leftover_messages_are_detected() {
        let _ = SimWorld::run(world(2), 0.0, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 9, 8).unwrap();
            }
        });
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn stall_without_deadline_panics_with_deadlock_diagnosis() {
        let _ = SimWorld::run(world(2), 0.0, false, |comm| {
            if comm.rank() == 1 {
                // Wait for a message rank 0 never sends.
                let _ = comm.recv_bytes(0, 9);
            }
        });
    }

    #[test]
    fn stall_with_deadline_times_out_naming_the_edge() {
        let opts = SimRunOptions::default().with_deadline(2.5);
        let out = SimWorld::run_with(world(2), 0.0, false, &opts, |comm| {
            if comm.rank() == 1 {
                comm.recv_bytes(0, 9).map(|_| ())
            } else {
                Ok(())
            }
        });
        match &out.results[1] {
            Err(CommError::Timeout { edge, op }) => {
                assert_eq!((edge.rank, edge.peer, edge.tag), (1, 0, 9));
                assert_eq!(*op, "recv");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        // The blocked rank's clock was advanced to the deadline and the
        // wait charged as communication.
        assert_eq!(out.net.now(1), 2.5);
        assert_eq!(out.net.comm_of(1), 2.5);
        assert_eq!(out.faults_injected, 0);
    }

    #[test]
    fn dropped_message_times_out_the_receiver() {
        let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::App, 0));
        let opts = SimRunOptions::default()
            .with_deadline(1.0)
            .with_faults(plan);
        let out = SimWorld::run_with(world(2), 0.0, false, &opts, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 4, 100)?;
                Ok(0)
            } else {
                comm.recv_bytes(0, 4)
            }
        });
        assert!(out.results[0].is_ok());
        assert!(matches!(
            &out.results[1],
            Err(CommError::Timeout { edge, .. }) if edge.peer == 0
        ));
        assert_eq!(out.faults_injected, 1);
        // The dropped message is not in the world's send ledger.
        assert_eq!(out.net.report().msgs, 0);
    }

    #[test]
    fn killed_rank_shuts_down_and_peer_times_out() {
        let plan = Arc::new(FaultPlan::new().kill_rank(0, 0));
        let opts = SimRunOptions::default()
            .with_deadline(1.0)
            .with_faults(plan);
        let out = SimWorld::run_with(world(2), 0.0, false, &opts, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 4, 100)?;
                Ok(0)
            } else {
                comm.recv_bytes(0, 4)
            }
        });
        assert!(matches!(
            &out.results[0],
            Err(CommError::Shutdown { rank: 0, .. })
        ));
        assert!(matches!(&out.results[1], Err(CommError::Timeout { .. })));
        assert_eq!(out.faults_injected, 1);
    }

    #[test]
    #[should_panic(expected = "kill faults require a deadline")]
    fn kills_without_deadline_are_rejected() {
        let plan = Arc::new(FaultPlan::new().kill_rank(0, 0));
        let opts = SimRunOptions::default().with_faults(plan);
        let _ = SimWorld::run_with(world(2), 0.0, false, &opts, |_| ());
    }

    #[test]
    fn delayed_message_arrives_late_but_within_deadline() {
        let plan = Arc::new(FaultPlan::new().delay_nth(Some(0), Some(1), TagClass::App, 0, 0.75));
        let opts = SimRunOptions::default()
            .with_deadline(10.0)
            .with_faults(plan);
        let out = SimWorld::run_with(world(2), 0.0, false, &opts, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 4, 1000)?;
                Ok::<f64, CommError>(0.0)
            } else {
                comm.recv_bytes(0, 4)?;
                Ok(comm.now())
            }
        });
        let base = 1e-3 + 1000.0 * 1e-6; // α + m·β
        let arrived_at = out.results[1].as_ref().copied().unwrap();
        assert!(
            (arrived_at - (base + 0.75)).abs() < 1e-12,
            "expected delayed arrival, got {arrived_at}"
        );
        assert_eq!(out.faults_injected, 1);
    }

    #[test]
    fn delayed_message_beyond_deadline_times_out_at_the_deadline() {
        let plan = Arc::new(FaultPlan::new().delay_nth(Some(0), Some(1), TagClass::App, 0, 5.0));
        let opts = SimRunOptions::default()
            .with_deadline(2.0)
            .with_faults(plan);
        let out = SimWorld::run_with(world(2), 0.0, false, &opts, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 4, 1000)?;
                Ok(())
            } else {
                comm.recv_bytes(0, 4).map(|_| ())
            }
        });
        assert!(matches!(&out.results[1], Err(CommError::Timeout { .. })));
        assert_eq!(out.net.now(1), 2.0, "failed at the deadline, not arrival");
    }

    #[test]
    fn duplicate_ghost_is_never_matched_and_run_completes() {
        let plan = Arc::new(FaultPlan::new().duplicate_nth(Some(0), Some(1), TagClass::App, 0));
        let opts = SimRunOptions::default()
            .with_deadline(10.0)
            .with_faults(plan);
        let out = SimWorld::run_with(world(2), 0.0, false, &opts, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 4, 50)?;
                comm.send_bytes(1, 4, 60)?;
                Ok::<Vec<u64>, CommError>(vec![])
            } else {
                Ok(vec![comm.recv_bytes(0, 4)?, comm.recv_bytes(0, 4)?])
            }
        });
        // FIFO preserved: the duplicate does not shift matching.
        assert_eq!(out.results[1].as_ref().unwrap(), &vec![50, 60]);
        assert_eq!(out.faults_injected, 1);
        // The ghost is not double-counted in the ledger.
        assert_eq!(out.net.report().msgs, 2);
    }

    #[test]
    fn same_plan_replays_identically() {
        let run = || {
            let plan = Arc::new(
                FaultPlan::new()
                    .drop_nth(Some(0), None, TagClass::Any, 1)
                    .kill_rank(2, 1),
            );
            let opts = SimRunOptions::default()
                .with_deadline(5.0)
                .with_faults(plan);
            let out = SimWorld::run_with(world(3), 0.0, false, &opts, |comm| {
                let next = (comm.rank() + 1) % 3;
                let prev = (comm.rank() + 2) % 3;
                for round in 0..3u64 {
                    comm.send_bytes(next, round, 10)?;
                    comm.recv_bytes(prev, round)?;
                }
                Ok(())
            });
            let kinds: Vec<Option<hsumma_trace::CommErrorKind>> = out
                .results
                .iter()
                .map(|r| r.as_ref().err().map(CommError::kind))
                .collect();
            (kinds, out.faults_injected)
        };
        assert_eq!(run(), run());
    }
}
