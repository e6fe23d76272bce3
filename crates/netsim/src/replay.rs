//! Threadless execution of recorded op programs.
//!
//! [`EventLoopSim`] runs the p programs of a [`RecordedProgram`] over a
//! [`SimNet`] with a single host thread. Each rank is a 32-byte cursor —
//! the rest of its program and what, if anything, it waits on. Runnable
//! ranks sit on a worklist (a stack: O(1) push and pop, no clock
//! compares), and a popped rank runs until it blocks, fails or finishes.
//! In-flight mail is one arrival-ordered list per destination, threaded
//! through a slab whose nodes are reused, so a message costs neither a
//! hash nor an allocation. Memory is O(p) cursor state plus the in-flight
//! mail — no stacks, which is what lets p = 2²⁰ replays run under the
//! default `vm.max_map_count`.
//!
//! **Why the visiting order is unobservable.** Every receive names
//! exactly one `(channel, src)` and takes that key's oldest message, so
//! the ranks form a Kahn process network: deterministic sequential
//! programs connected by FIFO channels with blocking reads. Such a
//! network computes the same history on every channel whatever order its
//! processes take turns in. Concretely: every [`SimNet`] operation moves
//! only the acting rank's clock, so a rank's float timeline is a function
//! of its own program and of the messages it matched; which message a
//! receive matches is fixed by per-`(channel, src, dst)` FIFO order (the
//! non-overtaking rule the SPMD mailboxes implement), and when it arrives
//! is fixed by the sender's timeline. Noise draws are keyed by
//! `(sender, per-sender sequence)`. A barrier releases at the maximum of
//! its members' clocks, each frozen while the member waits. Deadline and
//! fault decisions read only the acting rank's clock and its own fault
//! cursor. So each rank's history — and with it the state in which the
//! run quiesces, where a deadline turns every remaining wait into a
//! timeout — is the same whichever runnable rank goes first. The report's
//! `msgs`/`bytes` are order-free integer sums and its times are per-rank
//! maxima. One scheduler therefore serves clean runs, deadlines and fault
//! plans alike.
//!
//! **Parity contract.** Replay is bit-identical to the thread-per-rank
//! [`crate::spmd::SimWorld`] run of the same schedule — the same Kahn
//! network under the OS scheduler's order: same [`crate::SimReport`] (to
//! the bit), same per-rank `(src, dst, bytes)` trace multisets, same
//! errors under deadlines and fault plans. Every deadline/fault decision
//! point below cites the `spmd.rs` behaviour it mirrors.
//!
//! One deliberate divergence, observably identical: a
//! `FaultAction::Duplicate` ghost message is not enqueued (the SPMD
//! world queues it on a reserved tag that no receive ever matches and
//! never counts it — pure leftover mail, and the leftover assert is
//! relaxed under faults on both engines).

use crate::record::{IdMap, Op, RecordedProgram};
use crate::sim::{PendingMsg, SimNet};
use crate::spmd::SimRunOptions;
use hsumma_trace::{CommEdge, CommError, FaultDecision, FaultState};
use std::sync::Arc;

const DEADLOCK_MSG: &str = "replayed program deadlocked: every live rank is blocked on a message \
     that can never arrive (set a deadline via SimRunOptions to turn stalls into timeouts)";

/// Outcome of a replay: the network with final accounting, the per-rank
/// errors (`None` = the rank's program completed), and the fault count —
/// all comparable one-to-one with [`crate::spmd::SimOutcome`].
pub struct ReplayOutcome {
    /// The network after the run, with clocks and accounting final.
    pub net: SimNet,
    /// Per-rank failure, if any: a rank that errors halts the remainder
    /// of its program, exactly as the SPMD closures `?`-propagate.
    pub errors: Vec<Option<CommError>>,
    /// Total faults injected across all ranks (kills count once).
    pub faults_injected: u64,
}

impl ReplayOutcome {
    /// The network's aggregate report.
    pub fn report(&self) -> crate::SimReport {
        self.net.report()
    }

    /// Asserts the replay was clean and returns the report.
    pub fn expect_clean(self) -> (SimNet, crate::SimReport) {
        for (r, e) in self.errors.iter().enumerate() {
            assert!(e.is_none(), "rank {r} failed during replay: {e:?}");
        }
        let report = self.net.report();
        (self.net, report)
    }
}

/// Where a rank's cursor stands. The blocked variants carry enough to
/// synthesize the same `CommError::Timeout` the SPMD world produces when
/// it quiesces.
#[derive(Clone, Copy, PartialEq)]
enum State {
    /// On the worklist or running: nothing holds the rank back.
    Ready,
    /// Waiting for mail from world rank `src` on channel `chan`.
    Recv { chan: u32, src: u32 },
    /// Waiting at a barrier on communicator `comm`.
    Barrier { comm: u32 },
    /// Completed its program, or failed.
    Done,
}

/// One rank's replay state, packed so that activating a rank touches a
/// single cache line and leads straight to its next op.
#[repr(align(32))]
struct Cursor<'p> {
    /// The ops the rank has yet to execute.
    rest: &'p [Op],
    state: State,
}

const _: () = assert!(std::mem::size_of::<Cursor>() == 32);

/// "No letter" index in the mail lists.
const NIL: u32 = u32::MAX;

/// One in-flight message, linked to the next one for the same
/// destination (or, once taken, to the next free slab node).
struct Letter {
    msg: PendingMsg,
    chan: u32,
    next: u32,
}

/// In-flight mail: per destination, a singly linked list of letters in
/// arrival order, threaded through one slab whose freed nodes are
/// reused. A receive takes the first letter on its `(chan, src)`, so each
/// key is FIFO — the non-overtaking rule — and it scans only its own
/// destination's mail, which run-until-block scheduling keeps to a few
/// letters. No hashing, and no allocation once the slab has grown to the
/// peak in-flight count.
struct Mail {
    /// `(head, tail)` letter per destination, `NIL` when empty.
    lists: Vec<(u32, u32)>,
    slab: Vec<Letter>,
    /// First free slab node, chained through `Letter::next`.
    free: u32,
    in_flight: usize,
}

/// Where [`Mail::find`] found a letter: `(predecessor, index)`.
type Found = (u32, u32);

impl Mail {
    fn new(p: usize) -> Self {
        Mail {
            lists: vec![(NIL, NIL); p],
            slab: Vec::new(),
            free: NIL,
            in_flight: 0,
        }
    }

    /// Appends `msg` to `dst`'s list.
    fn post(&mut self, dst: usize, chan: u32, msg: PendingMsg) {
        let letter = Letter {
            msg,
            chan,
            next: NIL,
        };
        let i = if self.free == NIL {
            let i = u32::try_from(self.slab.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("too many messages in flight");
            self.slab.push(letter);
            i
        } else {
            let i = self.free;
            self.free = self.slab[i as usize].next;
            self.slab[i as usize] = letter;
            i
        };
        let (head, tail) = &mut self.lists[dst];
        if *tail == NIL {
            *head = i;
        } else {
            self.slab[*tail as usize].next = i;
        }
        *tail = i;
        self.in_flight += 1;
    }

    /// The oldest letter for `dst` on `(chan, src)`.
    fn find(&self, dst: usize, chan: u32, src: usize) -> Option<Found> {
        let (mut prev, mut i) = (NIL, self.lists[dst].0);
        while i != NIL {
            let l = &self.slab[i as usize];
            if l.chan == chan && l.msg.src() == src {
                return Some((prev, i));
            }
            prev = i;
            i = l.next;
        }
        None
    }

    fn arrival(&self, (_, i): Found) -> f64 {
        self.slab[i as usize].msg.arrival()
    }

    /// Unlinks a found letter from `dst`'s list and returns its message.
    fn take(&mut self, dst: usize, (prev, i): Found) -> PendingMsg {
        let next = self.slab[i as usize].next;
        let (head, tail) = &mut self.lists[dst];
        if prev == NIL {
            *head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if *tail == i {
            *tail = prev;
        }
        self.slab[i as usize].next = self.free;
        self.free = i;
        self.in_flight -= 1;
        self.slab[i as usize].msg
    }
}

/// An open pivot-step span: `(k, outer, inner, t0)`.
type OpenStep = (u32, u32, u32, f64);

struct Replay<'p> {
    prog: &'p RecordedProgram,
    net: SimNet,
    gamma: f64,
    deadline: Option<f64>,
    faults: Option<Vec<FaultState>>,
    cursors: Vec<Cursor<'p>>,
    /// The ranks in state `Ready`, in no meaningful order (module docs).
    worklist: Vec<u32>,
    live: usize,
    errors: Vec<Option<CommError>>,
    /// Open pivot-step spans per rank — kept only when a tracer is
    /// attached, the spans' one consumer.
    steps: Option<Vec<Vec<OpenStep>>>,
    mail: Mail,
    /// `(comm, seq)` → ranks waiting at that barrier.
    barriers: IdMap<(u32, u32), Vec<usize>>,
}

/// The threadless replay engine: prices a [`RecordedProgram`] on a
/// [`SimNet`] at `gamma` seconds per multiply-add pair. The network and
/// γ are supplied at replay time — recordings are platform-independent.
pub struct EventLoopSim {
    net: SimNet,
    gamma: f64,
}

impl EventLoopSim {
    /// Wraps a network (optionally carrying a tracer, topology or noise
    /// model) for replay.
    ///
    /// # Panics
    /// At `run` time, if the network does not span the program's ranks.
    pub fn new(net: SimNet, gamma: f64) -> Self {
        EventLoopSim { net, gamma }
    }

    /// Executes every rank's program to completion (or failure) under
    /// `opts`, consuming the engine and returning the final network.
    ///
    /// # Panics
    /// Panics if the program deadlocks with no deadline set, if a clean
    /// run leaves undelivered mail behind, or if kill faults are
    /// configured without a deadline — the same contracts as
    /// [`crate::spmd::SimWorld::run_with`].
    pub fn run(self, prog: &RecordedProgram, opts: &SimRunOptions) -> ReplayOutcome {
        let p = prog.ranks();
        assert_eq!(self.net.size(), p, "network must span the program's ranks");
        if let Some(plan) = &opts.faults {
            assert!(
                !plan.has_kills() || opts.deadline.is_some(),
                "kill faults require a deadline: a killed rank's peers can only unblock by timing out"
            );
        }
        let relaxed = opts.deadline.is_some() || opts.faults.is_some();
        let faults = opts.faults.as_ref().map(|plan| {
            (0..p)
                .map(|r| FaultState::new(Arc::clone(plan), r))
                .collect()
        });
        let ranks = u32::try_from(p).expect("rank ids are u32 in recorded ops");
        let steps = self.net.is_tracing().then(|| vec![Vec::new(); p]);
        let cursors = prog
            .programs
            .iter()
            .map(|program| Cursor {
                rest: program,
                state: State::Ready,
            })
            .collect();
        let mut rp = Replay {
            prog,
            net: self.net,
            gamma: self.gamma,
            deadline: opts.deadline,
            faults,
            cursors,
            worklist: (0..ranks).rev().collect(),
            live: p,
            errors: (0..p).map(|_| None).collect(),
            steps,
            mail: Mail::new(p),
            barriers: IdMap::default(),
        };
        rp.drive();
        if !relaxed {
            assert!(
                rp.mail.in_flight == 0,
                "replayed program left undelivered messages behind"
            );
        }
        let faults_injected = rp
            .faults
            .as_ref()
            .map(|v| v.iter().map(FaultState::injected).sum())
            .unwrap_or(0);
        ReplayOutcome {
            net: rp.net,
            errors: rp.errors,
            faults_injected,
        }
    }
}

impl<'p> Replay<'p> {
    fn drive(&mut self) {
        while let Some(r) = self.worklist.pop() {
            self.run_rank(r as usize);
        }
        if self.live == 0 {
            return;
        }
        // Quiescence: no rank is runnable and some are still live —
        // every live rank is blocked on something that can never
        // resolve. Mirrors SimWorld::check_quiescence: with a deadline
        // every blocked wait becomes a Timeout *at* the deadline (failing
        // a rank wakes nobody, so one sweep settles the run); without
        // one, the deadlock diagnosis panics.
        let Some(d) = self.deadline else {
            panic!("{DEADLOCK_MSG}");
        };
        for r in 0..self.cursors.len() {
            let err = match self.cursors[r].state {
                State::Done => continue,
                State::Recv { chan, src } => {
                    let (ctx, tag) = self.prog.chans[chan as usize];
                    timeout(r, src as usize, ctx, tag, "recv")
                }
                State::Barrier { comm } => timeout(r, r, comm, 0, "barrier"),
                State::Ready => unreachable!("a quiescent replay has no runnable rank"),
            };
            self.net.wait_until(r, d);
            self.cursors[r].state = self.fail(r, err);
        }
    }

    /// Fails `r`: record the error, close its open pivot-step spans
    /// (innermost first, spans ending at the rank's current clock —
    /// exactly what nested `trace_step`s record when their closure
    /// returns an `Err` the caller then `?`-propagates), and halt the
    /// rest of its program. Returns the rank's final state.
    fn fail(&mut self, r: usize, err: CommError) -> State {
        if let Some(steps) = &mut self.steps {
            while let Some((k, outer, inner, t0)) = steps[r].pop() {
                self.net.record_step(
                    r,
                    k as usize,
                    outer as usize,
                    inner as usize,
                    t0,
                    self.net.now(r),
                );
            }
        }
        self.errors[r] = Some(err);
        self.live -= 1;
        State::Done
    }

    /// Puts blocked rank `w` back on the worklist.
    fn wake(&mut self, w: usize) {
        self.cursors[w].state = State::Ready;
        self.worklist.push(w as u32);
    }

    /// Runs rank `r`'s program until it blocks, fails or completes.
    fn run_rank(&mut self, r: usize) {
        let prog = self.prog;
        let me = r as u32;
        let program = self.cursors[r].rest;
        let mut pc = 0;
        let state = loop {
            let Some(&op) = program.get(pc) else {
                debug_assert!(
                    self.steps.as_ref().is_none_or(|s| s[r].is_empty()),
                    "unbalanced pivot-step spans"
                );
                self.live -= 1;
                break State::Done;
            };
            match op {
                Op::Send { chan, dst, bytes } => {
                    // spmd send_bytes: the deadline check precedes the
                    // fault cursor, which precedes the clock work.
                    if let Some(d) = self.deadline {
                        if self.net.now(r) >= d {
                            let (ctx, tag) = prog.chans[chan as usize];
                            break self.fail(r, timeout(r, dst as usize, ctx, tag, "send"));
                        }
                    }
                    let mut delay = None;
                    if let Some(faults) = self.faults.as_mut() {
                        match faults[r].on_send(dst as usize, prog.chans[chan as usize].1) {
                            FaultDecision::Deliver => {}
                            FaultDecision::Drop => {
                                // The sender does the work (clock, noise
                                // draw, busy time); the message vanishes
                                // from the ledger and from every mailbox.
                                let msg = self.net.isend(r, dst as usize, bytes);
                                self.net.uncount_send(msg.payload_bytes());
                                pc += 1;
                                continue;
                            }
                            FaultDecision::DeliverDelayed(s) => delay = Some(s),
                            FaultDecision::DeliverTwice => {
                                // Ghost copy deliberately not enqueued —
                                // see module docs.
                            }
                            FaultDecision::Kill => {
                                let detail = "killed by fault plan at send".to_string();
                                break self.fail(r, CommError::Shutdown { rank: r, detail });
                            }
                        }
                    }
                    let mut msg = self.net.isend(r, dst as usize, bytes);
                    if let Some(s) = delay {
                        msg.delay(s);
                    }
                    let dst = dst as usize;
                    self.mail.post(dst, chan, msg);
                    pc += 1;
                    // Wake the receiver iff it is blocked on exactly
                    // this (chan, src) — the SPMD world's targeted wake.
                    if self.cursors[dst].state == (State::Recv { chan, src: me }) {
                        self.wake(dst);
                    }
                }
                Op::Recv { chan, src, bytes } => {
                    // spmd recv_bytes: own-clock deadline check first
                    // (no wait charged) …
                    if let Some(d) = self.deadline {
                        if self.net.now(r) >= d {
                            let (ctx, tag) = prog.chans[chan as usize];
                            break self.fail(r, timeout(r, src as usize, ctx, tag, "recv"));
                        }
                    }
                    let Some(found) = self.mail.find(r, chan, src as usize) else {
                        break State::Recv { chan, src };
                    };
                    // … then the arrival-past-deadline check, which
                    // *does* advance the clock to the deadline.
                    if let Some(d) = self.deadline {
                        if self.mail.arrival(found) > d {
                            self.net.wait_until(r, d);
                            let (ctx, tag) = prog.chans[chan as usize];
                            break self.fail(r, timeout(r, src as usize, ctx, tag, "recv"));
                        }
                    }
                    let msg = self.mail.take(r, found);
                    if bytes != u64::MAX {
                        assert_eq!(msg.payload_bytes(), bytes, "phantom payload size mismatch");
                    }
                    self.net.deliver(r, msg);
                    pc += 1;
                }
                Op::Compute { pairs, flops } => {
                    // spmd compute: no deadline check.
                    self.net.compute_flops(r, self.gamma * pairs, flops);
                    pc += 1;
                }
                Op::Barrier { comm, seq } => {
                    // spmd barrier: entry deadline check before the
                    // arrival deposit; the last arriver aligns the group
                    // unconditionally.
                    if let Some(d) = self.deadline {
                        if self.net.now(r) >= d {
                            break self.fail(r, timeout(r, r, comm, 0, "barrier"));
                        }
                    }
                    pc += 1;
                    if !self.arrive(r, comm, seq) {
                        break State::Barrier { comm };
                    }
                }
                Op::StepPush { k, outer, inner } => {
                    if let Some(steps) = &mut self.steps {
                        steps[r].push((k, outer, inner, self.net.now(r)));
                    }
                    pc += 1;
                }
                Op::StepPop => {
                    if let Some(steps) = &mut self.steps {
                        let (k, outer, inner, t0) =
                            steps[r].pop().expect("unbalanced pivot-step spans");
                        self.net.record_step(
                            r,
                            k as usize,
                            outer as usize,
                            inner as usize,
                            t0,
                            self.net.now(r),
                        );
                    }
                    pc += 1;
                }
            }
        };
        self.cursors[r] = Cursor {
            rest: &program[pc..],
            state,
        };
    }

    /// Deposits `r`'s arrival at barrier `(comm, seq)`. Returns `true` if
    /// the rank may continue (it completed the barrier), `false` if it
    /// must wait for the remaining members (its pc has already advanced
    /// past the op; a wake simply resumes it).
    fn arrive(&mut self, r: usize, comm: u32, seq: u32) -> bool {
        let group = self.prog.comms[comm as usize].len();
        let waiters = self.barriers.entry((comm, seq)).or_default();
        if waiters.len() + 1 < group {
            waiters.push(r);
            return false;
        }
        let waiters = self
            .barriers
            .remove(&(comm, seq))
            .expect("barrier vanished");
        let members = Arc::clone(&self.prog.comms[comm as usize]);
        self.net.barrier_group(&members);
        for w in waiters {
            self.wake(w);
        }
        true
    }
}

fn timeout(rank: usize, peer: usize, ctx: u32, tag: u64, op: &'static str) -> CommError {
    CommError::Timeout {
        edge: CommEdge {
            rank,
            peer,
            ctx: ctx as u64,
            tag,
            epoch: 0,
        },
        op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Hockney;
    use crate::record::record;
    use crate::spmd::SimWorld;
    use crate::SimReport;
    use hsumma_trace::{FaultPlan, TagClass};

    fn net(p: usize) -> SimNet {
        SimNet::new(p, Hockney::new(1e-3, 1e-6))
    }

    #[test]
    fn replay_matches_threaded_point_to_point_bitwise() {
        let spmd = |comm: &crate::spmd::SimComm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 7, 1000).unwrap();
            } else {
                assert_eq!(comm.recv_bytes(0, 7).unwrap(), 1000);
            }
        };
        let (threaded, _) = SimWorld::run(net(2), 0.0, false, spmd);
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 7, 1000)
            } else {
                comm.recv_bytes_expect(0, 7, 1000)
            }
        });
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &SimRunOptions::unbounded());
        let (_, report) = out.expect_clean();
        assert_eq!(report, threaded.report());
    }

    #[test]
    fn fifo_and_distinct_tags_behave_like_mailboxes() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 1, 10)?;
                comm.send_bytes(1, 1, 20)?;
                comm.send_bytes(1, 2, 99)?;
            } else {
                // Opposite-order tags, in-order FIFO within a tag.
                comm.recv_bytes_expect(0, 2, 99)?;
                comm.recv_bytes_expect(0, 1, 10)?;
                comm.recv_bytes_expect(0, 1, 20)?;
            }
            Ok(())
        });
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &SimRunOptions::unbounded());
        out.expect_clean();
    }

    #[test]
    fn barrier_aligns_clocks_like_threaded() {
        let gamma = 1e-6;
        let (threaded, _) = SimWorld::run(net(3), gamma, false, |comm| {
            if comm.rank() == 1 {
                comm.compute(1_000_000.0, 2_000_000);
            }
            comm.barrier().unwrap();
        });
        let prog = record(3, false, |comm| {
            if comm.rank() == 1 {
                comm.compute(1_000_000.0, 2_000_000);
            }
            comm.barrier()
        });
        let out = EventLoopSim::new(net(3), gamma).run(&prog, &SimRunOptions::unbounded());
        let (_, report) = out.expect_clean();
        assert_eq!(report, threaded.report());
    }

    #[test]
    fn stalled_recv_times_out_naming_the_edge() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 1 {
                // Record against a phantom partner so the recv exists in
                // the program; replay under a plan that drops the send.
                comm.recv_bytes_unchecked(0, 9)?;
            } else {
                comm.send_bytes(1, 9, 8)?;
            }
            Ok(())
        });
        let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::App, 0));
        let opts = SimRunOptions::unbounded()
            .with_deadline(2.5)
            .with_faults(plan);
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &opts);
        assert!(out.errors[0].is_none());
        match out.errors[1].as_ref().expect("receiver times out") {
            CommError::Timeout { edge, op } => {
                assert_eq!((edge.rank, edge.peer, edge.tag), (1, 0, 9));
                assert_eq!(*op, "recv");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(out.net.now(1), 2.5);
        assert_eq!(out.net.comm_of(1), 2.5);
        assert_eq!(out.faults_injected, 1);
        // The dropped message is not in the send ledger.
        assert_eq!(out.net.report().msgs, 0);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn unresolvable_stall_without_deadline_panics() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 1 {
                comm.recv_bytes_unchecked(0, 9)?;
            } else {
                comm.send_bytes(1, 9, 8)?;
            }
            Ok(())
        });
        let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::App, 0));
        // No deadline: the dropped message leaves rank 1 stuck forever.
        let opts = SimRunOptions::unbounded().with_faults(plan);
        let _ = EventLoopSim::new(net(2), 0.0).run(&prog, &opts);
    }

    #[test]
    fn killed_rank_shuts_down_and_peer_times_out() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 4, 100)?;
            } else {
                comm.recv_bytes_unchecked(0, 4)?;
            }
            Ok(())
        });
        let plan = Arc::new(FaultPlan::new().kill_rank(0, 0));
        let opts = SimRunOptions::unbounded()
            .with_deadline(1.0)
            .with_faults(plan);
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &opts);
        assert!(matches!(
            out.errors[0],
            Some(CommError::Shutdown { rank: 0, .. })
        ));
        assert!(matches!(out.errors[1], Some(CommError::Timeout { .. })));
        assert_eq!(out.faults_injected, 1);
    }

    #[test]
    fn delayed_message_beyond_deadline_times_out_at_the_deadline() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 4, 1000)?;
            } else {
                comm.recv_bytes_unchecked(0, 4)?;
            }
            Ok(())
        });
        let plan = Arc::new(FaultPlan::new().delay_nth(Some(0), Some(1), TagClass::App, 0, 5.0));
        let opts = SimRunOptions::unbounded()
            .with_deadline(2.0)
            .with_faults(plan);
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &opts);
        assert!(matches!(out.errors[1], Some(CommError::Timeout { .. })));
        assert_eq!(out.net.now(1), 2.0, "failed at the deadline, not arrival");
    }

    #[test]
    fn duplicate_counts_as_injected_but_not_in_the_ledger() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 4, 50)?;
                comm.send_bytes(1, 4, 60)?;
            } else {
                comm.recv_bytes_expect(0, 4, 50)?;
                comm.recv_bytes_expect(0, 4, 60)?;
            }
            Ok(())
        });
        let plan = Arc::new(FaultPlan::new().duplicate_nth(Some(0), Some(1), TagClass::App, 0));
        let opts = SimRunOptions::unbounded()
            .with_deadline(10.0)
            .with_faults(plan);
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &opts);
        assert!(out.errors.iter().all(Option::is_none));
        assert_eq!(out.faults_injected, 1);
        assert_eq!(out.net.report().msgs, 2);
    }

    #[test]
    fn noise_draws_match_the_threaded_engine() {
        use crate::sim::NoiseModel;
        let spmd = |comm: &crate::spmd::SimComm| {
            if comm.rank() == 0 {
                for i in 0..10u64 {
                    comm.send_bytes(1, i, 1000).unwrap();
                }
            } else {
                for i in 0..10u64 {
                    comm.recv_bytes(0, i).unwrap();
                }
            }
        };
        let mut tnet = net(2);
        tnet.set_noise(NoiseModel::new(42, 0.3));
        let (threaded, _) = SimWorld::run(tnet, 0.0, false, spmd);
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u64 {
                    comm.send_bytes(1, i, 1000)?;
                }
            } else {
                for i in 0..10u64 {
                    comm.recv_bytes_unchecked(0, i)?;
                }
            }
            Ok(())
        });
        let mut rnet = net(2);
        rnet.set_noise(NoiseModel::new(42, 0.3));
        let out = EventLoopSim::new(rnet, 0.0).run(&prog, &SimRunOptions::unbounded());
        let (_, report) = out.expect_clean();
        assert_eq!(report, threaded.report());
    }

    /// Rank 3 wakes rank 2 (clock ≈ 0.5 s) and then rank 0 (clock 4 s):
    /// the worklist runs rank 0 first, where clock order would run rank 2
    /// first. A 3 s deadline then cuts the run in the middle — rank 0
    /// fails on its own clock, ranks 1 and 3 time out at quiescence, and
    /// rank 2 completes. The threaded engine must agree on all of it.
    #[test]
    fn worklist_order_is_unobservable_under_a_mid_run_deadline() {
        let gamma = 1e-6;
        let opts = SimRunOptions::unbounded().with_deadline(3.0);
        let threaded = SimWorld::run_with(net(4), gamma, false, &opts, |comm| match comm.rank() {
            0 => {
                comm.compute(4e6, 0);
                comm.recv_bytes(3, 2)?;
                comm.send_bytes(1, 1, 8)
            }
            1 => {
                comm.recv_bytes(0, 1)?;
                comm.recv_bytes(2, 4)?;
                comm.send_bytes(3, 5, 8)
            }
            2 => {
                comm.recv_bytes(3, 3)?;
                comm.send_bytes(1, 4, 8)
            }
            _ => {
                comm.compute(5e5, 0);
                comm.send_bytes(2, 3, 8)?;
                comm.send_bytes(0, 2, 8)?;
                comm.recv_bytes(1, 5).map(drop)
            }
        });
        let prog = record(4, false, |comm| match comm.rank() {
            0 => {
                comm.compute(4e6, 0);
                comm.recv_bytes_unchecked(3, 2)?;
                comm.send_bytes(1, 1, 8)
            }
            1 => {
                comm.recv_bytes_unchecked(0, 1)?;
                comm.recv_bytes_unchecked(2, 4)?;
                comm.send_bytes(3, 5, 8)
            }
            2 => {
                comm.recv_bytes_unchecked(3, 3)?;
                comm.send_bytes(1, 4, 8)
            }
            _ => {
                comm.compute(5e5, 0);
                comm.send_bytes(2, 3, 8)?;
                comm.send_bytes(0, 2, 8)?;
                comm.recv_bytes_unchecked(1, 5).map(drop)
            }
        });
        let out = EventLoopSim::new(net(4), gamma).run(&prog, &opts);
        let edge = |e: &CommError| match e {
            CommError::Timeout { edge, op } => (edge.rank, edge.peer, edge.tag, *op),
            other => panic!("expected a timeout, got {other:?}"),
        };
        let replayed: Vec<_> = out.errors.iter().map(|e| e.as_ref().map(edge)).collect();
        let t_errors: Vec<_> = threaded
            .results
            .iter()
            .map(|r| r.as_ref().err().map(edge))
            .collect();
        assert_eq!(replayed, t_errors);
        assert_eq!(
            replayed,
            vec![
                Some((0, 3, 2, "recv")),
                Some((1, 0, 1, "recv")),
                None,
                Some((3, 1, 5, "recv")),
            ]
        );
        assert_eq!(out.net.report(), threaded.net.report());
        assert_eq!(out.net.now(0), 4.0, "rank 0 failed on its own clock");
        assert_eq!(out.net.now(1), 3.0, "rank 1 timed out at the deadline");
    }

    #[test]
    fn degenerate_programs_finish_with_a_zero_report() {
        let zero = SimReport::default();
        let run = |prog: &RecordedProgram, opts: &SimRunOptions| {
            let out = EventLoopSim::new(net(prog.ranks()), 1e-6).run(prog, opts);
            assert!(out.errors.iter().all(Option::is_none));
            assert_eq!(out.faults_injected, 0);
            out.net.report()
        };
        let deadline = SimRunOptions::unbounded().with_deadline(0.0);
        // p = 1, an empty program.
        let single = record(1, false, |_| Ok(()));
        assert_eq!(single.total_ops(), 0);
        assert_eq!(run(&single, &SimRunOptions::unbounded()), zero);
        assert_eq!(run(&single, &deadline), zero);
        // Every program empty.
        let empty = record(4, false, |_| Ok(()));
        assert_eq!(empty.total_ops(), 0);
        assert_eq!(run(&empty, &SimRunOptions::unbounded()), zero);
        assert_eq!(run(&empty, &deadline), zero);
        // One rank with an empty program beside two that exchange.
        let idle = record(3, false, |comm| match comm.rank() {
            0 => comm.send_bytes(1, 1, 8),
            1 => comm.recv_bytes_expect(0, 1, 8),
            _ => Ok(()),
        });
        assert!(idle.programs[2].is_empty());
        let out = EventLoopSim::new(net(3), 1e-6).run(&idle, &SimRunOptions::unbounded());
        assert_eq!(out.net.now(2), 0.0);
        assert_eq!(out.net.comm_of(2), 0.0);
        assert_eq!(out.expect_clean().1.msgs, 1);
    }

    #[test]
    #[should_panic(expected = "undelivered messages")]
    fn leftover_mail_is_detected_on_clean_runs() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 9, 8)?;
            }
            Ok(())
        });
        let _ = EventLoopSim::new(net(2), 0.0).run(&prog, &SimRunOptions::unbounded());
    }
}
