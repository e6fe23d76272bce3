//! Spawning and joining rank threads.

use crate::comm::Comm;
use crate::error::RuntimeError;
use crate::message::{Envelope, JobCtl, Mailbox, MailboxSender, POISON_CTX};
use hsumma_trace::{FaultPlan, FaultState, Tracer};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Per-job failure policy for a world launch: an optional wall-clock
/// budget (measured from launch; every blocking wait observes it) and an
/// optional deterministic [`FaultPlan`] injected at every rank's send
/// path. `JobOptions::default()` is the clean unbounded run.
#[derive(Clone, Default)]
pub struct JobOptions {
    /// Wall-clock budget for the whole job. A rank still blocked when it
    /// expires gets `CommError::Timeout` naming the stalled edge.
    pub deadline: Option<Duration>,
    /// Fault plan replayed at the send path of every rank.
    pub faults: Option<Arc<FaultPlan>>,
}

impl JobOptions {
    /// Clean, unbounded options.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Sets the wall-clock budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// Delivers a poison envelope (at `epoch`) to every peer of `rank`, so
/// ranks blocked in a receive on it fail fast instead of hanging.
pub(crate) fn poison_peers(senders: &[MailboxSender], rank: usize, epoch: u64) {
    let members: Vec<usize> = (0..senders.len()).collect();
    poison_members(senders, &members, rank, epoch);
}

/// Like [`poison_peers`] but scoped to a member subset: a rank dying
/// inside a carved sub-pool poisons only its *own job's* members, so a
/// sibling sub-pool's concurrently running job never even sees a stale
/// envelope from the failure (isolation by construction, not just by
/// epoch filtering).
pub(crate) fn poison_members(
    senders: &[MailboxSender],
    members: &[usize],
    rank: usize,
    epoch: u64,
) {
    for &peer in members {
        if peer != rank {
            senders[peer].deliver(Envelope {
                ctx: POISON_CTX,
                src: rank,
                tag: 0,
                epoch,
                not_before: None,
                payload: Box::new(()),
            });
        }
    }
}

/// Picks the most informative panic out of a crashed world: the first
/// failure that is not a secondary poison cascade — neither the legacy
/// "peer panicked" message nor an unwrapped `CommError::PeerDead`
/// (whose Display says "died while rank …"; an `unwrap` shows the Debug
/// form, `PeerDead { … }`).
pub(crate) fn primary_panic(panics: &[(usize, String)]) -> (usize, String) {
    panics
        .iter()
        .find(|(_, m)| {
            !m.contains("panicked while this rank was communicating")
                && !m.contains("died while rank")
                && !m.contains("PeerDead")
        })
        .unwrap_or(&panics[0])
        .clone()
}

/// Stringifies a panic payload for error reporting.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
        .to_owned()
}

/// Entry point of the runtime: maps `p` ranks onto `p` OS threads.
///
/// This plays the role of `mpirun`: it wires every rank's mailbox to every
/// other rank, runs the same function on all ranks (SPMD), and collects
/// their return values in rank order.
pub struct Runtime;

impl Runtime {
    /// Runs `f` on `p` ranks and returns their results indexed by rank.
    ///
    /// ```
    /// use hsumma_runtime::Runtime;
    ///
    /// // A 4-rank ring: everyone learns its left neighbour's rank.
    /// let out = Runtime::run(4, |comm| {
    ///     let next = (comm.rank() + 1) % comm.size();
    ///     let prev = (comm.rank() + comm.size() - 1) % comm.size();
    ///     comm.send(next, 0, comm.rank()).unwrap();
    ///     comm.recv::<usize>(prev, 0).unwrap()
    /// });
    /// assert_eq!(out, vec![3, 0, 1, 2]);
    /// ```
    ///
    /// If any rank panics, the panic is propagated to the caller after all
    /// surviving ranks have been joined, so a failed assertion inside an
    /// algorithm fails the enclosing test instead of deadlocking it.
    ///
    /// # Panics
    /// Panics if `p == 0`, or re-raises the first rank panic observed.
    pub fn run<R, F>(p: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        Self::run_traced(p, &Tracer::disabled(), f)
    }

    /// Like [`Runtime::run`], recording every rank's communication and
    /// computation into `tracer` (one ring buffer per rank; see
    /// `hsumma-trace`). Pass [`Tracer::disabled`] — or call
    /// [`Runtime::run`] — for the zero-overhead untraced path.
    ///
    /// # Panics
    /// Panics if the tracer is enabled for fewer than `p` ranks.
    pub fn run_traced<R, F>(p: usize, tracer: &Tracer, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        match Self::try_run_traced(p, tracer, f) {
            Ok(out) => out,
            Err(RuntimeError::RankPanicked { rank, message }) => {
                panic!("rank {rank} panicked: {message}")
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Runtime::run`], but surfaces launch and rank failures as a
    /// [`RuntimeError`] instead of panicking: a refused thread spawn
    /// returns [`RuntimeError::Spawn`] (after poisoning and joining the
    /// ranks already launched, so none is leaked), and a rank panic
    /// returns [`RuntimeError::RankPanicked`] carrying the originating
    /// failure. This is the entry point a long-lived caller (the serving
    /// layer) uses to fail one request, not the process.
    pub fn try_run<R, F>(p: usize, f: F) -> Result<Vec<R>, RuntimeError>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        Self::try_run_traced(p, &Tracer::disabled(), f)
    }

    /// Fallible form of [`Runtime::run_traced`]; see [`Runtime::try_run`].
    pub fn try_run_traced<R, F>(p: usize, tracer: &Tracer, f: F) -> Result<Vec<R>, RuntimeError>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        Self::try_run_opts(p, tracer, &JobOptions::default(), f)
    }

    /// Like [`Runtime::try_run_traced`] with a per-job failure policy: a
    /// wall-clock deadline every blocking wait observes, and/or a
    /// deterministic [`FaultPlan`] replayed at every rank's send path.
    /// This is the one-shot twin of the pool's `run_opts`, used to check
    /// that a fault plan produces the same outcome on a fresh world as on
    /// pooled ranks and on the simulator.
    ///
    /// The job closure typically returns `Result<_, CommError>`; a rank
    /// that times out or loses a peer then unwinds cleanly (no panic, no
    /// poison) and its error lands in the caller's result vector.
    pub fn try_run_opts<R, F>(
        p: usize,
        tracer: &Tracer,
        opts: &JobOptions,
        f: F,
    ) -> Result<Vec<R>, RuntimeError>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        assert!(p > 0, "need at least one rank");
        // One absolute deadline for the whole world, fixed at launch.
        let ctl = JobCtl::with_timeout(opts.deadline);
        assert!(
            !tracer.enabled() || tracer.ranks() >= p,
            "tracer sized for {} ranks, runtime needs {p}",
            tracer.ranks()
        );
        let mut senders = Vec::with_capacity(p);
        let mut mailboxes = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = Mailbox::new();
            senders.push(tx);
            mailboxes.push(rx);
        }
        let senders = Arc::new(senders);
        let f = &f;

        let (results, spawn_err): (Vec<thread::Result<R>>, Option<RuntimeError>) =
            thread::scope(|scope| {
                let mut handles = Vec::with_capacity(p);
                let mut spawn_err = None;
                for (rank, mailbox) in mailboxes.into_iter().enumerate() {
                    let senders_for_rank = Arc::clone(&senders);
                    let sink = tracer.sink(rank);
                    let ctl = ctl.clone();
                    let faults = opts
                        .faults
                        .as_ref()
                        .map(|plan| FaultState::new(Arc::clone(plan), rank));
                    let spawned = thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .spawn_scoped(scope, move || {
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                let mut comm = Comm::world_opts(
                                    Arc::clone(&senders_for_rank),
                                    mailbox,
                                    rank,
                                    sink,
                                    0,
                                    ctl,
                                    faults,
                                );
                                f(&mut comm)
                            }));
                            match result {
                                Ok(v) => v,
                                Err(payload) => {
                                    // Poison every peer so ranks blocked on
                                    // this one fail fast instead of hanging.
                                    poison_peers(&senders_for_rank, rank, 0);
                                    resume_unwind(payload);
                                }
                            }
                        });
                    match spawned {
                        Ok(h) => handles.push(h),
                        Err(source) => {
                            // Unblock the ranks already running, then stop
                            // launching: the world is not viable.
                            poison_peers(&senders[..rank], p, 0);
                            spawn_err = Some(RuntimeError::Spawn { rank, source });
                            break;
                        }
                    }
                }
                (handles.into_iter().map(|h| h.join()).collect(), spawn_err)
            });

        let mut out = Vec::with_capacity(p);
        let mut panics: Vec<(usize, String)> = Vec::new();
        for (rank, r) in results.into_iter().enumerate() {
            match r {
                Ok(v) => out.push(v),
                Err(payload) => panics.push((rank, panic_message(payload.as_ref()))),
            }
        }
        if let Some(e) = spawn_err {
            // The launch failure is the primary fault; panics among the
            // survivors are poison cascades it induced.
            return Err(e);
        }
        if !panics.is_empty() {
            // Prefer reporting the originating failure over the secondary
            // "peer rank panicked" poison cascades it triggers.
            let (rank, message) = primary_panic(&panics);
            return Err(RuntimeError::RankPanicked { rank, message });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RuntimeError;
    use hsumma_trace::{CommError, FaultPlan, TagClass};

    #[test]
    fn ranks_see_their_own_rank_and_size() {
        let out = Runtime::run(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn single_rank_world_works() {
        let out = Runtime::run(1, |comm| comm.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn ring_pass_reaches_everyone() {
        let p = 8;
        let out = Runtime::run(p, |comm| {
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            comm.send(next, 1, comm.rank() as u64).unwrap();
            comm.recv::<u64>(prev, 1).unwrap()
        });
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(*got as usize, (rank + p - 1) % p);
        }
    }

    #[test]
    fn exchange_does_not_deadlock() {
        // Both ranks send before receiving; eager sends make this safe.
        let out = Runtime::run(2, |comm| {
            let peer = 1 - comm.rank();
            comm.send(peer, 9, vec![comm.rank() as f64; 1000]).unwrap();
            let got: Vec<f64> = comm.recv(peer, 9).unwrap();
            got[0]
        });
        assert_eq!(out, vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked")]
    fn rank_panic_is_propagated() {
        // Ranks that wait on the panicking rank must not hang forever:
        // rank 2 poisons its peers as it dies, turning their recv into a
        // panic, and the runtime reports the original failure.
        let _ = Runtime::run(4, |comm| {
            if comm.rank() == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn try_run_returns_results_on_success() {
        let out = Runtime::try_run(3, |comm| comm.rank() * 2).expect("healthy world");
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn try_run_surfaces_rank_panic_as_error() {
        let err = Runtime::try_run(4, |comm| {
            if comm.rank() == 1 {
                panic!("job-level failure");
            }
            comm.rank()
        })
        .expect_err("rank 1 panicked");
        match err {
            RuntimeError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("job-level failure"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn try_run_reports_originating_rank_not_poison_cascade() {
        // Every other rank blocks on rank 2; its panic poisons them. The
        // unwrapped `PeerDead` cascades are filtered out and the error
        // must still name rank 2.
        let err = Runtime::try_run(4, |comm| {
            if comm.rank() == 2 {
                panic!("origin");
            }
            comm.recv::<u8>(2, 1).unwrap()
        })
        .expect_err("world crashed");
        match err {
            RuntimeError::RankPanicked { rank, message } => {
                assert_eq!(rank, 2);
                assert!(message.contains("origin"));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn split_partitions_by_color() {
        let out = Runtime::run(6, |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm.split(color, comm.rank() as i64).unwrap();
            (sub.rank(), sub.size(), sub.world_rank_of(0))
        });
        // Evens form one comm {0,2,4}, odds the other {1,3,5}.
        assert_eq!(out[0], (0, 3, 0));
        assert_eq!(out[2], (1, 3, 0));
        assert_eq!(out[4], (2, 3, 0));
        assert_eq!(out[1], (0, 3, 1));
        assert_eq!(out[3], (1, 3, 1));
        assert_eq!(out[5], (2, 3, 1));
    }

    #[test]
    fn split_orders_by_key_then_parent_rank() {
        let out = Runtime::run(4, |comm| {
            // Reverse the ordering via keys.
            let sub = comm.split(0, -(comm.rank() as i64)).unwrap();
            sub.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn nested_splits_are_isolated() {
        // 2x2 grid: row comms and column comms coexist; messages on one
        // must not be received on the other even with identical tags.
        let out = Runtime::run(4, |comm| {
            let row = comm
                .split((comm.rank() / 2) as u64, comm.rank() as i64)
                .unwrap();
            let col = comm
                .split((comm.rank() % 2) as u64, comm.rank() as i64)
                .unwrap();
            let peer_row = 1 - row.rank();
            let peer_col = 1 - col.rank();
            // Row messages carry 100 + sender, column messages 200 + sender.
            let me = comm.rank() as u64;
            row.send(peer_row, 5, 100 + me).unwrap();
            col.send(peer_col, 5, 200 + me).unwrap();
            let from_row: u64 = row.recv(peer_row, 5).unwrap();
            let from_col: u64 = col.recv(peer_col, 5).unwrap();
            (from_row, from_col)
        });
        assert_eq!(out[0], (101, 202));
        assert_eq!(out[3], (102, 201));
    }

    #[test]
    fn collectives_on_overlapping_split_comms_do_not_interfere() {
        use crate::collectives::{allreduce, bcast_f64, BcastAlgorithm};
        // 4x4 grid: every rank is in one row comm and one col comm; run a
        // broadcast on each back-to-back and an allreduce over the world.
        let out = Runtime::run(16, |comm| {
            let (i, j) = (comm.rank() / 4, comm.rank() % 4);
            let row = comm.split(i as u64, j as i64).unwrap();
            let col = comm.split((4 + j) as u64, i as i64).unwrap();
            let mut rbuf = if row.rank() == 0 {
                vec![i as f64; 8]
            } else {
                vec![0.0; 8]
            };
            bcast_f64(&row, BcastAlgorithm::ScatterAllgather, 0, &mut rbuf).unwrap();
            let mut cbuf = if col.rank() == 0 {
                vec![j as f64; 8]
            } else {
                vec![0.0; 8]
            };
            bcast_f64(&col, BcastAlgorithm::Binomial, 0, &mut cbuf).unwrap();
            let sum = allreduce(comm, rbuf[0] + cbuf[0], |a, b| a + b).unwrap();
            (rbuf[7], cbuf[7], sum)
        });
        for (rank, (r, c, sum)) in out.iter().enumerate() {
            assert_eq!(*r, (rank / 4) as f64, "row bcast leaked");
            assert_eq!(*c, (rank % 4) as f64, "col bcast leaked");
            // Σ over all ranks of (i + j) = 2 · 4 · (0+1+2+3) = 48.
            assert_eq!(*sum, 48.0);
        }
    }

    #[test]
    fn split_of_split_reaches_singletons() {
        // Repeated halving down to singleton comms must stay consistent.
        let out = Runtime::run(8, |comm| {
            let mut c = comm.clone();
            let mut colors = Vec::new();
            while c.size() > 1 {
                let color = (c.rank() % 2) as u64;
                colors.push(color);
                c = c.split(color, c.rank() as i64).unwrap();
            }
            (c.size(), colors.len())
        });
        for (size, depth) in out {
            assert_eq!(size, 1);
            assert_eq!(depth, 3); // log2(8) halvings
        }
    }

    #[test]
    fn dup_creates_independent_context() {
        let out = Runtime::run(2, |comm| {
            let dup = comm.dup();
            let peer = 1 - comm.rank();
            comm.send(peer, 3, 111u32).unwrap();
            dup.send(peer, 3, 222u32).unwrap();
            let on_dup: u32 = dup.recv(peer, 3).unwrap();
            let on_orig: u32 = comm.recv(peer, 3).unwrap();
            (on_orig, on_dup)
        });
        assert_eq!(out, vec![(111, 222), (111, 222)]);
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let out = Runtime::run(2, |comm| {
            if comm.rank() == 0 {
                // Nothing sent yet: poll must return None immediately.
                let early: Option<u32> = comm.try_recv(1, 5).unwrap();
                assert!(early.is_none());
                // Tell rank 1 to send, then poll until it lands.
                comm.send(1, 6, ()).unwrap();
                loop {
                    if let Some(v) = comm.try_recv::<u32>(1, 5).unwrap() {
                        return v;
                    }
                    std::thread::yield_now();
                }
            } else {
                comm.recv::<()>(0, 6).unwrap();
                comm.send(0, 5, 77u32).unwrap();
                77
            }
        });
        assert_eq!(out, vec![77, 77]);
    }

    #[test]
    fn try_recv_buffers_non_matching_messages() {
        let out = Runtime::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u8).unwrap();
                comm.send(1, 2, 20u8).unwrap();
                0u8
            } else {
                // Wait for both to arrive, polling for the second tag:
                // the first message must be parked, not lost.
                let twenty = loop {
                    if let Some(v) = comm.try_recv::<u8>(0, 2).unwrap() {
                        break v;
                    }
                    std::thread::yield_now();
                };
                let ten: u8 = comm.recv(0, 1).unwrap();
                ten + twenty
            }
        });
        assert_eq!(out[1], 30);
    }

    #[test]
    fn stats_track_messages() {
        let out = Runtime::run(2, |comm| {
            comm.reset_stats();
            let peer = 1 - comm.rank();
            comm.send(peer, 1, 1u8).unwrap();
            let _: u8 = comm.recv(peer, 1).unwrap();
            comm.stats()
        });
        assert_eq!(out[0].msgs_sent, 1);
        assert!(out[0].comm_seconds > 0.0);
    }

    #[test]
    fn deadline_times_out_a_stuck_receive() {
        // Rank 1 never sends: rank 0's blocking wait must give up at the
        // deadline with the stalled edge named, not hang or spin.
        let opts = JobOptions::default().with_deadline(Duration::from_millis(100));
        let out = Runtime::try_run_opts(2, &Tracer::disabled(), &opts, |comm| {
            if comm.rank() == 0 {
                comm.recv::<u8>(1, 9).map(|_| ())
            } else {
                Ok(())
            }
        })
        .expect("no rank panicked");
        match &out[0] {
            Err(CommError::Timeout { edge, .. }) => {
                assert_eq!((edge.rank, edge.peer, edge.tag), (0, 1, 9));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(out[1].is_ok());
    }

    #[test]
    fn dropped_message_surfaces_as_timeout_on_the_receiver() {
        // Drop the first app-tagged message 0 -> 1; rank 1 then waits until
        // its deadline and reports the exact missing edge.
        let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::App, 0));
        let opts = JobOptions::default()
            .with_deadline(Duration::from_millis(100))
            .with_faults(plan);
        let out = Runtime::try_run_opts(2, &Tracer::disabled(), &opts, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, 42u8)?;
                Ok(0)
            } else {
                comm.recv::<u8>(0, 4)
            }
        })
        .expect("no rank panicked");
        assert!(out[0].is_ok());
        match &out[1] {
            Err(CommError::Timeout { edge, .. }) => {
                assert_eq!((edge.rank, edge.peer, edge.tag), (1, 0, 4));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn killed_rank_shuts_down_and_peers_time_out() {
        // Rank 0 is killed at its first eligible send; it returns
        // `Shutdown` itself while rank 1, waiting on it, times out.
        let plan = Arc::new(FaultPlan::new().kill_rank(0, 0));
        let opts = JobOptions::default()
            .with_deadline(Duration::from_millis(100))
            .with_faults(plan);
        let out = Runtime::try_run_opts(2, &Tracer::disabled(), &opts, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, 1u8)?;
                Ok(0u8)
            } else {
                comm.recv::<u8>(0, 4)
            }
        })
        .expect("no rank panicked");
        assert!(
            matches!(&out[0], Err(CommError::Shutdown { rank: 0, .. })),
            "{:?}",
            out[0]
        );
        assert!(
            matches!(&out[1], Err(CommError::Timeout { .. })),
            "{:?}",
            out[1]
        );
    }

    #[test]
    fn delayed_message_still_arrives() {
        // A 20 ms delay fault holds the message back, but the receive
        // (deadline 500 ms) picks it up once it becomes due — by waiting,
        // not polling.
        let plan = Arc::new(FaultPlan::new().delay_nth(Some(0), Some(1), TagClass::App, 0, 0.02));
        let opts = JobOptions::default()
            .with_deadline(Duration::from_millis(500))
            .with_faults(plan);
        let out = Runtime::try_run_opts(2, &Tracer::disabled(), &opts, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, 7u8)?;
                Ok(0)
            } else {
                comm.recv::<u8>(0, 4)
            }
        })
        .expect("no rank panicked");
        assert_eq!(out[1].as_ref().copied().unwrap(), 7);
    }

    #[test]
    fn duplicate_fault_is_absorbed_without_disturbing_matching() {
        // The duplicated message's ghost copy travels on a reserved tag no
        // receive ever matches; both ranks complete and ledgers ignore it.
        let plan = Arc::new(FaultPlan::new().duplicate_nth(Some(0), Some(1), TagClass::App, 0));
        let opts = JobOptions::default()
            .with_deadline(Duration::from_millis(500))
            .with_faults(plan);
        let out = Runtime::try_run_opts(2, &Tracer::disabled(), &opts, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, 9u8)?;
                comm.send(1, 4, 10u8)?;
                Ok::<_, CommError>((0usize, comm.stats()))
            } else {
                let a = comm.recv::<u8>(0, 4)?;
                let b = comm.recv::<u8>(0, 4)?;
                Ok((a as usize * 100 + b as usize, comm.stats()))
            }
        })
        .expect("no rank panicked");
        let (val, ref sender_stats) = *out[0].as_ref().unwrap();
        assert_eq!(val, 0);
        assert_eq!(sender_stats.faults_injected, 1);
        // The duplicate does not inflate the send ledger.
        assert_eq!(sender_stats.msgs_sent, 2);
        assert_eq!(out[1].as_ref().unwrap().0, 910);
    }

    #[test]
    fn cancellation_unwinds_a_blocked_rank() {
        // Rank 1 cancels the job (shared flag) and pokes rank 0 awake;
        // rank 0's blocking wait returns `Cancelled` instead of hanging.
        let out = Runtime::try_run_opts(2, &Tracer::disabled(), &JobOptions::default(), |comm| {
            if comm.rank() == 0 {
                comm.recv::<u8>(1, 3).map(|_| ())
            } else {
                comm.cancel_job();
                Ok(())
            }
        })
        .expect("no rank panicked");
        match &out[0] {
            Err(CommError::Cancelled { edge, .. }) => assert_eq!(edge.rank, 0),
            other => panic!("expected cancelled, got {other:?}"),
        }
    }
}
