//! A persistent rank pool: `p` worker threads created once, executing a
//! sequence of SPMD jobs without respawning.
//!
//! [`crate::Runtime::run`] plays `mpirun`: it spawns `p` OS threads,
//! runs one SPMD function, and joins them. That is the right shape for a
//! test or a single experiment, but a serving process multiplies many
//! matrices back to back, and paying thread creation, wiring and teardown
//! per call puts `O(p)` system calls on every request's critical path.
//!
//! [`RankPool`] keeps the world alive between jobs:
//!
//! * workers and their mailbox wiring are created **once** in
//!   [`RankPool::new`] (failures surface as [`RuntimeError::Spawn`], not
//!   a process abort);
//! * each [`RankPool::run`] dispatches one SPMD closure to all ranks and
//!   collects their results — a *job*;
//! * jobs are demarcated by **epochs**: every message carries its job's
//!   epoch, mailboxes purge stragglers at the epoch boundary, and the
//!   per-job [`CommStats`] start from zero, so a job's report describes
//!   that job only (see [`PoolRun`]);
//! * a panicking rank fails **its job**, not the pool: peers are poisoned
//!   (scoped to the epoch), the error is returned as
//!   [`RuntimeError::RankPanicked`], and the workers go on to the next
//!   job on a clean epoch.
//!
//! Jobs must be well-formed SPMD programs: every message a job sends to a
//! rank that survives the job must be received by it or be discardable —
//! leftovers are dropped at the next epoch boundary. A job that deadlocks
//! (a receive nothing will satisfy) blocks the pool, exactly as it would
//! block `mpirun`.

use crate::comm::Comm;
use crate::error::RuntimeError;
use crate::message::{JobCtl, Mailbox, MailboxSender};
use crate::runtime::{panic_message, poison_members, primary_panic, JobOptions};
use crate::stats::CommStats;
use hsumma_trace::{FaultPlan, FaultState, TraceSink, Tracer};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Extra wall-clock slack the pool watchdog grants past a job's deadline
/// before it steps in. Ranks parked in a blocking wait enforce the
/// deadline themselves; the watchdog only has to catch ranks that are
/// stuck *outside* the communication layer (long local compute), and the
/// slack keeps it from racing the ranks' own timeout reporting.
const WATCHDOG_GRACE: Duration = Duration::from_millis(50);

/// A boxed SPMD closure as shipped to the workers: rank-typed results are
/// erased here and recovered by downcast in [`RankPool::run_traced`].
type JobFn = Arc<dyn Fn(&mut Comm) -> Box<dyn Any + Send> + Send + Sync>;

/// What a worker reports back per job: the erased result, or the panic
/// message if the rank's closure panicked.
type RankResult = Result<Box<dyn Any + Send>, String>;

struct Job {
    epoch: u64,
    f: JobFn,
    sink: TraceSink,
    ctl: JobCtl,
    faults: Option<Arc<FaultPlan>>,
    /// World ranks participating in this job, ordered by local rank. The
    /// whole pool for ordinary jobs; a carved subset for sub-pool jobs.
    members: Arc<Vec<usize>>,
    /// Reports `(local rank, result, stats)` back to the dispatcher.
    result_tx: mpsc::Sender<(usize, RankResult, CommStats)>,
}

/// The outcome of one pooled job: per-rank results (indexed by rank) and
/// the per-rank communication statistics *of this job only* — each job
/// starts its counters from zero, so these are epoch deltas, not pool
/// lifetime accumulations.
#[derive(Debug)]
pub struct PoolRun<R> {
    /// Rank results, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank [`CommStats`] accumulated by this job alone.
    pub stats: Vec<CommStats>,
}

/// A persistent world of `p` rank threads executing SPMD jobs in
/// sequence. See the [module docs](self) for the contract.
///
/// ```
/// use hsumma_runtime::RankPool;
///
/// let mut pool = RankPool::new(4).expect("spawn");
/// // Two jobs on the same threads — no respawn in between.
/// let a = pool.run(|comm| comm.rank()).unwrap();
/// let b = pool.run(|comm| comm.size()).unwrap();
/// assert_eq!(a.results, vec![0, 1, 2, 3]);
/// assert_eq!(b.results, vec![4, 4, 4, 4]);
/// ```
pub struct RankPool {
    job_txs: Vec<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    /// Mailbox senders of every rank, kept so the watchdog can wake
    /// blocked ranks when it cancels an overrunning job.
    senders: Arc<Vec<MailboxSender>>,
    /// Per-rank stats merged over every completed job (pool lifetime).
    lifetime: Arc<Vec<Mutex<CommStats>>>,
    /// Epoch allocator shared with every carved [`SubPool`]: each
    /// dispatched job draws a fresh epoch, so no two in-flight jobs —
    /// concurrent sub-pool jobs included — can ever share one. Starts
    /// at 1: epoch 0 is the one-shot [`crate::Runtime`] world, so pooled
    /// traffic never collides with it.
    epochs: Arc<AtomicU64>,
    /// Jobs dispatched (whole-pool and sub-pool alike).
    jobs_run: Arc<AtomicU64>,
    p: usize,
}

impl RankPool {
    /// Spawns the `p` worker threads and wires their mailboxes. The
    /// threads park on an empty job queue until [`RankPool::run`].
    ///
    /// On a refused spawn, the workers already launched are shut down and
    /// joined before [`RuntimeError::Spawn`] is returned — a failed pool
    /// launch leaks nothing.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Result<Self, RuntimeError> {
        assert!(p > 0, "need at least one rank");
        let mut senders = Vec::with_capacity(p);
        let mut mailboxes = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = Mailbox::new();
            senders.push(tx);
            mailboxes.push(rx);
        }
        let senders = Arc::new(senders);
        let lifetime: Arc<Vec<Mutex<CommStats>>> =
            Arc::new((0..p).map(|_| Mutex::new(CommStats::default())).collect());

        let mut job_txs = Vec::with_capacity(p);
        let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(p);
        for (rank, mailbox) in mailboxes.into_iter().enumerate() {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            let senders = Arc::clone(&senders);
            let lifetime = Arc::clone(&lifetime);
            let spawned = std::thread::Builder::new()
                .name(format!("pool-rank-{rank}"))
                .spawn(move || worker_loop(rank, senders, mailbox, job_rx, lifetime));
            match spawned {
                Ok(h) => {
                    job_txs.push(job_tx);
                    handles.push(h);
                }
                Err(source) => {
                    // Dropping the queues ends the already-running workers.
                    drop(job_txs);
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(RuntimeError::Spawn { rank, source });
                }
            }
        }
        Ok(RankPool {
            job_txs,
            handles,
            senders,
            lifetime,
            epochs: Arc::new(AtomicU64::new(1)),
            jobs_run: Arc::new(AtomicU64::new(0)),
            p,
        })
    }

    /// Number of ranks in the pool.
    pub fn size(&self) -> usize {
        self.p
    }

    /// Jobs completed (successfully or not) so far, sub-pool jobs
    /// included.
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run.load(Ordering::Relaxed)
    }

    /// Carves the pool into disjoint **sub-pools** of the given sizes —
    /// gang scheduling's substrate. Each [`SubPool`] owns a contiguous
    /// band of the pool's world ranks and dispatches SPMD jobs to *its*
    /// ranks only, so a 64-rank pool can run four 16-rank jobs
    /// concurrently instead of serializing them. Sub-pools may be moved
    /// to other threads (e.g. one dispatcher thread per concurrent job
    /// under [`std::thread::scope`]).
    ///
    /// The borrow checker enforces the ownership handoff: the sub-pools
    /// mutably borrow the pool, so no whole-pool job can be dispatched
    /// while any carve is alive, and dropping the sub-pools returns the
    /// pool whole — the workers never notice, they just see jobs from a
    /// different dispatcher.
    ///
    /// Every per-job mechanism survives the carve unchanged: epochs come
    /// from the pool-wide allocator (concurrent jobs never share one),
    /// deadlines get a per-sub-pool watchdog, fault plans see the job's
    /// *local* ranks, a panicking rank poisons only its own sub-pool's
    /// members, and per-job [`CommStats`]/trace demarcation is identical
    /// to whole-pool jobs.
    ///
    /// Ranks not covered by `sizes` stay parked (idle) until the carve
    /// is dropped.
    ///
    /// # Panics
    /// Panics if `sizes` is empty, any size is zero, or the sizes sum to
    /// more than the pool's rank count.
    pub fn carve(&mut self, sizes: &[usize]) -> Vec<SubPool<'_>> {
        assert!(!sizes.is_empty(), "carve needs at least one sub-pool");
        let total: usize = sizes.iter().sum();
        assert!(
            sizes.iter().all(|&s| s > 0) && total <= self.p,
            "carve sizes {sizes:?} must be positive and sum to ≤ {}",
            self.p
        );
        let mut next = 0;
        sizes
            .iter()
            .map(|&s| {
                let members: Vec<usize> = (next..next + s).collect();
                next += s;
                SubPool {
                    job_txs: members.iter().map(|&r| self.job_txs[r].clone()).collect(),
                    members: Arc::new(members),
                    senders: Arc::clone(&self.senders),
                    epochs: Arc::clone(&self.epochs),
                    jobs_run: Arc::clone(&self.jobs_run),
                    _pool: PhantomData,
                }
            })
            .collect()
    }

    /// Runs one SPMD job on all ranks and returns their results with the
    /// job's per-rank [`CommStats`] deltas.
    ///
    /// A rank panic fails the job — [`RuntimeError::RankPanicked`] names
    /// the originating rank — and the pool remains usable: the next job
    /// starts on a fresh epoch with purged mailboxes.
    pub fn run<R, F>(&mut self, f: F) -> Result<PoolRun<R>, RuntimeError>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        self.run_traced(&Tracer::disabled(), f)
    }

    /// Like [`RankPool::run`], recording the job's events into `tracer`.
    /// Per-job tracing demarcation: hand each job its own [`Tracer`] and
    /// the collected trace contains exactly that job's spans (rank sinks
    /// are claimed at job start and released at job end).
    pub fn run_traced<R, F>(&mut self, tracer: &Tracer, f: F) -> Result<PoolRun<R>, RuntimeError>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        self.run_opts(tracer, &JobOptions::default(), f)
    }

    /// Like [`RankPool::run_traced`] with a per-job failure policy
    /// ([`JobOptions`]): a wall-clock deadline and/or a fault plan.
    ///
    /// With a deadline set, a watchdog on the calling thread backs up the
    /// ranks' own deadline enforcement: if any rank is still out a small
    /// grace period (`WATCHDOG_GRACE`, 50 ms) past the deadline (stuck in
    /// local compute, where
    /// the communication layer cannot observe the deadline), the watchdog
    /// raises the job's cancellation flag and wakes every rank, then goes
    /// back to collecting. The job fails — each affected rank returns
    /// `CommError::Timeout`/`Cancelled` — but the pool keeps its workers:
    /// the next job starts on a fresh epoch with purged mailboxes.
    pub fn run_opts<R, F>(
        &mut self,
        tracer: &Tracer,
        opts: &JobOptions,
        f: F,
    ) -> Result<PoolRun<R>, RuntimeError>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        let members: Arc<Vec<usize>> = Arc::new((0..self.p).collect());
        dispatch_job(
            &self.job_txs,
            &members,
            &self.senders,
            &self.epochs,
            &self.jobs_run,
            tracer,
            opts,
            f,
        )
    }

    /// Per-rank statistics accumulated across every job the pool has run
    /// (the sum of all per-job deltas).
    pub fn lifetime_stats(&self) -> Vec<CommStats> {
        self.lifetime
            .iter()
            .map(|m| m.lock().expect("stats lock").clone())
            .collect()
    }
}

/// A disjoint band of a [`RankPool`]'s ranks, produced by
/// [`RankPool::carve`], running SPMD jobs on *its* members only. Jobs
/// see an ordinary [`Comm`] of `size()` ranks (local ranks `0..size`);
/// epochs, deadlines, watchdog cancellation, fault injection, per-job
/// stats and tracing all behave exactly as on the whole pool.
///
/// `SubPool` is `Send`: carve on one thread, dispatch from another —
/// the intended shape is one dispatcher thread per concurrent gang
/// member under [`std::thread::scope`].
pub struct SubPool<'pool> {
    /// World ranks of this sub-pool, ordered by local rank.
    members: Arc<Vec<usize>>,
    /// Job queues of exactly the member ranks, by local rank.
    job_txs: Vec<mpsc::Sender<Job>>,
    senders: Arc<Vec<MailboxSender>>,
    epochs: Arc<AtomicU64>,
    jobs_run: Arc<AtomicU64>,
    /// The carve mutably borrows the pool: no whole-pool job can be
    /// dispatched while sub-pools are alive.
    _pool: PhantomData<&'pool mut RankPool>,
}

impl SubPool<'_> {
    /// Number of ranks in this sub-pool.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The pool world ranks this sub-pool owns, ordered by local rank.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Runs one SPMD job on this sub-pool's ranks; the closure's `Comm`
    /// has `size()` ranks. Results and per-job [`CommStats`] are indexed
    /// by *local* rank. See [`RankPool::run_opts`] for the deadline /
    /// watchdog / fault semantics, which are identical.
    pub fn run_opts<R, F>(
        &mut self,
        tracer: &Tracer,
        opts: &JobOptions,
        f: F,
    ) -> Result<PoolRun<R>, RuntimeError>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        dispatch_job(
            &self.job_txs,
            &self.members,
            &self.senders,
            &self.epochs,
            &self.jobs_run,
            tracer,
            opts,
            f,
        )
    }

    /// Like [`SubPool::run_opts`] with default options and no tracing.
    pub fn run<R, F>(&mut self, f: F) -> Result<PoolRun<R>, RuntimeError>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        self.run_opts(&Tracer::disabled(), &JobOptions::default(), f)
    }
}

/// The one capability the serving layer needs from an execution target:
/// "run this SPMD job on however many ranks you have". Implemented by
/// the whole [`RankPool`] and by carved [`SubPool`]s, so job-execution
/// code is written once and gang scheduling is purely a dispatch-layer
/// decision.
pub trait PoolExec {
    /// Ranks a job dispatched here will run on.
    fn ranks(&self) -> usize;

    /// Runs one SPMD job under `opts`, tracing into `tracer`.
    fn run_job<R, F>(
        &mut self,
        tracer: &Tracer,
        opts: &JobOptions,
        f: F,
    ) -> Result<PoolRun<R>, RuntimeError>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static;
}

impl PoolExec for RankPool {
    fn ranks(&self) -> usize {
        self.size()
    }

    fn run_job<R, F>(
        &mut self,
        tracer: &Tracer,
        opts: &JobOptions,
        f: F,
    ) -> Result<PoolRun<R>, RuntimeError>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        RankPool::run_opts(self, tracer, opts, f)
    }
}

impl PoolExec for SubPool<'_> {
    fn ranks(&self) -> usize {
        self.size()
    }

    fn run_job<R, F>(
        &mut self,
        tracer: &Tracer,
        opts: &JobOptions,
        f: F,
    ) -> Result<PoolRun<R>, RuntimeError>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        SubPool::run_opts(self, tracer, opts, f)
    }
}

/// The dispatch-and-collect tail shared by whole-pool and sub-pool runs:
/// draw a fresh epoch, ship the job to every member's queue, then gather
/// `(local rank, result, stats)` — arming the deadline watchdog when the
/// job has one. `job_txs` and results are ordered by local rank;
/// `members` maps local ranks to world ranks (for error reporting and
/// watchdog wake-ups, which touch member mailboxes only).
#[allow(clippy::too_many_arguments)]
fn dispatch_job<R, F>(
    job_txs: &[mpsc::Sender<Job>],
    members: &Arc<Vec<usize>>,
    senders: &Arc<Vec<MailboxSender>>,
    epochs: &AtomicU64,
    jobs_run: &AtomicU64,
    tracer: &Tracer,
    opts: &JobOptions,
    f: F,
) -> Result<PoolRun<R>, RuntimeError>
where
    R: Send + 'static,
    F: Fn(&mut Comm) -> R + Send + Sync + 'static,
{
    let p = members.len();
    assert!(
        !tracer.enabled() || tracer.ranks() >= p,
        "tracer sized for {} ranks, job has {}",
        tracer.ranks(),
        p
    );
    let epoch = epochs.fetch_add(1, Ordering::SeqCst);
    jobs_run.fetch_add(1, Ordering::Relaxed);

    // One absolute deadline and one shared cancellation flag for the
    // whole job, fixed at dispatch.
    let ctl = JobCtl::with_timeout(opts.deadline);
    let token = ctl.cancel_token();

    let f: JobFn = Arc::new(move |comm: &mut Comm| -> Box<dyn Any + Send> { Box::new(f(comm)) });
    let (result_tx, result_rx) = mpsc::channel();
    for (local, tx) in job_txs.iter().enumerate() {
        let job = Job {
            epoch,
            f: Arc::clone(&f),
            sink: tracer.sink(local),
            ctl: ctl.clone(),
            faults: opts.faults.clone(),
            members: Arc::clone(members),
            result_tx: result_tx.clone(),
        };
        if tx.send(job).is_err() {
            return Err(RuntimeError::WorkerLost {
                rank: members[local],
            });
        }
    }
    drop(result_tx);

    let mut results: Vec<Option<(RankResult, CommStats)>> = (0..p).map(|_| None).collect();
    let mut watchdog_armed = ctl.deadline();
    let mut received = 0;
    while received < p {
        let msg = if let Some(d) = watchdog_armed {
            let wait = (d + WATCHDOG_GRACE).saturating_duration_since(Instant::now());
            match result_rx.recv_timeout(wait) {
                Ok(msg) => Ok(msg),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Deadline (plus grace) passed with ranks still
                    // out: cancel the job and wake every member rank,
                    // then keep collecting — the ranks unwind with
                    // `Timeout`/`Cancelled` and the workers survive.
                    // Sibling sub-pools' ranks are not touched.
                    token.cancel();
                    for &world in members.iter() {
                        senders[world].deliver_cancel(epoch);
                    }
                    watchdog_armed = None;
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(()),
            }
        } else {
            result_rx.recv().map_err(|_| ())
        };
        match msg {
            Ok((local, res, stats)) => {
                results[local] = Some((res, stats));
                received += 1;
            }
            Err(()) => {
                // A worker died before reporting; identify which.
                let local = results.iter().position(Option::is_none).unwrap_or(0);
                return Err(RuntimeError::WorkerLost {
                    rank: members[local],
                });
            }
        }
    }

    let mut out = Vec::with_capacity(p);
    let mut stats = Vec::with_capacity(p);
    let mut panics: Vec<(usize, String)> = Vec::new();
    for (local, slot) in results.into_iter().enumerate() {
        let (res, st) = slot.expect("all ranks reported");
        stats.push(st);
        match res {
            Ok(boxed) => out.push(
                *boxed
                    .downcast::<R>()
                    .expect("job closure returned its own result type"),
            ),
            Err(message) => panics.push((members[local], message)),
        }
    }
    if !panics.is_empty() {
        let (rank, message) = primary_panic(&panics);
        return Err(RuntimeError::RankPanicked { rank, message });
    }
    Ok(PoolRun {
        results: out,
        stats,
    })
}

impl Drop for RankPool {
    fn drop(&mut self) {
        // Closing the job queues ends the worker loops.
        self.job_txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One pool worker: parks on the job queue, and per job advances its
/// mailbox to the new epoch, rebuilds the world communicator around it,
/// runs the closure, and tears the communicator back down to recover the
/// mailbox for the next job.
fn worker_loop(
    rank: usize,
    senders: Arc<Vec<MailboxSender>>,
    mailbox: Mailbox,
    job_rx: mpsc::Receiver<Job>,
    lifetime: Arc<Vec<Mutex<CommStats>>>,
) {
    let mut parked = Some(mailbox);
    while let Ok(job) = job_rx.recv() {
        let Job {
            epoch,
            f,
            sink,
            ctl,
            faults,
            members,
            result_tx,
        } = job;
        let local = members
            .iter()
            .position(|&w| w == rank)
            .expect("worker received a job it is not a member of");
        let mut mailbox = parked.take().expect("mailbox parked between jobs");
        // Entering the epoch purges everything a previous job left behind
        // (stale payloads and stale poison); messages already sent by
        // faster peers of *this* job are kept.
        mailbox.begin_epoch(epoch);
        let fault_state = faults.map(|plan| FaultState::new(plan, local));
        let mut comm = Comm::group_opts(
            Arc::clone(&senders),
            mailbox,
            rank,
            (*members).clone(),
            sink,
            epoch,
            ctl,
            fault_state,
        );
        let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
        let result: RankResult = match outcome {
            Ok(v) => Ok(v),
            Err(payload) => {
                // Fail the job, not the pool: unblock the job's *member*
                // peers waiting on this rank (poison scoped to this
                // epoch); sibling sub-pools never see it.
                poison_members(&senders, &members, rank, epoch);
                Err(panic_message(payload.as_ref()))
            }
        };
        let (mb, stats) = comm
            .into_parts()
            .expect("job leaked a communicator clone past its end");
        parked = Some(mb);
        lifetime[rank]
            .lock()
            .expect("stats lock")
            .merge_in_place(&stats);
        // Send last: the job is only "done" once the mailbox is parked.
        let _ = result_tx.send((local, result, stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::allreduce;

    #[test]
    fn pool_runs_many_jobs_without_respawn() {
        let mut pool = RankPool::new(4).unwrap();
        for job in 0..10u64 {
            let run = pool
                .run(move |comm| {
                    let next = (comm.rank() + 1) % comm.size();
                    let prev = (comm.rank() + comm.size() - 1) % comm.size();
                    comm.send(next, 1, comm.rank() as u64 + job).unwrap();
                    comm.recv::<u64>(prev, 1).unwrap()
                })
                .unwrap();
            for (rank, got) in run.results.iter().enumerate() {
                assert_eq!(*got, ((rank + 3) % 4) as u64 + job);
            }
        }
        assert_eq!(pool.jobs_run(), 10);
    }

    #[test]
    fn per_job_stats_are_deltas_not_accumulations() {
        let mut pool = RankPool::new(2).unwrap();
        let job = |comm: &mut Comm| {
            let peer = 1 - comm.rank();
            comm.send(peer, 1, vec![0.0f64; 100]).unwrap();
            let _: Vec<f64> = comm.recv(peer, 1).unwrap();
        };
        let first = pool.run(job).unwrap();
        let second = pool.run(job).unwrap();
        // Identical jobs: identical per-job counters, NOT 2x on the second.
        assert_eq!(first.stats[0].msgs_sent, 1);
        assert_eq!(second.stats[0].msgs_sent, 1);
        assert_eq!(second.stats[0].bytes_sent, 800);
        // Lifetime view is the running sum of the deltas.
        let life = pool.lifetime_stats();
        assert_eq!(life[0].msgs_sent, 2);
        assert_eq!(life[1].bytes_recv, 1600);
    }

    #[test]
    fn splits_and_collectives_work_across_jobs() {
        let mut pool = RankPool::new(8).unwrap();
        for _ in 0..3 {
            let run = pool
                .run(|comm| {
                    let sub = comm.split(|r| ((r % 2) as u64, r as i64));
                    allreduce(&sub, comm.rank(), |a, b| a + b).unwrap()
                })
                .unwrap();
            // Evens sum 0+2+4+6 = 12, odds 1+3+5+7 = 16.
            for (rank, sum) in run.results.iter().enumerate() {
                assert_eq!(*sum, if rank % 2 == 0 { 12 } else { 16 });
            }
        }
    }

    #[test]
    fn a_panicking_job_fails_but_the_pool_survives() {
        let mut pool = RankPool::new(4).unwrap();
        // Job 1: rank 2 dies while others wait on it.
        let err = pool
            .run(|comm| {
                if comm.rank() == 2 {
                    panic!("bad job");
                }
                comm.recv::<u8>(2, 1).unwrap()
            })
            .expect_err("job must fail");
        match err {
            RuntimeError::RankPanicked { rank, message } => {
                assert_eq!(rank, 2);
                assert!(message.contains("bad job"));
            }
            other => panic!("wrong error: {other}"),
        }
        // Job 2 on the same pool: clean epoch, correct answers.
        let run = pool.run(|comm| comm.rank() + 10).unwrap();
        assert_eq!(run.results, vec![10, 11, 12, 13]);
    }

    #[test]
    fn unreceived_messages_do_not_leak_into_the_next_job() {
        let mut pool = RankPool::new(2).unwrap();
        // Job 1 sends a message nobody receives.
        pool.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, 123u32).unwrap();
            }
        })
        .unwrap();
        // Job 2 receives on the same (peer, tag): it must get job 2's
        // message, not job 1's straggler.
        let run = pool
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 7, 456u32).unwrap();
                    0
                } else {
                    comm.recv::<u32>(0, 7).unwrap()
                }
            })
            .unwrap();
        assert_eq!(run.results[1], 456);
    }

    #[test]
    fn traced_jobs_get_their_own_spans() {
        let mut pool = RankPool::new(2).unwrap();
        let job = |comm: &mut Comm| {
            let peer = 1 - comm.rank();
            comm.send(peer, 1, vec![1.0f64; 4]).unwrap();
            let _: Vec<f64> = comm.recv(peer, 1).unwrap();
        };
        let t1 = Tracer::new(2);
        pool.run_traced(&t1, job).unwrap();
        let t2 = Tracer::new(2);
        pool.run_traced(&t2, job).unwrap();
        // Each job's tracer holds exactly that job's sends (one per rank).
        assert_eq!(t1.collect().payload_send_multiset().len(), 2);
        assert_eq!(t2.collect().payload_send_multiset().len(), 2);
    }

    #[test]
    fn pool_of_one_rank_works() {
        let mut pool = RankPool::new(1).unwrap();
        let run = pool.run(|comm| comm.size()).unwrap();
        assert_eq!(run.results, vec![1]);
    }

    #[test]
    fn deadline_job_times_out_and_pool_keeps_serving() {
        use hsumma_trace::CommError;
        let mut pool = RankPool::new(4).unwrap();
        // Rank 0 never sends what the others wait for.
        let opts = JobOptions::default().with_deadline(Duration::from_millis(100));
        let run = pool
            .run_opts(&Tracer::disabled(), &opts, |comm| {
                if comm.rank() == 0 {
                    Ok(0u8)
                } else {
                    comm.recv::<u8>(0, 1)
                }
            })
            .unwrap();
        assert!(run.results[0].is_ok());
        for rank in 1..4 {
            match &run.results[rank] {
                Err(CommError::Timeout { edge, .. }) => {
                    assert_eq!((edge.rank, edge.peer), (rank, 0));
                }
                other => panic!("rank {rank}: expected timeout, got {other:?}"),
            }
            assert_eq!(run.stats[rank].timeouts, 1, "rank {rank}");
        }
        // The pool is still healthy: a clean job on a fresh epoch works.
        let next = pool.run(|comm| comm.rank() + 100).unwrap();
        assert_eq!(next.results, vec![100, 101, 102, 103]);
    }

    #[test]
    fn watchdog_cancels_ranks_stuck_outside_the_comm_layer() {
        use hsumma_trace::CommError;
        let mut pool = RankPool::new(2).unwrap();
        // Rank 0 overruns the deadline in *local compute*, where the
        // communication layer cannot observe the deadline, then tries to
        // communicate; rank 1 blocks on it. The watchdog must cancel the
        // job rather than let the dispatch hang.
        let opts = JobOptions::default().with_deadline(Duration::from_millis(80));
        let run = pool
            .run_opts(&Tracer::disabled(), &opts, |comm| {
                if comm.rank() == 0 {
                    std::thread::sleep(Duration::from_millis(300));
                    comm.send(1, 1, 1u8)?;
                    comm.recv::<u8>(1, 2)
                } else {
                    comm.recv::<u8>(0, 1)?;
                    comm.send(0, 2, 2u8)?;
                    Ok(0)
                }
            })
            .unwrap();
        // Rank 1 timed out waiting (its own deadline enforcement); rank 0
        // hit the deadline or the watchdog's cancellation when it finally
        // reached the comm layer.
        assert!(
            matches!(
                run.results[0],
                Err(CommError::Timeout { .. }) | Err(CommError::Cancelled { .. })
            ),
            "{:?}",
            run.results[0]
        );
        assert!(matches!(run.results[1], Err(CommError::Timeout { .. })));
        // Pool survives the overrun.
        let next = pool.run(|comm| comm.rank()).unwrap();
        assert_eq!(next.results, vec![0, 1]);
    }

    #[test]
    fn killed_rank_fails_its_job_but_not_the_pool() {
        use hsumma_trace::{CommError, FaultPlan};
        let mut pool = RankPool::new(3).unwrap();
        let plan = Arc::new(FaultPlan::new().kill_rank(1, 0));
        let opts = JobOptions::default()
            .with_deadline(Duration::from_millis(100))
            .with_faults(plan);
        let run = pool
            .run_opts(&Tracer::disabled(), &opts, |comm| {
                // A ring everyone participates in; rank 1 dies at its
                // first send, so its neighbour times out.
                let next = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                comm.send(next, 1, comm.rank())?;
                comm.recv::<usize>(prev, 1)
            })
            .unwrap();
        assert!(
            matches!(run.results[1], Err(CommError::Shutdown { rank: 1, .. })),
            "{:?}",
            run.results[1]
        );
        // Rank 2 never gets rank 1's message.
        assert!(matches!(run.results[2], Err(CommError::Timeout { .. })));
        assert_eq!(run.stats[1].faults_injected, 1);
        // Workers are recycled, not lost.
        let next = pool.run(|comm| comm.rank() * 2).unwrap();
        assert_eq!(next.results, vec![0, 2, 4]);
    }

    #[test]
    fn per_rank_failure_counters_balance_under_fault_injection() {
        use hsumma_trace::{FaultPlan, TagClass};
        let mut pool = RankPool::new(2).unwrap();
        let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::App, 0));
        let opts = JobOptions::default()
            .with_deadline(Duration::from_millis(100))
            .with_faults(plan);
        let run = pool
            .run_opts(&Tracer::disabled(), &opts, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 5, 1u8)?;
                    Ok(0)
                } else {
                    comm.recv::<u8>(0, 5)
                }
            })
            .unwrap();
        // Exactly one fault was injected, at the sender; exactly one
        // timeout was suffered, at the receiver. The dropped message is
        // not counted as sent, so the world ledger still balances:
        // nothing sent, nothing received.
        let total = run
            .stats
            .iter()
            .fold(CommStats::default(), |acc, s| acc.merge(s));
        assert_eq!(run.stats[0].faults_injected, 1);
        assert_eq!(run.stats[1].timeouts, 1);
        assert_eq!(total.msgs_sent, total.msgs_recv);
        assert_eq!(total.bytes_sent, total.bytes_recv);
    }

    /// The ring-shift job used by the carve tests: every rank sends its
    /// value to the next local rank and returns what it received, so any
    /// cross-sub-pool leakage (a message from a world rank outside the
    /// group) changes the result.
    fn ring_shift(seed: u64) -> impl Fn(&mut Comm) -> u64 + Send + Sync + 'static {
        move |comm: &mut Comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, seed + comm.rank() as u64).unwrap();
            comm.recv::<u64>(prev, 7).unwrap()
        }
    }

    #[test]
    fn carved_sub_pools_run_concurrent_jobs_identical_to_serial() {
        // Serial reference: each job on its own dedicated pool.
        let serial: Vec<Vec<u64>> = [(2, 100u64), (4, 200), (2, 300)]
            .iter()
            .map(|&(p, seed)| {
                let mut pool = RankPool::new(p).unwrap();
                pool.run(ring_shift(seed)).unwrap().results
            })
            .collect();

        // Gang: the same three jobs concurrently on one 8-rank pool.
        let mut pool = RankPool::new(8).unwrap();
        let subs = pool.carve(&[2, 4, 2]);
        assert_eq!(
            subs.iter()
                .map(|s| s.members().to_vec())
                .collect::<Vec<_>>(),
            vec![vec![0, 1], vec![2, 3, 4, 5], vec![6, 7]]
        );
        let mut gang: Vec<Vec<u64>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = subs
                .into_iter()
                .zip([100u64, 200, 300])
                .map(|(mut sub, seed)| {
                    scope.spawn(move || sub.run(ring_shift(seed)).unwrap().results)
                })
                .collect();
            for h in handles {
                gang.push(h.join().unwrap());
            }
        });
        assert_eq!(gang, serial);

        // Carve dropped: the whole pool is usable again for full-width jobs.
        let whole = pool.run(ring_shift(400)).unwrap();
        assert_eq!(whole.results.len(), 8);
        for (rank, got) in whole.results.iter().enumerate() {
            assert_eq!(*got, 400 + ((rank + 7) % 8) as u64);
        }
    }

    #[test]
    fn fault_killed_sub_pool_job_leaves_sibling_untouched() {
        use hsumma_trace::FaultPlan;
        let mut pool = RankPool::new(6).unwrap();
        let mut subs = pool.carve(&[3, 3]);
        let victim_plan = Arc::new(FaultPlan::new().kill_rank(1, 0));
        let opts = JobOptions::default()
            .with_deadline(Duration::from_millis(100))
            .with_faults(victim_plan);
        std::thread::scope(|scope| {
            let mut sub_victim = subs.remove(0);
            let mut sub_ok = subs.remove(0);
            let victim = scope.spawn(move || {
                sub_victim.run_opts(&Tracer::disabled(), &opts, |comm| {
                    // Local rank 1 dies at its first send; its ring
                    // neighbours unwind with Shutdown/Timeout.
                    let next = (comm.rank() + 1) % comm.size();
                    let prev = (comm.rank() + comm.size() - 1) % comm.size();
                    comm.send(next, 7, comm.rank() as u64)?;
                    comm.recv::<u64>(prev, 7)
                })
            });
            let ok = scope.spawn(move || sub_ok.run(ring_shift(500)));
            // The killed local rank 1 poisons only its own members; the
            // sibling's ring completes with correct values.
            let run = ok.join().unwrap().unwrap();
            assert_eq!(run.results, vec![502, 500, 501]);
            let failed = victim.join().unwrap().unwrap();
            assert!(failed.results.iter().any(|r| r.is_err()));
        });
        // Both bands of workers survive for the next whole-pool job.
        let next = pool.run(|comm| comm.rank()).unwrap();
        assert_eq!(next.results, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn carve_rejects_oversubscription() {
        let mut pool = RankPool::new(4).unwrap();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.carve(&[3, 2]);
        }));
        assert!(err.is_err());
    }
}
