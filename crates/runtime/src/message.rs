//! Message envelopes and per-rank mailboxes.
//!
//! Every rank owns one [`Mailbox`]: a queue of [`Envelope`]s behind one
//! mutex, and a condition variable its owner parks on. Senders append to
//! the queue; the owner matches MPI-style on `(context, source, tag)`
//! under the same lock, always taking the oldest match, so per-(sender,
//! context, tag) FIFO order holds. A message that arrives before its
//! receive is posted simply waits in the queue — there is one queue, and
//! every scan reads all of it, poison markers included.
//!
//! A receiver about to park *posts* the key it waits for. A sender wakes
//! it only when the envelope it appends matches that key or is a poison
//! marker of the current job; any other envelope is queued without a
//! wake-up. Cancellation wakes a parked receiver through
//! [`MailboxSender::deliver_cancel`].
//!
//! Every blocking wait is bounded: [`Mailbox::recv`] takes a [`JobCtl`]
//! carrying the job's optional deadline and a shared cancellation flag,
//! and returns a [`RecvFault`] instead of hanging when the deadline
//! passes, the job is cancelled, or a peer dies. There is no polling loop
//! on the clean path, and the clock is read only when the job has a
//! deadline or a delay-faulted message is pending.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Identifies a communicator instance. Operations on different
/// communicators never match each other even with equal tags, mirroring
/// MPI's communication contexts.
pub type Context = u64;

/// Reserved context delivered by a dying rank to all peers so that anyone
/// blocked waiting on it fails fast instead of deadlocking.
pub const POISON_CTX: Context = u64::MAX;

/// User-level message tag.
pub type Tag = u64;

/// A message in flight: routing metadata plus a type-erased payload.
pub struct Envelope {
    /// Communicator context the message was sent on.
    pub ctx: Context,
    /// *World* rank of the sender.
    pub src: usize,
    /// User tag.
    pub tag: Tag,
    /// Job epoch the message belongs to. [`crate::Runtime::run`] always
    /// uses epoch 0; the persistent [`crate::RankPool`] stamps every
    /// message with the running job's epoch so stragglers from a finished
    /// (or crashed) job can never match — or poison — a later one.
    pub epoch: u64,
    /// Earliest instant the receiver may match this message. `None` for
    /// normal traffic; set by a `Delay` fault injected at the send path.
    pub not_before: Option<Instant>,
    /// The payload; downcast on receipt.
    pub payload: Box<dyn Any + Send>,
}

impl Envelope {
    fn matches(&self, (ctx, src, tag): Key) -> bool {
        self.ctx == ctx && self.src == src && self.tag == tag
    }
}

/// What a receive matches on: `(context, world source, tag)`.
type Key = (Context, usize, Tag);

/// Why a bounded mailbox wait gave up. The communicator layer wraps this
/// into a `CommError` that names the full `(rank, peer, ctx, tag, epoch)`
/// edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvFault {
    /// The job deadline passed while waiting.
    Timeout,
    /// The job's cancellation flag was raised while waiting.
    Cancelled,
    /// A current-epoch poison marker arrived: world rank `src` died.
    PeerDead {
        /// World rank of the dead peer.
        src: usize,
    },
    /// Every sender is gone — no message can arrive any more.
    Closed,
}

/// Per-job wait bounds shared by every blocking mailbox operation: an
/// optional absolute deadline plus a cancellation flag that a watchdog
/// (holding a [`CancelToken`]) can raise from outside the rank threads.
#[derive(Clone)]
pub struct JobCtl {
    deadline: Option<Instant>,
    cancelled: Arc<AtomicBool>,
}

impl JobCtl {
    /// No deadline, fresh (never-raised) cancellation flag.
    pub fn unbounded() -> Self {
        JobCtl {
            deadline: None,
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Deadline `timeout` from now, fresh cancellation flag.
    pub fn with_timeout(timeout: Option<Duration>) -> Self {
        JobCtl {
            deadline: timeout.map(|d| Instant::now() + d),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A control block sharing an existing cancellation flag (so all
    /// ranks of one job are cancelled together).
    pub fn with_parts(deadline: Option<Instant>, cancelled: Arc<AtomicBool>) -> Self {
        JobCtl {
            deadline,
            cancelled,
        }
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the cancellation flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// A handle that can raise the cancellation flag from another thread.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            flag: Arc::clone(&self.cancelled),
        }
    }

    /// A copy of this control block with the deadline tightened to
    /// `at` (keeps the shared cancellation flag).
    pub fn tightened(&self, at: Instant) -> JobCtl {
        let deadline = Some(self.deadline.map_or(at, |d| d.min(at)));
        JobCtl {
            deadline,
            cancelled: Arc::clone(&self.cancelled),
        }
    }
}

/// Raises a job's cancellation flag. Waking ranks that are parked in a
/// blocking wait additionally requires poking their mailboxes (see
/// [`MailboxSender::deliver_cancel`]); the pool watchdog does both.
#[derive(Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Raises the flag. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The lock-protected half of a mailbox.
struct Queue {
    /// Delivered envelopes not yet received, in arrival order.
    envelopes: VecDeque<Envelope>,
    /// The job epoch the owner accepts. Envelopes from other epochs are
    /// stragglers from another pooled job (poison included): they never
    /// match, never wake the owner, and are dropped when a scan meets them.
    epoch: u64,
    /// The key the owner is parked on, while it is parked.
    posted: Option<Key>,
}

/// What one scan of the queue found for a key.
enum Scan {
    /// The oldest due match, removed from the queue.
    Found(Envelope),
    /// No due match, but a current-epoch poison marker from this rank.
    Dead(usize),
    /// Nothing yet; the earliest release instant of a delayed match.
    Pending(Option<Instant>),
}

/// The current instant, read at most once per scan and only if needed.
#[derive(Default)]
struct Clock(Option<Instant>);

impl Clock {
    fn now(&mut self) -> Instant {
        *self.0.get_or_insert_with(Instant::now)
    }
}

impl Queue {
    /// Finds the oldest due envelope matching `key`, dropping stale-epoch
    /// envelopes on the way.
    fn scan(&mut self, key: Key, clock: &mut Clock) -> Scan {
        let mut dead = None;
        let mut next_due: Option<Instant> = None;
        let mut i = 0;
        while i < self.envelopes.len() {
            let env = &self.envelopes[i];
            if env.epoch != self.epoch {
                self.envelopes.remove(i);
                continue;
            }
            if env.ctx == POISON_CTX {
                dead = dead.or(Some(env.src));
            } else if env.matches(key) {
                match env.not_before {
                    Some(t) if clock.now() < t => {
                        next_due = Some(next_due.map_or(t, |n| n.min(t)));
                    }
                    _ => return Scan::Found(self.envelopes.remove(i).expect("index in range")),
                }
            }
            i += 1;
        }
        match dead {
            Some(src) => Scan::Dead(src),
            None => Scan::Pending(next_due),
        }
    }

    /// Whether appending `env` must wake the parked owner: it matches the
    /// posted key or reports a dead peer, in the owner's epoch. Clears the
    /// posted key, so one wake-up answers one park.
    fn wakes_for(&mut self, env: &Envelope) -> bool {
        let wake = env.epoch == self.epoch
            && self
                .posted
                .is_some_and(|key| env.ctx == POISON_CTX || env.matches(key));
        if wake {
            self.posted = None;
        }
        wake
    }
}

/// What a mailbox's owner and its senders share.
struct Shared {
    queue: Mutex<Queue>,
    /// The owner parks here; senders notify it after releasing the lock.
    ready: Condvar,
    /// Live [`MailboxSender`]s. At zero no message can arrive any more,
    /// and a wait reports [`RecvFault::Closed`].
    senders: AtomicUsize,
    /// Notifications sent to the owner (test hook).
    #[cfg(test)]
    wakes: AtomicUsize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Nothing panics while holding the lock (payloads are downcast
        // after it is released), so a poisoned lock guards a whole queue.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wake(&self) {
        #[cfg(test)]
        self.wakes.fetch_add(1, Ordering::Relaxed);
        self.ready.notify_one();
    }
}

/// Sending half of a rank's mailbox; cloneable, one per peer.
pub struct MailboxSender {
    shared: Arc<Shared>,
}

impl Clone for MailboxSender {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::Relaxed);
        MailboxSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for MailboxSender {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // The last sender: an owner that read a nonzero count under
            // the lock is parked by the time the lock is free again.
            drop(self.shared.lock());
            self.shared.ready.notify_one();
        }
    }
}

impl MailboxSender {
    /// Deposits an envelope. Never blocks beyond the queue lock (the
    /// queue is unbounded, like an eager-protocol MPI send). The lock is
    /// held for the append and one key comparison; the wake-up, if any,
    /// is sent after it is released.
    pub fn deliver(&self, env: Envelope) {
        let wake = {
            let mut q = self.shared.lock();
            let wake = q.wakes_for(&env);
            q.envelopes.push_back(env);
            wake
        };
        if wake {
            self.shared.wake();
        }
    }

    /// Wakes the owner if it is parked in a blocking wait at `epoch`, so
    /// it notices a raised cancellation flag. Queues nothing.
    pub fn deliver_cancel(&self, epoch: u64) {
        let wake = {
            let mut q = self.shared.lock();
            q.epoch == epoch && q.posted.take().is_some()
        };
        if wake {
            self.shared.wake();
        }
    }

    /// Whether the owner is parked on a posted receive (test hook).
    #[cfg(test)]
    fn owner_parked(&self) -> bool {
        self.shared.lock().posted.is_some()
    }

    /// Wake-ups sent to the owner so far (test hook).
    #[cfg(test)]
    fn wakes(&self) -> usize {
        self.shared.wakes.load(Ordering::Relaxed)
    }
}

/// Receiving half: owned by exactly one rank thread.
pub struct Mailbox {
    shared: Arc<Shared>,
}

impl Mailbox {
    /// Creates a connected (sender, receiver) mailbox pair at epoch 0.
    pub fn new() -> (MailboxSender, Mailbox) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                envelopes: VecDeque::new(),
                epoch: 0,
                posted: None,
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            #[cfg(test)]
            wakes: AtomicUsize::new(0),
        });
        (
            MailboxSender {
                shared: Arc::clone(&shared),
            },
            Mailbox { shared },
        )
    }

    /// The job epoch the mailbox currently accepts.
    pub fn epoch(&self) -> u64 {
        self.shared.lock().epoch
    }

    /// Advances the mailbox to a new job epoch, purging everything left
    /// over from earlier epochs (payloads, poison and fault-duplicated
    /// messages alike). Messages of the *new* epoch — sent by pool
    /// workers that entered the job first — are kept, in arrival order.
    pub fn begin_epoch(&mut self, epoch: u64) {
        let mut q = self.shared.lock();
        q.epoch = epoch;
        q.envelopes.retain(|e| e.epoch == epoch);
    }

    /// Blocks until a message matching `(ctx, src, tag)` is available and
    /// returns its payload, downcast to `T` — or a [`RecvFault`] when the
    /// wait is cut short by `ctl`'s deadline, `ctl`'s cancellation flag,
    /// or a peer's death. A match that is already queued wins over a
    /// queued poison marker. The wait parks on the mailbox's condition
    /// variable (no spinning); delay-faulted messages are held until
    /// their release instant.
    ///
    /// # Panics
    /// Panics only if the matching message's payload is not a `T` (a type
    /// confusion bug in the caller).
    pub fn recv<T: Any + Send>(
        &mut self,
        ctx: Context,
        src: usize,
        tag: Tag,
        ctl: &JobCtl,
    ) -> Result<T, RecvFault> {
        let key = (ctx, src, tag);
        let mut q = self.shared.lock();
        loop {
            if ctl.is_cancelled() {
                return Err(RecvFault::Cancelled);
            }
            let mut clock = Clock::default();
            if ctl.deadline().is_some_and(|d| clock.now() >= d) {
                return Err(RecvFault::Timeout);
            }
            let next_due = match q.scan(key, &mut clock) {
                Scan::Found(env) => {
                    drop(q);
                    return Ok(Self::downcast(env));
                }
                Scan::Dead(src) => return Err(RecvFault::PeerDead { src }),
                Scan::Pending(next_due) => next_due,
            };
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvFault::Closed);
            }
            // Park until a sender hands over a match, or until the
            // deadline or the earliest delayed match's release instant.
            let bound = match (ctl.deadline(), next_due) {
                (Some(d), Some(n)) => Some(d.min(n)),
                (d, n) => d.or(n),
            };
            q.posted = Some(key);
            q = match bound {
                None => self
                    .shared
                    .ready
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(until) => {
                    let left = until.saturating_duration_since(clock.now());
                    self.shared
                        .ready
                        .wait_timeout(q, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            q.posted = None;
        }
    }

    /// Non-blocking variant of [`Mailbox::recv`]: returns `Ok(None)` when
    /// no matching message has arrived (or none is due) yet — an
    /// `MPI_Iprobe` + receive. Surfaces peer death like `recv` does.
    pub fn try_recv<T: Any + Send>(
        &mut self,
        ctx: Context,
        src: usize,
        tag: Tag,
    ) -> Result<Option<T>, RecvFault> {
        let mut q = self.shared.lock();
        match q.scan((ctx, src, tag), &mut Clock::default()) {
            Scan::Found(env) => {
                drop(q);
                Ok(Some(Self::downcast(env)))
            }
            Scan::Dead(src) => Err(RecvFault::PeerDead { src }),
            Scan::Pending(_) => Ok(None),
        }
    }

    /// Number of delivered messages not yet received (test hook).
    pub fn unexpected_len(&self) -> usize {
        self.shared.lock().envelopes.len()
    }

    fn downcast<T: Any + Send>(env: Envelope) -> T {
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "type mismatch receiving (src={}, ctx={:#x}, tag={:#x}, epoch={}): payload is not a {}",
                env.src,
                env.ctx,
                env.tag,
                env.epoch,
                std::any::type_name::<T>()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> JobCtl {
        JobCtl::unbounded()
    }

    fn envelope(ctx: Context, src: usize, tag: Tag, epoch: u64, v: impl Any + Send) -> Envelope {
        Envelope {
            ctx,
            src,
            tag,
            epoch,
            not_before: None,
            payload: Box::new(v),
        }
    }

    #[test]
    fn direct_delivery_and_receive() {
        let (tx, mut mb) = Mailbox::new();
        tx.deliver(envelope(1, 0, 7, 0, 42u32));
        let v: u32 = mb.recv(1, 0, 7, &ctl()).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn out_of_order_messages_are_buffered() {
        let (tx, mut mb) = Mailbox::new();
        tx.deliver(envelope(1, 0, 1, 0, "first"));
        tx.deliver(envelope(1, 0, 2, 0, "second"));
        // Receive tag 2 first; tag 1 must be parked, not lost.
        let s2: &str = mb.recv(1, 0, 2, &ctl()).unwrap();
        assert_eq!(s2, "second");
        assert_eq!(mb.unexpected_len(), 1);
        let s1: &str = mb.recv(1, 0, 1, &ctl()).unwrap();
        assert_eq!(s1, "first");
        assert_eq!(mb.unexpected_len(), 0);
    }

    #[test]
    fn fifo_order_preserved_per_sender_and_tag() {
        let (tx, mut mb) = Mailbox::new();
        for i in 0..10u64 {
            tx.deliver(envelope(0, 3, 5, 0, i));
        }
        for want in 0..10u64 {
            let got: u64 = mb.recv(0, 3, 5, &ctl()).unwrap();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn contexts_do_not_cross_match() {
        let (tx, mut mb) = Mailbox::new();
        tx.deliver(envelope(10, 0, 0, 0, 1i32));
        tx.deliver(envelope(20, 0, 0, 0, 2i32));
        let from_ctx20: i32 = mb.recv(20, 0, 0, &ctl()).unwrap();
        assert_eq!(from_ctx20, 2);
        let from_ctx10: i32 = mb.recv(10, 0, 0, &ctl()).unwrap();
        assert_eq!(from_ctx10, 1);
    }

    #[test]
    fn begin_epoch_purges_stale_keeps_current() {
        let (tx, mut mb) = Mailbox::new();
        // Parked from epoch 0, plus channel backlog from epochs 0 and 1.
        tx.deliver(envelope(1, 0, 1, 0, 10u32));
        let none: Option<u32> = mb.try_recv(9, 0, 9).unwrap(); // parks the epoch-0 msg
        assert!(none.is_none());
        tx.deliver(envelope(1, 0, 2, 0, 20u32));
        tx.deliver(envelope(1, 0, 3, 1, 30u32)); // early arrival for the next job
        mb.begin_epoch(1);
        assert_eq!(mb.epoch(), 1);
        assert_eq!(mb.unexpected_len(), 1, "only the epoch-1 message survives");
        let v: u32 = mb.recv(1, 0, 3, &ctl()).unwrap();
        assert_eq!(v, 30);
    }

    #[test]
    fn stale_epoch_messages_are_dropped_in_recv_path() {
        let (tx, mut mb) = Mailbox::new();
        mb.begin_epoch(2);
        tx.deliver(envelope(1, 0, 1, 1, 10u32)); // straggler from a finished job
        tx.deliver(envelope(1, 0, 1, 2, 20u32));
        let v: u32 = mb.recv(1, 0, 1, &ctl()).unwrap();
        assert_eq!(v, 20, "current-epoch message matches, straggler dropped");
        assert_eq!(mb.unexpected_len(), 0);
    }

    #[test]
    fn stale_poison_is_ignored() {
        let (tx, mut mb) = Mailbox::new();
        mb.begin_epoch(5);
        // Poison from a previous job's crash must not kill this epoch.
        tx.deliver(envelope(POISON_CTX, 3, 0, 4, ()));
        tx.deliver(envelope(0, 0, 7, 5, 42u32));
        let v: u32 = mb.recv(0, 0, 7, &ctl()).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn current_epoch_poison_names_the_dead_peer() {
        let (tx, mut mb) = Mailbox::new();
        mb.begin_epoch(5);
        tx.deliver(envelope(POISON_CTX, 3, 0, 5, ()));
        let got = mb.recv::<u32>(0, 0, 7, &ctl());
        assert_eq!(got.unwrap_err(), RecvFault::PeerDead { src: 3 });
    }

    #[test]
    fn poison_that_arrives_before_the_epoch_begins_still_ends_the_wait() {
        // A pool rank that panics at once poisons its peers before a
        // slower one has entered the job: `begin_epoch` then finds the
        // poison already in the channel. A bounded wait, so that losing
        // it reads as a timeout here and not as a hung suite.
        let (tx, mut mb) = Mailbox::new();
        tx.deliver(envelope(POISON_CTX, 2, 0, 5, ()));
        mb.begin_epoch(5);
        let ctl = JobCtl::with_timeout(Some(Duration::from_millis(200)));
        let got = mb.recv::<u32>(0, 2, 1, &ctl);
        assert_eq!(got.unwrap_err(), RecvFault::PeerDead { src: 2 });
        assert_eq!(
            mb.try_recv::<u32>(0, 2, 1).unwrap_err(),
            RecvFault::PeerDead { src: 2 }
        );
    }

    #[test]
    fn deadline_bounds_a_wait_on_an_empty_mailbox() {
        let (_tx, mut mb) = Mailbox::new();
        let ctl = JobCtl::with_timeout(Some(Duration::from_millis(20)));
        let start = Instant::now();
        let got = mb.recv::<u32>(0, 0, 7, &ctl);
        assert_eq!(got.unwrap_err(), RecvFault::Timeout);
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn cancel_envelope_wakes_a_parked_wait() {
        let (tx, mut mb) = Mailbox::new();
        let ctl = ctl();
        let token = ctl.cancel_token();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            token.cancel();
            tx.deliver_cancel(0);
            tx // keep the channel open past the cancel
        });
        // No deadline: the wait parks in the channel and must be woken by
        // the control envelope, not by polling.
        let got = mb.recv::<u32>(0, 0, 7, &ctl);
        assert_eq!(got.unwrap_err(), RecvFault::Cancelled);
        drop(waker.join().unwrap());
    }

    #[test]
    fn delayed_envelope_is_held_until_due() {
        let (tx, mut mb) = Mailbox::new();
        let hold = Duration::from_millis(25);
        tx.deliver(Envelope {
            ctx: 0,
            src: 0,
            tag: 7,
            epoch: 0,
            not_before: Some(Instant::now() + hold),
            payload: Box::new(9u32),
        });
        assert!(
            mb.try_recv::<u32>(0, 0, 7).unwrap().is_none(),
            "not due yet"
        );
        let start = Instant::now();
        let v: u32 = mb.recv(0, 0, 7, &ctl()).unwrap();
        assert_eq!(v, 9);
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn closed_channel_reports_closed_not_panic() {
        let (tx, mut mb) = Mailbox::new();
        drop(tx);
        let got = mb.recv::<u32>(0, 0, 7, &ctl());
        assert_eq!(got.unwrap_err(), RecvFault::Closed);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_type_panics_with_diagnostic() {
        let (tx, mut mb) = Mailbox::new();
        tx.deliver(envelope(0, 0, 0, 0, 1u8));
        let _: String = mb.recv(0, 0, 0, &ctl()).unwrap();
    }
}

#[cfg(test)]
mod posted_receive_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use std::thread;

    fn envelope(ctx: Context, src: usize, tag: Tag, epoch: u64, v: impl Any + Send) -> Envelope {
        Envelope {
            ctx,
            src,
            tag,
            epoch,
            not_before: None,
            payload: Box::new(v),
        }
    }

    /// Bounds every wait below, so a lost wake-up fails the test as a
    /// `Timeout` instead of hanging the suite.
    fn bounded() -> JobCtl {
        JobCtl::with_timeout(Some(Duration::from_secs(20)))
    }

    #[test]
    fn only_the_posted_match_wakes_a_parked_receiver() {
        const N: u32 = 50;
        let (tx, mut mb) = Mailbox::new();
        let receiver = thread::spawn(move || {
            let v: u32 = mb.recv(1, 0, 7, &bounded()).unwrap();
            (v, mb)
        });
        while !tx.owner_parked() {
            thread::yield_now();
        }
        // Wrong tag, wrong source, wrong context, wrong epoch: queued
        // silently, the receiver sleeps on.
        for i in 0..N {
            let (ctx, src, tag, epoch) = match i % 4 {
                0 => (1, 0, 8, 0),
                1 => (1, 3, 7, 0),
                2 => (2, 0, 7, 0),
                _ => (1, 0, 7, 9),
            };
            tx.deliver(envelope(ctx, src, tag, epoch, i));
        }
        assert!(
            tx.owner_parked(),
            "a non-matching delivery woke the receiver"
        );
        assert_eq!(tx.wakes(), 0);
        tx.deliver(envelope(1, 0, 7, 0, 99u32));
        let (v, mb) = receiver.join().unwrap();
        assert_eq!(v, 99);
        assert_eq!(tx.wakes(), 1);
        // The stale-epoch envelopes the scan met are gone; the rest wait.
        assert_eq!(mb.unexpected_len(), (N - N / 4) as usize);
    }

    #[test]
    fn poison_wakes_a_receiver_parked_on_another_peer() {
        let (tx, mut mb) = Mailbox::new();
        let receiver = thread::spawn(move || mb.recv::<u32>(1, 0, 7, &bounded()));
        while !tx.owner_parked() {
            thread::yield_now();
        }
        tx.deliver(envelope(POISON_CTX, 5, 0, 0, ()));
        assert_eq!(
            receiver.join().unwrap().unwrap_err(),
            RecvFault::PeerDead { src: 5 }
        );
        assert_eq!(tx.wakes(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Four senders interleave random (ctx, tag) streams into one
        // mailbox while its owner receives keys in a random order.
        // Every message arrives exactly once, in send order per
        // (src, ctx, tag).
        #[test]
        fn concurrent_senders_keep_per_key_fifo_and_lose_nothing(
            seed in 0u64..u64::MAX,
            per_sender in 1usize..120,
        ) {
            const SENDERS: usize = 4;
            let mut rng = StdRng::seed_from_u64(seed);
            let streams: Vec<Vec<(Context, Tag)>> = (0..SENDERS)
                .map(|_| {
                    (0..per_sender)
                        .map(|_| (rng.gen_range(1u64..3), rng.gen_range(0u64..3)))
                        .collect()
                })
                .collect();
            // The receive order: every (src, ctx, tag) occurrence, shuffled.
            let mut order: Vec<Key> = streams
                .iter()
                .enumerate()
                .flat_map(|(src, s)| s.iter().map(move |&(ctx, tag)| (ctx, src, tag)))
                .collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }

            let (tx, mut mb) = Mailbox::new();
            let senders: Vec<_> = streams
                .into_iter()
                .enumerate()
                .map(|(src, stream)| {
                    let tx = tx.clone();
                    let pause = seed.rotate_left(src as u32 * 16) as usize;
                    thread::spawn(move || {
                        let mut seq: HashMap<(Context, Tag), u32> = HashMap::new();
                        for (i, (ctx, tag)) in stream.into_iter().enumerate() {
                            let n = seq.entry((ctx, tag)).or_default();
                            tx.deliver(envelope(ctx, src, tag, 0, *n));
                            *n += 1;
                            if (pause >> (i % 64)) & 1 == 1 {
                                thread::yield_now();
                            }
                        }
                    })
                })
                .collect();

            // `tx` stays alive until every message is in: a receiver that
            // parks is woken by the sender of its match, never by the
            // last sender hanging up.
            let ctl = bounded();
            let mut want: HashMap<Key, u32> = HashMap::new();
            for key @ (ctx, src, tag) in order {
                let got: u32 = mb
                    .recv(ctx, src, tag, &ctl)
                    .unwrap_or_else(|f| panic!("seed {seed}: recv {key:?} failed: {f:?}"));
                let next = want.entry(key).or_default();
                prop_assert_eq!(got, *next, "seed {}: key {:?} out of order", seed, key);
                *next += 1;
            }
            for s in senders {
                s.join().unwrap();
            }
            drop(tx);
            prop_assert_eq!(mb.unexpected_len(), 0, "seed {}: unreceived messages", seed);
            // Every sender is gone and the queue is empty: nothing more
            // can arrive.
            prop_assert_eq!(mb.recv::<u32>(1, 0, 0, &ctl).unwrap_err(), RecvFault::Closed);
        }
    }
}
