//! Message envelopes and per-rank mailboxes.
//!
//! Every rank owns one [`Mailbox`]: an unbounded MPMC channel on which all
//! other ranks deposit [`Envelope`]s. Reception uses MPI-style matching on
//! `(context, source, tag)`; messages that arrive before a matching `recv`
//! is posted are parked in an *unexpected-message queue* and picked up
//! later, preserving per-(sender, context, tag) FIFO order.
//!
//! Every blocking wait is bounded: [`Mailbox::recv`] takes a [`JobCtl`]
//! carrying the job's optional deadline and a shared cancellation flag,
//! and returns a [`RecvFault`] instead of hanging when the deadline
//! passes, the job is cancelled, or a peer dies. There is no polling loop
//! on the clean path — waits park in `recv`/`recv_timeout` and are woken
//! either by a real message or by a [`CANCEL_CTX`] control envelope.

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies a communicator instance. Operations on different
/// communicators never match each other even with equal tags, mirroring
/// MPI's communication contexts.
pub type Context = u64;

/// Reserved context delivered by a dying rank to all peers so that anyone
/// blocked waiting on it fails fast instead of deadlocking.
pub const POISON_CTX: Context = u64::MAX;

/// Reserved context delivered by the pool watchdog (or any holder of the
/// sending side) purely to wake ranks parked in a blocking wait after the
/// job's cancellation flag has been raised. Carries no payload meaning.
pub const CANCEL_CTX: Context = u64::MAX - 1;

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
    fn matches(&self, ctx: Context, src: usize, tag: Tag) -> bool {
        self.ctx == ctx && self.src == src && self.tag == tag
    }

    fn due(&self, now: Instant) -> bool {
        self.not_before.is_none_or(|t| now >= t)
    }
}

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
    /// All senders disconnected — every peer thread is gone.
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
/// blocking wait additionally requires delivering a [`CANCEL_CTX`]
/// envelope to their mailboxes (see [`MailboxSender::deliver_cancel`]);
/// the pool watchdog does both.
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

/// Sending half of a rank's mailbox; cloneable, one per peer.
#[derive(Clone)]
pub struct MailboxSender {
    tx: Sender<Envelope>,
}

impl MailboxSender {
    /// Deposits an envelope. Never blocks (the channel is unbounded, like
    /// an eager-protocol MPI send).
    pub fn deliver(&self, env: Envelope) {
        // The receiver only disappears if its thread panicked; the panic is
        // propagated by the runtime, so a failed delivery here is moot.
        let _ = self.tx.send(env);
    }

    /// Wakes a rank parked in a blocking wait at `epoch` so it notices a
    /// raised cancellation flag. Pure control traffic: never matched.
    pub fn deliver_cancel(&self, epoch: u64) {
        self.deliver(Envelope {
            ctx: CANCEL_CTX,
            src: usize::MAX,
            tag: 0,
            epoch,
            not_before: None,
            payload: Box::new(()),
        });
    }
}

/// What [`Mailbox::admit`] decided about an incoming envelope.
enum Admit {
    /// Wrong epoch — straggler from another job, drop silently.
    Stale,
    /// Current-epoch poison: the named world rank died.
    Poison(usize),
    /// Current-epoch cancel wake-up.
    Cancel,
    /// Normal message of the current epoch.
    Live,
}

/// Receiving half: owned by exactly one rank thread.
pub struct Mailbox {
    rx: Receiver<Envelope>,
    /// Messages received but not yet matched by a `recv`.
    unexpected: VecDeque<Envelope>,
    /// The job epoch this mailbox currently accepts. Envelopes from other
    /// epochs are dropped on sight: they are stragglers from a previous
    /// pooled job (including its poison markers) and must neither match
    /// nor kill the current one.
    epoch: u64,
}

impl Mailbox {
    /// Creates a connected (sender, receiver) mailbox pair at epoch 0.
    pub fn new() -> (MailboxSender, Mailbox) {
        let (tx, rx) = unbounded();
        (
            MailboxSender { tx },
            Mailbox {
                rx,
                unexpected: VecDeque::new(),
                epoch: 0,
            },
        )
    }

    /// The job epoch the mailbox currently accepts.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the mailbox to a new job epoch, purging everything left
    /// over from earlier epochs (parked unexpected messages and anything
    /// already sitting in the channel — poison, cancel wake-ups and
    /// fault-duplicated messages included). Messages of the *new* epoch —
    /// sent by pool workers that entered the job first — are kept, in
    /// arrival order.
    pub fn begin_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.unexpected
            .retain(|e| e.epoch == epoch && e.ctx != CANCEL_CTX);
        while let Ok(env) = self.rx.try_recv() {
            if env.epoch == epoch && env.ctx != CANCEL_CTX {
                self.unexpected.push_back(env);
            }
        }
    }

    /// The dead peer named by a poison marker that [`Mailbox::begin_epoch`]
    /// found already in the channel: a rank that died before this one
    /// entered the job. Poison read later never parks (see `admit`).
    fn parked_poison(&self) -> Option<usize> {
        self.unexpected
            .iter()
            .find(|e| e.ctx == POISON_CTX)
            .map(|e| e.src)
    }

    /// Classifies an envelope against the current epoch.
    fn admit(&self, env: &Envelope) -> Admit {
        if env.epoch != self.epoch {
            return Admit::Stale;
        }
        if env.ctx == POISON_CTX {
            return Admit::Poison(env.src);
        }
        if env.ctx == CANCEL_CTX {
            return Admit::Cancel;
        }
        Admit::Live
    }

    /// Blocks until a message matching `(ctx, src, tag)` is available and
    /// returns its payload, downcast to `T` — or a [`RecvFault`] when the
    /// wait is cut short by `ctl`'s deadline, `ctl`'s cancellation flag,
    /// or a peer's death. The wait parks in the channel (no spinning);
    /// delay-faulted messages are held until their release instant.
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
        loop {
            if ctl.is_cancelled() {
                return Err(RecvFault::Cancelled);
            }
            let now = Instant::now();
            if let Some(d) = ctl.deadline() {
                if now >= d {
                    return Err(RecvFault::Timeout);
                }
            }
            // A due match may already be parked.
            if let Some(pos) = self
                .unexpected
                .iter()
                .position(|e| e.matches(ctx, src, tag) && e.due(now))
            {
                let env = self.unexpected.remove(pos).expect("position just found");
                return Ok(Self::downcast(env));
            }
            if let Some(src) = self.parked_poison() {
                return Err(RecvFault::PeerDead { src });
            }
            // Otherwise wait until the deadline or until the earliest
            // parked-but-delayed match becomes due, whichever is sooner.
            let next_due = self
                .unexpected
                .iter()
                .filter(|e| e.matches(ctx, src, tag))
                .filter_map(|e| e.not_before)
                .min();
            let bound = match (ctl.deadline(), next_due) {
                (Some(d), Some(n)) => Some(d.min(n)),
                (Some(d), None) => Some(d),
                (None, Some(n)) => Some(n),
                (None, None) => None,
            };
            let env = match bound {
                None => match self.rx.recv() {
                    Ok(env) => env,
                    Err(_) => return Err(RecvFault::Closed),
                },
                Some(until) => {
                    match self.rx.recv_timeout(until.saturating_duration_since(now)) {
                        Ok(env) => env,
                        // Either the deadline or a delayed message's
                        // release instant elapsed; loop re-evaluates.
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => return Err(RecvFault::Closed),
                    }
                }
            };
            match self.admit(&env) {
                Admit::Stale => continue,
                Admit::Poison(src) => return Err(RecvFault::PeerDead { src }),
                Admit::Cancel => continue, // loop re-checks the flag
                Admit::Live => {
                    if env.matches(ctx, src, tag) && env.due(Instant::now()) {
                        return Ok(Self::downcast(env));
                    }
                    self.unexpected.push_back(env);
                }
            }
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
        let now = Instant::now();
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|e| e.matches(ctx, src, tag) && e.due(now))
        {
            let env = self.unexpected.remove(pos).expect("position just found");
            return Ok(Some(Self::downcast(env)));
        }
        if let Some(src) = self.parked_poison() {
            return Err(RecvFault::PeerDead { src });
        }
        // Drain whatever has already arrived without blocking.
        while let Ok(env) = self.rx.try_recv() {
            match self.admit(&env) {
                Admit::Stale | Admit::Cancel => continue,
                Admit::Poison(src) => return Err(RecvFault::PeerDead { src }),
                Admit::Live => {
                    if env.matches(ctx, src, tag) && env.due(Instant::now()) {
                        return Ok(Some(Self::downcast(env)));
                    }
                    self.unexpected.push_back(env);
                }
            }
        }
        Ok(None)
    }

    /// Number of messages parked in the unexpected queue (test hook).
    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
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
