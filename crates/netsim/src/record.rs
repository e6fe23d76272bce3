//! Schedule-as-data: record each rank's communication program once.
//!
//! The SPMD simulator ([`crate::spmd`]) runs one thread per simulated
//! rank, which caps validated scale at p ≈ 8192 under the default
//! `vm.max_map_count` (each thread maps a stack). The schedules being
//! simulated, however, are *deterministic and data-independent*: every
//! send, receive, collective edge and compute charge is a function of
//! (rank, problem shape, configuration) alone — never of payload values
//! or timing. That determinism is what makes phantom payloads sound, and
//! it makes something stronger possible: run each rank's SPMD closure
//! **sequentially**, once, against a [`RecordComm`] that performs no
//! synchronization at all and simply writes down the rank's operations as
//! a flat [`Op`] program. The p recorded programs are then executed by
//! the threadless event loop in [`crate::replay`] — O(p) cursor state,
//! zero threads, p = 2²⁰ within reach.
//!
//! Recording is a *clean* run by construction: no deadline, no faults.
//! Deadlines and fault plans are applied at replay time, where the exact
//! per-operation semantics of the threaded world are mirrored (see
//! `replay.rs`), so one recording serves every failure scenario.
//!
//! The one collective that needs care is `split`: its result (child
//! membership and rank order) depends on every member's `(color, key)`
//! deposit, which a sequential recorder does not have until the *other*
//! ranks have run. The recorder therefore runs in passes: a rank that
//! reaches an unresolved split rendezvous aborts its pass with a sentinel
//! error (the deposit is kept), and once all members of a rendezvous have
//! deposited, the split is resolved exactly the way the SPMD world
//! resolves it — colors sorted, members ordered by `(key, parent rank)` —
//! and the aborted ranks re-run from the top. Re-runs are deterministic,
//! so re-deposits are asserted identical. Dense schedules split a handful
//! of times before their step loops, so recording converges in a few
//! passes (SUMMA: 3, HSUMMA: 5, COSMA: 4).
//!
//! What is *not* recordable: schedules whose control flow depends on the
//! outcome of a non-blocking probe (`ibcast_test`), i.e. the polling
//! variant of the overlap pipelines (`hsumma_overlap`). The probe's
//! answer depends on virtual arrival times the recorder does not know.
//! The blocking-wait pipeline (`summa_overlap`) records fine — its
//! schedule is a fixed sequence of starts and waits.

use hsumma_trace::{CommEdge, CommError};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A `HashMap` with [`IdHasher`]: for the simulator's own bookkeeping
/// keys (channel, communicator and rendezvous ids), which come from the
/// schedule and never from outside the program, so SipHash's resistance
/// to crafted collisions buys nothing and costs a hash per operation.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative word hasher (the FxHash step): one rotate, xor and
/// multiply per integer field.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One recorded operation of one rank's program. Peers are **world**
/// ranks (communicator-local ranks are resolved at record time), and
/// point-to-point endpoints are addressed through a channel id that
/// interns the `(communicator, tag)` pair — a `u32` per side keeps the
/// op at 24 bytes (pinned below). Programs are stored exact-size, so a
/// recording holds `total ops · 24 B` of ops plus one `Vec` per rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Send `bytes` to world rank `dst` on channel `chan`.
    Send { chan: u32, dst: u32, bytes: u64 },
    /// Receive the next message from world rank `src` on channel `chan`.
    /// `bytes` is the expected payload size, checked at replay —
    /// `u64::MAX` means unchecked (collective internals discard sizes).
    Recv { chan: u32, src: u32, bytes: u64 },
    /// Charge `γ · pairs` seconds of local compute (stamped `flops`).
    Compute { pairs: f64, flops: u64 },
    /// Group barrier number `seq` on communicator `comm`.
    Barrier { comm: u32, seq: u32 },
    /// Split rendezvous number `seq` on communicator `comm`. Pure
    /// synchronization at replay: membership was resolved at record
    /// time, but the rendezvous itself must still hold ranks back so
    /// deadline/fault quiescence matches the threaded world.
    Split { comm: u32, seq: u32 },
    /// Open a pivot-step trace span (`k`, outer, inner block sizes).
    StepPush { k: u32, outer: u32, inner: u32 },
    /// Close the innermost open pivot-step span.
    StepPop,
}

const _: () = assert!(std::mem::size_of::<Op>() == 24);

/// The output of [`record`]: one flat op program per world rank, plus the
/// interning tables the ops index into. Platform-independent — the same
/// recording replays under any Hockney parameters, topology, noise seed,
/// deadline or fault plan.
pub struct RecordedProgram {
    /// `programs[r]` is world rank `r`'s complete op sequence, with no
    /// spare capacity.
    pub(crate) programs: Vec<Vec<Op>>,
    /// Channel id → `(communicator id, wire tag)`. The original tag is
    /// retained so fault-plan rules (which match on tag class) apply at
    /// replay exactly as they would on the live substrates.
    pub(crate) chans: Vec<(u32, u64)>,
    /// Communicator id → world ranks of its members, in rank order.
    /// Id 0 is the world.
    pub(crate) comms: Vec<Arc<Vec<usize>>>,
}

impl RecordedProgram {
    /// Number of world ranks.
    pub fn ranks(&self) -> usize {
        self.programs.len()
    }

    /// Total recorded operations across all ranks. The programs hold
    /// exactly this many 24-byte ops (no spare capacity); the benchmark's
    /// traced `sim-replay` pass, whose `netsim.rss_bytes_per_op` also
    /// counts allocator headers and the replay's own state, reads 25 B
    /// per op.
    pub fn total_ops(&self) -> usize {
        self.programs.iter().map(Vec::len).sum()
    }

    /// Number of distinct communicators the program created (including
    /// the world).
    pub fn comm_count(&self) -> usize {
        self.comms.len()
    }
}

/// One in-progress split rendezvous: `(color, key)` deposits by parent
/// rank, and (once every member has deposited and a pass boundary
/// resolved it) each parent rank's `(child communicator, rank in it)`.
struct SplitRec {
    deposits: Vec<Option<(u64, i64)>>,
    resolved: Option<Vec<(u32, usize)>>,
}

/// Shared recording state, threaded through every [`RecordComm`] handle
/// of the rank currently being recorded.
struct RecordState {
    step_sync: bool,
    /// The current rank's op buffer: cleared, not freed, between ranks
    /// and passes; a completed rank's program is copied out exact-size.
    ops: Vec<Op>,
    /// Raised when the current rank aborted at an unresolved split; the
    /// driver distinguishes this expected abort from a real error.
    stalled: bool,
    chans: Vec<(u32, u64)>,
    chan_ids: IdMap<(u32, u64), u32>,
    comms: Vec<Arc<Vec<usize>>>,
    splits: IdMap<(u32, u64), SplitRec>,
}

impl RecordState {
    fn chan(&mut self, comm: u32, tag: u64) -> u32 {
        if let Some(&id) = self.chan_ids.get(&(comm, tag)) {
            return id;
        }
        let id = u32::try_from(self.chans.len())
            .ok()
            .filter(|&id| id != u32::MAX)
            .expect("too many channels");
        self.chans.push((comm, tag));
        self.chan_ids.insert((comm, tag), id);
        id
    }

    /// Resolves every fully-deposited, still-unresolved split, in
    /// deterministic `(parent communicator, epoch)` order so child
    /// communicator ids do not depend on the pass's rank iteration.
    /// Mirrors the SPMD world's resolution exactly: colors sorted and
    /// deduplicated, members ordered by `(key, parent rank)`, one fresh
    /// communicator per color in color order. Returns how many
    /// rendezvous were resolved.
    fn resolve_splits(&mut self) -> usize {
        let mut ready: Vec<(u32, u64)> = self
            .splits
            .iter()
            .filter(|(_, s)| s.resolved.is_none() && s.deposits.iter().all(Option::is_some))
            .map(|(&k, _)| k)
            .collect();
        ready.sort_unstable();
        for &(parent, epoch) in &ready {
            let parent_members = Arc::clone(&self.comms[parent as usize]);
            let split = self
                .splits
                .get_mut(&(parent, epoch))
                .expect("rendezvous vanished");
            // One sort orders colors, and members by (key, parent rank)
            // within each color.
            let mut order: Vec<(u64, i64, usize)> = split
                .deposits
                .iter()
                .enumerate()
                .map(|(parent_rank, d)| {
                    let (color, key) = d.expect("every member deposited");
                    (color, key, parent_rank)
                })
                .collect();
            order.sort_unstable();
            let mut placed = vec![(0, 0); order.len()];
            for group in order.chunk_by(|a, b| a.0 == b.0) {
                let id = u32::try_from(self.comms.len()).expect("too many communicators");
                let mut world = Vec::with_capacity(group.len());
                for (child_rank, &(_, _, parent_rank)) in group.iter().enumerate() {
                    placed[parent_rank] = (id, child_rank);
                    world.push(parent_members[parent_rank]);
                }
                self.comms.push(Arc::new(world));
            }
            split.resolved = Some(placed);
        }
        ready.len()
    }
}

/// Entries in each [`RecordComm`]'s channel cache.
const CHAN_CACHE: usize = 4;

/// One rank's recording handle: the third `Communicator` substrate.
/// Every operation appends to the shared op buffer and returns
/// immediately — no clocks, no blocking, no other ranks.
pub struct RecordComm<'r> {
    st: &'r RefCell<RecordState>,
    comm: u32,
    /// World ranks of this communicator's members, in rank order.
    members: Arc<Vec<usize>>,
    my_rank: usize,
    /// Per-communicator split counter, mirroring [`crate::spmd::SimComm`].
    epoch: Cell<u64>,
    /// Per-communicator barrier counter.
    barrier_seq: Cell<u64>,
    /// Recently used `(tag, channel id)` pairs on this communicator,
    /// replaced round-robin. A schedule uses a handful of tags per
    /// communicator (one per collective phase), so nearly every send and
    /// receive is interned here without hashing.
    chan_cache: [Cell<(u64, u32)>; CHAN_CACHE],
    chan_victim: Cell<usize>,
}

impl<'r> RecordComm<'r> {
    fn new(
        st: &'r RefCell<RecordState>,
        comm: u32,
        members: Arc<Vec<usize>>,
        my_rank: usize,
    ) -> Self {
        RecordComm {
            st,
            comm,
            members,
            my_rank,
            epoch: Cell::new(0),
            barrier_seq: Cell::new(0),
            // Channel id `u32::MAX` marks an empty entry (ids are dense
            // from 0, and `RecordState::chan` never hands that one out).
            chan_cache: std::array::from_fn(|_| Cell::new((0, u32::MAX))),
            chan_victim: Cell::new(0),
        }
    }

    /// Appends the op `make(chan)` for `tag` on this communicator,
    /// interning the channel through the cache.
    fn push_p2p(&self, tag: u64, make: impl FnOnce(u32) -> Op) {
        let cached = self
            .chan_cache
            .iter()
            .map(Cell::get)
            .find(|&(t, c)| t == tag && c != u32::MAX);
        let mut st = self.st.borrow_mut();
        let chan = match cached {
            Some((_, c)) => c,
            None => {
                // A schedule with one tag per step (cosma's ring,
                // `base + t`) interns those tags in step order, so the
                // channel after the last one cached here usually belongs
                // to the next tag. Checking that neighbour skips a probe
                // into the interning map, which holds one entry per
                // (communicator, tag) — about 2p at scale, far outside
                // any cache.
                let v = self.chan_victim.get();
                let (last_tag, last) = self.chan_cache[(v + CHAN_CACHE - 1) % CHAN_CACHE].get();
                let next = last.wrapping_add(1);
                let c = if last != u32::MAX
                    && tag == last_tag.wrapping_add(1)
                    && st.chans.get(next as usize) == Some(&(self.comm, tag))
                {
                    next
                } else {
                    st.chan(self.comm, tag)
                };
                self.chan_cache[v].set((tag, c));
                self.chan_victim.set((v + 1) % CHAN_CACHE);
                c
            }
        };
        st.ops.push(make(chan));
    }

    /// Rank within this communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    fn world_me(&self) -> usize {
        self.members[self.my_rank]
    }

    /// Records a send of `bytes` to `dst` (communicator rank).
    pub fn send_bytes(&self, dst: usize, tag: u64, bytes: u64) -> Result<(), CommError> {
        let dst = self.members[dst] as u32;
        self.push_p2p(tag, |chan| Op::Send { chan, dst, bytes });
        Ok(())
    }

    /// Records a receive from `src` with no payload-size expectation
    /// (the returned size is a placeholder — collective internals
    /// discard it). The replay delivers whatever the matching send
    /// carried.
    pub fn recv_bytes_unchecked(&self, src: usize, tag: u64) -> Result<u64, CommError> {
        self.record_recv(src, tag, u64::MAX);
        Ok(0)
    }

    /// Records a receive from `src` expecting exactly `bytes`; the
    /// replay asserts the matching message's size.
    pub fn recv_bytes_expect(&self, src: usize, tag: u64, bytes: u64) -> Result<(), CommError> {
        assert_ne!(bytes, u64::MAX, "u64::MAX is the unchecked sentinel");
        self.record_recv(src, tag, bytes);
        Ok(())
    }

    fn record_recv(&self, src: usize, tag: u64, bytes: u64) {
        let src = self.members[src] as u32;
        self.push_p2p(tag, |chan| Op::Recv { chan, src, bytes });
    }

    /// Records a compute charge of `pairs` multiply-add pairs (stamped
    /// with `flops` for the trace), mirroring `SimComm::compute`.
    pub fn compute(&self, pairs: f64, flops: u64) {
        self.st.borrow_mut().ops.push(Op::Compute { pairs, flops });
    }

    /// Records a pivot-step span around `f`.
    pub fn trace_step<R>(&self, k: usize, outer: usize, inner: usize, f: impl FnOnce() -> R) -> R {
        self.st.borrow_mut().ops.push(Op::StepPush {
            k: k as u32,
            outer: outer as u32,
            inner: inner as u32,
        });
        let out = f();
        self.st.borrow_mut().ops.push(Op::StepPop);
        out
    }

    /// Records a group barrier.
    pub fn barrier(&self) -> Result<(), CommError> {
        let seq = self.barrier_seq.get();
        self.barrier_seq.set(seq + 1);
        self.st.borrow_mut().ops.push(Op::Barrier {
            comm: self.comm,
            seq: seq as u32,
        });
        Ok(())
    }

    /// Records a world-wide clock alignment when the recording was made
    /// with `step_sync`, mirroring `SimComm::maybe_step_sync`.
    pub fn maybe_step_sync(&self) -> Result<(), CommError> {
        if self.st.borrow().step_sync {
            assert_eq!(
                self.members.len(),
                self.st.borrow().programs_len_hint(),
                "maybe_step_sync must be called on the world communicator"
            );
            self.barrier()?;
        }
        Ok(())
    }

    /// Splits this communicator by `color`, members ordered by
    /// `(key, parent rank)` — same contract as the live substrates.
    ///
    /// If the rendezvous is not yet resolved (some member has not
    /// deposited in an earlier pass), the deposit is kept and the pass
    /// aborts with a sentinel error the driver recognizes; the rank
    /// re-runs after the next resolution round.
    pub fn split(&self, color: u64, key: i64) -> Result<RecordComm<'r>, CommError> {
        let epoch = self.epoch.get();
        self.epoch.set(epoch + 1);
        let rkey = (self.comm, epoch);
        let me_w = self.world_me();
        let group = self.members.len();
        let mut st = self.st.borrow_mut();
        let entry = st.splits.entry(rkey).or_insert_with(|| SplitRec {
            deposits: vec![None; group],
            resolved: None,
        });
        match entry.deposits[self.my_rank] {
            None => entry.deposits[self.my_rank] = Some((color, key)),
            Some(prev) => assert_eq!(
                prev,
                (color, key),
                "rank {me_w} deposited a different (color, key) on re-run: \
                 the schedule is not deterministic and cannot be recorded"
            ),
        }
        let Some(placed) = entry.resolved.as_ref() else {
            st.stalled = true;
            // Sentinel abort: the driver re-runs this rank once the
            // rendezvous resolves. `Cancelled` (not `Timeout`) so a
            // buggy non-collective split that never resolves is
            // distinguishable in the panic message.
            return Err(CommError::Cancelled {
                edge: CommEdge {
                    rank: me_w,
                    peer: me_w,
                    ctx: self.comm as u64,
                    tag: 0,
                    epoch,
                },
                op: "split",
            });
        };
        let (child, my_rank) = placed[self.my_rank];
        st.ops.push(Op::Split {
            comm: self.comm,
            seq: epoch as u32,
        });
        let members = Arc::clone(&st.comms[child as usize]);
        drop(st);
        Ok(RecordComm::new(self.st, child, members, my_rank))
    }
}

impl RecordState {
    /// World size, for the `maybe_step_sync` world-communicator assert.
    fn programs_len_hint(&self) -> usize {
        self.comms[0].len()
    }
}

/// Records the SPMD program `f` for a `p`-rank world: runs each rank's
/// closure to completion sequentially (re-running ranks that stall at
/// split rendezvous, see module docs) and returns the per-rank op
/// programs.
///
/// `step_sync` selects the per-step-synchronized semantics, exactly like
/// the `step_sync` flag of [`crate::spmd::SimWorld::run`].
///
/// # Panics
/// Panics if a rank's closure returns a real error (recording is a clean
/// run: deadlines and faults belong to replay), or if recording cannot
/// make progress (a split that is not collective over its communicator).
pub fn record<F>(p: usize, step_sync: bool, f: F) -> RecordedProgram
where
    F: for<'r> Fn(&RecordComm<'r>) -> Result<(), CommError>,
{
    assert!(p > 0, "need at least one rank");
    let world: Arc<Vec<usize>> = Arc::new((0..p).collect());
    let st = RefCell::new(RecordState {
        step_sync,
        ops: Vec::new(),
        stalled: false,
        chans: Vec::new(),
        chan_ids: IdMap::default(),
        comms: vec![Arc::clone(&world)],
        splits: IdMap::default(),
    });
    let mut programs: Vec<Option<Vec<Op>>> = (0..p).map(|_| None).collect();
    loop {
        let mut completed_this_pass = 0usize;
        for (rank, slot) in programs.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            {
                let mut s = st.borrow_mut();
                s.ops.clear();
                s.stalled = false;
            }
            let comm = RecordComm::new(&st, 0, Arc::clone(&world), rank);
            match f(&comm) {
                // `to_vec` allocates exactly `len`: no spare capacity.
                Ok(()) => {
                    *slot = Some(st.borrow().ops.to_vec());
                    completed_this_pass += 1;
                }
                Err(e) => {
                    assert!(
                        st.borrow().stalled,
                        "recording must be a clean run, but rank {rank} failed: {e:?}"
                    );
                }
            }
        }
        if programs.iter().all(Option::is_some) {
            break;
        }
        let resolved = st.borrow_mut().resolve_splits();
        assert!(
            resolved > 0 || completed_this_pass > 0,
            "recording made no progress: a split rendezvous never completed \
             (is the split collective over its communicator?)"
        );
    }
    let st = st.into_inner();
    RecordedProgram {
        programs: programs.into_iter().map(Option::unwrap).collect(),
        chans: st.chans,
        comms: st.comms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_records_world_ranks_and_bytes() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 7, 1000)?;
            } else {
                comm.recv_bytes_expect(0, 7, 1000)?;
            }
            Ok(())
        });
        assert_eq!(prog.ranks(), 2);
        assert_eq!(
            prog.programs[0],
            vec![Op::Send {
                chan: 0,
                dst: 1,
                bytes: 1000
            }]
        );
        assert_eq!(
            prog.programs[1],
            vec![Op::Recv {
                chan: 0,
                src: 0,
                bytes: 1000
            }]
        );
        assert_eq!(prog.chans, vec![(0, 7)]);
    }

    #[test]
    fn split_resolves_like_the_spmd_world() {
        // Mirrors spmd's split_is_free_and_orders_by_key_then_parent_rank.
        let prog = record(4, false, |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm.split(color, -(comm.rank() as i64))?;
            // Color 0 = world {0, 2}, keys {0, -2}: order [2, 0].
            // Color 1 = world {1, 3}, keys {-1, -3}: order [3, 1].
            match comm.rank() {
                0 => assert_eq!((sub.rank(), sub.size()), (1, 2)),
                2 => assert_eq!((sub.rank(), sub.size()), (0, 2)),
                1 => assert_eq!((sub.rank(), sub.size()), (1, 2)),
                3 => assert_eq!((sub.rank(), sub.size()), (0, 2)),
                _ => unreachable!(),
            }
            sub.send_bytes((sub.rank() + 1) % 2, 5, 8)?;
            sub.recv_bytes_unchecked((sub.rank() + 1) % 2, 5)?;
            Ok(())
        });
        // Two children after the world: colors 0 and 1 in sorted order.
        assert_eq!(prog.comm_count(), 3);
        assert_eq!(*prog.comms[1], vec![2, 0]);
        assert_eq!(*prog.comms[2], vec![3, 1]);
    }

    #[test]
    fn nested_splits_converge_over_passes() {
        let prog = record(4, false, |comm| {
            let half = comm.split((comm.rank() / 2) as u64, comm.rank() as i64)?;
            let single = half.split(half.rank() as u64, 0)?;
            assert_eq!(single.size(), 1);
            Ok(())
        });
        // World + 2 halves + 4 singletons.
        assert_eq!(prog.comm_count(), 7);
        for p in &prog.programs {
            assert_eq!(
                p.iter().filter(|o| matches!(o, Op::Split { .. })).count(),
                2
            );
        }
    }

    #[test]
    fn step_sync_inserts_world_barriers() {
        let prog = record(2, true, |comm| {
            comm.compute(10.0, 20);
            comm.maybe_step_sync()?;
            Ok(())
        });
        assert_eq!(
            prog.programs[0],
            vec![
                Op::Compute {
                    pairs: 10.0,
                    flops: 20
                },
                Op::Barrier { comm: 0, seq: 0 }
            ]
        );
    }

    #[test]
    fn programs_hold_no_spare_capacity() {
        // Uneven program lengths, and a split that makes every rank
        // abort and re-run (re-filling the shared buffer) in a later pass.
        let prog = record(5, false, |comm| {
            let sub = comm.split(0, comm.rank() as i64)?;
            for i in 0..(37 * comm.rank() + 3) {
                sub.compute(i as f64, 0);
            }
            Ok(())
        });
        for (r, p) in prog.programs.iter().enumerate() {
            assert_eq!(p.len(), 37 * r + 4, "rank {r}: the split plus the computes");
            assert!(matches!(p[0], Op::Split { .. }));
            assert_eq!(p.capacity(), p.len(), "rank {r} holds spare capacity");
        }
    }

    #[test]
    fn channel_cache_agrees_with_the_interning_table() {
        // More tags than cache entries, revisited out of order and
        // alternating between two communicators (so a consecutive tag's
        // neighbouring channel belongs to the other one), then a run of
        // consecutive tags on one communicator that rank 0 interns in
        // order and rank 1 finds next to each other: every op must name
        // the (comm, tag) it was sent on.
        let tags = [5u64, 9, 1, 7, 3, 5, 11, 9, 1, 13, 5, 7, 20, 21, 22, 21];
        let prog = record(2, false, |comm| {
            let sub = comm.split(0, 0)?;
            let p2p = |c: &RecordComm, tag: u64| {
                if c.rank() == 0 {
                    c.send_bytes(1, tag, tag)
                } else {
                    c.recv_bytes_expect(0, tag, tag)
                }
            };
            for &tag in &tags {
                p2p(comm, tag)?;
                p2p(&sub, tag)?;
            }
            for tag in 40..44 {
                p2p(&sub, tag)?;
            }
            Ok(())
        });
        assert_eq!(
            prog.chans.len(),
            2 * 10 + 4,
            "10 distinct tags on each, then 4 on one"
        );
        let want: Vec<(u32, u64, u64)> = tags
            .iter()
            .flat_map(|&t| [(0, t, t), (1, t, t)])
            .chain((40..44).map(|t| (1, t, t)))
            .collect();
        for (r, p) in prog.programs.iter().enumerate() {
            let named: Vec<(u32, u64, u64)> = p
                .iter()
                .filter_map(|op| match *op {
                    Op::Send { chan, bytes, .. } | Op::Recv { chan, bytes, .. } => {
                        let (comm, tag) = prog.chans[chan as usize];
                        Some((comm, tag, bytes))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(named, want, "rank {r}");
        }
    }

    #[test]
    #[should_panic(expected = "clean run")]
    fn real_errors_panic_the_recorder() {
        let _ = record(1, false, |_| {
            Err(CommError::Shutdown {
                rank: 0,
                detail: "boom".into(),
            })
        });
    }
}
