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
//! a flat program of 16-byte ops. The p recorded programs are then executed by
//! the threadless event loop in [`crate::replay`] — O(p) cursor state,
//! zero threads, p = 2²⁰ within reach.
//!
//! Recording is a *clean* run by construction: no deadline, no faults.
//! Deadlines and fault plans are applied at replay time, where the exact
//! per-operation semantics of the threaded world are mirrored (see
//! `replay.rs`), so one recording serves every failure scenario.
//!
//! A `split` needs no other rank either: its function gives every
//! member's `(color, key)`, so the first rank to reach a split resolves
//! it for all of them (`SplitTable`) and each rank's closure runs
//! exactly once.
//!
//! What is *not* recordable: schedules whose control flow depends on the
//! outcome of a non-blocking probe (`ibcast_test`), i.e. the polling
//! variant of the overlap pipelines (`hsumma_overlap`). The probe's
//! answer depends on virtual arrival times the recorder does not know.
//! The blocking-wait pipeline (`summa_overlap`) records fine — its
//! schedule is a fixed sequence of starts and waits.

use hsumma_trace::{split_order, CommError};
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

/// One recorded operation of one rank's program, 16 bytes (pinned
/// below). Peers are **world** ranks (communicator-local ranks are
/// resolved at record time), and point-to-point endpoints are addressed
/// through a channel id that interns the `(communicator, tag)` pair.
/// Message sizes below [`UNCHECKED`] are stored inline; when `wide` is
/// set, `bytes` instead indexes [`RecordedProgram`]'s table of larger
/// sizes. Compute charges are interned like channels. Programs are
/// stored exact-size, so a recording holds `total ops · 16 B` of ops plus
/// one `Vec` per rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Op {
    /// Send `bytes` to world rank `dst` on channel `chan`.
    Send {
        wide: bool,
        chan: u32,
        dst: u32,
        bytes: u32,
    },
    /// Receive the next message from world rank `src` on channel `chan`.
    /// `bytes` is the expected payload size, checked at replay — an
    /// inline [`UNCHECKED`] means unchecked (collective internals discard
    /// sizes).
    Recv {
        wide: bool,
        chan: u32,
        src: u32,
        bytes: u32,
    },
    /// Charge `γ · pairs` seconds of local compute (stamped `flops`),
    /// where `(pairs, flops)` is entry `charge` of the charge table.
    Compute { charge: u32 },
    /// Group barrier number `seq` on communicator `comm`.
    Barrier { comm: u32, seq: u32 },
    /// Open a pivot-step trace span (`k`, outer, inner block sizes).
    StepPush { k: u32, outer: u32, inner: u32 },
    /// Close the innermost open pivot-step span.
    StepPop,
}

const _: () = assert!(std::mem::size_of::<Op>() == 16);

/// The inline size of an unchecked receive. A size of this value or more
/// is stored in the wide table instead, so the sentinel names no real
/// size.
pub(crate) const UNCHECKED: u32 = u32::MAX;

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
    /// Charge id → `(pairs, flops)`, one entry per distinct charge.
    pub(crate) charges: Vec<(f64, u64)>,
    /// The sizes of [`UNCHECKED`] bytes and more, one entry per op that
    /// carries one, in recording order.
    pub(crate) wide: Vec<u64>,
}

impl RecordedProgram {
    /// Number of world ranks.
    pub fn ranks(&self) -> usize {
        self.programs.len()
    }

    /// Total recorded operations across all ranks. The programs hold
    /// exactly this many 16-byte ops (no spare capacity); the benchmark's
    /// traced `sim-replay` pass, whose `netsim.rss_bytes_per_op` also
    /// counts allocator headers and the replay's own state, reads 17 B
    /// per op.
    pub fn total_ops(&self) -> usize {
        self.programs.iter().map(Vec::len).sum()
    }

    /// Number of distinct communicators the program created (including
    /// the world).
    pub fn comm_count(&self) -> usize {
        self.comms.len()
    }

    /// Number of distinct `(pairs, flops)` compute charges the programs
    /// name.
    pub fn charge_count(&self) -> usize {
        self.charges.len()
    }

    /// The payload size an op stored as `(wide, bytes)`.
    pub(crate) fn bytes(&self, wide: bool, bytes: u32) -> u64 {
        if wide {
            self.wide[bytes as usize]
        } else {
            u64::from(bytes)
        }
    }
}

/// One split, resolved by the first member to reach it and interned for
/// the others, so the simulators evaluate a split's function once per
/// `(parent, epoch)` rather than once per member — O(p) per split, not
/// O(p²), at p = 2²⁰. Shared by the recorder and the SPMD world.
pub(crate) struct SplitTable {
    /// Each parent rank's `(color, key)`, against which every later
    /// member checks what its own function gives it.
    entries: Vec<(u64, i64)>,
    /// Each parent rank's child (an index into `groups`) and rank in it.
    placed: Vec<(u32, u32)>,
    /// The id of `groups[0]`; the children are numbered on from it.
    first: u32,
    /// Each child's members as world ranks, in rank order; colors
    /// ascending.
    groups: Vec<Arc<Vec<usize>>>,
}

impl SplitTable {
    /// Resolves `f` over a parent whose members are the world ranks
    /// `parent`, numbering the children `first, first + 1, …`.
    pub(crate) fn resolve(parent: &[usize], first: u32, f: impl Fn(usize) -> (u64, i64)) -> Self {
        let mut entries = vec![(0, 0); parent.len()];
        let mut placed = vec![(0, 0); parent.len()];
        let mut groups = Vec::new();
        let order = split_order(parent.len(), f);
        for run in order.chunk_by(|a, b| a.0 == b.0) {
            let g = u32::try_from(groups.len()).expect("too many communicators");
            let mut world = Vec::with_capacity(run.len());
            for (child_rank, &(color, key, r)) in run.iter().enumerate() {
                entries[r] = (color, key);
                placed[r] = (g, u32::try_from(child_rank).expect("too many ranks"));
                world.push(parent[r]);
            }
            groups.push(Arc::new(world));
        }
        SplitTable {
            entries,
            placed,
            first,
            groups,
        }
    }

    /// The children, in id order.
    pub(crate) fn groups(&self) -> &[Arc<Vec<usize>>] {
        &self.groups
    }

    /// Parent rank `me`'s child id, its members and `me`'s rank in it.
    ///
    /// # Panics
    /// Panics unless `own` — what `me`'s function gives `me` — is the
    /// table's entry: the function was not the same on every member, so
    /// the schedule is not deterministic and cannot be simulated.
    pub(crate) fn place(&self, me: usize, own: (u64, i64)) -> (u32, Arc<Vec<usize>>, usize) {
        assert_eq!(
            own, self.entries[me],
            "parent rank {me}'s split function disagrees with the first member's: \
             the split function must be the same on every member"
        );
        let (g, child_rank) = self.placed[me];
        let members = Arc::clone(&self.groups[g as usize]);
        (self.first + g, members, child_rank as usize)
    }
}

/// Shared recording state, threaded through every [`RecordComm`] handle
/// of the rank currently being recorded.
struct RecordState {
    step_sync: bool,
    /// The current rank's op buffer: cleared, not freed, between ranks;
    /// a completed rank's program is copied out exact-size.
    ops: Vec<Op>,
    chans: Vec<(u32, u64)>,
    chan_ids: IdMap<(u32, u64), u32>,
    comms: Vec<Arc<Vec<usize>>>,
    /// Every split so far, by `(parent communicator, epoch)`.
    splits: IdMap<(u32, u64), SplitTable>,
    charges: Vec<(f64, u64)>,
    /// Charge ids by `(pairs` bits, `flops)`: bits, so that the replay
    /// charges exactly the recorded value.
    charge_ids: IdMap<(u64, u64), u32>,
    wide: Vec<u64>,
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

    /// The charge id of `(pairs, flops)`, interned on first sight.
    fn charge(&mut self, pairs: f64, flops: u64) -> u32 {
        let next = u32::try_from(self.charges.len()).expect("too many compute charges");
        let id = *self
            .charge_ids
            .entry((pairs.to_bits(), flops))
            .or_insert(next);
        if id == next {
            self.charges.push((pairs, flops));
        }
        id
    }

    /// How an op stores a size of `bytes`: the `(wide, bytes)` pair
    /// [`Op`] describes.
    fn size(&mut self, bytes: u64) -> (bool, u32) {
        match u32::try_from(bytes) {
            Ok(b) if b != UNCHECKED => (false, b),
            _ => {
                let i = u32::try_from(self.wide.len()).expect("too many wide sizes");
                self.wide.push(bytes);
                (true, i)
            }
        }
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

    /// Appends the op `make(state, chan)` for `tag` on this
    /// communicator, interning the channel through the cache.
    fn push_p2p(&self, tag: u64, make: impl FnOnce(&mut RecordState, u32) -> Op) {
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
        let op = make(&mut st, chan);
        st.ops.push(op);
    }

    /// Rank within this communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Records a send of `bytes` to `dst` (communicator rank).
    pub fn send_bytes(&self, dst: usize, tag: u64, bytes: u64) -> Result<(), CommError> {
        let dst = u32::try_from(self.members[dst]).expect("world rank exceeds u32");
        self.push_p2p(tag, |st, chan| {
            let (wide, bytes) = st.size(bytes);
            Op::Send {
                wide,
                chan,
                dst,
                bytes,
            }
        });
        Ok(())
    }

    /// Records a receive from `src` with no payload-size expectation
    /// (the returned size is a placeholder — collective internals
    /// discard it). The replay delivers whatever the matching send
    /// carried.
    pub fn recv_bytes_unchecked(&self, src: usize, tag: u64) -> Result<u64, CommError> {
        self.record_recv(src, tag, None);
        Ok(0)
    }

    /// Records a receive from `src` expecting exactly `bytes`; the
    /// replay asserts the matching message's size.
    pub fn recv_bytes_expect(&self, src: usize, tag: u64, bytes: u64) -> Result<(), CommError> {
        self.record_recv(src, tag, Some(bytes));
        Ok(())
    }

    fn record_recv(&self, src: usize, tag: u64, bytes: Option<u64>) {
        let src = u32::try_from(self.members[src]).expect("world rank exceeds u32");
        self.push_p2p(tag, |st, chan| {
            let (wide, bytes) = bytes.map_or((false, UNCHECKED), |b| st.size(b));
            Op::Recv {
                wide,
                chan,
                src,
                bytes,
            }
        });
    }

    /// Records a compute charge of `pairs` multiply-add pairs (stamped
    /// with `flops` for the trace), mirroring `SimComm::compute`.
    pub fn compute(&self, pairs: f64, flops: u64) {
        let mut st = self.st.borrow_mut();
        let charge = st.charge(pairs, flops);
        st.ops.push(Op::Compute { charge });
    }

    /// Records a pivot-step span around `f`.
    pub fn trace_step<R>(&self, k: usize, outer: usize, inner: usize, f: impl FnOnce() -> R) -> R {
        self.st.borrow_mut().ops.push(Op::StepPush {
            k: u32::try_from(k).expect("pivot step exceeds u32"),
            outer: u32::try_from(outer).expect("outer block exceeds u32"),
            inner: u32::try_from(inner).expect("inner block exceeds u32"),
        });
        let out = f();
        self.st.borrow_mut().ops.push(Op::StepPop);
        out
    }

    /// Records a group barrier.
    pub fn barrier(&self) -> Result<(), CommError> {
        let seq = self.barrier_seq.get();
        self.barrier_seq.set(seq + 1);
        let seq = u32::try_from(seq).expect("barrier count exceeds u32");
        self.st.borrow_mut().ops.push(Op::Barrier {
            comm: self.comm,
            seq,
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

    /// Splits this communicator by `f`, members ordered by `(key, parent
    /// rank)` — same contract as the live substrates. Records no op: the
    /// first member to reach the split resolves it for every member.
    pub fn split(&self, f: impl Fn(usize) -> (u64, i64)) -> RecordComm<'r> {
        let epoch = self.epoch.get();
        self.epoch.set(epoch + 1);
        let own = f(self.my_rank);
        let mut st = self.st.borrow_mut();
        let st = &mut *st;
        let table = st.splits.entry((self.comm, epoch)).or_insert_with(|| {
            let first = u32::try_from(st.comms.len()).expect("too many communicators");
            let table = SplitTable::resolve(&self.members, first, f);
            st.comms.extend(table.groups().iter().cloned());
            table
        });
        let (child, members, my_rank) = table.place(self.my_rank, own);
        RecordComm::new(self.st, child, members, my_rank)
    }
}

impl RecordState {
    /// World size, for the `maybe_step_sync` world-communicator assert.
    fn programs_len_hint(&self) -> usize {
        self.comms[0].len()
    }
}

/// Records the SPMD program `f` for a `p`-rank world: runs each rank's
/// closure to completion once, in rank order, and returns the per-rank op
/// programs.
///
/// `step_sync` selects the per-step-synchronized semantics, exactly like
/// the `step_sync` flag of [`crate::spmd::SimWorld::run`].
///
/// # Panics
/// Panics if a rank's closure returns an error (recording is a clean
/// run: deadlines and faults belong to replay), or if the members of a
/// split pass it different functions.
pub fn record<F>(p: usize, step_sync: bool, f: F) -> RecordedProgram
where
    F: for<'r> Fn(&RecordComm<'r>) -> Result<(), CommError>,
{
    assert!(p > 0, "need at least one rank");
    let world: Arc<Vec<usize>> = Arc::new((0..p).collect());
    let st = RefCell::new(RecordState {
        step_sync,
        ops: Vec::new(),
        chans: Vec::new(),
        chan_ids: IdMap::default(),
        comms: vec![Arc::clone(&world)],
        splits: IdMap::default(),
        charges: Vec::new(),
        charge_ids: IdMap::default(),
        wide: Vec::new(),
    });
    let programs = (0..p)
        .map(|rank| {
            st.borrow_mut().ops.clear();
            let comm = RecordComm::new(&st, 0, Arc::clone(&world), rank);
            if let Err(e) = f(&comm) {
                panic!("recording must be a clean run, but rank {rank} failed: {e:?}");
            }
            // `to_vec` allocates exactly `len`: no spare capacity.
            st.borrow().ops.to_vec()
        })
        .collect();
    let st = st.into_inner();
    RecordedProgram {
        programs,
        chans: st.chans,
        comms: st.comms,
        charges: st.charges,
        wide: st.wide,
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
                wide: false,
                chan: 0,
                dst: 1,
                bytes: 1000
            }]
        );
        assert_eq!(
            prog.programs[1],
            vec![Op::Recv {
                wide: false,
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
            let sub = comm.split(|r| ((r % 2) as u64, -(r as i64)));
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
            // Nested: each child splits again, into singletons.
            let single = sub.split(|r| (r as u64, 0));
            assert_eq!(single.size(), 1);
            Ok(())
        });
        // Two children after the world: colors 0 and 1 in sorted order.
        assert_eq!(*prog.comms[1], vec![2, 0]);
        assert_eq!(*prog.comms[2], vec![3, 1]);
        // Then two singletons under each child.
        assert_eq!(prog.comm_count(), 7);
    }

    #[test]
    #[should_panic(expected = "same on every member")]
    fn ranks_passing_different_split_functions_panic_the_recorder() {
        let _ = record(2, false, |comm| {
            // Rank 0 groups by parity; rank 1 puts everyone together.
            let me = comm.rank();
            let _ = comm.split(|r| ((if me == 0 { r % 2 } else { 0 }) as u64, 0));
            Ok(())
        });
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
            vec![Op::Compute { charge: 0 }, Op::Barrier { comm: 0, seq: 0 }]
        );
        assert_eq!(prog.charges, vec![(10.0, 20)]);
    }

    #[test]
    fn programs_hold_no_spare_capacity() {
        // Uneven program lengths, recorded one after the other into the
        // shared buffer.
        let prog = record(5, false, |comm| {
            let sub = comm.split(|r| (0, r as i64));
            for i in 0..(37 * comm.rank() + 3) {
                sub.compute(i as f64, 0);
            }
            Ok(())
        });
        for (r, p) in prog.programs.iter().enumerate() {
            assert_eq!(p.len(), 37 * r + 3, "rank {r}: the computes");
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
            let sub = comm.split(|_| (0, 0));
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
                    Op::Send {
                        wide, chan, bytes, ..
                    }
                    | Op::Recv {
                        wide, chan, bytes, ..
                    } => {
                        let (comm, tag) = prog.chans[chan as usize];
                        Some((comm, tag, prog.bytes(wide, bytes)))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(named, want, "rank {r}");
        }
    }

    #[test]
    #[should_panic(expected = "pivot step exceeds u32")]
    fn fields_past_u32_panic_instead_of_truncating() {
        let _ = record(1, false, |comm| {
            comm.trace_step(u32::MAX as usize + 1, 1, 1, || Ok(()))
        });
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
