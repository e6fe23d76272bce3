//! Collective operations built message-by-message over point-to-point.
//!
//! The paper (§II-B) surveys the broadcast algorithms MPI implementations
//! choose from — trees for short messages, pipelined or scatter/allgather
//! schemes for long ones — and analyses SUMMA/HSUMMA under two of them
//! (binomial tree and van de Geijn's scatter + allgather, §IV). This module
//! implements the full menu over the runtime's point-to-point layer so the
//! distributed algorithms can be parameterized by broadcast algorithm, just
//! as the analysis is:
//!
//! | [`BcastAlgorithm`] | messages on the critical path | model cost |
//! |---|---|---|
//! | `Flat` | root sends `p−1` copies | `(p−1)(α+mβ)` |
//! | `Binomial` | `⌈log₂p⌉` rounds of full copies | `log₂(p)(α+mβ)` |
//! | `Binary` | depth `⌊log₂p⌋` tree, 2 sends per node | `≈2log₂(p)(α+mβ)` |
//! | `Ring` | chain of `p−1` full copies | `(p−1)(α+mβ)` |
//! | `Pipelined{s}` | chain of `p−1+s−1` segments | `(p+s−2)(α+mβ/s)` |
//! | `ScatterAllgather` | binomial scatter + ring allgather | `(log₂p+p−1)α + 2((p−1)/p)mβ` |
//!
//! Reductions, gathers and barriers follow the textbook constructions
//! (binomial reduce, flat gather, dissemination barrier).
//!
//! Every collective returns `Result<_, CommError>`: a blocked rank whose
//! job deadline passes (or whose job is cancelled, or whose peer dies)
//! unwinds out of the schedule with the stalled edge named instead of
//! hanging the world.

use crate::comm::{Comm, PayloadSize, INTERNAL_TAG_BASE};
use crate::message::Tag;
use hsumma_trace::{CommError, WirePayload};
use std::any::Any;
use std::sync::Arc;

pub(crate) const TAG_BARRIER: Tag = INTERNAL_TAG_BASE + 16;
const TAG_BCAST: Tag = INTERNAL_TAG_BASE + 17;
const TAG_GATHER: Tag = INTERNAL_TAG_BASE + 18;
const TAG_REDUCE: Tag = INTERNAL_TAG_BASE + 19;
const TAG_SCATTER: Tag = INTERNAL_TAG_BASE + 20;
const TAG_ALLGATHER: Tag = INTERNAL_TAG_BASE + 21;
const TAG_PIPELINE: Tag = INTERNAL_TAG_BASE + 22;
const TAG_ALLTOALL: Tag = INTERNAL_TAG_BASE + 23;
const TAG_ALLREDUCE: Tag = INTERNAL_TAG_BASE + 24;

// The algorithm selector itself lives in `hsumma-trace` (the leaf crate
// both substrates depend on) so the runtime and the simulator cannot
// drift; this module provides the executable schedules for it.
pub use hsumma_trace::{auto_bcast, BcastAlgorithm};

/// Dissemination barrier: `⌈log₂ p⌉` rounds, no root.
pub fn barrier(comm: &Comm) -> Result<(), CommError> {
    comm.trace_collective("barrier", "dissemination", 0, || {
        let p = comm.size();
        let r = comm.rank();
        let mut round = 1usize;
        while round < p {
            let dst = (r + round) % p;
            let src = (r + p - round % p) % p;
            comm.send_internal(dst, TAG_BARRIER, ())?;
            comm.recv_internal::<()>(src, TAG_BARRIER)?;
            round <<= 1;
        }
        Ok(())
    })
}

/// Broadcasts `value` from `root` using a whole-message algorithm.
///
/// `value` is read at the root only (other ranks may pass `None`); every
/// rank returns the broadcast value. Wire bytes are probed from the
/// buffer types the collectives ship (see [`bcast_payload`] for payloads
/// that report their own size).
///
/// # Panics
/// Panics if the root passes `None`, or if `algo` requires segmentation
/// (use [`bcast_f64`] for those), or if `root >= comm.size()`.
pub fn bcast<T: Any + Send + Clone>(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    value: Option<T>,
) -> Result<T, CommError> {
    bcast_with(comm, algo, root, value, PayloadSize::Probe)
}

/// [`bcast`] for a payload that reports its own wire size: the same
/// trees and tags, with bytes taken from the payload's [`WirePayload`]
/// hook. An `Arc`-shared payload moves by reference-count bump at every
/// hop, so every rank returns the root's allocation.
///
/// # Panics
/// As [`bcast`].
pub fn bcast_payload<T: Any + Send + Clone + WirePayload>(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    value: Option<T>,
) -> Result<T, CommError> {
    bcast_with(comm, algo, root, value, PayloadSize::Hook(T::payload_bytes))
}

fn bcast_with<T: Any + Send + Clone>(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    value: Option<T>,
    size: PayloadSize<T>,
) -> Result<T, CommError> {
    assert!(root < comm.size(), "root out of range");
    assert!(
        !algo.needs_segmentation(),
        "{algo:?} needs a sliceable payload; use bcast_f64"
    );
    let is_root = comm.rank() == root;
    assert!(value.is_some() || !is_root, "root must supply the value");
    comm.trace_collective("bcast", algo.name(), root, || {
        bcast_tree(comm, algo, root, TAG_BCAST, value, size)
    })
}

/// One rank's part in a whole-message broadcast on `tag`: receive from
/// its parent in `algo`'s tree (in virtual ranks, the root is 0), then
/// send to its children. The binomial tree is the simulator's: in round
/// `mask = 1, 2, 4, …` every virtual rank `v < mask` sends to
/// `v + mask`, so each rank receives from itself with the highest set
/// bit cleared. Keeping both substrates on the *same* trees is what lets
/// traces of real and simulated runs be compared message for message.
pub(crate) fn bcast_tree<T: Any + Send + Clone>(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    tag: Tag,
    value: Option<T>,
    size: PayloadSize<T>,
) -> Result<T, CommError> {
    let p = comm.size();
    let vrank = (comm.rank() + p - root) % p;
    let local = |v: usize| (v + root) % p;
    let value = if vrank == 0 {
        value.expect("root must supply the value")
    } else {
        let parent = match algo {
            BcastAlgorithm::Flat => 0,
            BcastAlgorithm::Binomial => vrank - (1 << vrank.ilog2()),
            BcastAlgorithm::Binary => (vrank - 1) / 2,
            BcastAlgorithm::Ring => vrank - 1,
            BcastAlgorithm::Pipelined { .. } | BcastAlgorithm::ScatterAllgather => unreachable!(),
        };
        comm.recv_impl(local(parent), tag, size)?
    };
    let send = |dst: usize| comm.send_impl(dst, tag, value.clone(), size);
    match algo {
        // The flat root sends in local-rank order, not virtual order.
        BcastAlgorithm::Flat if vrank == 0 => {
            for dst in (0..p).filter(|&d| d != root) {
                send(dst)?;
            }
        }
        BcastAlgorithm::Binomial => {
            let mut mask = 1usize;
            while mask < p {
                if mask > vrank && vrank + mask < p {
                    send(local(vrank + mask))?;
                }
                mask <<= 1;
            }
        }
        BcastAlgorithm::Binary => {
            for child in [2 * vrank + 1, 2 * vrank + 2] {
                if child < p {
                    send(local(child))?;
                }
            }
        }
        BcastAlgorithm::Ring if vrank + 1 < p => send(local(vrank + 1))?,
        _ => {}
    }
    Ok(value)
}

/// Element range of chunk `i` when `len` elements are dealt over `p`
/// near-equal chunks (first `len % p` chunks get one extra element).
pub fn chunk_range(len: usize, p: usize, i: usize) -> (usize, usize) {
    let base = len / p;
    let rem = len % p;
    let start = i * base + i.min(rem);
    let extent = base + usize::from(i < rem);
    (start, start + extent)
}

/// Broadcasts the `f64` buffer from `root` in place. All ranks must pass a
/// buffer of identical length (the algorithms distribute *panels of known
/// shape*, so lengths are globally known — MPI's contract as well).
///
/// Supports every [`BcastAlgorithm`] including the segmenting ones.
pub fn bcast_f64(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    data: &mut [f64],
) -> Result<(), CommError> {
    assert!(root < comm.size(), "root out of range");
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    match algo {
        BcastAlgorithm::Flat
        | BcastAlgorithm::Binomial
        | BcastAlgorithm::Binary
        | BcastAlgorithm::Ring => {
            // The payload travels as one `Arc`-shared buffer: the root
            // materializes a single snapshot and every relay hop forwards
            // a reference-count bump instead of a deep copy.
            let value = if comm.rank() == root {
                comm.count_payload_clone((data.len() * 8) as u64);
                Some(Arc::new(data.to_vec()))
            } else {
                None
            };
            let out: Arc<Vec<f64>> = bcast(comm, algo, root, value)?;
            if comm.rank() != root {
                data.copy_from_slice(&out);
            }
            Ok(())
        }
        BcastAlgorithm::Pipelined { segments } => {
            comm.trace_collective("bcast", algo.name(), root, || {
                bcast_pipelined(comm, root, data, segments)
            })
        }
        BcastAlgorithm::ScatterAllgather => {
            comm.trace_collective("bcast", algo.name(), root, || {
                bcast_scatter_allgather(comm, root, data)
            })
        }
    }
}

/// Chain pipeline: virtual rank k receives each segment from k−1 and
/// forwards it to k+1 while already receiving the next one. The root
/// materializes each segment once; every later hop forwards the same
/// `Arc`-shared segment it received.
fn bcast_pipelined(
    comm: &Comm,
    root: usize,
    data: &mut [f64],
    segments: usize,
) -> Result<(), CommError> {
    assert!(segments >= 1, "need at least one segment");
    let p = comm.size();
    let vrank = (comm.rank() + p - root) % p;
    let prev = (vrank + p - 1 + root) % p;
    let next = (vrank + 1 + root) % p;
    let segments = segments.min(data.len().max(1));
    for s in 0..segments {
        let (lo, hi) = chunk_range(data.len(), segments, s);
        let received: Option<Arc<Vec<f64>>> = if vrank > 0 {
            let seg: Arc<Vec<f64>> = comm.recv_internal(prev, TAG_PIPELINE)?;
            data[lo..hi].copy_from_slice(&seg);
            Some(seg)
        } else {
            None
        };
        if vrank + 1 < p {
            let seg = received.unwrap_or_else(|| {
                comm.count_payload_clone(((hi - lo) * 8) as u64);
                Arc::new(data[lo..hi].to_vec())
            });
            comm.send_internal(next, TAG_PIPELINE, seg)?;
        }
    }
    Ok(())
}

/// Van de Geijn long-message broadcast: binomial-tree scatter of the `p`
/// chunks, then a ring allgather. Bandwidth term `2(p−1)/p·mβ`, latency
/// `(log₂p + p − 1)α`.
fn bcast_scatter_allgather(comm: &Comm, root: usize, data: &mut [f64]) -> Result<(), CommError> {
    let p = comm.size();
    let len = data.len();
    let vrank = (comm.rank() + p - root) % p;
    let to_world = |v: usize| (v + root) % p;

    // --- Binomial scatter ------------------------------------------------
    // Virtual rank v is responsible for relaying the chunks of virtual
    // ranks [v, v + extent) where extent is v's lowest set bit (the whole
    // clipped range for the root). Messages are `(buffer, offset)` pairs:
    // one `Arc`-shared buffer tagged with the global element index of its
    // first element, so a relay hands its children a sub-view of the very
    // buffer it received instead of slicing out fresh copies.
    let p2 = p.next_power_of_two();
    let my_extent = if vrank == 0 {
        p2
    } else {
        vrank & vrank.wrapping_neg()
    };
    let relay: (Arc<Vec<f64>>, usize) = if vrank == 0 {
        comm.count_payload_clone((len * 8) as u64);
        (Arc::new(data.to_vec()), 0)
    } else {
        let parent = vrank - my_extent;
        let hi_v = (vrank + my_extent).min(p);
        let (lo, _) = chunk_range(len, p, vrank);
        let (_, hi) = chunk_range(len, p, hi_v - 1);
        let (buf, off): (Arc<Vec<f64>>, usize) =
            comm.recv_internal(to_world(parent), TAG_SCATTER)?;
        data[lo..hi].copy_from_slice(&buf[lo - off..hi - off]);
        (buf, off)
    };
    let mut mask = my_extent >> 1;
    while mask > 0 {
        let child = vrank + mask;
        if child < p {
            comm.send_internal(to_world(child), TAG_SCATTER, relay.clone())?;
        }
        mask >>= 1;
    }
    drop(relay);

    // --- Ring allgather ---------------------------------------------------
    // Round k: send chunk (vrank − k) and receive chunk (vrank − k − 1),
    // both mod p, from the ring neighbours. The chunk received in round k
    // is exactly the chunk sent in round k+1, so each rank materializes
    // only its *own* chunk (round 0) and forwards received `Arc`s after.
    let next = to_world((vrank + 1) % p);
    let prev = to_world((vrank + p - 1) % p);
    let mut carry: Option<Arc<Vec<f64>>> = None;
    for k in 0..p - 1 {
        let send_chunk = (vrank + p - k) % p;
        let recv_chunk = (vrank + p - k - 1) % p;
        let seg = carry.take().unwrap_or_else(|| {
            let (slo, shi) = chunk_range(len, p, send_chunk);
            comm.count_payload_clone(((shi - slo) * 8) as u64);
            Arc::new(data[slo..shi].to_vec())
        });
        comm.send_internal(next, TAG_ALLGATHER, seg)?;
        let seg: Arc<Vec<f64>> = comm.recv_internal(prev, TAG_ALLGATHER)?;
        let (rlo, rhi) = chunk_range(len, p, recv_chunk);
        data[rlo..rhi].copy_from_slice(&seg);
        carry = Some(seg);
    }
    Ok(())
}

/// Flat gather: every rank's `value` collected at `root` in rank order.
/// Returns `Some(values)` at the root, `None` elsewhere.
pub fn gather<T: Any + Send>(
    comm: &Comm,
    root: usize,
    value: T,
) -> Result<Option<Vec<T>>, CommError> {
    assert!(root < comm.size(), "root out of range");
    comm.trace_collective("gather", "flat", root, || gather_inner(comm, root, value))
}

fn gather_inner<T: Any + Send>(
    comm: &Comm,
    root: usize,
    value: T,
) -> Result<Option<Vec<T>>, CommError> {
    if comm.rank() == root {
        let mut out: Vec<Option<T>> = (0..comm.size()).map(|_| None).collect();
        out[root] = Some(value);
        for (src, slot) in out.iter_mut().enumerate() {
            if src != root {
                *slot = Some(comm.recv_internal(src, TAG_GATHER)?);
            }
        }
        Ok(Some(
            out.into_iter()
                .map(|v| v.expect("gather slot filled"))
                .collect(),
        ))
    } else {
        comm.send_internal(root, TAG_GATHER, value)?;
        Ok(None)
    }
}

/// Gather to rank 0 followed by a binomial broadcast of the table.
pub fn allgather<T: Any + Send + Clone>(comm: &Comm, value: T) -> Result<Vec<T>, CommError> {
    comm.trace_collective("allgather", "gather_bcast", 0, || {
        let gathered = gather_inner(comm, 0, value)?.map(Some);
        let v = bcast_tree(
            comm,
            BcastAlgorithm::Binomial,
            0,
            TAG_ALLGATHER,
            gathered,
            PayloadSize::Probe,
        )?;
        Ok(v.expect("allgather bcast delivered no value"))
    })
}

/// Binomial-tree reduction with a caller-supplied associative combiner.
/// Returns `Some(result)` at the root, `None` elsewhere.
pub fn reduce<T: Any + Send>(
    comm: &Comm,
    root: usize,
    value: T,
    mut combine: impl FnMut(T, T) -> T,
) -> Result<Option<T>, CommError> {
    assert!(root < comm.size(), "root out of range");
    comm.trace_collective("reduce", "binomial", root, || {
        let p = comm.size();
        let vrank = (comm.rank() + p - root) % p;
        let to_world = |v: usize| (v + root) % p;
        let mut acc = value;
        let mut mask = 1usize;
        // Mirror image of the binomial broadcast: leaves send first.
        while mask < p {
            if vrank & mask != 0 {
                comm.send_internal(to_world(vrank ^ mask), TAG_REDUCE, acc)?;
                return Ok(None);
            }
            if vrank + mask < p {
                let child: T = comm.recv_internal(to_world(vrank + mask), TAG_REDUCE)?;
                acc = combine(acc, child);
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    })
}

/// Reduce to rank 0 then broadcast the result to everyone.
pub fn allreduce<T: Any + Send + Clone>(
    comm: &Comm,
    value: T,
    combine: impl FnMut(T, T) -> T,
) -> Result<T, CommError> {
    comm.trace_collective("allreduce", "reduce_bcast", 0, || {
        let reduced = reduce(comm, 0, value, combine)?.map(Some);
        let v = bcast_tree(
            comm,
            BcastAlgorithm::Binomial,
            0,
            TAG_REDUCE,
            reduced,
            PayloadSize::Probe,
        )?;
        Ok(v.expect("allreduce bcast delivered no value"))
    })
}

/// Simultaneous send and receive (an `MPI_Sendrecv`): deadlock-free
/// because sends are eager.
pub fn sendrecv<T: Any + Send>(
    comm: &Comm,
    dst: usize,
    send_value: T,
    src: usize,
    tag: crate::message::Tag,
) -> Result<T, CommError> {
    comm.send(dst, tag, send_value)?;
    comm.recv(src, tag)
}

/// Flat scatter: the root deals `values[i]` to local rank `i` (the root
/// keeps its own slot). Non-roots pass `None`. Returns this rank's value.
///
/// # Panics
/// Panics if the root's vector length differs from the communicator size.
pub fn scatter<T: Any + Send>(
    comm: &Comm,
    root: usize,
    values: Option<Vec<T>>,
) -> Result<T, CommError> {
    assert!(root < comm.size(), "root out of range");
    comm.trace_collective("scatter", "flat", root, || {
        scatter_inner(comm, root, values)
    })
}

fn scatter_inner<T: Any + Send>(
    comm: &Comm,
    root: usize,
    values: Option<Vec<T>>,
) -> Result<T, CommError> {
    if comm.rank() == root {
        let values = values.expect("root must supply the values");
        assert_eq!(values.len(), comm.size(), "one value per rank required");
        let mut mine = None;
        for (dst, v) in values.into_iter().enumerate() {
            if dst == root {
                mine = Some(v);
            } else {
                comm.send_internal(dst, TAG_SCATTER, v)?;
            }
        }
        Ok(mine.expect("root keeps its own slot"))
    } else {
        assert!(values.is_none(), "only the root supplies values");
        comm.recv_internal(root, TAG_SCATTER)
    }
}

/// Personalized all-to-all exchange: rank `r` sends `values[d]` to rank
/// `d` and returns the vector of values received, indexed by source.
///
/// # Panics
/// Panics if `values.len() != comm.size()`.
pub fn alltoall<T: Any + Send>(comm: &Comm, values: Vec<T>) -> Result<Vec<T>, CommError> {
    let p = comm.size();
    assert_eq!(values.len(), p, "one value per destination required");
    comm.trace_collective("alltoall", "pairwise", 0, || {
        let me = comm.rank();
        let mut mine = None;
        for (dst, v) in values.into_iter().enumerate() {
            if dst == me {
                mine = Some(v);
            } else {
                comm.send_internal(dst, TAG_ALLTOALL, v)?;
            }
        }
        (0..p)
            .map(|src| {
                if src == me {
                    Ok(mine.take().expect("own slot present"))
                } else {
                    comm.recv_internal(src, TAG_ALLTOALL)
                }
            })
            .collect()
    })
}

/// Element-wise sum reduction of equal-length `f64` buffers to `root`
/// over a binomial tree. On return the root's buffer holds the sum;
/// other buffers are left in an unspecified partial state (like an MPI
/// send buffer).
pub fn reduce_sum_f64(comm: &Comm, root: usize, data: &mut [f64]) -> Result<(), CommError> {
    assert!(root < comm.size(), "root out of range");
    comm.trace_collective("reduce_sum", "binomial", root, || {
        let p = comm.size();
        let vrank = (comm.rank() + p - root) % p;
        let to_world = |v: usize| (v + root) % p;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                comm.send_internal(to_world(vrank ^ mask), TAG_REDUCE, data.to_vec())?;
                return Ok(());
            }
            if vrank + mask < p {
                let child: Vec<f64> = comm.recv_internal(to_world(vrank + mask), TAG_REDUCE)?;
                assert_eq!(
                    child.len(),
                    data.len(),
                    "reduce buffers must match in length"
                );
                for (a, b) in data.iter_mut().zip(&child) {
                    *a += b;
                }
            }
            mask <<= 1;
        }
        Ok(())
    })
}

/// Bandwidth-optimal all-reduce of `f64` buffers à la Rabenseifner:
/// ring reduce-scatter (each rank ends owning the sum of one chunk) then
/// ring allgather. Bandwidth `≈ 2(p−1)/p · m·β`, like the van de Geijn
/// broadcast — the long-vector algorithm MPI implementations use.
pub fn allreduce_sum_f64(comm: &Comm, data: &mut [f64]) -> Result<(), CommError> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    comm.trace_collective("allreduce_sum", "ring", 0, || {
        allreduce_sum_f64_inner(comm, data)
    })
}

fn allreduce_sum_f64_inner(comm: &Comm, data: &mut [f64]) -> Result<(), CommError> {
    let p = comm.size();
    let me = comm.rank();
    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    let len = data.len();

    // Reduce-scatter: after p−1 rounds, rank r owns the full sum of
    // chunk (r+1) mod p.
    for k in 0..p - 1 {
        let send_chunk = (me + p - k) % p;
        let recv_chunk = (me + p - k - 1) % p;
        let (slo, shi) = chunk_range(len, p, send_chunk);
        comm.send_internal(next, TAG_ALLREDUCE, data[slo..shi].to_vec())?;
        let seg: Vec<f64> = comm.recv_internal(prev, TAG_ALLREDUCE)?;
        let (rlo, rhi) = chunk_range(len, p, recv_chunk);
        for (a, b) in data[rlo..rhi].iter_mut().zip(&seg) {
            *a += b;
        }
    }
    // Allgather of the owned chunks around the ring.
    for k in 0..p - 1 {
        let send_chunk = (me + 1 + p - k) % p;
        let recv_chunk = (me + p - k) % p;
        let (slo, shi) = chunk_range(len, p, send_chunk);
        comm.send_internal(next, TAG_ALLREDUCE, data[slo..shi].to_vec())?;
        let seg: Vec<f64> = comm.recv_internal(prev, TAG_ALLREDUCE)?;
        let (rlo, rhi) = chunk_range(len, p, recv_chunk);
        data[rlo..rhi].copy_from_slice(&seg);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use proptest::prelude::*;

    const ALGOS: [BcastAlgorithm; 6] = [
        BcastAlgorithm::Flat,
        BcastAlgorithm::Binomial,
        BcastAlgorithm::Binary,
        BcastAlgorithm::Ring,
        BcastAlgorithm::Pipelined { segments: 4 },
        BcastAlgorithm::ScatterAllgather,
    ];

    #[test]
    fn chunk_ranges_partition_the_buffer() {
        for len in [0usize, 1, 7, 16, 100] {
            for p in [1usize, 2, 3, 7, 16] {
                let mut cursor = 0;
                for i in 0..p {
                    let (lo, hi) = chunk_range(len, p, i);
                    assert_eq!(lo, cursor, "len={len} p={p} i={i}");
                    assert!(hi >= lo);
                    cursor = hi;
                }
                assert_eq!(cursor, len);
            }
        }
    }

    proptest! {
        // The segment-dealing edge cases the scatter-allgather and
        // pipelined broadcasts rely on: chunks tile [0, len) in order,
        // sizes differ by at most one, and the first len % p chunks get
        // the extra element. Covers p > len (zero-length chunks) and
        // non-divisible splits by construction.
        #[test]
        fn chunk_range_tiles_exactly(len in 0usize..10_000, p in 1usize..256) {
            let mut cursor = 0;
            for i in 0..p {
                let (lo, hi) = chunk_range(len, p, i);
                prop_assert_eq!(lo, cursor);
                prop_assert!(hi >= lo);
                cursor = hi;
            }
            prop_assert_eq!(cursor, len);
        }

        #[test]
        fn chunk_range_sizes_are_balanced(len in 0usize..10_000, p in 1usize..256) {
            let sizes: Vec<usize> = (0..p)
                .map(|i| {
                    let (lo, hi) = chunk_range(len, p, i);
                    hi - lo
                })
                .collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1, "sizes differ by more than one: {:?}", sizes);
            // The first len % p chunks carry the extra element.
            for (i, s) in sizes.iter().enumerate() {
                prop_assert_eq!(*s, len / p + usize::from(i < len % p));
            }
        }

        #[test]
        fn chunk_range_more_ranks_than_elements(len in 0usize..16, p in 16usize..512) {
            // p > len: exactly `len` chunks are non-empty, the rest are
            // zero-length slices sitting at the end of the buffer.
            let nonempty = (0..p)
                .filter(|&i| {
                    let (lo, hi) = chunk_range(len, p, i);
                    hi > lo
                })
                .count();
            prop_assert_eq!(nonempty, len.min(p));
            for i in len..p {
                let (lo, hi) = chunk_range(len, p, i);
                prop_assert_eq!((lo, hi), (len, len), "tail chunk {} not empty", i);
            }
        }
    }

    #[test]
    fn whole_message_bcast_delivers_to_all_ranks_and_roots() {
        for p in [1usize, 2, 5, 8] {
            for algo in [
                BcastAlgorithm::Flat,
                BcastAlgorithm::Binomial,
                BcastAlgorithm::Binary,
                BcastAlgorithm::Ring,
            ] {
                for root in [0, p - 1, p / 2] {
                    let out = Runtime::run(p, |comm| {
                        let v = if comm.rank() == root {
                            Some(42u64)
                        } else {
                            None
                        };
                        bcast(comm, algo, root, v).unwrap()
                    });
                    assert_eq!(out, vec![42u64; p], "p={p} algo={algo:?} root={root}");
                }
            }
        }
    }

    #[test]
    fn f64_bcast_all_algorithms_all_roots() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            for algo in ALGOS {
                for root in 0..p {
                    let out = Runtime::run(p, |comm| {
                        let mut buf = if comm.rank() == root {
                            (0..37).map(|i| i as f64 * 1.5).collect::<Vec<_>>()
                        } else {
                            vec![0.0; 37]
                        };
                        bcast_f64(comm, algo, root, &mut buf).unwrap();
                        buf
                    });
                    let want: Vec<f64> = (0..37).map(|i| i as f64 * 1.5).collect();
                    for (rank, buf) in out.iter().enumerate() {
                        assert_eq!(buf, &want, "p={p} algo={algo:?} root={root} rank={rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn f64_bcast_payload_shorter_than_comm() {
        // Fewer elements than ranks: some scatter chunks are empty.
        let out = Runtime::run(8, |comm| {
            let mut buf = if comm.rank() == 0 {
                vec![3.25, -1.5, 7.0]
            } else {
                vec![0.0; 3]
            };
            bcast_f64(comm, BcastAlgorithm::ScatterAllgather, 0, &mut buf).unwrap();
            buf
        });
        for buf in out {
            assert_eq!(buf, vec![3.25, -1.5, 7.0]);
        }
    }

    #[test]
    fn pipelined_with_more_segments_than_elements() {
        let out = Runtime::run(4, |comm| {
            let mut buf = if comm.rank() == 0 {
                vec![1.0, 2.0]
            } else {
                vec![0.0; 2]
            };
            bcast_f64(
                comm,
                BcastAlgorithm::Pipelined { segments: 16 },
                0,
                &mut buf,
            )
            .unwrap();
            buf
        });
        for buf in out {
            assert_eq!(buf, vec![1.0, 2.0]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Runtime::run(5, |comm| gather(comm, 2, comm.rank() as u32).unwrap());
        for (rank, res) in out.iter().enumerate() {
            if rank == 2 {
                assert_eq!(res.as_deref(), Some(&[0u32, 1, 2, 3, 4][..]));
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn allgather_gives_everyone_the_table() {
        let out = Runtime::run(4, |comm| {
            allgather(comm, (comm.rank() * 10) as u32).unwrap()
        });
        for table in out {
            assert_eq!(table, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn reduce_sums_at_root_only() {
        let out = Runtime::run(6, |comm| {
            reduce(comm, 1, comm.rank() as u64, |a, b| a + b).unwrap()
        });
        for (rank, res) in out.iter().enumerate() {
            if rank == 1 {
                assert_eq!(*res, Some(15));
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn reduce_respects_non_commutative_order() {
        // String concatenation is associative but not commutative; the
        // binomial tree must still produce rank order relative to the root.
        let out = Runtime::run(4, |comm| {
            reduce(comm, 0, comm.rank().to_string(), |a, b| format!("{a}{b}")).unwrap()
        });
        assert_eq!(out[0].as_deref(), Some("0123"));
    }

    #[test]
    fn allreduce_delivers_everywhere() {
        let out = Runtime::run(7, |comm| allreduce(comm, 1u64, |a, b| a + b).unwrap());
        assert_eq!(out, vec![7u64; 7]);
    }

    #[test]
    fn barrier_completes_for_various_sizes() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            let out = Runtime::run(p, |comm| {
                barrier(comm).unwrap();
                barrier(comm).unwrap();
                true
            });
            assert_eq!(out, vec![true; p]);
        }
    }

    #[test]
    fn auto_bcast_picks_tree_for_short_and_vdg_for_long() {
        assert_eq!(auto_bcast(100, 64), BcastAlgorithm::Binomial);
        assert_eq!(auto_bcast(1 << 20, 64), BcastAlgorithm::ScatterAllgather);
        // Small communicators stay on the tree even for long messages.
        assert_eq!(auto_bcast(1 << 20, 4), BcastAlgorithm::Binomial);
    }

    #[test]
    fn auto_bcast_delivers_correctly_on_both_sides_of_the_threshold() {
        for elems in [64usize, 4096] {
            let out = Runtime::run(8, |comm| {
                let algo = auto_bcast(elems * 8, comm.size());
                let mut buf = if comm.rank() == 3 {
                    vec![2.5f64; elems]
                } else {
                    vec![0.0; elems]
                };
                bcast_f64(comm, algo, 3, &mut buf).unwrap();
                buf[elems - 1]
            });
            assert_eq!(out, vec![2.5; 8]);
        }
    }

    #[test]
    fn sendrecv_swaps_values() {
        let out = Runtime::run(2, |comm| {
            let peer = 1 - comm.rank();
            sendrecv(comm, peer, comm.rank() as u32 * 100, peer, 7).unwrap()
        });
        assert_eq!(out, vec![100, 0]);
    }

    #[test]
    fn scatter_deals_one_value_per_rank() {
        let out = Runtime::run(4, |comm| {
            let values = (comm.rank() == 1).then(|| vec![10u32, 11, 12, 13]);
            scatter(comm, 1, values).unwrap()
        });
        assert_eq!(out, vec![10, 11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "one value per rank")]
    fn scatter_rejects_wrong_count() {
        let _ = Runtime::run(2, |comm| {
            let values = (comm.rank() == 0).then(|| vec![1u8]);
            scatter(comm, 0, values).unwrap()
        });
    }

    #[test]
    fn alltoall_transposes_the_exchange_matrix() {
        let p = 4;
        let out = Runtime::run(p, |comm| {
            // Rank r sends (r, d) to rank d.
            let values: Vec<(usize, usize)> = (0..p).map(|d| (comm.rank(), d)).collect();
            alltoall(comm, values).unwrap()
        });
        for (rank, received) in out.iter().enumerate() {
            for (src, pair) in received.iter().enumerate() {
                assert_eq!(*pair, (src, rank));
            }
        }
    }

    #[test]
    fn reduce_sum_f64_sums_at_root() {
        let out = Runtime::run(5, |comm| {
            let mut buf = vec![comm.rank() as f64; 16];
            reduce_sum_f64(comm, 2, &mut buf).unwrap();
            if comm.rank() == 2 {
                Some(buf)
            } else {
                None
            }
        });
        let sum = (0..5).sum::<usize>() as f64;
        assert_eq!(out[2].as_ref().expect("root holds result"), &vec![sum; 16]);
    }

    #[test]
    fn allreduce_sum_f64_everywhere_matches_binomial_reduce() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let out = Runtime::run(p, |comm| {
                let mut buf: Vec<f64> = (0..23).map(|i| (comm.rank() * 31 + i) as f64).collect();
                allreduce_sum_f64(comm, &mut buf).unwrap();
                buf
            });
            let want: Vec<f64> = (0..23)
                .map(|i| (0..p).map(|r| (r * 31 + i) as f64).sum())
                .collect();
            for (rank, buf) in out.iter().enumerate() {
                for (a, b) in buf.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-9, "p={p} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn allreduce_handles_short_buffers() {
        // Fewer elements than ranks: some ring chunks are empty.
        let out = Runtime::run(8, |comm| {
            let mut buf = vec![1.0f64, 2.0];
            allreduce_sum_f64(comm, &mut buf).unwrap();
            buf
        });
        for buf in out {
            assert_eq!(buf, vec![8.0, 16.0]);
        }
    }

    #[test]
    fn bcast_counts_bytes_at_root() {
        let out = Runtime::run(2, |comm| {
            comm.reset_stats();
            let mut buf = if comm.rank() == 0 {
                vec![1.0; 100]
            } else {
                vec![0.0; 100]
            };
            bcast_f64(comm, BcastAlgorithm::Binomial, 0, &mut buf).unwrap();
            comm.stats().bytes_sent
        });
        assert_eq!(out[0], 800);
        assert_eq!(out[1], 0);
    }

    #[test]
    fn ledgers_balance_for_every_collective_algorithm() {
        // Whatever one rank's ledger says went out must show up on some
        // other rank's receive ledger: Σ msgs_sent == Σ msgs_recv and
        // Σ bytes_sent == Σ bytes_recv over the world, per collective.
        let p = 8;
        let check = |label: &str, run: &(dyn Fn(&Comm) + Sync)| {
            let stats = Runtime::run(p, |comm| {
                comm.reset_stats();
                run(comm);
                comm.stats()
            });
            let total = stats
                .iter()
                .fold(crate::stats::CommStats::default(), |acc, s| acc.merge(s));
            assert_eq!(total.msgs_sent, total.msgs_recv, "{label}: message count");
            assert_eq!(total.bytes_sent, total.bytes_recv, "{label}: byte count");
            assert!(total.msgs_sent > 0, "{label}: nothing happened");
            // A clean run must not touch the failure counters.
            assert_eq!(
                (total.timeouts, total.cancelled, total.faults_injected),
                (0, 0, 0),
                "{label}: failure counters on a clean run"
            );
        };
        for algo in ALGOS {
            check(algo.name(), &move |comm: &Comm| {
                let mut buf = if comm.rank() == 1 {
                    vec![1.5; 96]
                } else {
                    vec![0.0; 96]
                };
                bcast_f64(comm, algo, 1, &mut buf).unwrap();
            });
        }
        check("barrier", &|comm: &Comm| barrier(comm).unwrap());
        check("gather", &|comm: &Comm| {
            let _ = gather(comm, 0, vec![comm.rank() as f64; 4]).unwrap();
        });
        check("allgather", &|comm: &Comm| {
            let _ = allgather(comm, comm.rank() as u64).unwrap();
        });
        check("reduce_sum", &|comm: &Comm| {
            let mut buf = vec![1.0; 32];
            reduce_sum_f64(comm, 2, &mut buf).unwrap();
        });
        check("allreduce_sum", &|comm: &Comm| {
            let mut buf = vec![1.0; 32];
            allreduce_sum_f64(comm, &mut buf).unwrap();
        });
        check("alltoall", &|comm: &Comm| {
            let vals: Vec<Vec<f64>> = (0..comm.size()).map(|d| vec![d as f64; 3]).collect();
            let _ = alltoall(comm, vals).unwrap();
        });
        check("scatter", &|comm: &Comm| {
            let vals =
                (comm.rank() == 0).then(|| (0..comm.size()).map(|d| vec![d as f64; 5]).collect());
            let _ = scatter::<Vec<f64>>(comm, 0, vals).unwrap();
        });
    }

    #[test]
    fn bcast_relays_forward_shared_payloads_without_copying() {
        const ELEMS: usize = 4096;
        const ROOT: usize = 2;
        let payload_bytes = (ELEMS * 8) as u64;
        for algo in [
            BcastAlgorithm::Flat,
            BcastAlgorithm::Binomial,
            BcastAlgorithm::Binary,
            BcastAlgorithm::Ring,
            BcastAlgorithm::Pipelined { segments: 4 },
        ] {
            let out = Runtime::run(8, |comm| {
                comm.reset_stats();
                let mut buf = if comm.rank() == ROOT {
                    vec![1.25; ELEMS]
                } else {
                    vec![0.0; ELEMS]
                };
                bcast_f64(comm, algo, ROOT, &mut buf).unwrap();
                let s = comm.stats();
                (s.payload_clones, s.payload_clone_bytes, buf)
            });
            for (rank, (clones, bytes, buf)) in out.iter().enumerate() {
                assert_eq!(buf, &vec![1.25; ELEMS], "algo={algo:?} rank={rank}");
                if rank == ROOT {
                    // The root materializes the payload exactly once —
                    // as a whole, or segment by segment when pipelining.
                    assert_eq!(*bytes, payload_bytes, "algo={algo:?}");
                } else {
                    // Relays bump an `Arc` refcount per hop; a nonzero
                    // count means a deep copy crept back in.
                    assert_eq!(
                        (*clones, *bytes),
                        (0, 0),
                        "relay deep-copied: algo={algo:?} rank={rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_allgather_ranks_materialize_at_most_one_chunk() {
        const ELEMS: usize = 4096;
        let p = 8;
        let chunk_bytes = (ELEMS / p * 8) as u64;
        let payload_bytes = (ELEMS * 8) as u64;
        let out = Runtime::run(p, |comm| {
            comm.reset_stats();
            let mut buf = if comm.rank() == 0 {
                vec![0.5; ELEMS]
            } else {
                vec![0.0; ELEMS]
            };
            bcast_f64(comm, BcastAlgorithm::ScatterAllgather, 0, &mut buf).unwrap();
            let s = comm.stats();
            (s.payload_clone_bytes, buf)
        });
        for (rank, (bytes, buf)) in out.iter().enumerate() {
            assert_eq!(buf, &vec![0.5; ELEMS], "rank={rank}");
            if rank == 0 {
                // Snapshot for the scatter tree + its own allgather chunk.
                assert_eq!(*bytes, payload_bytes + chunk_bytes);
            } else {
                // Ring contribution only — never the full payload.
                assert_eq!(*bytes, chunk_bytes, "rank={rank}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs a sliceable payload")]
    fn generic_bcast_rejects_segmenting_algorithms() {
        let _ = Runtime::run(2, |comm| {
            bcast(comm, BcastAlgorithm::ScatterAllgather, 0, Some(1u8)).unwrap()
        });
    }
}
