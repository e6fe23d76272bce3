//! Collective operations built message-by-message over point-to-point.
//!
//! The paper (§II-B) surveys the broadcast algorithms MPI implementations
//! choose from — trees for short messages, pipelined or scatter/allgather
//! schemes for long ones — and analyses SUMMA/HSUMMA under two of them
//! (binomial tree and van de Geijn's scatter + allgather, §IV). This module
//! executes the full menu over the runtime's point-to-point layer so the
//! distributed algorithms can be parameterized by broadcast algorithm, just
//! as the analysis is. [`BcastAlgorithm`] lists each one's model cost.
//!
//! The schedules themselves — tree edges, segments, scatter ranges,
//! allgather rounds and reduce partners — come from `hsumma-trace`, the
//! leaf crate the simulator takes them from too; this module only moves
//! payloads along them. The barrier is the textbook dissemination
//! barrier. Every message is sized by its payload's [`WirePayload`] hook,
//! as point-to-point sends are.
//!
//! Every collective returns `Result<_, CommError>`: a blocked rank whose
//! job deadline passes (or whose job is cancelled, or whose peer dies)
//! unwinds out of the schedule with the stalled edge named instead of
//! hanging the world.

use crate::comm::{Comm, INTERNAL_TAG_BASE};
use crate::message::Tag;
use hsumma_trace::{
    allgather_rounds, bcast_edges, bcast_range, bcast_segments, reduce_edges, BcastAlgorithm,
    CommError, WirePayload,
};
use std::any::Any;
use std::sync::Arc;

pub(crate) const TAG_BARRIER: Tag = INTERNAL_TAG_BASE + 16;
const TAG_BCAST: Tag = INTERNAL_TAG_BASE + 17;
const TAG_REDUCE: Tag = INTERNAL_TAG_BASE + 19;
const TAG_SCATTER: Tag = INTERNAL_TAG_BASE + 20;
const TAG_ALLGATHER: Tag = INTERNAL_TAG_BASE + 21;
const TAG_PIPELINE: Tag = INTERNAL_TAG_BASE + 22;

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
/// rank returns the broadcast value. An `Arc`-shared payload moves by
/// reference-count bump at every hop, so every rank returns the root's
/// allocation.
///
/// # Panics
/// Panics if the root passes `None`, or if `algo` requires segmentation
/// (use [`bcast_f64`] for those), or if `root >= comm.size()`.
pub fn bcast<T: Any + Send + Clone + WirePayload>(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    value: Option<T>,
) -> Result<T, CommError> {
    assert!(root < comm.size(), "root out of range");
    assert!(
        !algo.needs_segmentation(),
        "{algo:?} needs a sliceable payload; use bcast_f64"
    );
    let is_root = comm.rank() == root;
    assert!(value.is_some() || !is_root, "root must supply the value");
    comm.trace_collective("bcast", algo.name(), root, || {
        bcast_tree(comm, algo, root, TAG_BCAST, value)
    })
}

/// One rank's part in a whole-message broadcast on `tag`: receive from
/// its parent in `algo`'s tree, then send to its children.
pub(crate) fn bcast_tree<T: Any + Send + Clone + WirePayload>(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    tag: Tag,
    value: Option<T>,
) -> Result<T, CommError> {
    let (parent, children) = bcast_edges(algo, comm.size(), root, comm.rank());
    let value = match parent {
        None => value.expect("root must supply the value"),
        Some(parent) => comm.recv_internal(parent, tag)?,
    };
    for child in children {
        comm.send_internal(child, tag, value.clone())?;
    }
    Ok(value)
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
    if comm.size() == 1 {
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
        BcastAlgorithm::Pipelined { .. } => {
            comm.trace_collective("bcast", algo.name(), root, || {
                bcast_pipelined(comm, algo, root, data)
            })
        }
        BcastAlgorithm::ScatterAllgather => {
            comm.trace_collective("bcast", algo.name(), root, || {
                bcast_scatter_allgather(comm, algo, root, data)
            })
        }
    }
}

/// Chain pipeline: each rank receives each segment from its predecessor
/// and forwards it to its successor while already receiving the next
/// one. The root materializes each segment once; every later hop
/// forwards the same `Arc`-shared segment it received.
fn bcast_pipelined(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    data: &mut [f64],
) -> Result<(), CommError> {
    let (prev, mut children) = bcast_edges(algo, comm.size(), root, comm.rank());
    let next = children.next();
    for (lo, hi) in bcast_segments(algo, data.len()) {
        let received: Option<Arc<Vec<f64>>> = match prev {
            Some(prev) => {
                let seg: Arc<Vec<f64>> = comm.recv_internal(prev, TAG_PIPELINE)?;
                data[lo..hi].copy_from_slice(&seg);
                Some(seg)
            }
            None => None,
        };
        if let Some(next) = next {
            let seg = received.unwrap_or_else(|| {
                comm.count_payload_clone(((hi - lo) * 8) as u64);
                Arc::new(data[lo..hi].to_vec())
            });
            comm.send_internal(next, TAG_PIPELINE, seg)?;
        }
    }
    Ok(())
}

/// A scatter message: the root's snapshot, shared by every hop, and the
/// element range of the receiving subtree. Only that range goes on the
/// wire, so a relay is priced at its subtree's chunks, not the snapshot.
struct ScatterSlice {
    buf: Arc<Vec<f64>>,
    range: (usize, usize),
}

impl WirePayload for ScatterSlice {
    fn payload_bytes(&self) -> u64 {
        ((self.range.1 - self.range.0) * 8) as u64
    }
}

/// Van de Geijn long-message broadcast: binomial-tree scatter of the `p`
/// chunks, then a ring allgather. Bandwidth term `2(p−1)/p·mβ`, latency
/// `(log₂p + p − 1)α`.
fn bcast_scatter_allgather(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    data: &mut [f64],
) -> Result<(), CommError> {
    let (p, me, len) = (comm.size(), comm.rank(), data.len());

    // Scatter: every message views the root's one snapshot, so a relay
    // hands its children sub-ranges of the buffer it received instead of
    // slicing out fresh copies.
    let (parent, children) = bcast_edges(algo, p, root, me);
    let snapshot = match parent {
        None => {
            comm.count_payload_clone((len * 8) as u64);
            Arc::new(data.to_vec())
        }
        Some(parent) => {
            let ScatterSlice {
                buf,
                range: (lo, hi),
            } = comm.recv_internal(parent, TAG_SCATTER)?;
            data[lo..hi].copy_from_slice(&buf[lo..hi]);
            buf
        }
    };
    for child in children {
        let slice = ScatterSlice {
            buf: Arc::clone(&snapshot),
            range: bcast_range(algo, p, root, child, len),
        };
        comm.send_internal(child, TAG_SCATTER, slice)?;
    }
    drop(snapshot);

    // Allgather: the chunk received in one round is the one sent in the
    // next, so each rank materializes only its *own* chunk (round 0) and
    // forwards received `Arc`s after.
    let mut carry: Option<Arc<Vec<f64>>> = None;
    for (next, (slo, shi), prev, (rlo, rhi)) in allgather_rounds(algo, p, root, me, len) {
        let seg = carry.take().unwrap_or_else(|| {
            comm.count_payload_clone(((shi - slo) * 8) as u64);
            Arc::new(data[slo..shi].to_vec())
        });
        comm.send_internal(next, TAG_ALLGATHER, seg)?;
        let seg: Arc<Vec<f64>> = comm.recv_internal(prev, TAG_ALLGATHER)?;
        data[rlo..rhi].copy_from_slice(&seg);
        carry = Some(seg);
    }
    Ok(())
}

/// Binomial-tree reduction with a caller-supplied associative combiner.
/// Returns `Some(result)` at the root, `None` elsewhere.
pub fn reduce<T: Any + Send + WirePayload>(
    comm: &Comm,
    root: usize,
    value: T,
    mut combine: impl FnMut(T, T) -> T,
) -> Result<Option<T>, CommError> {
    assert!(root < comm.size(), "root out of range");
    comm.trace_collective("reduce", "binomial", root, || {
        let (children, parent) = reduce_edges(comm.size(), root, comm.rank());
        let mut acc = value;
        for child in children {
            acc = combine(acc, comm.recv_internal(child, TAG_REDUCE)?);
        }
        match parent {
            Some(parent) => {
                comm.send_internal(parent, TAG_REDUCE, acc)?;
                Ok(None)
            }
            None => Ok(Some(acc)),
        }
    })
}

/// Reduce to rank 0 then broadcast the result to everyone.
pub fn allreduce<T: Any + Send + Clone + WirePayload>(
    comm: &Comm,
    value: T,
    combine: impl FnMut(T, T) -> T,
) -> Result<T, CommError> {
    comm.trace_collective("allreduce", "reduce_bcast", 0, || {
        let reduced = reduce(comm, 0, value, combine)?;
        bcast_tree(comm, BcastAlgorithm::Binomial, 0, TAG_REDUCE, reduced)
    })
}

/// Element-wise sum reduction of equal-length `f64` buffers to `root`
/// over a binomial tree. On return the root's buffer holds the sum;
/// other buffers are left in an unspecified partial state (like an MPI
/// send buffer).
pub fn reduce_sum_f64(comm: &Comm, root: usize, data: &mut [f64]) -> Result<(), CommError> {
    assert!(root < comm.size(), "root out of range");
    comm.trace_collective("reduce_sum", "binomial", root, || {
        let (children, parent) = reduce_edges(comm.size(), root, comm.rank());
        for child in children {
            let child: Vec<f64> = comm.recv_internal(child, TAG_REDUCE)?;
            assert_eq!(
                child.len(),
                data.len(),
                "reduce buffers must match in length"
            );
            for (a, b) in data.iter_mut().zip(&child) {
                *a += b;
            }
        }
        if let Some(parent) = parent {
            comm.send_internal(parent, TAG_REDUCE, data.to_vec())?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use hsumma_trace::{auto_bcast, chunk_range};
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
    fn f64_bcast_buffer_shorter_than_comm() {
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
        // Concatenation is associative but not commutative; the binomial
        // tree must still produce rank order relative to the root.
        let out = Runtime::run(4, |comm| {
            reduce(comm, 0, vec![comm.rank() as f64], |mut a, b| {
                a.extend(b);
                a
            })
            .unwrap()
        });
        assert_eq!(out[0], Some(vec![0.0, 1.0, 2.0, 3.0]));
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
        check("reduce_sum", &|comm: &Comm| {
            let mut buf = vec![1.0; 32];
            reduce_sum_f64(comm, 2, &mut buf).unwrap();
        });
        check("allreduce", &|comm: &Comm| {
            let sum = |a: Vec<f64>, b: Vec<f64>| a.iter().zip(&b).map(|(x, y)| x + y).collect();
            allreduce(comm, vec![1.0; 32], sum).unwrap();
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
