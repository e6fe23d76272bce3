//! The broadcast algorithms and the one schedule every substrate walks.
//!
//! Both execution substrates — the threaded runtime (`hsumma-runtime`)
//! and the phantom substrates of `hsumma-core` (the discrete-event
//! simulator and the schedule recorder) — select their broadcasts from
//! [`BcastAlgorithm`] and take every tree edge, segment and chunk from
//! the functions below. They live here, in the leaf crate all of them
//! already depend on for tracing, so the substrates only move payloads
//! along one schedule and cannot drift apart: a real run and a simulated
//! run of the same program send the same `(src, dst, bytes)` messages.
//!
//! The schedule is written in *virtual ranks*: the root is virtual rank 0
//! and rank `r` is `(r − root) mod p`. Every function takes and returns
//! communicator-local ranks, and none allocates.

/// Selectable broadcast algorithm.
///
/// Cost models on a flat Hockney network (`α + m·β` per message):
///
/// | algorithm | messages on the critical path | model cost |
/// |---|---|---|
/// | `Flat` | root sends `p−1` copies | `(p−1)(α+mβ)` |
/// | `Binomial` | `⌈log₂p⌉` rounds of full copies | `log₂(p)(α+mβ)` |
/// | `Binary` | depth `⌊log₂p⌋` tree, 2 sends per node | `≈2log₂(p)(α+mβ)` |
/// | `Ring` | chain of `p−1` full copies | `(p−1)(α+mβ)` |
/// | `Pipelined{s}` | chain of `p−1+s−1` segments | `(p+s−2)(α+mβ/s)` |
/// | `ScatterAllgather` | binomial scatter + ring allgather | `(log₂p+p−1)α + 2((p−1)/p)mβ` |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastAlgorithm {
    /// Root sends the full message to every other rank.
    Flat,
    /// Binomial tree: `⌈log₂ p⌉` rounds, the classic short-message choice.
    Binomial,
    /// Balanced binary tree rooted at the root.
    Binary,
    /// Linear chain through all ranks (pipeline with one segment).
    Ring,
    /// Linear chain with the payload cut into `segments` pipelined pieces.
    Pipelined {
        /// Number of segments the payload is cut into (≥ 1).
        segments: usize,
    },
    /// Van de Geijn: binomial-tree scatter then ring allgather. The paper's
    /// long-message broadcast (Table II).
    ScatterAllgather,
}

impl BcastAlgorithm {
    /// Stable name for traces and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            BcastAlgorithm::Flat => "flat",
            BcastAlgorithm::Binomial => "binomial",
            BcastAlgorithm::Binary => "binary",
            BcastAlgorithm::Ring => "ring",
            BcastAlgorithm::Pipelined { .. } => "pipelined",
            BcastAlgorithm::ScatterAllgather => "scatter_allgather",
        }
    }

    /// Whether the algorithm cuts the payload into pieces (and therefore
    /// requires a sliceable payload on the executable substrate).
    pub fn needs_segmentation(&self) -> bool {
        matches!(
            self,
            BcastAlgorithm::Pipelined { .. } | BcastAlgorithm::ScatterAllgather
        )
    }
}

/// MPICH's broadcast-selection policy, reproduced: binomial tree for
/// short messages, scatter + allgather (van de Geijn) for long ones.
/// The default threshold is MPICH's classic 12 KiB medium-message cutoff.
///
/// This is what "MPI_Bcast" effectively ran inside the paper's SUMMA.
pub fn auto_bcast(payload_bytes: usize, p: usize) -> BcastAlgorithm {
    const MEDIUM: usize = 12 * 1024;
    if payload_bytes < MEDIUM || p < 8 {
        BcastAlgorithm::Binomial
    } else {
        BcastAlgorithm::ScatterAllgather
    }
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

fn virt(p: usize, root: usize, rank: usize) -> usize {
    (rank + p - root) % p
}

fn local(p: usize, root: usize, v: usize) -> usize {
    (v + root) % p
}

/// Span of virtual rank `v`'s subtree in the lowest-set-bit binomial tree
/// (van de Geijn's scatter, and the reduce): `v`'s lowest set bit, or
/// `p` rounded up to a power of two at the root.
fn subtree_extent(p: usize, v: usize) -> usize {
    if v == 0 {
        p.next_power_of_two()
    } else {
        v & v.wrapping_neg()
    }
}

/// `rank`'s edges in `algo`'s tree, in the order it uses them: the rank
/// it receives each broadcast message from (`None` at the root), then
/// the ranks it forwards the message to, in send order.
///
/// * `Flat`: the root sends to every rank, in local-rank order.
/// * `Binomial`: in round `mask = 1, 2, 4, …` every virtual rank
///   `v < mask` sends to `v + mask`, so `v`'s parent is `v` with its
///   highest set bit cleared.
/// * `Binary`: `v`'s children are `2v + 1` and `2v + 2`.
/// * `Ring` and `Pipelined`: the chain `0 → 1 → … → p − 1`.
/// * `ScatterAllgather`: the scatter tree, where `v`'s parent is `v` with
///   its lowest set bit cleared and the largest subtree is served first.
pub fn bcast_edges(
    algo: BcastAlgorithm,
    p: usize,
    root: usize,
    rank: usize,
) -> (
    Option<usize>,
    impl DoubleEndedIterator<Item = usize> + Clone,
) {
    let v = virt(p, root, rank);
    let bits = |x: usize| (usize::BITS - x.leading_zeros()) as usize;
    let extent = subtree_extent(p, v);
    let parent = (v != 0).then(|| match algo {
        BcastAlgorithm::Flat => 0,
        BcastAlgorithm::Binomial => v - (1 << v.ilog2()),
        BcastAlgorithm::Binary => (v - 1) / 2,
        BcastAlgorithm::Ring | BcastAlgorithm::Pipelined { .. } => v - 1,
        BcastAlgorithm::ScatterAllgather => v - extent,
    });
    // Child `i` of `v`, as a virtual rank; candidates past `p` are skipped.
    let steps = match algo {
        BcastAlgorithm::Flat if v == 0 => 0..p,
        BcastAlgorithm::Flat => 0..0,
        BcastAlgorithm::Binomial => bits(v)..bits(p - 1),
        BcastAlgorithm::Binary => 1..3,
        BcastAlgorithm::Ring | BcastAlgorithm::Pipelined { .. } => 1..2,
        BcastAlgorithm::ScatterAllgather => 0..extent.trailing_zeros() as usize,
    };
    let children = steps
        .map(move |i| match algo {
            BcastAlgorithm::Flat => virt(p, root, i),
            BcastAlgorithm::Binomial => v + (1 << i),
            BcastAlgorithm::Binary => 2 * v + i,
            BcastAlgorithm::Ring | BcastAlgorithm::Pipelined { .. } => v + i,
            BcastAlgorithm::ScatterAllgather => v + (extent >> (i + 1)),
        })
        .filter(move |&c| c != 0 && c < p)
        .map(move |c| local(p, root, c));
    (parent.map(|u| local(p, root, u)), children)
}

/// The element ranges a broadcast of `len` elements moves down its tree
/// one after the other: the whole payload, or `Pipelined`'s segments
/// (never more segments than elements, and at least one).
///
/// # Panics
/// Panics if a `Pipelined` algorithm asks for zero segments.
pub fn bcast_segments(algo: BcastAlgorithm, len: usize) -> impl Iterator<Item = (usize, usize)> {
    let segments = match algo {
        BcastAlgorithm::Pipelined { segments } => {
            assert!(segments >= 1, "need at least one segment");
            segments.min(len.max(1))
        }
        _ => 1,
    };
    (0..segments).map(move |s| chunk_range(len, segments, s))
}

/// The elements `rank`'s subtree needs from the tree phase: all of them,
/// except under `ScatterAllgather`, whose scatter hands each subtree only
/// its ranks' [`chunk_range`]s. A parent sends a child, per segment, the
/// part of the segment inside the child's range; one of the two is always
/// the whole payload.
pub fn bcast_range(
    algo: BcastAlgorithm,
    p: usize,
    root: usize,
    rank: usize,
    len: usize,
) -> (usize, usize) {
    if algo != BcastAlgorithm::ScatterAllgather {
        return (0, len);
    }
    let v = virt(p, root, rank);
    let end = (v + subtree_extent(p, v)).min(p);
    (chunk_range(len, p, v).0, chunk_range(len, p, end - 1).1)
}

/// The allgather rounds that follow `ScatterAllgather`'s scatter (none
/// for any other algorithm), as `(to, sent, from, received)`: in round
/// `k` virtual rank `v` sends chunk `v − k` to `v + 1` and receives chunk
/// `v − k − 1` from `v − 1`, all mod `p`. The chunk received in round `k`
/// is the one sent in round `k + 1`.
pub fn allgather_rounds(
    algo: BcastAlgorithm,
    p: usize,
    root: usize,
    rank: usize,
    len: usize,
) -> impl Iterator<Item = (usize, (usize, usize), usize, (usize, usize))> {
    let v = virt(p, root, rank);
    let rounds = if algo == BcastAlgorithm::ScatterAllgather {
        p - 1
    } else {
        0
    };
    let (next, prev) = (local(p, root, v + 1), local(p, root, v + p - 1));
    (0..rounds).map(move |k| {
        let sent = chunk_range(len, p, (v + p - k) % p);
        let received = chunk_range(len, p, (v + p - k - 1) % p);
        (next, sent, prev, received)
    })
}

/// `rank`'s edges in the binomial reduce, in the order it uses them: the
/// ranks it receives partial results from, then the rank it sends its own
/// to (`None` at the root). The reduce walks the `ScatterAllgather`
/// scatter tree upwards, so leaves send first and every rank combines in
/// rank order relative to the root.
pub fn reduce_edges(
    p: usize,
    root: usize,
    rank: usize,
) -> (impl Iterator<Item = usize>, Option<usize>) {
    let (parent, children) = bcast_edges(BcastAlgorithm::ScatterAllgather, p, root, rank);
    (children.rev(), parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        for (algo, want) in [
            (BcastAlgorithm::Flat, "flat"),
            (BcastAlgorithm::Binomial, "binomial"),
            (BcastAlgorithm::Binary, "binary"),
            (BcastAlgorithm::Ring, "ring"),
            (BcastAlgorithm::Pipelined { segments: 4 }, "pipelined"),
            (BcastAlgorithm::ScatterAllgather, "scatter_allgather"),
        ] {
            assert_eq!(algo.name(), want);
        }
    }

    #[test]
    fn auto_bcast_reproduces_mpich_cutoff() {
        assert_eq!(auto_bcast(1024, 64), BcastAlgorithm::Binomial);
        assert_eq!(auto_bcast(64 * 1024, 64), BcastAlgorithm::ScatterAllgather);
        // Small communicators stay binomial even for long messages.
        assert_eq!(auto_bcast(64 * 1024, 4), BcastAlgorithm::Binomial);
    }

    const ALGOS: [BcastAlgorithm; 6] = [
        BcastAlgorithm::Flat,
        BcastAlgorithm::Binomial,
        BcastAlgorithm::Binary,
        BcastAlgorithm::Ring,
        BcastAlgorithm::Pipelined { segments: 3 },
        BcastAlgorithm::ScatterAllgather,
    ];

    fn children(algo: BcastAlgorithm, p: usize, root: usize, rank: usize) -> Vec<usize> {
        bcast_edges(algo, p, root, rank).1.collect()
    }

    #[test]
    fn every_tree_reaches_each_rank_once_from_its_parent() {
        for algo in ALGOS {
            for p in 1..=17usize {
                for root in 0..p {
                    assert_eq!(bcast_edges(algo, p, root, root).0, None);
                    let mut reached = vec![0usize; p];
                    for rank in 0..p {
                        for child in bcast_edges(algo, p, root, rank).1 {
                            reached[child] += 1;
                            assert_eq!(bcast_edges(algo, p, root, child).0, Some(rank));
                        }
                    }
                    let want: Vec<usize> = (0..p).map(|r| usize::from(r != root)).collect();
                    assert_eq!(reached, want, "{algo:?} p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn children_come_in_send_order() {
        let flat = BcastAlgorithm::Flat;
        assert_eq!(children(flat, 5, 2, 2), [0, 1, 3, 4]);
        assert_eq!(children(flat, 5, 2, 3), [0usize; 0]);
        let binomial = BcastAlgorithm::Binomial;
        assert_eq!(children(binomial, 8, 0, 0), [1, 2, 4]);
        assert_eq!(children(binomial, 8, 0, 1), [3, 5]);
        assert_eq!(children(binomial, 8, 3, 4), [6, 0]);
        assert_eq!(children(BcastAlgorithm::Binary, 6, 0, 2), [5]);
        assert_eq!(children(BcastAlgorithm::Ring, 4, 1, 3), [0]);
        let vdg = BcastAlgorithm::ScatterAllgather;
        assert_eq!(children(vdg, 8, 0, 0), [4, 2, 1]);
        assert_eq!(children(vdg, 6, 0, 4), [5]);
        assert_eq!(children(vdg, 6, 0, 0), [4, 2, 1]);
    }

    #[test]
    fn scatter_ranges_split_each_subtree_between_its_rank_and_children() {
        let vdg = BcastAlgorithm::ScatterAllgather;
        for (p, len) in [(1usize, 5usize), (3, 21), (5, 3), (8, 1000), (13, 100)] {
            for root in [0, p / 2, p - 1] {
                assert_eq!(bcast_range(vdg, p, root, root, len), (0, len));
                for rank in 0..p {
                    let (lo, hi) = bcast_range(vdg, p, root, rank, len);
                    let own = chunk_range(len, p, (rank + p - root) % p);
                    assert_eq!(lo, own.0, "p={p} root={root} rank={rank}");
                    // Children take the rest, contiguously, in reverse send order.
                    let mut cursor = own.1;
                    for child in bcast_edges(vdg, p, root, rank).1.rev() {
                        let (clo, chi) = bcast_range(vdg, p, root, child, len);
                        assert_eq!(clo, cursor, "p={p} root={root} rank={rank}");
                        cursor = chi;
                    }
                    assert_eq!(cursor, hi, "p={p} root={root} rank={rank}");
                }
            }
        }
        for algo in ALGOS.into_iter().filter(|&a| a != vdg) {
            assert_eq!(bcast_range(algo, 8, 3, 5, 1000), (0, 1000));
        }
    }

    #[test]
    fn segments_tile_the_payload() {
        let seg = |algo, len| bcast_segments(algo, len).collect::<Vec<_>>();
        assert_eq!(seg(BcastAlgorithm::Binomial, 10), [(0, 10)]);
        let pipelined = BcastAlgorithm::Pipelined { segments: 4 };
        assert_eq!(seg(pipelined, 10), [(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(seg(pipelined, 2), [(0, 1), (1, 2)]);
        assert_eq!(seg(pipelined, 0), [(0, 0)]);
    }

    #[test]
    fn allgather_delivers_every_other_chunk_once() {
        let vdg = BcastAlgorithm::ScatterAllgather;
        for p in 1..=9usize {
            for root in 0..p {
                for rank in 0..p {
                    let mut got: Vec<(usize, usize)> = allgather_rounds(vdg, p, root, rank, 50)
                        .map(|(to, _, from, received)| {
                            assert_eq!(to, (rank + 1) % p);
                            assert_eq!(from, (rank + p - 1) % p);
                            received
                        })
                        .collect();
                    got.push(chunk_range(50, p, (rank + p - root) % p));
                    got.sort_unstable();
                    let all: Vec<_> = (0..p).map(|i| chunk_range(50, p, i)).collect();
                    assert_eq!(got, all, "p={p} root={root} rank={rank}");
                }
            }
        }
        assert_eq!(
            allgather_rounds(BcastAlgorithm::Ring, 8, 0, 3, 50).count(),
            0
        );
    }

    #[test]
    fn reduce_receives_leaves_first_then_sends_up() {
        let partners = |p, root, rank| {
            let (from, to) = reduce_edges(p, root, rank);
            (from.collect::<Vec<_>>(), to)
        };
        assert_eq!(partners(6, 0, 0), (vec![1, 2, 4], None));
        assert_eq!(partners(6, 0, 4), (vec![5], Some(0)));
        assert_eq!(partners(6, 0, 2), (vec![3], Some(0)));
        assert_eq!(partners(6, 2, 3), (vec![], Some(2)));
    }

    #[test]
    fn segmentation_flags() {
        assert!(BcastAlgorithm::Pipelined { segments: 2 }.needs_segmentation());
        assert!(BcastAlgorithm::ScatterAllgather.needs_segmentation());
        assert!(!BcastAlgorithm::Binomial.needs_segmentation());
        assert!(!BcastAlgorithm::Ring.needs_segmentation());
    }
}
