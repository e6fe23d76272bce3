//! Std-only stand-in for `rayon`.
//!
//! Implements the slice-parallelism subset the GEMM kernels use —
//! `par_chunks_mut(..).enumerate().for_each(..)` — with `std::thread::scope`
//! instead of a work-stealing pool. Chunks are dealt round-robin to one
//! scoped thread per available core, which is an even split for the
//! near-uniform chunk costs the kernels produce. No global pool, no
//! dependencies.

use std::sync::OnceLock;
use std::thread;

/// Number of worker threads parallel operations fan out to (rayon's
/// `current_num_threads`): the machine's available parallelism, asked of
/// the OS on the first call only — as rayon's global pool is sized once —
/// because the query is a `sched_getaffinity` plus cgroup file reads and
/// the GEMM kernels call this on every multiply.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Parallel iterator over mutable, non-overlapping slice chunks.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

/// [`ParChunksMut`] with the chunk index attached, mirroring
/// `rayon`'s `enumerate()` adapter.
pub struct EnumerateParChunksMut<'a, T> {
    inner: ParChunksMut<'a, T>,
}

/// Deals `items` round-robin to up to [`current_num_threads`] scoped
/// threads and applies `f`. Runs inline when only one worker is useful.
fn drive<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    let workers = current_num_threads().min(items.len());
    if workers <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let mut queues: Vec<Vec<I>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers].push(item);
    }
    let f = &f;
    thread::scope(|s| {
        for queue in queues {
            s.spawn(move || {
                for item in queue {
                    f(item);
                }
            });
        }
    });
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Attaches the chunk index.
    pub fn enumerate(self) -> EnumerateParChunksMut<'a, T> {
        EnumerateParChunksMut { inner: self }
    }

    /// Applies `f` to every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        drive(self.slice.chunks_mut(self.chunk).collect(), f);
    }
}

impl<'a, T: Send> EnumerateParChunksMut<'a, T> {
    /// Applies `f` to every `(index, chunk)` pair, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let items: Vec<(usize, &mut [T])> = self
            .inner
            .slice
            .chunks_mut(self.inner.chunk)
            .enumerate()
            .collect();
        drive(items, f);
    }
}

/// Extension trait adding `par_chunks_mut` to slices (rayon's
/// `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into non-overlapping chunks of `chunk` elements
    /// (last may be shorter) to be processed in parallel.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunksMut { slice: self, chunk }
    }
}

pub mod prelude {
    //! Glob-import surface (`use rayon::prelude::*`).
    pub use crate::ParallelSliceMut;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn for_each_touches_every_chunk() {
        let mut v = vec![0u64; 1000];
        v.par_chunks_mut(64).for_each(|c| {
            for x in c {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn enumerate_gives_chunk_indices() {
        let mut v = vec![0usize; 257];
        v.par_chunks_mut(32).enumerate().for_each(|(i, c)| {
            for x in c {
                *x = i;
            }
        });
        for (pos, &x) in v.iter().enumerate() {
            assert_eq!(x, pos / 32);
        }
    }

    #[test]
    fn single_chunk_runs_inline() {
        let mut v = [1.0f64; 8];
        v.par_chunks_mut(100).for_each(|c| c[0] = 2.0);
        assert_eq!(v[0], 2.0);
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn current_num_threads_is_one_value_on_every_call_and_thread() {
        let here = super::current_num_threads();
        assert_eq!(super::current_num_threads(), here);
        let there: Vec<usize> = std::thread::scope(|s| {
            let spawned: Vec<_> = (0..4)
                .map(|_| s.spawn(super::current_num_threads))
                .collect();
            spawned
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        assert_eq!(there, [here; 4]);
    }
}
