//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon) crate.
//!
//! The build environment of this repository has no network access, so the
//! real rayon cannot be fetched from crates.io. This shim implements the
//! subset of rayon's API that the workspace actually uses — `par_iter_mut`
//! and `par_chunks_mut` on slices, followed by `enumerate`/`for_each`, and
//! [`current_num_threads`] — with genuine data parallelism built on
//! [`std::thread::scope`]. Work is split into one contiguous run of blocks
//! per available core, so the hot state-vector and matmul kernels still
//! scale with hardware threads.
//!
//! Swapping the real rayon back in is a one-line change in the workspace
//! manifest; no call sites need to change.

#![warn(missing_docs)]

use std::sync::OnceLock;

/// The traits that make `par_iter_mut` / `par_chunks_mut` available on
/// slices, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::ParallelSliceMut;
}

/// Number of worker threads a parallel call splits its work across, like
/// rayon's `current_num_threads()` for the global pool.
///
/// Computed once per process: `available_parallelism()` reads cgroup files
/// on Linux, which costs microseconds per call — too much to pay on every
/// `par_*` call and every kernel dispatch.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Splits `slice` into whole `block`-sized chunks, hands one contiguous run
/// of chunks to each worker thread, and calls `f(chunk_index, chunk)`.
fn run_on_blocks<T, F>(slice: &mut [T], block: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(block > 0, "chunk size must be non-zero");
    let total_blocks = slice.len().div_ceil(block);
    let threads = current_num_threads().min(total_blocks).max(1);
    if threads <= 1 {
        for (i, chunk) in slice.chunks_mut(block).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let blocks_per_worker = total_blocks.div_ceil(threads);
    let stride = blocks_per_worker * block;
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = slice;
        let mut first_block = 0usize;
        while !rest.is_empty() {
            let take = stride.min(rest.len());
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            let base = first_block;
            scope.spawn(move || {
                for (i, chunk) in head.chunks_mut(block).enumerate() {
                    f(base + i, chunk);
                }
            });
            first_block += blocks_per_worker;
        }
    });
}

/// Parallel mutable element iterator, as returned by
/// [`ParallelSliceMut::par_iter_mut`].
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Pairs every element with its index, like [`Iterator::enumerate`].
    pub fn enumerate(self) -> ParIterMutEnumerate<'a, T> {
        ParIterMutEnumerate { slice: self.slice }
    }

    /// Runs `f` on every element, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        self.enumerate().for_each(|(_, item)| f(item));
    }
}

/// Enumerated form of [`ParIterMut`].
pub struct ParIterMutEnumerate<'a, T> {
    slice: &'a mut [T],
}

impl<T: Send> ParIterMutEnumerate<'_, T> {
    /// Runs `f` on every `(index, element)` pair, in parallel. Indices are
    /// global positions in the original slice.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut T)) + Sync,
    {
        // Group elements into cache-friendly runs so thread-spawn overhead is
        // amortised over many elements.
        let run = self.slice.len().div_ceil(current_num_threads()).max(1);
        run_on_blocks(self.slice, run, |block_idx, chunk| {
            let base = block_idx * run;
            for (k, item) in chunk.iter_mut().enumerate() {
                f((base + k, item));
            }
        });
    }
}

/// Parallel mutable chunk iterator, as returned by
/// [`ParallelSliceMut::par_chunks_mut`].
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs every chunk with its chunk index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate {
            slice: self.slice,
            chunk_size: self.chunk_size,
        }
    }

    /// Runs `f` on every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Enumerated form of [`ParChunksMut`].
pub struct ParChunksMutEnumerate<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    /// Runs `f` on every `(chunk_index, chunk)` pair, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        run_on_blocks(self.slice, self.chunk_size, |i, chunk| f((i, chunk)));
    }
}

/// Subset of rayon's `ParallelSliceMut` + `IntoParallelRefMutIterator`:
/// parallel mutable iteration over slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel equivalent of [`slice::iter_mut`].
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;

    /// Parallel equivalent of [`slice::chunks_mut`].
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_mut_visits_every_index_once() {
        let mut v = vec![0usize; 10_000];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i + 1);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i + 1);
        }
    }

    #[test]
    fn par_chunks_mut_matches_sequential_chunking() {
        for len in [0usize, 1, 7, 64, 1000] {
            for block in [1usize, 3, 16, 1024] {
                let mut par = vec![0usize; len];
                par.par_chunks_mut(block)
                    .enumerate()
                    .for_each(|(ci, chunk)| {
                        for x in chunk {
                            *x = ci;
                        }
                    });
                let mut seq = vec![0usize; len];
                for (ci, chunk) in seq.chunks_mut(block).enumerate() {
                    for x in chunk {
                        *x = ci;
                    }
                }
                assert_eq!(par, seq, "len={len} block={block}");
            }
        }
    }

    #[test]
    fn current_num_threads_is_positive_and_stable() {
        let n = super::current_num_threads();
        assert!(n >= 1);
        for _ in 0..8 {
            assert_eq!(super::current_num_threads(), n);
        }
    }

    #[test]
    fn panic_in_closure_reaches_the_caller_and_the_shim_keeps_working() {
        for len in [1usize, 10_000] {
            let caught = std::panic::catch_unwind(|| {
                let mut v = vec![0usize; len];
                v.par_iter_mut().enumerate().for_each(|(i, x)| {
                    if i == len - 1 {
                        panic!("boom");
                    }
                    *x = i;
                });
            });
            assert!(caught.is_err(), "len={len}: the panic must propagate");
            let caught = std::panic::catch_unwind(|| {
                let mut v = vec![0usize; len];
                v.par_chunks_mut(7).for_each(|_| panic!("boom"));
            });
            assert!(caught.is_err(), "len={len}: the panic must propagate");
        }
        let mut v = vec![0usize; 10_000];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn nested_parallel_calls_complete() {
        let mut rows = vec![vec![0usize; 1000]; 16];
        rows.par_iter_mut().enumerate().for_each(|(r, row)| {
            row.par_chunks_mut(10).enumerate().for_each(|(ci, chunk)| {
                for x in chunk {
                    *x = r * 100 + ci;
                }
            });
        });
        for (r, row) in rows.iter().enumerate() {
            for (j, &x) in row.iter().enumerate() {
                assert_eq!(x, r * 100 + j / 10);
            }
        }
    }

    #[test]
    fn for_each_without_enumerate() {
        let mut v = vec![1u64; 513];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 2));
        v.par_chunks_mut(8).for_each(|c| c[0] = 0);
        assert_eq!(v.iter().filter(|&&x| x == 0).count(), 513usize.div_ceil(8));
    }
}
