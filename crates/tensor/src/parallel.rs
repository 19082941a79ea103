//! Scoped-thread data parallelism for batch and GEMM loops.
//!
//! The CNN engine parallelizes over independent index ranges (rows of a
//! matrix, images of a batch). [`parallel_for_chunks`] splits `0..n` into
//! one contiguous chunk per worker and runs the closure on scoped threads, so
//! no runtime or dependency is needed and borrows of stack data just work.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads used by [`parallel_for_chunks`].
///
/// Defaults to [`std::thread::available_parallelism`], clamped to 16 (the
/// kernels here stop scaling past that). Override with the
/// `ADAPEX_THREADS` environment variable.
pub fn num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("ADAPEX_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .min(16);
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Runs `f` over contiguous sub-ranges of `0..n` on scoped worker
/// threads, handing each worker a disjoint mutable chunk of `out` aligned
/// to `stride` elements per index.
///
/// The range is split into at most [`num_threads`] chunks, each at least
/// `min_chunk` long; when `n <= min_chunk` (or only one worker is
/// available) the closure runs inline on the calling thread, so the
/// overhead for small problems is a single comparison.
///
/// `out.len()` must equal `n * stride`; worker `w` receives indices
/// `[start, end)` and the matching sub-slice `&mut out[start*stride ..
/// end*stride]`.
///
/// ```
/// use adapex_tensor::parallel::parallel_for_chunks;
///
/// let mut squares = vec![0usize; 100];
/// parallel_for_chunks(100, 1, &mut squares, 8, |range, chunk| {
///     for (slot, i) in chunk.iter_mut().zip(range) {
///         *slot = i * i;
///     }
/// });
/// assert_eq!(squares[9], 81);
/// ```
///
/// # Panics
///
/// Panics if `out.len() != n * stride`.
pub fn parallel_for_chunks<T, F>(n: usize, stride: usize, out: &mut [T], min_chunk: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert_eq!(out.len(), n * stride, "output length must be n * stride");
    if n == 0 {
        return;
    }
    let workers = num_threads().min(n.div_ceil(min_chunk.max(1))).max(1);
    if workers == 1 {
        f(0..n, out);
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = out;
        let mut start = 0;
        for _ in 0..workers {
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            let (head, tail) = rest.split_at_mut((end - start) * stride);
            rest = tail;
            let range = start..end;
            scope.spawn(move || f(range, head));
            start = end;
        }
    });
}

/// Maps `f` over `0..n` on up to `workers` scoped threads, returning
/// the results **in input order** regardless of completion order.
///
/// Scheduling is dynamic — each worker pulls the next unclaimed index
/// from a shared counter — so uneven per-index cost (e.g. training runs
/// whose length varies with the pruning rate) still balances across
/// workers. Order-independence of the *result* is the caller's
/// responsibility: `f` must be a pure function of its index for
/// `par_map(n, w, f)` to be invariant in `w`; this function only
/// guarantees that every index runs exactly once and the output vector
/// is index-ordered.
///
/// `workers == 1` (or `n <= 1`) runs `f` sequentially on the calling
/// thread in index order — byte-for-byte the behaviour of
/// `(0..n).map(f).collect()`.
///
/// # Panics
///
/// Propagates a panic from any worker.
///
/// ```
/// use adapex_tensor::parallel::par_map;
///
/// let squares = par_map(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn par_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_whole_range_once() {
        let hits = (0..1000).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        let mut out: [u8; 0] = [];
        parallel_for_chunks(1000, 0, &mut out, 1, |range, _| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_range_is_noop() {
        let mut out: [u8; 0] = [];
        parallel_for_chunks(0, 1, &mut out, 1, |_, _| panic!("must not be called"));
    }

    #[test]
    fn small_range_runs_inline() {
        let tid = std::thread::current().id();
        let mut out = [0u8; 3];
        parallel_for_chunks(3, 1, &mut out, 100, |range, chunk| {
            assert_eq!(std::thread::current().id(), tid);
            assert_eq!(range, 0..3);
            assert_eq!(chunk.len(), 3);
        });
    }

    #[test]
    fn chunked_writes_are_disjoint_and_complete() {
        let mut out = vec![0u32; 50 * 4];
        parallel_for_chunks(50, 4, &mut out, 1, |range, chunk| {
            for (local, i) in range.enumerate() {
                for j in 0..4 {
                    chunk[local * 4 + j] = (i * 4 + j) as u32;
                }
            }
        });
        let expect: Vec<u32> = (0..200).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn num_threads_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn par_map_preserves_input_order() {
        // Make early indices slow so completion order inverts.
        let out = par_map(32, 8, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 3
        });
        assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_runs_every_index_exactly_once() {
        let hits = (0..200).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        let out = par_map(200, 7, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_single_worker_runs_inline_in_order() {
        let tid = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        par_map(10, 1, |i| {
            assert_eq!(std::thread::current().id(), tid);
            seen.lock().unwrap().push(i);
        });
        assert_eq!(*seen.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_input_yields_empty_output() {
        let out: Vec<u8> = par_map(0, 4, |_| panic!("must not be called"));
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn par_map_propagates_worker_panics() {
        par_map(16, 4, |i| {
            if i == 9 {
                panic!("worker boom");
            }
            i
        });
    }
}
