//! Scoped-thread parallel helpers.
//!
//! The experiments consist of many independent units of work — figure cells
//! (workload × antagonist × load) and fleet servers stepping through a
//! window — so these helpers fan work out over the machine's cores with
//! plain scoped threads.  Results always come back in input order, and the
//! helpers spawn no threads at all for empty input, so callers stay
//! deterministic regardless of the parallelism available.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// The worker count [`with_worker_threads`] fixed for fan-outs started
    /// on this thread, if any.
    static FIXED_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn worker_threads(items: usize) -> usize {
    FIXED_WORKERS
        .get()
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
        .min(items.max(1))
}

/// Runs `f` with every fan-out it starts on the calling thread using
/// `workers` worker threads (or one per item, if fewer), whatever the
/// machine's parallelism.  A test seam: results must not depend on the
/// worker count, and this is how tests pin that.
///
/// # Panics
///
/// Panics if `workers` is zero.
#[doc(hidden)]
pub fn with_worker_threads<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    assert!(workers > 0, "a fan-out needs at least one worker");
    /// Restores the previous setting, also when `f` unwinds.
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FIXED_WORKERS.set(self.0);
        }
    }
    let _restore = Restore(FIXED_WORKERS.replace(Some(workers)));
    f()
}

/// Applies `f` to every item, running cells in parallel across threads, and
/// returns the results in input order.
///
/// # Example
///
/// ```
/// let squares = heracles_sim::parallel_map(&[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = worker_threads(items.len());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                let value = f(&items[idx]);
                results.lock().expect("no panics while holding the lock")[idx] = Some(value);
            });
        }
    });
    results
        .into_inner()
        .expect("all workers finished")
        .into_iter()
        .map(|r| r.expect("every cell computed"))
        .collect()
}

/// Applies `f` to every item through a mutable reference, running items in
/// parallel across threads, and returns the results in input order.
///
/// This is the stepping primitive of the fleet simulator: each server owns
/// mutable state (its runner, controller and RNG) and advances independently
/// within a step, so a whole fleet advances one step in the wall-clock time
/// of its slowest chunk.  Work is distributed in contiguous chunks, which
/// keeps the borrow checker happy (`chunks_mut` hands each thread exclusive
/// ownership of its slice) at the cost of no work stealing.  That cost is
/// real when per-item cost is uneven, as on the event core: a leaf that
/// simulates a full window costs a median of about 120 µs and one that
/// fast-forwards about 0.8 µs (on a 2-vCPU Xeon), so with about 29 of 250
/// leaves woken per step the chunk that drew the most woken leaves sets the
/// step's wall time, and workers are busy only about 77% of the fan-out
/// (fleetbench plateau, `fleet.leaf_busy_share`).  A pool whose workers
/// claim items one at a time is ROADMAP.md item 7.
///
/// # Example
///
/// ```
/// let mut counters = vec![0u64; 8];
/// let totals = heracles_sim::parallel_map_mut(&mut counters, |c| {
///     *c += 1;
///     *c
/// });
/// assert_eq!(totals, vec![1; 8]);
/// assert_eq!(counters, vec![1; 8]);
/// ```
pub fn parallel_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = worker_threads(items.len());
    let chunk_size = items.len().div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk_size)
            .map(|chunk| scope.spawn(|| chunk.iter_mut().map(&f).collect::<Vec<R>>()))
            .collect();
        for handle in handles {
            results.push(handle.join().expect("no panics in parallel_map_mut workers"));
        }
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_input() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
    }

    #[test]
    fn map_mut_mutates_and_preserves_order() {
        let mut items: Vec<usize> = (0..97).collect();
        let seen = parallel_map_mut(&mut items, |x| {
            *x += 1;
            *x
        });
        assert_eq!(seen, (1..98).collect::<Vec<_>>());
        assert_eq!(items, (1..98).collect::<Vec<_>>());
    }

    #[test]
    fn fixed_worker_counts_give_the_same_results() {
        let items: Vec<u64> = (0..23).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 7, 64] {
            let (mapped, mutated) = with_worker_threads(workers, || {
                assert_eq!(worker_threads(items.len()), workers.min(items.len()));
                let mut copy = items.clone();
                (parallel_map(&items, |&x| x * x), parallel_map_mut(&mut copy, |x| *x * *x))
            });
            assert_eq!(mapped, expected);
            assert_eq!(mutated, expected);
        }
        assert_eq!(FIXED_WORKERS.get(), None, "the setting outlived its scope");
    }

    #[test]
    fn map_mut_handles_empty_and_single() {
        let mut empty: Vec<u32> = vec![];
        assert!(parallel_map_mut(&mut empty, |x| *x).is_empty());
        let mut one = vec![7u32];
        assert_eq!(parallel_map_mut(&mut one, |x| *x * 3), vec![21]);
    }
}
