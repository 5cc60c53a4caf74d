//! A dependency-free scoped worker-thread pool for embarrassingly
//! parallel experiment sweeps.
//!
//! The workspace builds hermetically (no registry crates), so instead of
//! `rayon` this module offers the one primitive the experiment runner
//! needs: [`map`] — apply a function to every element of a slice on `N`
//! worker threads and return the results **in input order**, regardless
//! of how the OS schedules the workers.
//!
//! Design:
//!
//! * workers are spawned with [`std::thread::scope`], so borrowed data
//!   (the input slice, the closure) needs no `'static` bound and no
//!   reference counting;
//! * work is handed out through an atomic cursor — each worker claims the
//!   next index with one `fetch_add`, which keeps contention negligible
//!   for the millisecond-scale sweep jobs it runs;
//! * every result is tagged with its input index and the output is
//!   reassembled by index, so `map(n, items, f)` is bit-identical to the
//!   serial `items.iter().map(f)` for any thread count.
//!
//! Determinism therefore only requires that `f` itself is a pure function
//! of `(index, item)` — exactly the contract the experiment runner
//! enforces by deriving every job's RNG stream from `(master_seed,
//! job_index)`.
//!
//! # Example
//!
//! ```
//! use simcore::pool;
//!
//! let squares = pool::map(4, &[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads available, falling back to 1 when the
/// platform cannot say.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every element of `items` on up to `threads` scoped
/// worker threads, returning results in input order.
///
/// With `threads <= 1` (or fewer than two items) everything runs on the
/// calling thread — the parallel and serial paths produce bit-identical
/// output, so callers can treat the thread count as a pure performance
/// knob.
///
/// # Panics
///
/// Propagates the first panic raised inside `f` (after all workers have
/// stopped), like [`std::thread::scope`].
pub fn map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    // More workers than items would only spawn threads that immediately
    // exit; cap at the number of items.
    let workers = threads.min(items.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                // One lock per worker lifetime, not per job.
                results
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .append(&mut local);
            });
        }
    });
    let mut tagged = results
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    assert_eq!(tagged.len(), items.len(), "worker lost results");
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial = map(1, &items, |i, &x| x * 3 + i as u64);
        for threads in [2, 3, 4, 8, 64] {
            let parallel = map(threads, &items, |i, &x| x * 3 + i as u64);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(map(4, &empty, |_, &x: &u64| x).is_empty());
        assert_eq!(map(4, &[7u64], |_, &x| x * 2), vec![14]);
    }

    #[test]
    fn zero_threads_behaves_as_one() {
        assert_eq!(map(0, &[1u64, 2, 3], |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn results_keep_input_order_under_skewed_job_times() {
        // Early indices sleep longest, so a naive completion-order
        // collection would reverse them.
        let items: Vec<u64> = (0..16).collect();
        let out = map(4, &items, |i, &x| {
            std::thread::sleep(std::time::Duration::from_micros(
                (items.len() - i) as u64 * 50,
            ));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            map(2, &[1u64, 2, 3, 4], |_, &x| {
                if x == 3 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err(), "panic inside a worker must propagate");
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
