//! Deterministic work-stealing fan-out over independent tasks.
//!
//! The fan-out across experiments, seeds and model-checker frontiers
//! (`dolbie-bench`, `dolbie-mc`). A round itself runs on one thread:
//! [`FusedDolbie`](crate::kernel::FusedDolbie) costs a few nanoseconds
//! per worker, so spawning threads inside a round pays off only at
//! fleets far larger than any workload runs. Three properties make the
//! parallelism safe:
//!
//! - **Pure tasks.** Each task is a function of its index (or item)
//!   alone, so the execution schedule cannot leak into a result.
//! - **Ordered collection.** Results land in a per-index slot and are
//!   returned in index order, so downstream consumers see exactly the
//!   sequential iteration order.
//! - **Work stealing.** Workers claim indices from a shared atomic
//!   counter, so a slow task does not idle the other cores the way a
//!   static block partition would.
//!
//! The thread count is a process-wide setting (`--threads N` in the
//! binaries): [`set_threads`] pins it, and an unset count resolves to the
//! machine's available parallelism. With one thread every function here
//! degenerates to a plain sequential loop on the calling thread.
//!
//! Only `std` is used — the build environment is offline, so `rayon`-style
//! registries are deliberately out of reach.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// 0 means "not set": fall back to available parallelism.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Pins the number of worker threads used by the fan-out functions in
/// this module.
///
/// `0` resets to the default (the machine's available parallelism); any
/// other value is used as-is. Affects every subsequent parallel call in
/// the process.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::SeqCst);
}

/// The number of worker threads the fan-out functions will use.
pub fn threads() -> usize {
    match THREADS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Runs `task` for every index in `0..tasks` and returns the results in
/// index order, fanning out over [`threads`] scoped worker threads.
///
/// `task` must derive its result from the index alone (not from any
/// execution-order-dependent state): under that contract the returned
/// vector is identical for every thread count, which is what keeps the
/// experiment CSVs byte-stable.
///
/// # Panics
///
/// Propagates the first observed panic from a worker thread.
pub fn parallel_map<T, F>(tasks: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads().min(tasks);
    if workers <= 1 {
        return (0..tasks).map(task).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        break;
                    }
                    let result = task(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                })
            })
            .collect();
        for handle in handles {
            if let Err(panic) = handle.join() {
                resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed index stores a result")
        })
        .collect()
}

/// [`parallel_map`] over a slice: runs `task` on every item and returns
/// the results in item order.
pub fn parallel_map_items<I, T, F>(items: &[I], task: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    parallel_map(items.len(), |i| task(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        set_threads(4);
        let out = parallel_map(64, |i| {
            // Stagger completion so later indices often finish first.
            std::thread::sleep(std::time::Duration::from_micros((64 - i as u64) * 10));
            i * i
        });
        set_threads(0);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential() {
        set_threads(1);
        let seq = parallel_map(100, |i| (i as f64).sqrt());
        set_threads(4);
        let par = parallel_map(100, |i| (i as f64).sqrt());
        set_threads(0);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_and_tiny_task_counts_work() {
        set_threads(8);
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, |i| i + 1), vec![1]);
        set_threads(0);
    }

    #[test]
    fn items_variant_preserves_order() {
        set_threads(3);
        let items = vec!["a", "bb", "ccc", "dddd"];
        let lens = parallel_map_items(&items, |s| s.len());
        set_threads(0);
        assert_eq!(lens, vec![1, 2, 3, 4]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        set_threads(6);
        let count = AtomicUsize::new(0);
        let out = parallel_map(1000, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        set_threads(0);
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn worker_panic_propagates() {
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            parallel_map(16, |i| {
                if i == 7 {
                    panic!("task failure");
                }
                i
            })
        });
        set_threads(0);
        assert!(result.is_err());
    }
}
