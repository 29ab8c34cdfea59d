//! Deterministic work-stealing fan-out over independent tasks.
//!
//! The experiment fan-out of `dolbie-bench` lives here, in the core
//! crate, so that *intra-round* computation (the chunked sweeps of the
//! large-N kernel [`FusedDolbie`](crate::kernel::FusedDolbie)) shares one
//! thread-count setting and one scheduling discipline with the
//! *across-experiment* fan-out. Three properties make the parallelism
//! safe:
//!
//! - **Pure tasks.** Each task is a function of its index (or owned
//!   payload) alone, so the execution schedule cannot leak into a result.
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
use std::sync::{Mutex, OnceLock};

/// 0 means "not set": fall back to available parallelism.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Probed once: `available_parallelism` re-reads cgroup quota files on
/// every call on Linux, which is far too slow for the per-round
/// [`threads`] checks in the chunked kernel's hot path.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

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
        0 => *DEFAULT_THREADS
            .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
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

/// Runs `task` once on every payload, work-stealing over [`threads`]
/// scoped worker threads. Payloads are *owned* (typically disjoint
/// `&mut` sub-slices produced by `chunks_mut`), which is what lets the
/// intra-round engine passes write shared state in parallel without
/// `unsafe`.
///
/// Each payload is claimed exactly once; with one worker thread the
/// payloads run sequentially in order on the calling thread. As with
/// [`parallel_map`], tasks must be pure functions of their payload for
/// the schedule to be unobservable.
///
/// # Panics
///
/// Propagates the first observed panic from a worker thread.
pub fn parallel_for_each<C, F>(payloads: Vec<C>, task: F)
where
    C: Send,
    F: Fn(C) + Sync,
{
    let workers = threads().min(payloads.len());
    if workers <= 1 {
        for payload in payloads {
            task(payload);
        }
        return;
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<C>>> = payloads.into_iter().map(|p| Mutex::new(Some(p))).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    let payload = slots[i]
                        .lock()
                        .expect("payload slot poisoned")
                        .take()
                        .expect("every payload is claimed exactly once");
                    task(payload);
                })
            })
            .collect();
        for handle in handles {
            if let Err(panic) = handle.join() {
                resume_unwind(panic);
            }
        }
    });
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

    #[test]
    fn for_each_writes_disjoint_chunks() {
        let mut data = vec![0usize; 1000];
        set_threads(4);
        let payloads: Vec<(usize, &mut [usize])> =
            data.chunks_mut(7).enumerate().map(|(k, c)| (k * 7, c)).collect();
        parallel_for_each(payloads, |(base, chunk)| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = (base + off) * 2;
            }
        });
        set_threads(0);
        assert_eq!(data, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_sequential_path_matches_parallel() {
        let run = |threads: usize| {
            let mut out = vec![0.0f64; 137];
            set_threads(threads);
            let payloads: Vec<(usize, &mut [f64])> =
                out.chunks_mut(11).enumerate().map(|(k, c)| (k * 11, c)).collect();
            parallel_for_each(payloads, |(base, chunk)| {
                for (off, v) in chunk.iter_mut().enumerate() {
                    *v = ((base + off) as f64).sin();
                }
            });
            set_threads(0);
            out
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn for_each_panic_propagates() {
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            parallel_for_each((0..16).collect::<Vec<usize>>(), |i| {
                if i == 3 {
                    panic!("payload failure");
                }
            })
        });
        set_threads(0);
        assert!(result.is_err());
    }
}
