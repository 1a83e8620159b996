//! Dependency-free scoped thread pool with an index-ordered `par_map`.
//!
//! The simulation plane is a grid of *independent* runs — per (protocol,
//! N, load, seed) point — so the natural unit of parallelism is "map this
//! closure over a slice, give me the results in input order". [`par_map`]
//! does exactly that on `std::thread::scope`:
//!
//! * **Deterministic**: results are returned in input order regardless of
//!   which worker computed them or in what order they finished. A caller
//!   whose per-item work is itself deterministic (every simulation point
//!   carries its own seed) gets byte-identical output at any thread count.
//! * **Dynamically scheduled**: workers pull the next unclaimed index from
//!   a shared atomic counter, so long points do not serialize behind short
//!   ones (the load-balancing half of work stealing, without the deques —
//!   task granularity here is whole simulation runs, far above the
//!   cross-worker-steal threshold).
//! * **Panic-propagating**: a panic in any task is re-raised on the caller
//!   with its original payload once the remaining workers have drained.
//! * **Reentrant**: a task that calls [`par_map`] again runs the nested
//!   map serially on its own worker thread — safe by construction, and it
//!   avoids multiplying thread counts on nested sweeps.
//!
//! Worker count comes from, in priority order: a [`with_threads`] override
//! (scoped, for tests and benchmarks), the `ATP_THREADS` environment
//! variable, and [`std::thread::available_parallelism`]. `ATP_THREADS=1`
//! forces fully serial execution on the calling thread — no threads are
//! spawned at all, which is also the mode to use under a debugger.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Scoped worker-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// True on threads spawned by [`par_map`]; nested maps run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Parses an `ATP_THREADS`-style value. `None`, empty, non-numeric and `0`
/// all mean "auto" (use the machine's available parallelism).
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    let s = raw?.trim();
    if s.is_empty() {
        return None;
    }
    match s.parse::<usize>() {
        Ok(0) | Err(_) => None,
        Ok(n) => Some(n),
    }
}

/// The number of workers [`par_map`] will use, resolved from the
/// [`with_threads`] override, then `ATP_THREADS`, then
/// [`std::thread::available_parallelism`] (falling back to 1).
pub fn worker_count() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    let env = std::env::var("ATP_THREADS").ok();
    if let Some(n) = parse_threads(env.as_deref()) {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` with the pool's worker count pinned to `threads` (minimum 1),
/// restoring the previous setting afterwards — including on unwind.
///
/// This is how the determinism tests compare `ATP_THREADS=1` against
/// `ATP_THREADS=8` inside one process without touching the (global,
/// race-prone) environment.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            THREAD_OVERRIDE.with(|c| c.set(prev));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

/// Maps `f` over `items` on up to [`worker_count`] scoped threads and
/// returns the results **in input order**.
///
/// Runs serially on the calling thread when the worker count is 1, when
/// there is at most one item, or when called from inside another
/// `par_map` task (safe reentry). A panic in any task is propagated to
/// the caller with its original payload.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = worker_count().min(items.len());
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut labelled: Vec<(usize, R)> = Vec::with_capacity(items.len());
    let mut panic_payload = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => labelled.extend(part),
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }

    labelled.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(labelled.iter().enumerate().all(|(k, &(i, _))| k == i));
    labelled.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Burn a little CPU so tasks finish out of submission order.
    fn spin(units: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..units * 500 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(acc)
    }

    #[test]
    fn results_are_input_ordered_under_uneven_durations() {
        let items: Vec<u64> = (0..97).collect();
        let f = |x: &u64| {
            // Early items are the slowest: workers finish out of order.
            spin(97 - *x);
            *x * 3 + 1
        };
        let serial: Vec<u64> = items.iter().map(f).collect();
        let parallel = with_threads(4, || par_map(&items, f));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn panics_propagate_with_payload() {
        let result = std::panic::catch_unwind(|| {
            with_threads(3, || {
                par_map(&[1, 2, 3, 4], |x| {
                    if *x == 3 {
                        panic!("boom at {x}");
                    }
                    *x
                })
            })
        });
        let payload = result.expect_err("panic must cross par_map");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 3"), "payload lost: {msg:?}");
    }

    #[test]
    fn one_thread_runs_serially_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = with_threads(1, || par_map(&[1, 2, 3], |_| std::thread::current().id()));
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn many_threads_actually_fan_out() {
        let used_worker = AtomicBool::new(false);
        let caller = std::thread::current().id();
        with_threads(4, || {
            par_map(&(0..64).collect::<Vec<_>>(), |_| {
                if std::thread::current().id() != caller {
                    used_worker.store(true, Ordering::Relaxed);
                }
            })
        });
        assert!(used_worker.load(Ordering::Relaxed), "no worker thread ran");
    }

    #[test]
    fn nested_par_map_reenters_safely() {
        let grid = with_threads(3, || {
            par_map(&[0u64, 1, 2, 3], |&row| {
                par_map(&[0u64, 1, 2], |&col| row * 10 + col)
            })
        });
        let expect: Vec<Vec<u64>> = (0..4)
            .map(|r| (0..3).map(|c| r * 10 + c).collect())
            .collect();
        assert_eq!(grid, expect);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u64> = par_map(&[], |x: &u64| *x);
        assert!(empty.is_empty());
        assert_eq!(with_threads(8, || par_map(&[7], |x| x + 1)), vec![8]);
    }

    #[test]
    fn with_threads_restores_on_exit_and_unwind() {
        assert_eq!(THREAD_OVERRIDE.with(Cell::get), None);
        with_threads(2, || {
            assert_eq!(worker_count(), 2);
            with_threads(5, || assert_eq!(worker_count(), 5));
            assert_eq!(worker_count(), 2);
        });
        assert_eq!(THREAD_OVERRIDE.with(Cell::get), None);
        let _ = std::panic::catch_unwind(|| with_threads(9, || panic!("unwind")));
        assert_eq!(THREAD_OVERRIDE.with(Cell::get), None);
    }

    #[test]
    fn parse_threads_semantics() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("  ")), None);
        assert_eq!(parse_threads(Some("0")), None, "0 means auto");
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
        assert_eq!(parse_threads(Some("lots")), None);
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }
}
