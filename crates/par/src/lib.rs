//! Zero-dependency batch parallelism for independent programs.
//!
//! The PDCE workloads that matter at scale — multi-file `pdce opt`,
//! progen fleets, the bench scaling sweep — are embarrassingly parallel
//! across *programs* while each program's optimization stays
//! single-threaded (the solvers' telemetry is thread-local). This crate
//! provides the one primitive that exploits this: [`map_indexed`], a
//! scoped thread pool built on [`std::thread::scope`] in which workers
//! claim items from an atomic counter and results are reassembled **in
//! item order**, never in completion order.
//!
//! Determinism contract: for a pure `f`, `map_indexed(jobs, items, f)`
//! returns the same vector for every `jobs` value — the differential
//! oracle in `tests/` compares sequential against `--jobs 4` output
//! byte for byte. Per-worker side channels (trace collectors, solver
//! counters) must be captured inside `f` and carried in its return
//! value, to be merged by the caller in index order (see
//! `pdce_trace::merge_collected`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub mod supervised;

pub use supervised::{supervised_map, ItemOutcome, SupervisedPool, SupervisorOptions};

/// Registry handles for pool telemetry: items processed, and the
/// queue-wait histogram — how long each item sat between batch start and
/// a worker claiming it. Queue wait is the `--jobs` lever the future
/// serving loop tunes against, and a wall-clock measurement, so the
/// family is registered as timing (excluded from byte-stability checks).
mod pool_metrics {
    use pdce_trace::metrics::{global, Counter, Histogram, Stability};
    use std::sync::{Arc, LazyLock};

    pub static ITEMS: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        global().counter(
            "pdce_par_items_total",
            "Work items processed by the batch pool",
            Stability::Deterministic,
            &[],
        )
    });
    pub static QUEUE_WAIT: LazyLock<Arc<Histogram>> = LazyLock::new(|| {
        global().histogram(
            "pdce_par_queue_wait_ns",
            "Nanoseconds between batch start and a worker claiming the item",
            Stability::Timing,
            &[],
        )
    });
}

/// A sensible default worker count: the machine's available
/// parallelism, or 1 if that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A work item that panicked on a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPanic {
    /// Index of the item in the input slice.
    pub index: usize,
    /// Rendered panic message.
    pub message: String,
}

impl std::fmt::Display for ItemPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for ItemPanic {}

/// Applies `f` to every item on a pool of `jobs` scoped workers,
/// sandboxing each item: a panicking item becomes
/// `Err(`[`ItemPanic`]`)` in its slot while every sibling item — on
/// the same worker and on others — still runs to completion. Results
/// come back in item order.
///
/// `jobs` is clamped to `1..=items.len()`; with one job (or one item)
/// no threads are spawned and `f` runs inline, so the sequential path
/// is exactly the parallel path with a trivial schedule. Workers claim
/// the next unclaimed index from a shared atomic counter, so schedules
/// adapt to item cost without any work-size guessing.
pub fn try_map_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<R, ItemPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let catch_item = |i: usize, t: &T| -> Result<R, ItemPanic> {
        pdce_trace::sandbox::catch(|| f(i, t)).map_err(|e| ItemPanic {
            index: i,
            message: e.to_string(),
        })
    };
    let jobs = jobs.max(1).min(items.len().max(1));
    let batch_start = Instant::now();
    let claim = |i: usize| {
        pool_metrics::ITEMS.inc();
        pool_metrics::QUEUE_WAIT.observe(batch_start.elapsed().as_nanos() as u64);
        i
    };
    if jobs == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| catch_item(claim(i), t))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, Result<R, ItemPanic>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, catch_item(claim(i), &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Unreachable: every item is sandboxed, so workers
                // cannot die mid-batch. Kept as a defensive resume.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<Result<R, ItemPanic>>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

/// [`try_map_indexed`] for infallible `f`: returns the bare results.
///
/// # Panics
///
/// If `f` panicked on any item, the lowest-index panic is re-raised on
/// the caller — but only **after the whole batch has drained**, so a
/// poisoned item never aborts its siblings' work mid-flight.
pub fn map_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for r in try_map_indexed(jobs, items, f) {
        match r {
            Ok(v) => out.push(v),
            Err(e) => std::panic::panic_any(e.to_string()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn results_are_in_item_order_for_any_job_count() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for jobs in [0, 1, 2, 3, 8, 200] {
            let got = map_indexed(jobs, &items, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = map_indexed(4, &[] as &[u32], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn multiple_workers_actually_run() {
        // With enough slow-ish items, more than one thread claims work.
        let items: Vec<u32> = (0..64).collect();
        let seen = Mutex::new(HashSet::new());
        map_indexed(4, &items, |_, &x| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        });
        assert!(seen.lock().unwrap().len() > 1);
    }

    #[test]
    fn single_job_runs_inline() {
        let main_thread = std::thread::current().id();
        map_indexed(1, &[1, 2, 3], |_, &x| {
            assert_eq!(std::thread::current().id(), main_thread);
            x
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            map_indexed(2, &[1u32, 2, 3, 4], |_, &x| {
                if x == 3 {
                    panic!("boom on {x}");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn panicking_item_does_not_abort_siblings() {
        use std::sync::atomic::AtomicUsize;
        // One poisoned item in a large batch: every other item must
        // still be processed, on every job count.
        let items: Vec<u32> = (0..64).collect();
        for jobs in [1, 2, 4, 8] {
            let processed = AtomicUsize::new(0);
            let results = try_map_indexed(jobs, &items, |_, &x| {
                if x == 7 {
                    panic!("poisoned item {x}");
                }
                processed.fetch_add(1, Ordering::Relaxed);
                x * 2
            });
            assert_eq!(
                processed.load(Ordering::Relaxed),
                items.len() - 1,
                "jobs={jobs}"
            );
            for (i, r) in results.iter().enumerate() {
                if i == 7 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, 7);
                    assert!(e.message.contains("poisoned item 7"), "got: {}", e.message);
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(items[i] * 2));
                }
            }
        }
    }

    #[test]
    fn map_indexed_drains_before_propagating() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u32> = (0..32).collect();
        let processed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_indexed(4, &items, |_, &x| {
                if x == 0 {
                    panic!("first item dies");
                }
                processed.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        assert!(result.is_err());
        // The earliest item panicked, yet the rest of the batch ran.
        assert_eq!(processed.load(Ordering::Relaxed), items.len() - 1);
        let msg = result
            .unwrap_err()
            .downcast::<String>()
            .expect("panic payload is the rendered ItemPanic");
        assert!(msg.contains("work item 0 panicked"), "got: {msg}");
        assert!(msg.contains("first item dies"), "got: {msg}");
    }

    #[test]
    fn multiple_panics_report_lowest_index() {
        let result = std::panic::catch_unwind(|| {
            map_indexed(2, &[0u32, 1, 2, 3, 4, 5], |i, _| {
                if i == 2 || i == 5 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("work item 2 panicked"), "got: {msg}");
    }
}
