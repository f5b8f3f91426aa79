//! A small work-stealing thread pool for fleet-scale fan-out.
//!
//! The sharded study runs thousands of machine simulations whose costs
//! vary by usage category — a fixed round-robin split (the old
//! `partition` scheme) leaves workers idle behind a shard of Scientific
//! machines. This pool seeds each worker with a contiguous slice of the
//! index space and lets idle workers steal from the back of loaded
//! siblings, so the fleet finishes at the speed of the aggregate, not of
//! the unluckiest worker.
//!
//! The pool is deliberately tiny: coarse tasks (a whole machine
//! simulation each) make a `Mutex<VecDeque>` per worker plenty — the
//! lock is touched twice per task, which is noise against milliseconds
//! of simulation. No external deque crate is needed or used.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// First panic observed by the pool: the task index and its message.
#[derive(Debug, Clone)]
pub struct TaskPanic {
    /// Index of the task that panicked.
    pub index: usize,
    /// Rendered panic payload.
    pub message: String,
}

/// The pool width for `tasks` independent jobs: one worker per available
/// core (4 when the core count cannot be read), capped at `tasks`, and at
/// least 1. Every fan-out that is not given an explicit width uses this.
pub fn default_workers(tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(tasks)
        .max(1)
}

/// Runs `tasks` indexed jobs on `workers` threads with work stealing and
/// returns the results in index order.
///
/// Each worker owns a deque seeded with a contiguous slice of the index
/// space; it pops from the front of its own deque and, when idle, steals
/// from the back of the first non-empty sibling. Tasks are only ever
/// removed, never re-queued, so every index runs exactly once and lands
/// in its own slot regardless of interleaving — result *determinism* is
/// then purely a property of `f`.
///
/// A panicking job is caught: the worker moves on, the slot stays
/// `None`, and the first panic (by observation order) is returned so the
/// caller can surface it as a fault instead of aborting the fleet.
pub fn run_indexed<T, F>(tasks: usize, workers: usize, f: F) -> (Vec<Option<T>>, Option<TaskPanic>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(tasks.max(1));
    let deques: Vec<Mutex<VecDeque<usize>>> = split_contiguous(tasks, workers)
        .into_iter()
        .map(Mutex::new)
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let first_panic: Mutex<Option<TaskPanic>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let first_panic = &first_panic;
            let f = &f;
            scope.spawn(move || {
                while let Some(i) = pop_or_steal(deques, w) {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                        Ok(v) => *lock(&slots[i]) = Some(v),
                        Err(payload) => {
                            let mut slot = lock(first_panic);
                            if slot.is_none() {
                                *slot = Some(TaskPanic {
                                    index: i,
                                    message: panic_text(payload.as_ref()),
                                });
                            }
                        }
                    }
                }
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let panic = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    (results, panic)
}

/// Contiguous, near-even split of `0..tasks` into `workers` deques (the
/// first `tasks % workers` get one extra).
fn split_contiguous(tasks: usize, workers: usize) -> Vec<VecDeque<usize>> {
    let base = tasks / workers;
    let extra = tasks % workers;
    let mut next = 0usize;
    (0..workers)
        .map(|w| {
            let len = base + usize::from(w < extra);
            let deque: VecDeque<usize> = (next..next + len).collect();
            next += len;
            deque
        })
        .collect()
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Own front first, then one steal pass over the siblings. Safe to give
/// up after one pass: tasks are never re-queued, so "every deque empty"
/// is a stable condition.
fn pop_or_steal(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = lock(&deques[w]).pop_front() {
        return Some(i);
    }
    for k in 1..deques.len() {
        if let Some(i) = lock(&deques[(w + k) % deques.len()]).pop_back() {
            return Some(i);
        }
    }
    None
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_index_runs_exactly_once_in_order() {
        let calls = AtomicUsize::new(0);
        let (out, panic) = run_indexed(257, 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 3
        });
        assert!(panic.is_none());
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some(i * 3));
        }
    }

    #[test]
    fn skewed_costs_still_complete() {
        // Front-loaded work: worker 0's whole slice is expensive, the
        // rest are no-ops — stealing is what keeps this fast, but the
        // assertion is only about completeness.
        let (out, panic) = run_indexed(64, 4, |i| {
            if i < 16 {
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                acc as usize
            } else {
                i
            }
        });
        assert!(panic.is_none());
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn a_panicking_task_is_reported_not_fatal() {
        let (out, panic) = run_indexed(20, 3, |i| {
            assert!(i != 7, "machine 7 exploded");
            i
        });
        let p = panic.expect("panic surfaced");
        assert_eq!(p.index, 7);
        assert!(p.message.contains("machine 7 exploded"), "{}", p.message);
        assert_eq!(out[7], None);
        assert_eq!(out.iter().filter(|v| v.is_some()).count(), 19);
    }

    #[test]
    fn default_width_is_capped_by_the_task_count() {
        assert_eq!(default_workers(0), 1);
        assert_eq!(default_workers(1), 1);
        let wide = default_workers(usize::MAX);
        assert!(wide >= 1);
        assert_eq!(default_workers(3), wide.min(3));
    }

    #[test]
    fn degenerate_shapes_work() {
        let (out, panic) = run_indexed(0, 4, |i| i);
        assert!(out.is_empty() && panic.is_none());
        let (out, _) = run_indexed(3, 64, |i| i + 1);
        assert_eq!(out, vec![Some(1), Some(2), Some(3)]);
        let (out, _) = run_indexed(5, 1, |i| i);
        assert_eq!(out.len(), 5);
    }
}
