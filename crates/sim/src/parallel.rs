//! Order-preserving parallel work queue over scoped OS threads.
//!
//! The simulator itself is single-threaded by design (components share
//! state through `Rc<RefCell<_>>`), but many harnesses are embarrassingly
//! parallel *across* simulations: each work item boots its own
//! [`Simulator`](crate::Simulator) and never touches shared state. This
//! module provides the one fan-out primitive those harnesses share —
//! `trail-bench all`, the crash campaigns, and sharded trace replay all
//! drain the same kind of queue.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Applies `f` to every item on a pool of `threads` scoped OS workers and
/// returns the results in item order.
///
/// Workers drain a shared index queue and only *compute*; the caller
/// receives the results in the original item order regardless of which
/// worker ran what, so a deterministic `f` yields identical output for
/// any thread count. `threads` is clamped to `1..=items.len()`.
///
/// # Panics
///
/// Panics if `f` panics on a worker thread (the panic is propagated when
/// the thread scope joins).
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..tasks.len()).collect());
    let slots: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").pop_front();
                let Some(idx) = next else { break };
                let item = tasks[idx]
                    .lock()
                    .expect("task poisoned")
                    .take()
                    .expect("each task is claimed once");
                *slots[idx].lock().expect("slot poisoned") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every queued task ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::parallel_map;

    #[test]
    fn parallel_map_returns_results_in_item_order() {
        let expected: Vec<i64> = (0..100).map(|i| i * i).collect();
        for threads in [1, 3, 16] {
            assert_eq!(
                parallel_map((0..100).collect(), threads, |i: i64| i * i),
                expected
            );
        }
        assert_eq!(parallel_map(Vec::<i64>::new(), 4, |i| i), Vec::<i64>::new());
    }
}
