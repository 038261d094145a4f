//! A minimal work-stealing pool for shard-sized tasks.
//!
//! Tasks are identified by index; workers pull the next index from a
//! shared atomic counter and write results into their slot. Placement by
//! index (not completion order) is what keeps downstream merges
//! deterministic regardless of the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `tasks` closures (`f(0) .. f(tasks - 1)`) on up to `workers`
/// threads and return their results ordered by task index. A panicking
/// task propagates the panic to the caller once the scope joins.
pub fn run_indexed<T, F>(tasks: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(tasks.max(1));
    if workers <= 1 {
        return (0..tasks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= tasks {
                    break;
                }
                let result = f(index);
                *slots[index].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poison| poison.into_inner())
                .expect("pool: every task index must produce a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_ordered_by_task_index_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let out = run_indexed(17, workers, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn zero_tasks_and_zero_workers_are_fine() {
        assert!(run_indexed(0, 0, |i| i).is_empty());
        assert_eq!(run_indexed(3, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn tasks_actually_run_concurrently_when_asked() {
        use std::sync::atomic::AtomicUsize;
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        run_indexed(8, 4, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) >= 2, "no observed concurrency");
    }
}
