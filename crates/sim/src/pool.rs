//! A scoped-thread pool for fanning out independent experiment cells.
//!
//! Every `(workload, security mode)` cell of a figure builds its own
//! machine instance and shares nothing with its neighbours, so
//! the cells of one figure can run concurrently. [`run_tasks`] drains a
//! task list with `jobs()` worker threads (`std::thread::scope`, no
//! external dependencies) and returns the results **in submission order**,
//! so figure assembly — and therefore the printed output — is identical to
//! a serial run regardless of completion order or worker count.
//!
//! The worker count is [`set_jobs`] (the harness's `--jobs N` flag) when
//! set, else [`std::thread::available_parallelism`]. `1` forces fully
//! serial execution on the calling thread.
//!
//! [`run_tasks`] is for top-level fan-out only (figure cells, campaign
//! scenarios). Each call spawns and joins `jobs()` new threads, so a
//! call from inside a task would start threads on every invocation and
//! oversubscribe the host; work nested in a task runs serially.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// `0` means "not set"; resolution falls through to the host's
/// available parallelism.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Stored as `Schedule as usize`; `Fifo` (0) is the production default.
static SCHEDULE: AtomicUsize = AtomicUsize::new(0);

/// Deterministic orders in which the worker pool drains its task queue.
///
/// Figure output must not depend on which worker runs which cell, so the
/// schedule audit (`crates/bench/tests/schedule_audit.rs`) replays the
/// experiment engine under each of these adversarial-but-reproducible
/// schedules and asserts byte-identical figures. `Fifo` is the normal
/// submission order; the others permute pick-up order or perturb
/// completion order without introducing any randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Tasks are picked up in submission order (production behaviour).
    #[default]
    Fifo,
    /// Tasks are picked up in reverse submission order.
    Lifo,
    /// Even-indexed tasks first, then odd-indexed ones.
    EvenOdd,
    /// Submission order, but each task sleeps `(index % 3) * 200 µs`
    /// before storing its result, forcing out-of-order completion.
    Stagger,
}

impl Schedule {
    fn from_index(i: usize) -> Schedule {
        match i {
            1 => Schedule::Lifo,
            2 => Schedule::EvenOdd,
            3 => Schedule::Stagger,
            _ => Schedule::Fifo,
        }
    }
}

/// Fixes the queue-drain order for subsequent [`run_tasks`] calls. Only
/// the concurrency audit and tests should move this off `Fifo`.
pub fn set_schedule(s: Schedule) {
    SCHEDULE.store(s as usize, Ordering::Relaxed);
}

/// The schedule [`run_tasks`] will drain its queue under.
pub fn schedule() -> Schedule {
    Schedule::from_index(SCHEDULE.load(Ordering::Relaxed))
}

/// Fixes the worker count for subsequent [`run_tasks`] calls (`--jobs N`).
/// A value of `0` clears the override.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count [`run_tasks`] will use: the [`set_jobs`] override,
/// else the host's available parallelism.
pub fn jobs() -> usize {
    let fixed = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if fixed > 0 {
        return fixed;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs every task and returns the results in submission order.
///
/// Tasks are pulled from a shared queue by `jobs()` scoped worker threads
/// (capped at the task count); with one worker the tasks run inline on the
/// calling thread in order, which is byte-for-byte the old serial
/// behaviour.
///
/// # Panics
///
/// A panicking task propagates its panic to the caller once the scope
/// joins, matching the serial failure mode.
pub fn run_tasks<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = jobs().min(tasks.len()).max(1);
    if workers == 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let sched = schedule();
    let count = tasks.len();
    let mut ordered: Vec<(usize, F)> = tasks.into_iter().enumerate().collect();
    match sched {
        Schedule::Fifo | Schedule::Stagger => {}
        Schedule::Lifo => ordered.reverse(),
        Schedule::EvenOdd => {
            let (even, odd): (Vec<_>, Vec<_>) = ordered.into_iter().partition(|(i, _)| i % 2 == 0);
            ordered = even.into_iter().chain(odd).collect();
        }
    }
    let queue: Mutex<VecDeque<(usize, F)>> = Mutex::new(ordered.into_iter().collect());
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").pop_front();
                let Some((index, task)) = next else { break };
                let value = task();
                if sched == Schedule::Stagger {
                    std::thread::sleep(std::time::Duration::from_micros((index % 3) as u64 * 200));
                }
                *slots[index].lock().expect("slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every queued task stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_jobs` is process-global, so the tests that touch it share one
    /// lock to avoid interfering with each other.
    static JOBS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn results_keep_submission_order() {
        let _guard = JOBS_LOCK.lock().unwrap();
        set_jobs(4);
        let tasks: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    // Stagger completion so late submissions finish first.
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    i * 10
                }
            })
            .collect();
        let got = run_tasks(tasks);
        set_jobs(0);
        assert_eq!(got, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_fallback_matches() {
        let _guard = JOBS_LOCK.lock().unwrap();
        set_jobs(1);
        let got = run_tasks((0..8).map(|i| move || i + 1).collect::<Vec<_>>());
        set_jobs(0);
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn explicit_jobs_beats_environment() {
        let _guard = JOBS_LOCK.lock().unwrap();
        set_jobs(7);
        assert_eq!(jobs(), 7);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let got: Vec<u32> = run_tasks(Vec::<fn() -> u32>::new());
        assert!(got.is_empty());
    }

    #[test]
    fn every_schedule_keeps_submission_order() {
        let _guard = JOBS_LOCK.lock().unwrap();
        set_jobs(4);
        let want: Vec<usize> = (0..33).map(|i| i * 7).collect();
        for sched in [
            Schedule::Fifo,
            Schedule::Lifo,
            Schedule::EvenOdd,
            Schedule::Stagger,
        ] {
            set_schedule(sched);
            let got = run_tasks((0..33).map(|i| move || i * 7).collect::<Vec<_>>());
            assert_eq!(got, want, "{sched:?}");
        }
        set_schedule(Schedule::Fifo);
        set_jobs(0);
    }
}
