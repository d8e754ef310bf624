//! A shared work-stealing thread runtime.
//!
//! Two consumers drive the design:
//!
//! * the figure harnesses in `coflow-bench` fan independent *scenario
//!   points* out over worker threads ([`Runtime::run`]), and
//! * the scheduler service in `coflow-service` runs N tenant fabrics
//!   (and, within a tenant, per-port-group shards) concurrently through
//!   an explicit [`Runtime::scope`] / [`TaskScope::spawn`] API.
//!
//! Both sit on the same substrate: a fixed set of worker threads pulling
//! tasks from a shared queue, so an idle worker "steals" whatever work
//! remains and one slow LP solve never serializes the rest of the batch.
//!
//! Determinism: workers only *compute*; every task's inputs are fixed
//! before it is spawned and results land in caller-chosen slots
//! regardless of which worker ran them or in what order. Running with 1
//! worker or 64 produces byte-identical output.
//!
//! Rayon would be the natural substrate here, but this build environment
//! has no crates.io access, so the pool is built directly on
//! `std::thread::scope` with a mutex-and-condvar task queue (no unsafe).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Environment variable overriding the worker count (useful to pin
/// `COFLOW_SWEEP_THREADS=1` when profiling a single point).
pub const THREADS_ENV: &str = "COFLOW_SWEEP_THREADS";

type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

struct State<'env> {
    queue: VecDeque<Task<'env>>,
    /// Tasks spawned but not yet finished executing (queued + running).
    outstanding: usize,
    closed: bool,
}

struct Shared<'env> {
    state: Mutex<State<'env>>,
    /// Signalled when a task is queued or the scope closes.
    work: Condvar,
    /// Signalled when `outstanding` drops to zero.
    done: Condvar,
}

impl<'env> Shared<'env> {
    fn new() -> Self {
        Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                outstanding: 0,
                closed: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("runtime state lock");
        st.closed = true;
        st.queue.clear();
        drop(st);
        self.work.notify_all();
    }
}

/// Decrements `outstanding` when a task finishes — including by panic,
/// so a panicking task cannot deadlock the scope waiting on `done`.
struct TaskGuard<'a, 'env> {
    shared: &'a Shared<'env>,
}

impl Drop for TaskGuard<'_, '_> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("runtime state lock");
        st.outstanding -= 1;
        if std::thread::panicking() {
            // This worker is unwinding and will not return to the loop.
            // Abandon queued (not-yet-started) work so the scope can
            // observe completion and propagate the panic instead of
            // deadlocking when every worker has died.
            st.outstanding -= st.queue.len();
            st.queue.clear();
            st.closed = true;
        }
        let idle = st.outstanding == 0;
        let closed = st.closed;
        drop(st);
        if idle {
            self.shared.done.notify_all();
        }
        if closed {
            self.shared.work.notify_all();
        }
    }
}

/// Closes the scope when the scope body exits — including by panic, so
/// workers stop waiting for work and `std::thread::scope` can join them.
struct CloseGuard<'a, 'env> {
    shared: &'a Shared<'env>,
}

impl Drop for CloseGuard<'_, '_> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

fn worker_loop(shared: &Shared<'_>) {
    loop {
        let task = {
            let mut st = shared.state.lock().expect("runtime state lock");
            loop {
                if let Some(task) = st.queue.pop_front() {
                    break task;
                }
                if st.closed {
                    return;
                }
                st = shared.work.wait(st).expect("runtime state lock");
            }
        };
        let _guard = TaskGuard { shared };
        task();
    }
}

/// Handle for spawning tasks inside a [`Runtime::scope`] block.
///
/// `'env` is the lifetime of data borrowed by spawned tasks (everything
/// declared outside the `scope` call); `'scope` is the scope body itself.
pub struct TaskScope<'scope, 'env: 'scope> {
    shared: &'scope Shared<'env>,
}

impl<'scope, 'env> TaskScope<'scope, 'env> {
    /// Queues `f` for execution on one of the runtime's workers.
    ///
    /// The task may borrow anything that outlives the `scope` call.
    /// [`Runtime::scope`] does not return until every spawned task has
    /// finished. There is no per-task join handle — deposit results into
    /// caller-owned slots (e.g. a `Mutex<Option<T>>` per task).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let mut st = self.shared.state.lock().expect("runtime state lock");
        assert!(!st.closed, "spawn on a closed scope");
        st.outstanding += 1;
        st.queue.push_back(Box::new(f));
        drop(st);
        self.shared.work.notify_one();
    }
}

/// A fixed-width pool of worker threads shared by batch sweeps and the
/// multi-tenant scheduler service.
#[derive(Clone, Debug)]
pub struct Runtime {
    workers: usize,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    /// Runtime sized to the machine (or [`THREADS_ENV`] when set).
    pub fn new() -> Self {
        let from_env = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let workers = from_env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Runtime { workers }
    }

    /// Runtime with an explicit worker count (`>= 1`).
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers >= 1, "a runtime needs at least one worker");
        Runtime { workers }
    }

    /// Number of worker threads a scope or batch will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` with a [`TaskScope`] backed by this runtime's workers
    /// and blocks until `f` *and every task it spawned* have finished.
    ///
    /// Tasks may borrow data declared outside the `scope` call (the
    /// `'env` lifetime), exactly like `std::thread::scope`. A panic in a
    /// task or in `f` itself is propagated to the caller after all
    /// workers have been joined.
    pub fn scope<'env, T, F>(&self, f: F) -> T
    where
        F: for<'scope> FnOnce(&TaskScope<'scope, 'env>) -> T,
    {
        let shared: Shared<'env> = Shared::new();
        std::thread::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|| worker_loop(&shared));
            }
            // Ensure workers are released even if `f` or the wait below
            // unwinds, so `std::thread::scope` can join them.
            let close = CloseGuard { shared: &shared };
            let out = f(&TaskScope { shared: &shared });
            let mut st = shared.state.lock().expect("runtime state lock");
            while st.outstanding > 0 {
                st = shared.done.wait(st).expect("runtime state lock");
            }
            drop(st);
            drop(close); // normal path: close now that all tasks finished
            out
        })
    }

    /// Computes `f(i, &items[i])` for every item, in parallel, returning
    /// results in input order. Panics in `f` propagate to the caller.
    ///
    /// Workers pull the next unclaimed index from a shared counter, so
    /// one slow item never serializes the rest of the batch.
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        if workers == 1 {
            return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        }

        // Shared claim counter: each worker grabs the next unclaimed
        // index, computes it, and deposits the result in that index's
        // slot. Slots are independent mutexes, so there is no contention
        // on the write path beyond the atomic claim.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i, &items[i]);
                    *slots[i].lock().expect("slot lock") = Some(value);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot lock")
                    .expect("every claimed slot is filled before scope exit")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let pool = Runtime::with_workers(4);
        let items: Vec<usize> = (0..97).collect();
        let out = pool.run(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..97).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_parallel() {
        let items: Vec<u64> = (0..40).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9e3779b97f4a7c15) >> 7;
        let serial = Runtime::with_workers(1).run(&items, f);
        let parallel = Runtime::with_workers(8).run(&items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_batch() {
        let pool = Runtime::with_workers(2);
        let out: Vec<u32> = pool.run(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let pool = Runtime::with_workers(16);
        let out = pool.run(&[1, 2, 3], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn scope_runs_all_spawned_tasks() {
        let rt = Runtime::with_workers(4);
        let hits: Vec<Mutex<Option<usize>>> = (0..50).map(|_| Mutex::new(None)).collect();
        rt.scope(|scope| {
            for (i, slot) in hits.iter().enumerate() {
                scope.spawn(move || {
                    *slot.lock().unwrap() = Some(i * i);
                });
            }
        });
        for (i, slot) in hits.iter().enumerate() {
            assert_eq!(*slot.lock().unwrap(), Some(i * i));
        }
    }

    #[test]
    fn scope_with_single_worker_still_drains() {
        let rt = Runtime::with_workers(1);
        let sum = AtomicUsize::new(0);
        let sum_ref = &sum;
        rt.scope(|scope| {
            for i in 1..=10 {
                scope.spawn(move || {
                    sum_ref.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn scope_tasks_can_spawn_nothing() {
        let rt = Runtime::with_workers(2);
        let out = rt.scope(|_| 42);
        assert_eq!(out, 42);
    }

    #[test]
    fn scope_task_panic_propagates() {
        let rt = Runtime::with_workers(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.scope(|scope| {
                scope.spawn(|| panic!("task boom"));
                scope.spawn(|| {}); // a healthy task alongside the bad one
            });
        }));
        assert!(caught.is_err(), "panic in a task must reach the caller");
    }
}
