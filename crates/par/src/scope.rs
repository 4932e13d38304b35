//! Scoped tasks: borrow-friendly spawning with panic capture.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::pool::{Job, Shared, ThreadPool};

/// Shared bookkeeping for one [`ThreadPool::scope`] call: how many
/// spawned tasks are still outstanding, the first panic any of them
/// raised, and the pool queue whose wakeup announces the last finish.
pub(crate) struct ScopeState {
    /// Outstanding tasks: a spawn adds `Relaxed` (its job reaches other
    /// threads through the queue's mutex); a finish's `Release` pairs with
    /// `is_done`'s `Acquire`, so a task's writes precede the zero.
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    shared: Arc<Shared>,
}

impl ScopeState {
    pub(crate) fn new(shared: Arc<Shared>) -> ScopeState {
        ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            shared,
        }
    }

    fn task_finished(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.scope_done();
        }
    }

    fn store_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().expect("scope panic slot poisoned");
        // Keep the first panic: with several failing tasks the earliest
        // arrival wins, and the rest are dropped like rayon does.
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        self.panic.lock().expect("scope panic slot poisoned").take()
    }

    pub(crate) fn is_done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }
}

/// A task scope handed to the closure of [`ThreadPool::scope`]. Tasks
/// spawned through it may borrow anything that outlives `'env`.
pub(crate) struct Scope<'env> {
    pool: &'env ThreadPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`: prevents the scope from being coerced to a
    /// longer environment lifetime, which would let tasks borrow data
    /// that dies before the scope drains.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    pub(crate) fn new(pool: &'env ThreadPool, state: Arc<ScopeState>) -> Scope<'env> {
        Scope {
            pool,
            state,
            _env: PhantomData,
        }
    }

    /// Spawns `f` onto the pool. The task may borrow from the
    /// environment (`'env`); the owning [`ThreadPool::scope`] call does
    /// not return until the task has run to completion or panicked.
    pub(crate) fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::Relaxed);
        let state = self.state.clone();
        // The job box and queue push are pool infrastructure and stay
        // unattributed.
        let _quiet = uniq_obs::suspend_alloc_stage();
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state.store_panic(payload);
            }
            state.task_finished();
        });
        // SAFETY: the job is erased to 'static so it can sit in the
        // pool's 'static queue, but it never outlives 'env in practice:
        // `ThreadPool::scope` blocks (in its Waiter guard, even when the
        // scope closure unwinds) until `pending` reaches zero, and
        // `task_finished` runs strictly after the closure body — so every
        // borrow the closure holds is still alive whenever it executes.
        // The fat-pointer layout of Box<dyn FnOnce> is lifetime-invariant,
        // making the transmute itself a no-op.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                wrapped,
            )
        };
        self.pool.inject(&self.state, job);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::ThreadPool;

    #[test]
    fn scope_runs_borrowing_tasks() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        let data = [5u64, 6, 7];
        pool.scope(|s| {
            for &v in &data {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(v, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 18);
    }
}
