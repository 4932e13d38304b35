//! The worker pool: threads, one job queue, and a wait that runs the
//! waiter's own jobs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::scope::{Scope, ScopeState};

/// A unit of queued work. Jobs are always the panic-catching wrappers
/// built by [`Scope::spawn`], so executing one never unwinds into the
/// worker loop.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Process-unique pool identities, used to tell which pool (if any) the
/// current thread works for.
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool worker.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// `(pool id, worker index)` of the calling thread when it is a pool
/// worker, `None` otherwise (see [`crate::current_worker`]).
pub(crate) fn current_worker_identity() -> Option<(usize, usize)> {
    WORKER.with(|w| w.get())
}

/// Identity of a scope: the address of its [`ScopeState`], which its
/// queued jobs keep alive, so no other scope can reuse it meanwhile.
fn scope_id(state: &ScopeState) -> usize {
    std::ptr::from_ref(state) as usize
}

/// The jobs waiting to run, oldest first, each with the id of the scope
/// that spawned it, and whether the pool is shutting down.
struct Queue {
    jobs: VecDeque<(usize, Job)>,
    shutdown: bool,
}

/// The one queue every thread of a pool takes work from, and the one
/// wakeup every sleeper waits on. `wake` is signalled when a job is
/// queued, when a scope's last task finishes, and at shutdown; a sleeper
/// re-checks its own condition under `queue`'s lock, so no signal is lost.
pub(crate) struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("job queue poisoned")
    }

    /// Wakes every sleeper after a scope's last task finished. Taking the
    /// lock first orders the signal after a waiter's check of its pending
    /// count: the waiter either saw zero or is already asleep.
    pub(crate) fn scope_done(&self) {
        drop(self.lock());
        self.wake.notify_all();
    }
}

/// A fixed-size pool of worker threads running deterministic parallel
/// maps. See the crate docs for the determinism and panic contracts.
pub struct ThreadPool {
    id: usize,
    threads: usize,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("id", &self.id)
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` total parallelism (clamped to at
    /// least 1). `threads - 1` worker threads are spawned; the caller of a
    /// parallel map contributes the final lane by running its map's queued
    /// jobs while it waits, so a pool of size 1 spawns no threads at all.
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let workers = (0..threads - 1)
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    // uniq-analyzer: allow(hot-path-alloc) — thread names are formatted once at pool construction; pools are cached per size for the life of the process
                    .name(format!("uniq-par-{id}-{idx}"))
                    .spawn(move || worker_loop(shared, id, idx))
                    // uniq-analyzer: allow(panic-reachability) — failing to spawn a worker at pool construction is unrecoverable; fail fast before any work is accepted
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            id,
            threads,
            shared,
            workers,
        }
    }

    /// The pool's total parallelism (worker threads plus the waiting
    /// caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    pub(crate) fn inject(&self, scope: &ScopeState, job: Job) {
        self.shared.lock().jobs.push_back((scope_id(scope), job));
        self.shared.wake.notify_all();
    }

    /// Creates a task scope: `f` may spawn borrowing tasks via
    /// [`Scope::spawn`]; `scope` returns only after every spawned task has
    /// finished. If any task panicked, the first captured panic is
    /// re-raised here (after all tasks completed, so borrows stay sound).
    pub(crate) fn scope<'env, T>(&'env self, f: impl FnOnce(&Scope<'env>) -> T) -> T {
        // Scope bookkeeping is pool infrastructure: unsuspended, its Arc
        // allocation would be charged to the caller's open stage in the
        // parallel path only (the sequential fast path never builds a
        // scope), breaking the thread-count invariance of per-stage
        // allocation totals.
        let state = {
            let _quiet = uniq_obs::suspend_alloc_stage();
            Arc::new(ScopeState::new(self.shared.clone()))
        };
        let scope = Scope::new(self, state.clone());
        let result = {
            // Block until the scope drains even if `f` itself panics:
            // spawned tasks may borrow locals of `f`'s caller.
            struct Waiter<'a> {
                pool: &'a ThreadPool,
                state: &'a ScopeState,
            }
            impl Drop for Waiter<'_> {
                fn drop(&mut self) {
                    self.pool.wait_scope(self.state);
                }
            }
            let _waiter = Waiter {
                pool: self,
                state: &state,
            };
            f(&scope)
        };
        if let Some(payload) = state.take_panic() {
            std::panic::resume_unwind(payload);
        }
        result
    }

    /// Runs `state`'s own queued jobs, oldest first, on the calling thread
    /// until `state` has no pending tasks, and sleeps while none of them is
    /// queued. Jobs of other scopes are left to the workers, so an item the
    /// caller runs here is always a descendant of its own map. Nested
    /// scopes cannot deadlock at any pool size: a queued job is taken only
    /// by its own scope's waiter or a free worker, the waiter can always
    /// run its own jobs itself, and nesting depth is finite.
    fn wait_scope(&self, state: &ScopeState) {
        let id = scope_id(state);
        let mut queue = self.shared.lock();
        while !state.is_done() {
            let own = queue.jobs.iter().position(|(scope, _)| *scope == id);
            match own.and_then(|at| queue.jobs.remove(at)) {
                Some((_, job)) => {
                    drop(queue);
                    job();
                    queue = self.shared.lock();
                }
                None => queue = self.shared.wake.wait(queue).expect("job queue poisoned"),
            }
        }
    }

    /// Deterministic parallel map with an automatically chosen chunk
    /// size. Output order always matches input order, and every element
    /// is produced by the same `f(&item)` call the sequential map would
    /// make — scheduling affects only *when*, never *what*.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        // Aim for a few chunks per lane so the queue can balance load, but
        // never chunks so small the queue overhead dominates.
        let chunk = (items.len() / (4 * self.threads)).max(1);
        self.par_map_chunked(items, chunk, f)
    }

    /// [`ThreadPool::par_map`] with an explicit chunk size (`>= 1`):
    /// items are processed in `chunk`-sized runs, each run's outputs kept
    /// together and concatenated in index order.
    ///
    /// The caller's observability context is captured once and item `i`
    /// runs under its lane `i` on whichever thread takes it, so an item
    /// sees the same sink, span depth, span ids and allocation stage at
    /// any pool size, as in a sequential loop.
    ///
    /// # Panics
    /// Panics if `chunk == 0`, or re-raises the first panic from `f`.
    pub fn par_map_chunked<T, U, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        assert!(chunk >= 1, "chunk size must be at least 1");
        let ctx = uniq_obs::capture();
        // Output-collection Vecs are pool infrastructure: their count and
        // sizes depend on the chunking, not the workload, so they are
        // allocated under suspended attribution on *both* paths — per-item
        // work inside `f` is all the memory profiler sees, which keeps
        // per-stage allocation totals identical at any thread count.
        if self.threads == 1 || items.len() <= chunk {
            let mut out = {
                let _quiet = uniq_obs::suspend_alloc_stage();
                Vec::with_capacity(items.len())
            };
            for (i, item) in items.iter().enumerate() {
                // uniq-analyzer: allow(hot-path-alloc) — pushes into Vecs pre-sized with with_capacity (here and per chunk below); never reallocates mid-batch
                out.push(ctx.run_indexed(i as u64, || f(item)));
            }
            return out;
        }
        let buckets: Mutex<Vec<(usize, Vec<U>)>> = {
            let _quiet = uniq_obs::suspend_alloc_stage();
            Mutex::new(Vec::with_capacity(items.len() / chunk + 1))
        };
        self.scope(|s| {
            for (index, run) in items.chunks(chunk).enumerate() {
                let buckets = &buckets;
                let f = &f;
                let ctx = &ctx;
                s.spawn(move || {
                    let mut values = {
                        let _quiet = uniq_obs::suspend_alloc_stage();
                        Vec::with_capacity(run.len())
                    };
                    for (offset, item) in run.iter().enumerate() {
                        let lane = (index * chunk + offset) as u64;
                        values.push(ctx.run_indexed(lane, || f(item)));
                    }
                    let _quiet = uniq_obs::suspend_alloc_stage();
                    buckets
                        .lock()
                        .expect("par_map buckets poisoned")
                        .push((index, values));
                });
            }
        });
        let _quiet = uniq_obs::suspend_alloc_stage();
        let mut buckets = buckets.into_inner().expect("par_map buckets poisoned");
        // Ordered reduction: completion order is scheduling noise; index
        // order is the sequential truth.
        buckets.sort_unstable_by_key(|(index, _)| *index);
        let mut out = Vec::with_capacity(items.len());
        for (_, values) in buckets {
            out.extend(values);
        }
        debug_assert_eq!(out.len(), items.len());
        out
    }

    /// Fallible deterministic parallel map. Every item is evaluated (so
    /// side channels like metrics see the same set of calls at any thread
    /// count), then the lowest-index error — the one a sequential
    /// in-order scan would hit first — is returned.
    pub fn try_par_map<T, U, E, F>(&self, items: &[T], f: F) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(&T) -> Result<U, E> + Sync,
    {
        let results = self.par_map(items, f);
        let _quiet = uniq_obs::suspend_alloc_stage();
        let mut out = Vec::with_capacity(results.len());
        for result in results {
            out.push(result?);
        }
        Ok(out)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, pool_id: usize, index: usize) {
    WORKER.with(|w| w.set(Some((pool_id, index))));
    loop {
        let job = {
            let mut queue = shared.lock();
            loop {
                if queue.shutdown {
                    return;
                }
                if let Some((_, job)) = queue.jobs.pop_front() {
                    break job;
                }
                queue = shared.wake.wait(queue).expect("job queue poisoned");
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    use uniq_obs::names::{
        BATCH_SUBJECT_SECONDS, SERVE_REQUESTS, SPAN_BATCH, SPAN_FUSION, SPAN_STORE_PUT,
    };
    use uniq_obs::sink::MemorySink;
    use uniq_obs::Event;

    use super::*;

    /// Sorted `(name, depth, span, parent)` of every span start.
    fn span_tuples(sink: &MemorySink) -> Vec<(&'static str, usize, u64, u64)> {
        let mut spans: Vec<_> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, depth, ids } => {
                    Some((*name, *depth, ids.span, ids.parent))
                }
                _ => None,
            })
            .collect();
        spans.sort_unstable();
        spans
    }

    /// Items that emit with no context of their own record the same span
    /// tree, counters and metrics at every pool size.
    #[test]
    fn items_emit_under_the_callers_context_at_any_pool_size() {
        let record = |threads: usize| {
            let pool = ThreadPool::new(threads);
            let sink = Arc::new(MemorySink::new());
            uniq_obs::with_sink(sink.clone(), || {
                let _trace = uniq_obs::trace(5);
                let _root = uniq_obs::span(SPAN_BATCH);
                let items: Vec<u64> = (0..32).collect();
                pool.par_map_chunked(&items, 1, |&i| {
                    let _span = uniq_obs::span(SPAN_FUSION);
                    uniq_obs::counter(SERVE_REQUESTS, 1);
                    uniq_obs::metric(BATCH_SUBJECT_SECONDS, i as f64, "s");
                });
            });
            let mut metrics = sink.metric_values(BATCH_SUBJECT_SECONDS);
            metrics.sort_by(f64::total_cmp);
            (
                span_tuples(&sink),
                sink.counter_total(SERVE_REQUESTS),
                metrics,
            )
        };
        let one = record(1);
        assert_eq!(one.0.len(), 33);
        assert_eq!(one.1, 32);
        assert_eq!(one.2.len(), 32);
        for threads in [2, 4, 8] {
            assert_eq!(record(threads), one, "pool size {threads} diverged");
        }
    }

    /// A caller waiting on its map runs only that map's jobs. The foreign
    /// map's first two items hold the pool's one worker and the foreign
    /// caller, so its third item is still queued, ahead of the waiting
    /// caller's own, when that caller starts waiting: it runs its own two
    /// items past it, and the foreign item runs elsewhere, outside the
    /// caller's sink.
    #[test]
    fn waiting_caller_runs_only_its_own_maps_jobs() {
        let pool = Arc::new(ThreadPool::new(2));
        let started = Arc::new(Barrier::new(3));
        let release = Arc::new(Barrier::new(3));
        let foreign = {
            let (pool, started, release) = (pool.clone(), started.clone(), release.clone());
            std::thread::spawn(move || {
                pool.par_map_chunked(&[0, 1, 2], 1, |&i| {
                    if i < 2 {
                        started.wait();
                        release.wait();
                    } else {
                        let _span = uniq_obs::span(SPAN_STORE_PUT);
                        uniq_obs::counter(SERVE_REQUESTS, 1);
                    }
                    std::thread::current().id()
                })
            })
        };
        started.wait();
        let sink = Arc::new(MemorySink::new());
        let caller = std::thread::current().id();
        let own = uniq_obs::with_sink(sink.clone(), || {
            let _span = uniq_obs::span(SPAN_FUSION);
            pool.par_map_chunked(&[0, 1], 1, |_| std::thread::current().id())
        });
        release.wait();
        let ran_on = foreign.join().unwrap();
        assert_eq!(own, vec![caller, caller], "the worker was held");
        assert_ne!(ran_on[2], caller, "the waiting caller ran a foreign job");
        assert_eq!(
            sink.counter_total(SERVE_REQUESTS),
            0,
            "foreign counter leaked"
        );
        let leaked_span = sink
            .events()
            .iter()
            .any(|e| matches!(e, Event::SpanStart { name, .. } if *name == SPAN_STORE_PUT));
        assert!(!leaked_span, "foreign span leaked into the caller's sink");
    }

    /// An item panicking under an installed sink unwinds through its
    /// context guards: a later sinkless map on the same pool records
    /// nothing into that sink, at any pool size.
    #[test]
    fn panicking_item_leaves_no_sink_behind() {
        let items: Vec<u64> = (0..16).collect();
        for threads in 1..=8 {
            let pool = ThreadPool::new(threads);
            let sink = Arc::new(MemorySink::new());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                uniq_obs::with_sink(sink.clone(), || {
                    let _root = uniq_obs::span(SPAN_BATCH);
                    pool.par_map_chunked(&items, 1, |&i| {
                        let _span = uniq_obs::span(SPAN_FUSION);
                        assert_ne!(i, 5, "item panics");
                    })
                })
            }));
            assert!(outcome.is_err(), "the item's panic must propagate");
            let recorded = sink.events().len();
            pool.par_map_chunked(&items, 1, |_| {
                let _span = uniq_obs::span(SPAN_STORE_PUT);
                uniq_obs::counter(SERVE_REQUESTS, 1);
            });
            assert_eq!(sink.events().len(), recorded, "pool size {threads} leaked");
            assert_eq!(uniq_obs::current_depth(), 0);
        }
    }

    #[test]
    fn single_thread_pool_runs_on_caller() {
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.par_map(&[1, 2, 3], |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn par_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.par_map_chunked(&items, 7, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let out = pool.par_map(&[10usize, 20, 30, 40], |&base| {
            // Inner parallelism on the same (registry) pool from a task.
            let inner = crate::pool(2).par_map_chunked(&[base, base + 1, base + 2], 1, |&x| x);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, vec![33, 63, 93, 123]);
    }

    #[test]
    fn try_par_map_returns_lowest_index_error() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let result: Result<Vec<usize>, usize> =
            pool.try_par_map(&items, |&x| if x == 13 || x == 77 { Err(x) } else { Ok(x) });
        assert_eq!(result, Err(13));
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(3);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map(&[1, 2, 3, 4, 5, 6, 7, 8], |&x| {
                if x == 5 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = outcome.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("boom at 5"), "payload: {message}");
        // The pool must remain fully usable afterwards.
        let out = pool.par_map_chunked(&[1, 2, 3, 4], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4, 5]);
    }
}
