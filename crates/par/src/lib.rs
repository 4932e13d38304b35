//! # uniq-par
//!
//! A small thread pool for the UNIQ personalization pipeline, built on
//! `std` alone (plus `uniq-obs`, whose context every item runs under — see
//! below).
//! The build environment has no crates.io access, so this crate
//! implements the part of rayon's surface the workspace needs — the
//! index-ordered [`ThreadPool::par_map`], [`ThreadPool::par_map_chunked`]
//! and [`ThreadPool::try_par_map`], with panic propagation — on
//! `std::thread` + `Mutex`/`Condvar`.
//!
//! Scheduling is one FIFO job queue and one condvar per pool. Workers take
//! the oldest queued job of any map; a caller waiting on its map takes the
//! oldest queued job of that map only, sleeps while none is queued, and
//! wakes when a job is queued or its map's last job finishes. Because a
//! waiting caller can always run its own map's jobs, a map nested inside
//! another map's item cannot deadlock at any pool size.
//!
//! Design contract, in order:
//!
//! 1. **Determinism.** Parallel results are bit-identical to sequential
//!    ones. [`ThreadPool::par_map`] writes each chunk's output into its
//!    index-ordered slot and reduces in index order, never in completion
//!    order; [`ThreadPool::try_par_map`] evaluates every item and returns
//!    the lowest-index error, exactly what a sequential in-order scan
//!    reports. No atomics-ordered accumulation anywhere.
//! 2. **Panic propagation.** A panicking item is caught on the thread
//!    that ran it, carried to the map's caller, and re-raised there once
//!    every other chunk has finished. The pool survives and stays usable.
//! 3. **One thread means zero overhead.** A pool of size 1 spawns no
//!    workers and `par_map` degenerates to a plain sequential `map` on the
//!    caller's thread, preserving the pre-parallel code path exactly.
//!
//! Pools are deduplicated by size through [`pool`], and the default size
//! comes from `UNIQ_THREADS` or the machine's available parallelism.
//!
//! ## Observability
//!
//! Each map captures the caller's `uniq-obs` context once
//! ([`uniq_obs::capture`]) and runs item `i` under lane `i` of it
//! (`run_indexed(i)`) on whichever thread takes the item: inline, on a
//! worker, or on the caller while it waits on the map. An item therefore
//! sees the caller's sink, span depth, span ids and allocation stage at
//! every pool size, as in a sequential loop, and needs no context of its
//! own.
//! That makes traces, registry totals and `uniq-memprof`'s per-stage
//! allocation totals (the memory-determinism hard gate) identical at any
//! thread count.
//!
//! Pool-owned allocations whose shape varies with thread count — job
//! boxes, queue growth, chunk buckets, result concatenation — sit inside
//! [`uniq_obs::suspend_alloc_stage`] regions and stay out of the
//! per-stage profile entirely.

#![warn(missing_docs)]

mod pool;
mod scope;

pub use pool::ThreadPool;

use std::sync::{Arc, Mutex, OnceLock};

/// Hard cap on pool size: guards against absurd `UNIQ_THREADS` values.
pub const MAX_THREADS: usize = 256;

/// Parses a thread-count override (the `UNIQ_THREADS` environment
/// variable): a positive integer, clamped to [`MAX_THREADS`]. Returns
/// `None` for absent, empty, zero, or unparsable values.
pub fn threads_from_env(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map(|n| n.min(MAX_THREADS))
}

/// The process-wide default parallelism: `UNIQ_THREADS` if set and valid,
/// otherwise `std::thread::available_parallelism()`. Computed once and
/// cached for the life of the process.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        // uniq-analyzer: allow(determinism-taint) — UNIQ_THREADS picks the pool width only; par_map output is index-ordered and bit-identical at any width
        threads_from_env(std::env::var("UNIQ_THREADS").ok().as_deref()).unwrap_or_else(|| {
            // uniq-analyzer: allow(determinism-taint) — machine parallelism picks the pool width only; results never depend on it
            std::thread::available_parallelism()
                .map(|n| n.get().min(MAX_THREADS))
                .unwrap_or(1)
        })
    })
}

/// Identity of the calling thread within uniq-par: `Some((pool_id,
/// worker_index))` when called from a pool worker thread, `None` for any
/// other thread (including a caller running its map's jobs while it
/// waits on them — that happens on the caller's own thread).
///
/// This is the thread-attribution hook for observability: a profiling
/// sink calls it while handling a span event (sinks run on the emitting
/// thread) to tag the sample with the worker that produced it, making
/// pool imbalance visible without threading IDs through every event.
pub fn current_worker() -> Option<(usize, usize)> {
    pool::current_worker_identity()
}

/// Returns the shared pool of the requested size, creating it on first
/// use. `threads == 0` means "default" (see [`default_threads`]). Pools
/// are cached per size and live for the rest of the process, so hot paths
/// can call this per invocation without paying thread-spawn costs.
pub fn pool(threads: usize) -> Arc<ThreadPool> {
    type Registry = Mutex<Vec<(usize, Arc<ThreadPool>)>>;
    static POOLS: OnceLock<Registry> = OnceLock::new();
    let n = if threads == 0 {
        default_threads()
    } else {
        threads.min(MAX_THREADS)
    };
    // Registry growth and pool construction (worker stacks, queues) are
    // one-time infrastructure cost, not stage work.
    let _quiet = uniq_obs::suspend_alloc_stage();
    let mut pools = POOLS
        // uniq-analyzer: allow(hot-path-alloc) — the registry Vec is built once per process (and grown once per distinct pool size); steady-state calls only read it
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("pool registry poisoned");
    if let Some((_, p)) = pools.iter().find(|(size, _)| *size == n) {
        return p.clone();
    }
    let p = Arc::new(ThreadPool::new(n));
    pools.push((n, p.clone()));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing() {
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some("0")), None);
        assert_eq!(threads_from_env(Some("banana")), None);
        assert_eq!(threads_from_env(Some("4")), Some(4));
        assert_eq!(threads_from_env(Some(" 8 ")), Some(8));
        assert_eq!(threads_from_env(Some("100000")), Some(MAX_THREADS));
    }

    #[test]
    fn pool_registry_dedupes_by_size() {
        let a = pool(3);
        let b = pool(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.threads(), 3);
        let c = pool(2);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn zero_means_default() {
        let d = pool(0);
        assert_eq!(d.threads(), default_threads());
    }

    #[test]
    fn current_worker_identifies_pool_threads() {
        // The calling thread is not a worker.
        assert_eq!(current_worker(), None);
        // In a pool of 4 over enough slow-ish items, at least one chunk
        // runs on a spawned worker (index < threads - 1); chunks that the
        // waiting caller ran report None.
        let p = pool(4);
        let items: Vec<u64> = (0..64).collect();
        let ids = p.par_map_chunked(&items, 1, |_| current_worker());
        for id in ids.iter().flatten() {
            assert!(id.1 < p.threads() - 1, "worker index out of range: {id:?}");
        }
    }
}
