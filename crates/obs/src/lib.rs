//! # uniq-obs
//!
//! Structured tracing and metrics for the UNIQ personalization pipeline:
//! spans (scoped stage timers), counters, and numeric metrics, delivered
//! to a pluggable [`Sink`]. Zero external dependencies.
//!
//! Design goals, in order:
//!
//! 1. **Disabled is free.** With no sink installed, every instrumentation
//!    point is one relaxed atomic load and a branch. The pipeline's numeric
//!    output is identical with or without a sink — instrumentation only
//!    observes, never steers.
//! 2. **Scoped, not global-only.** Tests and concurrent callers install a
//!    sink for one closure on one thread ([`with_sink`]); long-lived
//!    processes (the CLI) may install a process-wide default
//!    ([`set_global_sink`]). The thread-local scope wins when both exist.
//! 3. **Pluggable output.** Four sinks ship: [`sink::NoopSink`],
//!    [`sink::StderrSink`] (indented live span tree), [`sink::JsonLinesSink`]
//!    (machine-readable events), and [`sink::MemorySink`] (in-process
//!    collector for assertions). [`sink::MultiSink`] fans out to several.
//!    Aggregation lives one layer up, in `uniq-profile`'s registry.
//!
//! ```
//! use std::sync::Arc;
//! use uniq_obs::sink::MemorySink;
//!
//! let sink = Arc::new(MemorySink::new());
//! uniq_obs::with_sink(sink.clone(), || {
//!     let _span = uniq_obs::span("stage");
//!     uniq_obs::metric("stage.quality", 0.93, "corr");
//!     uniq_obs::counter("stage.retries", 1);
//! });
//! assert_eq!(sink.span_tree(), vec![("stage".to_string(), 0)]);
//! assert_eq!(sink.metric_values("stage.quality"), vec![0.93]);
//! assert_eq!(sink.counter_total("stage.retries"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod names;
pub mod report;
pub mod sink;

use sink::Sink;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Deterministic causal identifiers attached to span events.
///
/// Ids are pure functions of *tree position* — the enclosing trace, the
/// chain of ancestor spans (with explicit lane forks at
/// [`ObsContext::run_indexed`] boundaries), the span name, and the
/// sibling sequence number — never of scheduling, arrival order, or
/// process history. The same seeded workload therefore emits bit-identical
/// `(trace, span, parent)` triples at every thread count, and a JSONL
/// trace file reconstructs into the same tree however the run was
/// scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanIds {
    /// Per-run trace id (0 when no [`trace`] context is active).
    pub trace: u64,
    /// This span's id (unique within its trace; never 0).
    pub span: u64,
    /// The parent span's id (0 for trace roots).
    pub parent: u64,
}

/// One observability event, as delivered to sinks.
///
/// Span names are `&'static str` by design: instrumentation points are
/// compile-time sites, and static names keep the disabled path allocation
/// free.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened. `depth` is the nesting level on the emitting thread
    /// (0 = root).
    SpanStart {
        /// Span name (static instrumentation site).
        name: &'static str,
        /// Nesting depth at open time.
        depth: usize,
        /// Causal identity of this span.
        ids: SpanIds,
    },
    /// A span closed.
    SpanEnd {
        /// Span name (matches the corresponding start).
        name: &'static str,
        /// Nesting depth the span was opened at.
        depth: usize,
        /// Wall-clock duration, nanoseconds.
        nanos: u128,
        /// Self time, nanoseconds: `nanos` minus the wall time of the spans
        /// that closed *on this thread* while this one was open. A pool item
        /// a waiting caller runs itself belongs to the caller's own map, so
        /// it is debited from its own parent span, as in a sequential loop.
        self_nanos: u128,
        /// Causal identity of this span (matches the start event).
        ids: SpanIds,
    },
    /// A monotonically accumulating count.
    Counter {
        /// Counter name.
        name: &'static str,
        /// Increment (always added, never replaced).
        delta: u64,
    },
    /// A numeric observation (one histogram sample).
    Metric {
        /// Metric name.
        name: &'static str,
        /// Observed value.
        value: f64,
        /// Unit label (e.g. `"deg"`, `"m"`, `"dB"`); purely descriptive.
        unit: &'static str,
    },
}

/// Count of installed sinks anywhere in the process (global + all scoped).
/// The fast-path "is anything listening?" check.
static ACTIVE_SINKS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide default sink (used when no thread-local scope is active).
static GLOBAL_SINK: OnceLock<Arc<dyn Sink>> = OnceLock::new();

thread_local! {
    /// Stack of scoped sinks on this thread; the innermost wins.
    static SCOPED: RefCell<Vec<Arc<dyn Sink>>> = const { RefCell::new(Vec::new()) };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    /// Active trace id on this thread (0 = none).
    static TRACE: Cell<u64> = const { Cell::new(0) };
    /// Open id-derivation frames on this thread (trace root, open spans,
    /// and lane forks installed by [`ObsContext::run`]/`run_indexed`).
    static ID_STACK: RefCell<Vec<IdFrame>> = const { RefCell::new(Vec::new()) };
    /// One slot per span open on this thread, innermost last: the wall
    /// time of spans that closed on this thread while it was open, which
    /// its [`Event::SpanEnd`] subtracts to get `self_nanos`.
    static CHILD_NANOS: RefCell<Vec<u128>> = const { RefCell::new(Vec::new()) };
    /// Innermost open span name on this thread — the *stage* a memory
    /// profiler attributes allocations to. A plain `Cell` of a `'static`
    /// pointer so reading it from inside a global allocator hook is
    /// allocation-free and re-entrancy-safe.
    static STAGE: Cell<Option<&'static str>> = const { Cell::new(None) };
    /// Non-zero while allocation attribution is suspended on this thread
    /// (sink dispatch, pool bookkeeping): see [`suspend_alloc_stage`].
    static STAGE_SUSPENDED: Cell<usize> = const { Cell::new(0) };
}

/// One frame of the id-derivation stack. `span` is the id reported as
/// parent by child spans; `key` seeds their id derivation (equal to `span`
/// for ordinary spans, forked per lane for cross-thread contexts so
/// parallel items mint disjoint ids while still naming the true parent).
#[derive(Debug, Clone, Copy)]
struct IdFrame {
    span: u64,
    key: u64,
    next_child: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Domain separators so trace ids, lane keys and span ids drawn from the
/// same seed never collide structurally.
const TRACE_SALT: u64 = 0x7261_6365_2d69_6431; // "race-id1"
const LANE_SALT: u64 = 0x6c61_6e65_2d69_6431; // "lane-id1"

/// FNV-1a 64-bit hash of a byte string: the workspace's one byte hash
/// (span ids, allocation-stage slots, store content keys, serve shard
/// keys, and through [`fnv1a_extend`] every determinism fingerprint).
/// The hash of no bytes is the FNV offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 hash: `fnv1a_extend(fnv1a(a), b)` equals
/// `fnv1a` of `a` followed by `b`, so a digest can be fed in pieces.
#[inline]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Fibonacci/SplitMix finalizer: a cheap, well-mixed 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn mix(key: u64, salt: u64) -> u64 {
    splitmix64(key ^ splitmix64(salt))
}

fn nonzero(id: u64) -> u64 {
    if id == 0 {
        1
    } else {
        id
    }
}

fn derive_trace_id(key: u64) -> u64 {
    nonzero(mix(key, TRACE_SALT))
}

fn derive_lane_key(parent_key: u64, lane: u64) -> u64 {
    mix(parent_key, lane ^ LANE_SALT)
}

fn derive_span_id(parent_key: u64, name: &str, seq: u64) -> u64 {
    nonzero(mix(
        parent_key,
        fnv1a(name.as_bytes()).wrapping_add(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    ))
}

/// Derives this thread's next span identity for `name` and pushes its
/// frame. With no enclosing frame, the span roots directly under the
/// active trace (or trace 0 when none is active).
fn push_span_frame(name: &str) -> SpanIds {
    let trace = TRACE.with(|t| t.get());
    // The id stack grows lazily per thread; how deep any one thread
    // nests depends on which jobs it happened to run, so its growth is
    // infrastructure, not workload.
    let _quiet = suspend_alloc_stage();
    ID_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let (parent_span, parent_key, seq) = match stack.last_mut() {
            Some(frame) => {
                let seq = frame.next_child;
                frame.next_child += 1;
                (frame.span, frame.key, seq)
            }
            None => (0, trace, 0),
        };
        let span = derive_span_id(parent_key, name, seq);
        stack.push(IdFrame {
            span,
            key: span,
            next_child: 0,
        });
        SpanIds {
            trace,
            span,
            parent: parent_span,
        }
    })
}

fn pop_span_frame(ids: SpanIds) {
    ID_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // Tolerate imbalance (a sink scope torn down mid-span): only pop
        // the frame this span actually pushed.
        if stack.last().map(|f| f.span) == Some(ids.span) {
            stack.pop();
        }
    });
}

/// Begins a deterministic trace on this thread: all spans opened until the
/// returned guard drops share one `trace_id` derived from `key` (a seed,
/// typically). Its root spans name the span open where the trace began as
/// their parent (a server's request span, say), or `parent_id = 0` when
/// none is. Nested calls are no-ops
/// — the outermost trace wins — so a pipeline entry point can install its
/// per-attempt trace unconditionally even when a batch driver already did.
/// Inert (and free) when no sink is installed.
#[must_use = "the trace ends when the guard drops — bind it with `let _trace = ...`"]
pub fn trace(key: u64) -> TraceGuard {
    if !enabled() || TRACE.with(|t| t.get()) != 0 {
        return TraceGuard { owned: None };
    }
    let id = derive_trace_id(key);
    TRACE.with(|t| t.set(id));
    let _quiet = suspend_alloc_stage();
    ID_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().map_or(0, |f| f.span);
        stack.push(IdFrame {
            span: parent,
            key: id,
            next_child: 0,
        })
    });
    TraceGuard { owned: Some(id) }
}

/// RAII guard for an active trace context (see [`trace`]).
#[derive(Debug)]
pub struct TraceGuard {
    owned: Option<u64>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some(id) = self.owned.take() {
            ID_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack.last().map(|f| f.key) == Some(id) {
                    stack.pop();
                }
            });
            TRACE.with(|t| t.set(0));
        }
    }
}

/// Whether any sink could currently receive events. This is the cheap
/// enabled-check instrumentation sites use before doing *any* other work;
/// when it returns `false` the cost is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ACTIVE_SINKS.load(Ordering::Relaxed) != 0 && current_sink().is_some()
}

/// Current span nesting depth on this thread (0 when no span is open).
/// Used by display sinks to indent metric/counter lines under the
/// enclosing span.
pub fn current_depth() -> usize {
    DEPTH.with(|d| d.get())
}

/// The stage a memory profiler should attribute an allocation made *right
/// now, on this thread* to: the innermost open span's name, or `None`
/// when no span is open or attribution is suspended (see
/// [`suspend_alloc_stage`]). Allocation-free and re-entrancy-safe by
/// construction — `uniq-memprof` calls this from inside its
/// `#[global_allocator]` hook.
#[inline]
pub fn alloc_stage() -> Option<&'static str> {
    if STAGE_SUSPENDED.with(|s| s.get()) != 0 {
        return None;
    }
    STAGE.with(|s| s.get())
}

/// Suspends allocation attribution on this thread until the guard drops:
/// [`alloc_stage`] returns `None` inside. Used around allocations that
/// belong to *observability or scheduling infrastructure* — sink dispatch,
/// pool queues, chunk buckets — whose shape legitimately varies with
/// thread count or event arrival order. Excluding them keeps the
/// per-stage allocation profile a pure function of the workload.
#[must_use = "attribution resumes when the guard drops — bind it with `let _quiet = ...`"]
pub fn suspend_alloc_stage() -> AllocStageSuspendGuard {
    STAGE_SUSPENDED.with(|s| s.set(s.get() + 1));
    AllocStageSuspendGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// RAII guard for suspended allocation attribution (see
/// [`suspend_alloc_stage`]).
#[derive(Debug)]
pub struct AllocStageSuspendGuard {
    /// Suspension is a thread-local count; the guard must drop on the
    /// thread that created it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for AllocStageSuspendGuard {
    fn drop(&mut self) {
        STAGE_SUSPENDED.with(|s| s.set(s.get().saturating_sub(1)));
    }
}

/// Runs `f` with `stage` installed as this thread's allocation-attribution
/// stage, restoring the previous value afterwards (exception safe).
/// [`ObsContext`] runs carry the captured stage in this way, so
/// allocations made on another thread land on the stage they would land
/// on inline; spans `f` opens override it as usual.
fn with_alloc_stage<T>(stage: Option<&'static str>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<&'static str>);
    impl Drop for Restore {
        fn drop(&mut self) {
            STAGE.with(|s| s.set(self.0));
        }
    }
    let prev = STAGE.with(|s| s.replace(stage));
    let _restore = Restore(prev);
    f()
}

fn current_sink() -> Option<Arc<dyn Sink>> {
    SCOPED
        .with(|s| s.borrow().last().cloned())
        .or_else(|| GLOBAL_SINK.get().cloned())
}

/// The sink events on this thread currently land in — the innermost
/// [`with_sink`] scope, else the global sink; `None` when nothing is
/// installed. Lets a caller *compose* with the ambient sink (fan out to
/// it and a private sink through [`sink::MultiSink`]) instead of a nested
/// [`with_sink`] scope silently shadowing it — `uniq loadgen` uses this
/// to feed its latency profiler without stealing events from `--trace`
/// or `--metrics-out`.
pub fn ambient_sink() -> Option<Arc<dyn Sink>> {
    current_sink()
}

/// Installs `sink` as the process-wide default. Returns `false` if a global
/// sink was already installed (the first installation wins, as with a
/// logger). Scoped sinks from [`with_sink`] still take precedence on their
/// thread.
pub fn set_global_sink(sink: Arc<dyn Sink>) -> bool {
    let installed = GLOBAL_SINK.set(sink).is_ok();
    if installed {
        ACTIVE_SINKS.fetch_add(1, Ordering::Relaxed);
    }
    installed
}

/// Flushes the process-wide sink, if one is installed. A global sink
/// lives in a `OnceLock` and is never dropped, so buffered sinks (e.g.
/// [`sink::JsonLinesSink`]) would otherwise lose their tail at process
/// exit; long-lived entry points call this on their way out.
pub fn flush_global_sink() {
    if let Some(sink) = GLOBAL_SINK.get() {
        sink.flush();
    }
}

/// Runs `f` with `sink` receiving this thread's events, restoring the
/// previous state afterwards (exception safe). Scopes nest; the innermost
/// sink receives the events.
pub fn with_sink<T>(sink: Arc<dyn Sink>, f: impl FnOnce() -> T) -> T {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SCOPED.with(|s| s.borrow_mut().pop());
            ACTIVE_SINKS.fetch_sub(1, Ordering::Relaxed);
        }
    }
    {
        // The scoped-sink stack grows lazily per thread; which worker
        // first nests deep enough to trigger a growth is scheduling
        // noise, so keep it out of the per-stage memory profile.
        let _quiet = suspend_alloc_stage();
        SCOPED.with(|s| s.borrow_mut().push(sink));
    }
    ACTIVE_SINKS.fetch_add(1, Ordering::Relaxed);
    let _guard = Guard;
    f()
}

/// A snapshot of this thread's observability state — the active sink (if
/// any), span depth, causal position and allocation stage — that can be
/// carried to another thread and reinstalled there with
/// [`ObsContext::run`].
///
/// `uniq-par` captures one per parallel map and runs item `i` under
/// `run_indexed(i)` on whichever thread takes it, so pool items need no
/// context of their own. Use this type directly for threads the program
/// spawns itself: without it, scoped sinks (which are thread-local) would
/// silently drop everything such a thread emits.
///
/// ```
/// use std::sync::Arc;
/// use uniq_obs::sink::MemorySink;
///
/// let sink = Arc::new(MemorySink::new());
/// uniq_obs::with_sink(sink.clone(), || {
///     let _outer = uniq_obs::span("outer");
///     let ctx = uniq_obs::capture();
///     std::thread::scope(|s| {
///         s.spawn(|| ctx.run(|| uniq_obs::metric("from.worker", 1.0, "")));
///     });
/// });
/// assert_eq!(sink.metric_values("from.worker"), vec![1.0]);
/// ```
#[derive(Clone)]
pub struct ObsContext {
    sink: Option<Arc<dyn Sink>>,
    depth: usize,
    trace: u64,
    parent_span: u64,
    parent_key: u64,
    stage: Option<&'static str>,
}

impl std::fmt::Debug for ObsContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsContext")
            .field("has_sink", &self.sink.is_some())
            .field("depth", &self.depth)
            .field("trace", &self.trace)
            .field("parent_span", &self.parent_span)
            .finish()
    }
}

/// Captures the calling thread's current sink, span depth, causal
/// position (trace id + innermost open span) and allocation stage (the
/// innermost open span name, read even while attribution is suspended).
/// Cheap when no sink is installed.
pub fn capture() -> ObsContext {
    let active = ACTIVE_SINKS.load(Ordering::Relaxed) != 0;
    let trace = if active { TRACE.with(|t| t.get()) } else { 0 };
    let (parent_span, parent_key) = if active {
        ID_STACK.with(|s| {
            s.borrow()
                .last()
                .map(|f| (f.span, f.key))
                .unwrap_or((0, trace))
        })
    } else {
        (0, 0)
    };
    ObsContext {
        sink: if active { current_sink() } else { None },
        depth: current_depth(),
        trace,
        parent_span,
        parent_key,
        stage: STAGE.with(|s| s.get()),
    }
}

impl ObsContext {
    /// Runs `f` with this context's sink, span depth, causal position and
    /// allocation stage installed on the current thread, restoring the
    /// previous state afterwards (exception safe). With no captured sink,
    /// only the allocation stage is installed: run `f` on a thread that has
    /// no sink of its own (a pool worker, a fresh thread) or on the thread
    /// that captured the context.
    ///
    /// Spans `f` opens derive their ids from the captured position
    /// directly; in a parallel fan-out where several items run under one
    /// captured context, use [`ObsContext::run_indexed`] instead so each
    /// item mints disjoint span ids.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        self.run_with_key(self.parent_key, f)
    }

    /// Like [`ObsContext::run`], but forks the id-derivation key by
    /// `lane` — a deterministic per-item number (item index, seed, …) that
    /// does not depend on scheduling. Every lane derives a disjoint span-id
    /// sequence while spans still report the captured span as parent, so
    /// per-item subtrees stay unique *and* bit-identical across thread
    /// counts.
    pub fn run_indexed<T>(&self, lane: u64, f: impl FnOnce() -> T) -> T {
        self.run_with_key(derive_lane_key(self.parent_key, lane), f)
    }

    fn run_with_key<T>(&self, key: u64, f: impl FnOnce() -> T) -> T {
        let Some(sink) = self.sink.clone() else {
            return with_alloc_stage(self.stage, f);
        };
        let depth = self.depth;
        let trace = self.trace;
        let parent_span = self.parent_span;
        with_sink(sink, || {
            struct DepthGuard(usize);
            impl Drop for DepthGuard {
                fn drop(&mut self) {
                    DEPTH.with(|d| d.set(self.0));
                }
            }
            struct IdGuard {
                prev_trace: u64,
                prev_len: usize,
            }
            impl Drop for IdGuard {
                fn drop(&mut self) {
                    ID_STACK.with(|s| s.borrow_mut().truncate(self.prev_len));
                    TRACE.with(|t| t.set(self.prev_trace));
                }
            }
            let prev = DEPTH.with(|d| {
                let v = d.get();
                d.set(depth);
                v
            });
            let _restore = DepthGuard(prev);
            let prev_trace = TRACE.with(|t| {
                let v = t.get();
                t.set(trace);
                v
            });
            let prev_len = ID_STACK.with(|s| {
                let _quiet = suspend_alloc_stage();
                let mut stack = s.borrow_mut();
                let len = stack.len();
                stack.push(IdFrame {
                    span: parent_span,
                    key,
                    next_child: 0,
                });
                len
            });
            let _ids = IdGuard {
                prev_trace,
                prev_len,
            };
            with_alloc_stage(self.stage, f)
        })
    }
}

fn dispatch(event: &Event) {
    if let Some(sink) = current_sink() {
        // Sink internals (aggregation maps, buffers, labels) allocate in
        // event-arrival order, which is scheduling noise — keep those
        // allocations out of the per-stage memory profile.
        let _quiet = suspend_alloc_stage();
        sink.on_event(event);
    }
}

/// Opens a span: emits [`Event::SpanStart`] now and [`Event::SpanEnd`] with
/// the elapsed wall time and self time when the returned guard drops. When
/// no sink is installed the guard is inert and nothing is measured.
#[must_use = "the span closes when the guard drops — bind it with `let _span = ...`"]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let ids = push_span_frame(name);
    {
        // Grows lazily per thread, like the id stack: infrastructure.
        let _quiet = suspend_alloc_stage();
        CHILD_NANOS.with(|c| c.borrow_mut().push(0));
    }
    let prev_stage = STAGE.with(|s| s.replace(Some(name)));
    dispatch(&Event::SpanStart { name, depth, ids });
    SpanGuard {
        live: Some(LiveSpan {
            name,
            depth,
            ids,
            prev_stage,
            start: Instant::now(),
        }),
    }
}

struct LiveSpan {
    name: &'static str,
    depth: usize,
    ids: SpanIds,
    prev_stage: Option<&'static str>,
    start: Instant,
}

/// RAII guard for an open span (see [`span`]).
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.live.as_ref().map(|l| l.name))
            .finish()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            STAGE.with(|s| s.set(live.prev_stage));
            pop_span_frame(live.ids);
            let nanos = live.start.elapsed().as_nanos();
            // Pop this span's slot and debit its wall time to the enclosing
            // span open on this thread.
            let child_nanos = CHILD_NANOS.with(|c| {
                let mut open = c.borrow_mut();
                let child_nanos = open.pop().unwrap_or(0);
                if let Some(enclosing) = open.last_mut() {
                    *enclosing += nanos;
                }
                child_nanos
            });
            dispatch(&Event::SpanEnd {
                name: live.name,
                depth: live.depth,
                nanos,
                self_nanos: nanos.saturating_sub(child_nanos),
                ids: live.ids,
            });
        }
    }
}

/// A wall-clock stopwatch for timing that feeds observability.
///
/// Result-producing crates are barred from `std::time` by
/// `uniq-analyzer`'s `wall-clock` rule: a time read in a compute path
/// can silently steer results. Timing that only *describes* a run —
/// per-subject seconds, throughput sweeps — goes through this type
/// instead, which keeps the clock access inside `uniq-obs` where the
/// rule (and a reviewer) can see that no timestamp flows back into
/// numerics.
///
/// ```
/// let sw = uniq_obs::Stopwatch::start();
/// let secs = sw.elapsed_seconds();
/// assert!(secs >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Records a numeric observation (one histogram sample).
#[inline]
pub fn metric(name: &'static str, value: f64, unit: &'static str) {
    if !enabled() {
        return;
    }
    dispatch(&Event::Metric { name, value, unit });
}

/// Increments a counter.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    dispatch(&Event::Counter { name, delta });
}

#[cfg(test)]
mod tests {
    use super::sink::MemorySink;
    use super::*;

    #[test]
    fn disabled_by_default_and_inert() {
        // No scoped sink on this thread → span/metric/counter are no-ops.
        let g = span("nobody-listens");
        metric("m", 1.0, "");
        counter("c", 1);
        drop(g);
    }

    #[test]
    fn span_nesting_depths_recorded() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink.clone(), || {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            let _sibling = span("sibling");
        });
        assert_eq!(
            sink.span_tree(),
            vec![
                ("outer".to_string(), 0),
                ("inner".to_string(), 1),
                ("sibling".to_string(), 1),
            ]
        );
        // Every start has a matching end with plausible timing.
        let ends: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e, Event::SpanEnd { .. }))
            .collect();
        assert_eq!(ends.len(), 3);
    }

    /// `(name, nanos, self_nanos, ids)` of every span end, in order.
    fn ends(sink: &MemorySink) -> Vec<(&'static str, u128, u128, SpanIds)> {
        sink.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanEnd {
                    name,
                    nanos,
                    self_nanos,
                    ids,
                    ..
                } => Some((name, nanos, self_nanos, ids)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn self_times_on_one_thread_sum_to_the_root() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink.clone(), || {
            let _root = span("root");
            {
                let _a = span("a");
                let _leaf = span("leaf");
            }
            let _b = span("b");
        });
        let ends = ends(&sink);
        let names: Vec<&str> = ends.iter().map(|e| e.0).collect();
        assert_eq!(names, ["leaf", "a", "b", "root"]);
        let [leaf, a, b, root] = [ends[0], ends[1], ends[2], ends[3]];
        assert_eq!(leaf.2, leaf.1);
        assert_eq!(a.2, a.1 - leaf.1);
        assert_eq!(root.2, root.1 - a.1 - b.1);
        let self_sum: u128 = ends.iter().map(|e| e.2).sum();
        assert_eq!(self_sum, root.1);
    }

    #[test]
    fn spans_closed_on_another_thread_are_not_debited() {
        // A worker's span has the caller's span as its id parent, but the
        // caller's wall clock was not spent on it.
        let sink = Arc::new(MemorySink::new());
        with_sink(sink.clone(), || {
            let _root = span("root");
            let ctx = capture();
            std::thread::scope(|s| {
                s.spawn(|| {
                    ctx.run(|| {
                        let _w = span("worker");
                    })
                });
            });
        });
        let ends = ends(&sink);
        let (worker, root) = (ends[0], ends[1]);
        assert_eq!((worker.0, root.0), ("worker", "root"));
        assert_eq!(worker.3.parent, root.3.span);
        assert_eq!(root.2, root.1);
    }

    #[test]
    fn scoped_sink_restored_after_panic_free_exit() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink.clone(), || {
            let _s = span("in-scope");
        });
        let _after = span("out-of-scope");
        assert_eq!(sink.span_tree().len(), 1);
    }

    #[test]
    fn nested_scopes_innermost_wins() {
        let outer = Arc::new(MemorySink::new());
        let inner = Arc::new(MemorySink::new());
        with_sink(outer.clone(), || {
            metric("seen.outer", 1.0, "");
            with_sink(inner.clone(), || metric("seen.inner", 2.0, ""));
            metric("seen.outer", 3.0, "");
        });
        assert_eq!(outer.metric_values("seen.outer"), vec![1.0, 3.0]);
        assert_eq!(outer.metric_values("seen.inner"), Vec::<f64>::new());
        assert_eq!(inner.metric_values("seen.inner"), vec![2.0]);
    }

    #[test]
    fn context_carries_sink_and_depth_across_threads() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink.clone(), || {
            let _outer = span("outer");
            let ctx = capture();
            std::thread::scope(|s| {
                s.spawn(|| {
                    ctx.run(|| {
                        let _inner = span("worker-span");
                        counter("worker.events", 1);
                    });
                });
            });
        });
        // The worker's span nests under "outer" exactly as inline code would.
        assert_eq!(
            sink.span_tree(),
            vec![("outer".to_string(), 0), ("worker-span".to_string(), 1)]
        );
        assert_eq!(sink.counter_total("worker.events"), 1);
    }

    #[test]
    fn context_without_sink_is_transparent() {
        let ctx = capture();
        assert_eq!(ctx.run(|| 41 + 1), 42);
    }

    #[test]
    fn counters_accumulate() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink.clone(), || {
            counter("retries", 1);
            counter("retries", 2);
        });
        assert_eq!(sink.counter_total("retries"), 3);
    }

    fn start_ids(events: &[Event]) -> Vec<(&'static str, SpanIds)> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, ids, .. } => Some((*name, *ids)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn span_ids_deterministic_unique_and_linked() {
        let record = || {
            let sink = Arc::new(MemorySink::new());
            with_sink(sink.clone(), || {
                let _trace = trace(42);
                let _root = span("root");
                {
                    let _a = span("a");
                }
                {
                    let _a = span("a");
                }
                let _b = span("b");
            });
            start_ids(&sink.events())
        };
        let first = record();
        let second = record();
        assert_eq!(first, second, "ids depend on something besides position");

        let ids: Vec<SpanIds> = first.iter().map(|(_, i)| *i).collect();
        assert!(ids.iter().all(|i| i.trace == ids[0].trace && i.trace != 0));
        for (k, i) in ids.iter().enumerate() {
            assert!(i.span != 0);
            assert!(
                !ids[..k].iter().any(|j| j.span == i.span),
                "duplicate span id at position {k}"
            );
        }
        // Both `a` siblings and `b` parent to `root`; `root` is the trace root.
        assert_eq!(ids[0].parent, 0);
        for child in &ids[1..] {
            assert_eq!(child.parent, ids[0].span);
        }
    }

    #[test]
    fn sibling_spans_same_name_get_distinct_ids() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink.clone(), || {
            let _trace = trace(7);
            let _root = span("root");
            for _ in 0..3 {
                let _leaf = span("leaf");
            }
        });
        let ids = start_ids(&sink.events());
        let leaves: Vec<u64> = ids
            .iter()
            .filter(|(n, _)| *n == "leaf")
            .map(|(_, i)| i.span)
            .collect();
        assert_eq!(leaves.len(), 3);
        assert!(leaves[0] != leaves[1] && leaves[1] != leaves[2] && leaves[0] != leaves[2]);
    }

    #[test]
    fn nested_trace_is_a_noop_and_outer_wins() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink.clone(), || {
            let _outer = trace(1);
            let outer_id = TRACE.with(|t| t.get());
            {
                let _inner = trace(2);
                assert_eq!(TRACE.with(|t| t.get()), outer_id, "inner trace took over");
                let _s = span("inside");
            }
            assert_eq!(
                TRACE.with(|t| t.get()),
                outer_id,
                "inner drop cleared trace"
            );
        });
        assert_eq!(TRACE.with(|t| t.get()), 0, "trace leaked past its guard");
        let ids = start_ids(&sink.events());
        assert_eq!(ids[0].1.trace, derive_trace_id(1));
    }

    #[test]
    fn a_trace_begun_inside_a_span_hangs_its_roots_off_it() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink.clone(), || {
            let _request = span("request");
            let _trace = trace(4);
            let _root = span("root");
        });
        let ids = start_ids(&sink.events());
        let (request, root) = (ids[0].1, ids[1].1);
        assert_eq!((request.trace, request.parent), (0, 0));
        assert_eq!(root.trace, derive_trace_id(4));
        assert_eq!(root.parent, request.span);
    }

    #[test]
    fn run_indexed_forks_lanes_deterministically() {
        let record = |lanes: &[u64]| {
            let sink = Arc::new(MemorySink::new());
            let mut out = Vec::new();
            with_sink(sink.clone(), || {
                let _trace = trace(9);
                let _root = span("root");
                let ctx = capture();
                for &lane in lanes {
                    ctx.run_indexed(lane, || {
                        let _item = span("item");
                    });
                }
            });
            out.extend(start_ids(&sink.events()));
            out
        };
        let inline = record(&[0, 1, 2]);
        // The same lanes visited in a different order (as a racing pool
        // would) mint the same per-lane ids.
        let shuffled = record(&[2, 0, 1]);
        let key = |v: &[(&str, SpanIds)]| {
            let mut items: Vec<SpanIds> = v
                .iter()
                .filter(|(n, _)| *n == "item")
                .map(|(_, i)| *i)
                .collect();
            items.sort_by_key(|i| i.span);
            items
        };
        assert_eq!(key(&inline), key(&shuffled));
        let items = key(&inline);
        assert_eq!(items.len(), 3);
        let root = inline[0].1;
        for item in &items {
            assert_eq!(item.parent, root.span, "lane child lost its true parent");
            assert_eq!(item.trace, root.trace);
        }
    }

    #[test]
    fn alloc_stage_tracks_innermost_open_span() {
        assert_eq!(alloc_stage(), None);
        let sink = Arc::new(MemorySink::new());
        with_sink(sink, || {
            assert_eq!(alloc_stage(), None);
            let _outer = span("outer");
            assert_eq!(alloc_stage(), Some("outer"));
            {
                let _inner = span("inner");
                assert_eq!(alloc_stage(), Some("inner"));
            }
            assert_eq!(alloc_stage(), Some("outer"));
        });
        assert_eq!(alloc_stage(), None);
    }

    #[test]
    fn alloc_stage_suspension_nests_and_restores() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink, || {
            let _s = span("stage");
            {
                let _quiet = suspend_alloc_stage();
                assert_eq!(alloc_stage(), None);
                // A capture still reads the span as its stage.
                assert_eq!(capture().stage, Some("stage"));
                {
                    let _deeper = suspend_alloc_stage();
                    assert_eq!(alloc_stage(), None);
                }
                assert_eq!(alloc_stage(), None, "inner drop ended outer suspension");
            }
            assert_eq!(alloc_stage(), Some("stage"));
        });
    }

    #[test]
    fn with_alloc_stage_installs_and_restores() {
        assert_eq!(alloc_stage(), None);
        with_alloc_stage(Some("carried"), || {
            assert_eq!(alloc_stage(), Some("carried"));
        });
        assert_eq!(alloc_stage(), None);
    }

    #[test]
    fn context_carries_stage_to_workers() {
        let sink = Arc::new(MemorySink::new());
        with_sink(sink, || {
            let _outer = span("outer");
            let ctx = capture();
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert_eq!(alloc_stage(), None);
                    ctx.run(|| assert_eq!(alloc_stage(), Some("outer")));
                    assert_eq!(alloc_stage(), None);
                });
            });
        });
    }

    #[test]
    fn sinkless_context_carries_stage() {
        let ctx = with_alloc_stage(Some("carried"), capture);
        assert!(ctx.sink.is_none());
        std::thread::scope(|s| {
            s.spawn(|| {
                ctx.run(|| assert_eq!(alloc_stage(), Some("carried")));
                assert_eq!(alloc_stage(), None);
            });
        });
    }

    #[test]
    fn run_indexed_across_threads_matches_inline() {
        let run = |parallel: bool| {
            let sink = Arc::new(MemorySink::new());
            with_sink(sink.clone(), || {
                let _trace = trace(11);
                let _root = span("root");
                let ctx = capture();
                if parallel {
                    std::thread::scope(|s| {
                        for lane in 0..4u64 {
                            let ctx = ctx.clone();
                            s.spawn(move || {
                                ctx.run_indexed(lane, || {
                                    let _w = span("work");
                                })
                            });
                        }
                    });
                } else {
                    for lane in 0..4u64 {
                        ctx.run_indexed(lane, || {
                            let _w = span("work");
                        });
                    }
                }
            });
            let mut ids = start_ids(&sink.events());
            ids.sort_by_key(|(_, i)| i.span);
            ids
        };
        assert_eq!(run(false), run(true));
    }
}
