//! # uniq-memprof
//!
//! Span-attributed allocation profiling for the UNIQ pipeline: a
//! `std`-only counting wrapper around the system allocator that
//! attributes every heap allocation to the active `uniq-obs` span, so
//! each `SPAN_*` stage gets a memory profile alongside its latency
//! profile. Zero external dependencies.
//!
//! ## Install + measure
//!
//! The wrapper is installed per binary with `#[global_allocator]` and is
//! inert (one relaxed atomic load per allocation) until [`start`] flips
//! it on:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();
//!
//! uniq_memprof::reset();
//! uniq_memprof::start();
//! run_workload();
//! uniq_memprof::stop();
//! let snapshot = uniq_memprof::snapshot();
//! ```
//!
//! ## Attribution and determinism model
//!
//! The hook reads [`uniq_obs::alloc_stage`] — the innermost open span on
//! the allocating thread, carried across `uniq-par` worker boundaries by
//! the pool itself — and charges the allocation to that stage's slot.
//! Counters are sharded per `uniq-par` worker (shard 0 for non-pool
//! threads) in fixed static atomics; a snapshot merges shards in index
//! order, so per-stage **allocation count and bytes are a pure function
//! of the workload**: bit-identical across repeated runs and across
//! thread counts. That is the hard baseline gate.
//!
//! Peak-live bytes are *not* deterministic — the process-wide live
//! maximum depends on which stages overlap in time, i.e. on scheduling —
//! and per-stage frees can migrate between stages when an object is
//! allocated in one stage and dropped in another. Those columns are
//! warn-tier evidence only (see DESIGN.md §15).
//!
//! Infrastructure allocations (sink dispatch, pool queues and buckets)
//! run under [`uniq_obs::suspend_alloc_stage`] and land in the
//! `unattributed` row, which no gate compares.
//!
//! ## Hook safety
//!
//! A global allocator must never allocate, so the hook path touches only
//! `const`-initialized thread-locals (`Cell`s), fixed static atomic
//! arrays, and the byte content of `'static` span names. A per-thread
//! re-entrancy latch makes the hook a plain pass-through if anything in
//! it ever allocates, instead of recursing.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use uniq_obs::sink::json_escape;

/// Schema stamp on [`AllocSnapshot::to_json`] output; bump on any
/// incompatible shape change so downstream readers can refuse early.
pub const ALLOC_SCHEMA_VERSION: u64 = 1;

/// Fixed capacity of the stage-name table. The workspace registers ~20
/// span names; overflow beyond this lands in a dedicated overflow row
/// rather than being dropped.
pub const STAGE_SLOTS: usize = 64;

/// Counter shards: shard 0 for non-pool threads, workers at
/// `1 + index % (SHARDS - 1)` — the mapping `uniq-profile`'s registry uses,
/// so contention behavior is familiar and merge order is fixed.
pub const SHARDS: usize = 17;

/// Row index for allocations with no stage attribution.
const UNATTRIBUTED: usize = STAGE_SLOTS;
/// Row index for allocations whose stage could not be slotted (table
/// full or a claim race that did not settle within the probe budget).
const OVERFLOW: usize = STAGE_SLOTS + 1;
/// Total rows: named stages plus the two synthetic rows.
const TRACKS: usize = STAGE_SLOTS + 2;

/// Whether the hook records anything (one relaxed load per allocation
/// when off).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Set by the first allocation that passes through the counting wrapper;
/// lets CLI code detect a binary built without `#[global_allocator]`.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// One claimed stage name: pointer + length of a `'static` span name.
/// `ptr` is null while free and `CLAIMING` while a writer publishes
/// `len`; readers spin briefly on `CLAIMING` (first occurrence of a name
/// only) and fall back to the overflow row.
struct NameSlot {
    ptr: AtomicPtr<u8>,
    len: AtomicUsize,
}

/// Sentinel marking a slot mid-claim (never a valid `&'static str` ptr:
/// address 1, the canonical dangling `u8` pointer).
const CLAIMING: *mut u8 = std::ptr::dangling_mut::<u8>();

static NAMES: [NameSlot; STAGE_SLOTS] = [const {
    NameSlot {
        ptr: AtomicPtr::new(std::ptr::null_mut()),
        len: AtomicUsize::new(0),
    }
}; STAGE_SLOTS];

/// Per-shard deterministic counters (the hard-gate columns).
struct ShardCounters {
    allocs: [AtomicU64; TRACKS],
    bytes: [AtomicU64; TRACKS],
    frees: [AtomicU64; TRACKS],
    freed_bytes: [AtomicU64; TRACKS],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);

static SHARD_COUNTERS: [ShardCounters; SHARDS] = [const {
    ShardCounters {
        allocs: [ZERO_U64; TRACKS],
        bytes: [ZERO_U64; TRACKS],
        frees: [ZERO_U64; TRACKS],
        freed_bytes: [ZERO_U64; TRACKS],
    }
}; SHARDS];

/// Per-stage live/peak/largest (warn-tier columns, global atomics: the
/// peak of a sum cannot be reconstructed from per-shard peaks).
static LIVE: [AtomicI64; TRACKS] = [const { AtomicI64::new(0) }; TRACKS];
static PEAK: [AtomicI64; TRACKS] = [const { AtomicI64::new(0) }; TRACKS];
static LARGEST: [AtomicU64; TRACKS] = [const { AtomicU64::new(0) }; TRACKS];

/// Process-wide live/peak across all stages (the headline peak-live).
static GLOBAL_LIVE: AtomicI64 = AtomicI64::new(0);
static GLOBAL_PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Re-entrancy latch: true while this thread is inside the recording
    /// path. Nothing in that path allocates, but if that ever regresses
    /// the latch degrades the hook to a pass-through instead of a stack
    /// overflow.
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

/// Maps the calling thread to its counter shard (uniq-par worker aware).
#[inline]
fn shard_index() -> usize {
    match uniq_par::current_worker() {
        Some((_pool, worker)) => 1 + worker % (SHARDS - 1),
        None => 0,
    }
}

/// Finds (or claims) the row for `name`. Open addressing over the fixed
/// table, keyed by content (names from different crates may be distinct
/// statics with equal text). Returns [`OVERFLOW`] when the table is full
/// or a racing claim does not settle within the spin budget.
fn track_for(name: &'static str) -> usize {
    let start = (uniq_obs::fnv1a(name.as_bytes()) % STAGE_SLOTS as u64) as usize;
    for probe in 0..STAGE_SLOTS {
        let idx = (start + probe) % STAGE_SLOTS;
        let slot = &NAMES[idx];
        let mut spins = 0;
        loop {
            let ptr = slot.ptr.load(Ordering::Acquire);
            if ptr.is_null() {
                // Claim: mark the slot, publish the length, then the
                // pointer (Release) so any reader that sees the pointer
                // also sees the matching length.
                if slot
                    .ptr
                    .compare_exchange(
                        std::ptr::null_mut(),
                        CLAIMING,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    slot.len.store(name.len(), Ordering::Relaxed);
                    slot.ptr.store(name.as_ptr() as *mut u8, Ordering::Release);
                    return idx;
                }
                // Lost the race; re-read and compare against the winner.
                continue;
            }
            if std::ptr::eq(ptr, CLAIMING) {
                // A writer is mid-claim (first occurrence of some name —
                // at most once per name per process). Bounded wait, then
                // give up on attribution rather than stall an allocator.
                spins += 1;
                if spins > 1000 {
                    return OVERFLOW;
                }
                std::hint::spin_loop();
                continue;
            }
            let len = slot.len.load(Ordering::Relaxed);
            // SAFETY: `ptr`/`len` were published (Release) from a live
            // `&'static str`'s pointer and length by the claim above, so
            // they denote `len` initialized, immutable, 'static bytes.
            let existing = unsafe { std::slice::from_raw_parts(ptr, len) };
            if existing == name.as_bytes() {
                return idx;
            }
            break; // different name: probe the next slot
        }
    }
    OVERFLOW
}

#[inline]
fn current_track() -> usize {
    match uniq_obs::alloc_stage() {
        Some(name) => track_for(name),
        None => UNATTRIBUTED,
    }
}

/// Runs `record` unless this thread is already inside a recording hook,
/// latching the hook while it runs.
#[inline(always)]
fn hooked(record: impl FnOnce()) {
    if !IN_HOOK.with(|latch| latch.replace(true)) {
        record();
        IN_HOOK.with(|latch| latch.set(false));
    }
}

fn record_alloc(size: usize) {
    hooked(|| {
        let track = current_track();
        let shard = &SHARD_COUNTERS[shard_index()];
        shard.allocs[track].fetch_add(1, Ordering::Relaxed);
        shard.bytes[track].fetch_add(size as u64, Ordering::Relaxed);
        LARGEST[track].fetch_max(size as u64, Ordering::Relaxed);
        let live = LIVE[track].fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK[track].fetch_max(live, Ordering::Relaxed);
        let global = GLOBAL_LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        GLOBAL_PEAK.fetch_max(global, Ordering::Relaxed);
    });
}

fn record_free(size: usize) {
    hooked(|| {
        let track = current_track();
        let shard = &SHARD_COUNTERS[shard_index()];
        shard.frees[track].fetch_add(1, Ordering::Relaxed);
        shard.freed_bytes[track].fetch_add(size as u64, Ordering::Relaxed);
        LIVE[track].fetch_sub(size as i64, Ordering::Relaxed);
        GLOBAL_LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    });
}

/// The counting wrapper around [`std::alloc::System`]. Install it once
/// per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

impl CountingAllocator {
    /// Const constructor for the `#[global_allocator]` static.
    pub const fn new() -> CountingAllocator {
        CountingAllocator
    }
}

// SAFETY: every method forwards the caller's request verbatim to
// `System`, which upholds the `GlobalAlloc` contract; the recording side
// only touches static atomics and const-initialized thread-locals and
// never allocates, deallocates, or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !INSTALLED.load(Ordering::Relaxed) {
            INSTALLED.store(true, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations are forwarded
        // unchanged to the system allocator.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are forwarded
        // unchanged to the system allocator.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            record_free(layout.size());
        }
        // SAFETY: `ptr` was returned by this allocator with this
        // `layout`, per the caller's `dealloc` contract; `System` only
        // ever sees pointers it produced because every alloc path above
        // forwards to it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout`/`new_size` obligations are the caller's,
        // forwarded unchanged; `ptr` originated from `System` (see
        // `dealloc`).
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            // Counted as free-old + alloc-new: sizes stay exact and a
            // grow-in-place is indistinguishable from move, keeping the
            // counters a pure function of the request sequence.
            record_free(layout.size());
            record_alloc(new_size);
        }
        new_ptr
    }
}

/// Whether any allocation has passed through a [`CountingAllocator`] in
/// this process — i.e. whether the binary installed it as
/// `#[global_allocator]`. Used by CLI/test code to fail loudly instead of
/// reporting all-zero profiles.
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Starts recording. Cheap to call redundantly.
pub fn start() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording (the hook reverts to one relaxed load per allocation).
pub fn stop() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the profiler is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every counter (the stage-name table is kept: slot assignment is
/// an implementation detail that snapshots never expose). Call while the
/// workload is quiescent — concurrent recording during a reset yields a
/// torn (but still safe) profile.
pub fn reset() {
    for shard in &SHARD_COUNTERS {
        for track in 0..TRACKS {
            shard.allocs[track].store(0, Ordering::Relaxed);
            shard.bytes[track].store(0, Ordering::Relaxed);
            shard.frees[track].store(0, Ordering::Relaxed);
            shard.freed_bytes[track].store(0, Ordering::Relaxed);
        }
    }
    for track in 0..TRACKS {
        LIVE[track].store(0, Ordering::Relaxed);
        PEAK[track].store(0, Ordering::Relaxed);
        LARGEST[track].store(0, Ordering::Relaxed);
    }
    GLOBAL_LIVE.store(0, Ordering::Relaxed);
    GLOBAL_PEAK.store(0, Ordering::Relaxed);
}

/// Allocation statistics for one stage (or one synthetic row).
///
/// `allocs`/`bytes` are the deterministic hard-gate columns; the rest are
/// warn-tier (see the crate docs for why).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageAlloc {
    /// Number of allocations charged to this stage.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Frees charged to this stage (the freeing thread's stage, which may
    /// differ from the allocating stage).
    pub frees: u64,
    /// Bytes released by those frees.
    pub freed_bytes: u64,
    /// Peak of this stage's attributed live bytes (allocated − freed; may
    /// ride on cross-stage frees, hence signed underneath). Warn-tier.
    pub peak_live_bytes: i64,
    /// Largest single allocation charged to this stage, bytes.
    pub largest_bytes: u64,
}

impl StageAlloc {
    /// Associative, commutative merge: sums for the flow counters, maxima
    /// for the peaks — the shard-merge operation, exposed so tests can
    /// check the algebra directly.
    pub fn merged(&self, other: &StageAlloc) -> StageAlloc {
        StageAlloc {
            allocs: self.allocs + other.allocs,
            bytes: self.bytes + other.bytes,
            frees: self.frees + other.frees,
            freed_bytes: self.freed_bytes + other.freed_bytes,
            peak_live_bytes: self.peak_live_bytes.max(other.peak_live_bytes),
            largest_bytes: self.largest_bytes.max(other.largest_bytes),
        }
    }
}

/// A merged snapshot of the profiler's counters (see [`snapshot`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Per-stage statistics, keyed by span name.
    pub stages: BTreeMap<String, StageAlloc>,
    /// Allocations made with no open span or under suspended attribution
    /// (observability/pool infrastructure, harness threads). No gate
    /// compares this row.
    pub unattributed: StageAlloc,
    /// Allocations whose stage could not be slotted (name-table overflow;
    /// zero in any sane configuration).
    pub overflow: StageAlloc,
    /// Process-wide peak of live heap bytes while recording (not the sum
    /// of per-stage peaks). Warn-tier.
    pub peak_live_bytes: i64,
}

fn track_stats(track: usize) -> StageAlloc {
    let mut out = StageAlloc::default();
    // Merge shards in index order: fixed order keeps the (commutative)
    // sums trivially reproducible and mirrors uniq-profile's report.
    for shard in &SHARD_COUNTERS {
        out.allocs += shard.allocs[track].load(Ordering::Relaxed);
        out.bytes += shard.bytes[track].load(Ordering::Relaxed);
        out.frees += shard.frees[track].load(Ordering::Relaxed);
        out.freed_bytes += shard.freed_bytes[track].load(Ordering::Relaxed);
    }
    out.peak_live_bytes = PEAK[track].load(Ordering::Relaxed);
    out.largest_bytes = LARGEST[track].load(Ordering::Relaxed);
    out
}

/// Merges all shards into an exportable snapshot. Stages appear in name
/// order regardless of slot-claim order, so output is deterministic.
pub fn snapshot() -> AllocSnapshot {
    let mut stages = BTreeMap::new();
    for (idx, slot) in NAMES.iter().enumerate() {
        let ptr = slot.ptr.load(Ordering::Acquire);
        if ptr.is_null() || std::ptr::eq(ptr, CLAIMING) {
            continue;
        }
        let len = slot.len.load(Ordering::Relaxed);
        // SAFETY: `ptr`/`len` were published from a live `&'static str`
        // (see `track_for`), so the bytes are initialized, immutable,
        // 'static UTF-8.
        let name = unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, len)) };
        let stats = track_stats(idx);
        if stats != StageAlloc::default() {
            stages.insert(name.to_string(), stats);
        }
    }
    AllocSnapshot {
        stages,
        unattributed: track_stats(UNATTRIBUTED),
        overflow: track_stats(OVERFLOW),
        peak_live_bytes: GLOBAL_PEAK.load(Ordering::Relaxed),
    }
}

/// Runs `f` with the profiler recording into freshly zeroed counters and
/// returns its result alongside the resulting snapshot. The enabled flag
/// is restored afterwards. Counters are process-global: concurrent
/// `measure` calls interleave, so gate-grade callers serialize.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocSnapshot) {
    let was_enabled = enabled();
    reset();
    start();
    let value = f();
    if !was_enabled {
        stop();
    }
    (value, snapshot())
}

impl AllocSnapshot {
    /// Looks up one stage by span name.
    pub fn stage(&self, name: &str) -> Option<&StageAlloc> {
        self.stages.get(name)
    }

    /// The deterministic totals across attributed stages (sum of
    /// count/bytes/frees; max of largest). Excludes the unattributed and
    /// overflow rows by construction.
    pub fn total(&self) -> StageAlloc {
        let mut out = StageAlloc::default();
        for stats in self.stages.values() {
            out = out.merged(stats);
        }
        out
    }

    /// Emits the snapshot's summary into the active `uniq-obs` sink under
    /// the registered `alloc.*` names (wrapped in the
    /// [`uniq_obs::names::SPAN_ALLOC_SNAPSHOT`] span), so allocation
    /// aggregates flow into the telemetry registry, the Prometheus
    /// expose, and JSONL traces exactly like every other plane.
    pub fn emit_obs_summary(&self) {
        use uniq_obs::names;
        let _span = uniq_obs::span(names::SPAN_ALLOC_SNAPSHOT);
        let total = self.total();
        uniq_obs::counter(names::ALLOC_TOTAL_COUNT, total.allocs);
        uniq_obs::counter(names::ALLOC_TOTAL_BYTES, total.bytes);
        uniq_obs::counter(names::ALLOC_TOTAL_FREES, total.frees);
        uniq_obs::metric(
            names::ALLOC_PEAK_LIVE_BYTES,
            self.peak_live_bytes.max(0) as f64,
            "bytes",
        );
        uniq_obs::metric(
            names::ALLOC_LARGEST_SINGLE_BYTES,
            total.largest_bytes as f64,
            "bytes",
        );
        uniq_obs::metric(
            names::ALLOC_UNATTRIBUTED_BYTES,
            self.unattributed.bytes as f64,
            "bytes",
        );
    }

    /// Human-readable per-stage table, matching the tone of
    /// `uniq-profile`'s latency table:
    ///
    /// ```text
    /// per-stage allocations:
    ///   stage                          allocs      bytes      frees  peak-live    largest
    ///   personalize                        12      18432         10      16384       8192
    ///   ...
    ///   (unattributed)                    340     122880        338      65536       4096
    /// peak live: 1.2 MB
    /// ```
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("per-stage allocations:\n");
        out.push_str(&format!(
            "  {:<30} {:>8} {:>12} {:>8} {:>12} {:>10}\n",
            "stage", "allocs", "bytes", "frees", "peak-live", "largest"
        ));
        let mut row = |label: &str, s: &StageAlloc| {
            out.push_str(&format!(
                "  {:<30} {:>8} {:>12} {:>8} {:>12} {:>10}\n",
                label, s.allocs, s.bytes, s.frees, s.peak_live_bytes, s.largest_bytes
            ));
        };
        for (name, stats) in &self.stages {
            row(name, stats);
        }
        if self.unattributed != StageAlloc::default() {
            row("(unattributed)", &self.unattributed);
        }
        if self.overflow != StageAlloc::default() {
            row("(overflow)", &self.overflow);
        }
        out.push_str(&format!("peak live: {} bytes\n", self.peak_live_bytes));
        out
    }

    /// Machine-readable JSON (schema [`ALLOC_SCHEMA_VERSION`]); parse it
    /// back with [`uniq_obs::json::Json::parse`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"schema_version\": {ALLOC_SCHEMA_VERSION},\n  \"stages\": ["
        ));
        let stage_json = |name: &str, s: &StageAlloc| {
            format!(
                "\n    {{\"name\": \"{}\", \"allocs\": {}, \"bytes\": {}, \"frees\": {}, \
                 \"freed_bytes\": {}, \"peak_live_bytes\": {}, \"largest_bytes\": {}}}",
                json_escape(name),
                s.allocs,
                s.bytes,
                s.frees,
                s.freed_bytes,
                s.peak_live_bytes,
                s.largest_bytes
            )
        };
        for (i, (name, stats)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&stage_json(name, stats));
        }
        out.push_str("\n  ],");
        out.push_str(&format!(
            "\n  \"unattributed\": {},",
            stage_json("(unattributed)", &self.unattributed).trim_start_matches(['\n', ' '])
        ));
        out.push_str(&format!(
            "\n  \"overflow\": {},",
            stage_json("(overflow)", &self.overflow).trim_start_matches(['\n', ' '])
        ));
        out.push_str(&format!(
            "\n  \"peak_live_bytes\": {}\n}}\n",
            self.peak_live_bytes
        ));
        out
    }

    /// CSV export (one row per stage plus the synthetic rows), the format
    /// the `alloc-profile` experiment writes to `bench_results/`.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("stage,allocs,bytes,frees,freed_bytes,peak_live_bytes,largest_bytes\n");
        let mut row = |label: &str, s: &StageAlloc| {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                label,
                s.allocs,
                s.bytes,
                s.frees,
                s.freed_bytes,
                s.peak_live_bytes,
                s.largest_bytes
            ));
        };
        for (name, stats) in &self.stages {
            row(name, stats);
        }
        row("(unattributed)", &self.unattributed);
        row("(overflow)", &self.overflow);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counters are process-global; tests that measure serialize here.
    static MEASURE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn track_for_same_name_same_slot() {
        let a = track_for("memprof.test.stage.a");
        let b = track_for("memprof.test.stage.a");
        assert_eq!(a, b);
        let c = track_for("memprof.test.stage.b");
        assert_ne!(a, c);
    }

    #[test]
    fn merge_is_associative_and_commutative_on_samples() {
        let a = StageAlloc {
            allocs: 1,
            bytes: 100,
            frees: 1,
            freed_bytes: 50,
            peak_live_bytes: 70,
            largest_bytes: 100,
        };
        let b = StageAlloc {
            allocs: 3,
            bytes: 10,
            frees: 0,
            freed_bytes: 0,
            peak_live_bytes: 10,
            largest_bytes: 6,
        };
        let c = StageAlloc {
            allocs: 0,
            bytes: 0,
            frees: 9,
            freed_bytes: 900,
            peak_live_bytes: 0,
            largest_bytes: 0,
        };
        assert_eq!(a.merged(&b), b.merged(&a));
        assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
    }

    #[test]
    fn snapshot_round_trips_through_json_parser() {
        let _serial = MEASURE_LOCK.lock().unwrap();
        let mut snap = AllocSnapshot::default();
        snap.stages.insert(
            "fusion".to_string(),
            StageAlloc {
                allocs: 4,
                bytes: 4096,
                frees: 2,
                freed_bytes: 2048,
                peak_live_bytes: 2048,
                largest_bytes: 1024,
            },
        );
        snap.peak_live_bytes = 9000;
        let doc = uniq_obs::json::Json::parse(&snap.to_json()).expect("self-emitted JSON");
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(ALLOC_SCHEMA_VERSION)
        );
        let stages = doc.get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].get("name").unwrap().as_str(), Some("fusion"));
        assert_eq!(stages[0].get("bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(doc.get("peak_live_bytes").unwrap().as_u64(), Some(9000));
        assert!(doc.get("unattributed").is_some());
    }

    #[test]
    fn csv_and_table_render_every_stage() {
        let mut snap = AllocSnapshot::default();
        snap.stages
            .insert("session".to_string(), StageAlloc::default());
        snap.stages.insert(
            "fusion".to_string(),
            StageAlloc {
                allocs: 1,
                bytes: 64,
                ..StageAlloc::default()
            },
        );
        let csv = snap.to_csv();
        assert!(csv.starts_with("stage,allocs,bytes"));
        assert!(csv.contains("fusion,1,64"));
        assert!(csv.contains("(unattributed)"));
        let table = snap.render_table();
        assert!(table.contains("per-stage allocations:"));
        assert!(table.contains("fusion"));
    }

    // Note: tests exercising the live hook (counting real allocations)
    // live in the workspace `memprof` integration test, whose binary
    // installs the `#[global_allocator]`; unit tests here cannot, because
    // every test binary in this crate shares the default allocator.

    #[test]
    fn measure_without_installed_allocator_reports_empty() {
        let _serial = MEASURE_LOCK.lock().unwrap();
        let ((), snap) = measure(|| {
            let v: Vec<u64> = (0..100).collect();
            std::hint::black_box(&v);
        });
        // No #[global_allocator] in this binary: nothing recorded.
        assert!(!installed());
        assert_eq!(snap.total(), StageAlloc::default());
    }
}
