//! # uniq-profile
//!
//! The observability registry over `uniq-obs`: [`ProfileSink`] implements
//! [`uniq_obs::sink::Sink`] and is the one place the event stream is
//! aggregated. It folds spans into per-stage latency statistics — count,
//! total, min/max and p50/p90/p99 from log-bucketed histograms
//! ([`uniq_obs::report::LogHistogram`]) — with per-thread attribution so
//! `uniq-par` worker imbalance is visible, per-call-path self time for
//! flamegraphs, counter totals, and count/sum/min/max metric aggregates.
//! Zero external dependencies.
//!
//! Four exporters ship on [`ProfileReport`]:
//!
//! - [`ProfileReport::render_table`] — a human-readable table (also the
//!   `Display` impl), printed by `uniq <command> --profile` and as the
//!   `--trace` end-of-run summary;
//! - [`ProfileReport::to_json`] — machine-readable, consumed by the
//!   benchmark baseline comparator and the CI `verify-profile` smoke
//!   (parse it back with [`uniq_obs::json::Json`]);
//! - [`ProfileReport::collapsed_stacks`] — Brendan-Gregg collapsed-stack
//!   lines (`path;to;frame self_nanos`), ready for `flamegraph.pl` or any
//!   compatible renderer;
//! - [`ProfileReport::prometheus`] — Prometheus-style exposition text.
//!
//! When a `uniq-memprof` [`uniq_memprof::AllocSnapshot`] is attached with
//! [`ProfileReport::attach_alloc`], the same report additionally carries
//! per-stage allocation counts/bytes: the table grows `allocs`/`alloc-b`
//! columns, the JSON gains an `"alloc"` object, and
//! [`ProfileReport::alloc_collapsed_stacks`] exports a *bytes*-weighted
//! collapsed-stack view (same paths as the latency flame, weighted by
//! allocated bytes instead of self time).
//!
//! [`trace`] reads the other half of a run's record: it rebuilds the
//! causal span tree from a `--metrics-out` JSONL file and reports the
//! critical path and per-stage self time (`uniq trace report`).
//!
//! Like every sink, the registry only observes: the pipeline's numeric
//! output is bit-identical with or without a `ProfileSink` installed
//! (asserted by the workspace `profiling` integration test).
//!
//! ## Registry model
//!
//! 1. **Per-worker shards.** Shard 0 takes events delivered on threads
//!    outside any pool (label `main`), shard `1 + i` those of pool worker
//!    `i` (label `worker-<i>`). Recording takes the emitting thread's
//!    shard mutex, which is uncontended in steady state (span events also
//!    take the path table's, item 5), and the shard index *is* the
//!    attribution label — no label is built per event. A pool caller
//!    running its map's jobs while it waits is `main`, as in uniq-par's
//!    design. Worker indices are per-pool, so two pools' workers share
//!    labels, and workers past the last shard share by index modulo; both
//!    are acceptable for an imbalance overview.
//! 2. **Registered names only.** Spans outside
//!    [`uniq_obs::names::ALL_SPANS`] and counters/metrics outside
//!    [`uniq_obs::names::ALL_METRICS`] are not aggregated; they are counted
//!    in [`ProfileReport::dropped`] so a typo is visible rather than
//!    silently creating a new series.
//! 3. **Deterministic aggregate.** Counter totals, span counts, call-path
//!    counts and metric min/max do not depend on the shard a sample
//!    landed in, so
//!    [`ProfileReport::determinism_key`] is bit-identical across thread
//!    counts for a deterministic workload.
//! 4. **Self-accounting.** The sink times its own event handling, call
//!    paths included, and reports the total as
//!    [`ProfileReport::overhead_ns`] and the `obs.telemetry_overhead_ns`
//!    metric.
//! 5. **Call paths from span ids.** One sink-wide path trie and a table
//!    of open spans keyed by span id: a span's path is its parent span's
//!    path plus its own name, on whatever thread either ran, so a seeded
//!    run writes the same paths and counts at every pool size. A parent
//!    the sink never saw (it was installed mid-span) roots the span. Self
//!    time is not recomputed here: it is the event's `self_nanos`, which
//!    `uniq-obs` measures once per span.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trace;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use uniq_obs::names::{
    ALLOC_LARGEST_SINGLE_BYTES, ALLOC_PEAK_LIVE_BYTES, ALLOC_UNATTRIBUTED_BYTES, ALL_METRICS,
    ALL_SPANS, BATCH_SUBJECT_SECONDS, OBS_TELEMETRY_OVERHEAD_NS, SERVE_REQUEST_SECONDS,
};
use uniq_obs::report::LogHistogram;
use uniq_obs::sink::{human_duration, json_escape, json_number, Sink};
use uniq_obs::{Event, Stopwatch};

/// Schema stamp on [`ProfileReport::to_json`] output; bump on any
/// incompatible shape change so downstream readers can refuse early.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// Shard count: `main` plus 64 pool workers.
const SHARDS: usize = 65;

/// Metric names whose *values* are wall-clock or scheduling-dependent
/// measurements. Their sample counts are deterministic but their values
/// are not, so [`ProfileReport::determinism_key`] covers only their
/// counts. The `alloc.*` entries are the memory-profile series whose
/// values depend on thread interleaving (peak overlap, infrastructure
/// allocation); the deterministic alloc totals arrive as *counters* and
/// are covered in full.
const TIMING_METRICS: &[&str] = &[
    BATCH_SUBJECT_SECONDS,
    OBS_TELEMETRY_OVERHEAD_NS,
    ALLOC_PEAK_LIVE_BYTES,
    ALLOC_LARGEST_SINGLE_BYTES,
    ALLOC_UNATTRIBUTED_BYTES,
    SERVE_REQUEST_SECONDS,
];

/// The shard events delivered on the current thread record into.
fn shard_index() -> usize {
    match uniq_par::current_worker() {
        Some((_pool, worker)) => 1 + worker % (SHARDS - 1),
        None => 0,
    }
}

/// The attribution label of shard `index`.
fn shard_label(index: usize) -> String {
    match index {
        0 => "main".to_string(),
        i => format!("worker-{}", i - 1),
    }
}

/// The sink-wide call-path trie, plus the node of every open span keyed
/// by span id: a span's path is its parent span's path plus its own name,
/// whichever threads the two ran on.
#[derive(Debug, Default)]
struct Paths {
    /// One node per path, its joined name built once, when first seen.
    nodes: Vec<PathProfile>,
    node_ids: HashMap<(Option<usize>, &'static str), usize>,
    /// Open span id → node.
    open: HashMap<u64, usize>,
}

impl Paths {
    /// The node of `name` under the open span `parent`. A parent not open
    /// here (a root's parent 0, or one opened before the sink was
    /// installed) roots it.
    fn child_of(&mut self, parent: u64, name: &'static str) -> usize {
        let parent = self.open.get(&parent).copied();
        let nodes = &mut self.nodes;
        *self.node_ids.entry((parent, name)).or_insert_with(|| {
            let path = match parent {
                Some(p) => format!("{};{name}", nodes[p].path),
                None => name.to_string(),
            };
            nodes.push(PathProfile {
                path,
                self_nanos: 0,
                total_nanos: 0,
                count: 0,
            });
            nodes.len() - 1
        })
    }

    fn record(&mut self, event: &Event) {
        match *event {
            Event::SpanStart { name, ids, .. } => {
                let node = self.child_of(ids.parent, name);
                self.open.insert(ids.span, node);
            }
            Event::SpanEnd {
                name,
                nanos,
                self_nanos,
                ids,
                ..
            } => {
                // An end without its start: the sink was installed mid-span.
                let node = (self.open.remove(&ids.span))
                    .unwrap_or_else(|| self.child_of(ids.parent, name));
                let node = &mut self.nodes[node];
                node.self_nanos += self_nanos;
                node.total_nanos += nanos;
                node.count += 1;
            }
            Event::Counter { .. } | Event::Metric { .. } => {}
        }
    }

    /// Every path some span closed on, sorted by path.
    fn profiles(&self) -> Vec<PathProfile> {
        let mut paths: Vec<PathProfile> =
            self.nodes.iter().filter(|p| p.count > 0).cloned().collect();
        paths.sort_by(|a, b| a.path.cmp(&b.path));
        paths
    }
}

/// Count/total/histogram for one stage, on one shard or merged.
#[derive(Debug, Default)]
struct StageAgg {
    /// Minimum nesting depth seen (for table indentation).
    depth: usize,
    count: u64,
    total_nanos: u128,
    hist: LogHistogram,
}

impl StageAgg {
    fn new(depth: usize) -> Self {
        StageAgg {
            depth,
            ..StageAgg::default()
        }
    }

    fn record(&mut self, depth: usize, nanos: u128) {
        self.depth = self.depth.min(depth);
        self.count += 1;
        self.total_nanos += nanos;
        // Saturate rather than wrap — a >584-year span is already wrong.
        self.hist.record(u64::try_from(nanos).unwrap_or(u64::MAX));
    }

    fn merge(&mut self, other: &StageAgg) {
        self.depth = self.depth.min(other.depth);
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.hist.merge(&other.hist);
    }
}

#[derive(Debug, Default)]
struct Shard {
    stages: BTreeMap<&'static str, StageAgg>,
    /// Sum of span *self* times recorded here — each nanosecond of busy
    /// work counted exactly once, so thread rows are comparable even
    /// though spans nest.
    busy_nanos: u128,
    spans: u64,
    counters: BTreeMap<&'static str, u64>,
    metrics: BTreeMap<&'static str, MetricProfile>,
}

impl Shard {
    fn record(&mut self, event: &Event) {
        match *event {
            Event::SpanStart { .. } => {}
            Event::SpanEnd {
                name,
                depth,
                nanos,
                self_nanos,
                ..
            } => {
                self.stages
                    .entry(name)
                    .or_insert_with(|| StageAgg::new(depth))
                    .record(depth, nanos);
                self.busy_nanos += self_nanos;
                self.spans += 1;
            }
            Event::Counter { name, delta } => *self.counters.entry(name).or_insert(0) += delta,
            Event::Metric { name, value, unit } => {
                self.metrics
                    .entry(name)
                    .and_modify(|m| m.record(value))
                    .or_insert_with(|| MetricProfile::first(name, unit, value));
            }
        }
    }
}

/// The [`Sink`] that aggregates the event stream into a
/// [`ProfileReport`]; see the crate docs for the registry model.
///
/// Install it like any sink — [`uniq_obs::with_sink`] for a scope,
/// [`uniq_obs::set_global_sink`] (usually inside a
/// [`uniq_obs::sink::MultiSink`]) for a whole process — run the workload,
/// then call [`ProfileSink::report`].
///
/// ```
/// use std::sync::Arc;
/// use uniq_profile::ProfileSink;
///
/// let profile = Arc::new(ProfileSink::new());
/// uniq_obs::with_sink(profile.clone(), || {
///     let _span = uniq_obs::span(uniq_obs::names::SPAN_FUSION);
/// });
/// let report = profile.report();
/// assert_eq!(report.stages.len(), 1);
/// assert_eq!(report.stages[0].count, 1);
/// ```
#[derive(Debug)]
pub struct ProfileSink {
    shards: Vec<Mutex<Shard>>,
    paths: Mutex<Paths>,
    overhead_ns: AtomicU64,
    dropped: AtomicU64,
}

impl Default for ProfileSink {
    fn default() -> Self {
        ProfileSink {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            paths: Mutex::new(Paths::default()),
            overhead_ns: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }
}

impl ProfileSink {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ProfileSink::default()
    }

    fn paths(&self) -> MutexGuard<'_, Paths> {
        self.paths.lock().expect("profile paths poisoned")
    }

    /// The shard events delivered on the current thread record into.
    fn shard(&self) -> MutexGuard<'_, Shard> {
        self.shards[shard_index()]
            .lock()
            .expect("profile shard poisoned")
    }

    /// Merges every shard into an exportable report, appending the
    /// sink's own accumulated cost as the `obs.telemetry_overhead_ns`
    /// metric. Stages are sorted by (depth, name), per-thread rows in
    /// shard order (`main`, then workers by index), everything else by
    /// name — deterministic regardless of event arrival order.
    pub fn report(&self) -> ProfileReport {
        let mut stages: BTreeMap<&str, (StageAgg, Vec<StageThreadRow>)> = BTreeMap::new();
        let mut threads = Vec::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut metrics: BTreeMap<&str, MetricProfile> = BTreeMap::new();
        for (index, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock().expect("profile shard poisoned");
            let label = shard_label(index);
            for (&name, agg) in &shard.stages {
                let (all, rows) = stages
                    .entry(name)
                    .or_insert_with(|| (StageAgg::new(agg.depth), Vec::new()));
                all.merge(agg);
                rows.push(StageThreadRow {
                    thread: label.clone(),
                    count: agg.count,
                    total_nanos: agg.total_nanos,
                    p50_nanos: agg.hist.percentile(50.0),
                });
            }
            if shard.spans > 0 {
                threads.push(ThreadProfile {
                    thread: label,
                    busy_nanos: shard.busy_nanos,
                    spans: shard.spans,
                });
            }
            for (&name, &total) in &shard.counters {
                *counters.entry(name.to_string()).or_insert(0) += total;
            }
            for (&name, m) in &shard.metrics {
                metrics
                    .entry(name)
                    .and_modify(|mine| mine.merge(m))
                    .or_insert_with(|| m.clone());
            }
        }
        let overhead_ns = self.overhead_ns.load(Ordering::Relaxed);
        metrics.insert(
            OBS_TELEMETRY_OVERHEAD_NS,
            MetricProfile::first(OBS_TELEMETRY_OVERHEAD_NS, "ns", overhead_ns as f64),
        );
        let mut stages: Vec<StageProfile> = stages
            .into_iter()
            .map(|(name, (all, threads))| StageProfile {
                name: name.to_string(),
                depth: all.depth,
                count: all.count,
                total_nanos: all.total_nanos,
                min_nanos: all.hist.min(),
                p50_nanos: all.hist.percentile(50.0),
                p90_nanos: all.hist.percentile(90.0),
                p99_nanos: all.hist.percentile(99.0),
                max_nanos: all.hist.max(),
                threads,
            })
            .collect();
        stages.sort_by(|a, b| a.depth.cmp(&b.depth).then_with(|| a.name.cmp(&b.name)));
        ProfileReport {
            stages,
            threads,
            paths: self.paths().profiles(),
            counters,
            metrics: metrics.into_values().collect(),
            overhead_ns,
            dropped: self.dropped.load(Ordering::Relaxed),
            alloc: None,
        }
    }
}

impl Sink for ProfileSink {
    fn on_event(&self, event: &Event) {
        let sw = Stopwatch::start();
        let registered = match event {
            Event::SpanStart { name, .. } | Event::SpanEnd { name, .. } => ALL_SPANS.contains(name),
            Event::Counter { name, .. } | Event::Metric { name, .. } => ALL_METRICS.contains(name),
        };
        if registered {
            match event {
                Event::SpanStart { .. } => self.paths().record(event),
                Event::SpanEnd { .. } => {
                    self.paths().record(event);
                    self.shard().record(event);
                }
                Event::Counter { .. } | Event::Metric { .. } => self.shard().record(event),
            }
        } else if !matches!(event, Event::SpanStart { .. }) {
            // One drop per unregistered span (at its end), counter bump
            // or metric sample.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.overhead_ns
            .fetch_add((sw.elapsed_seconds() * 1e9) as u64, Ordering::Relaxed);
    }
}

/// Per-thread latency slice of one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageThreadRow {
    /// Attribution label: `main` or `worker-<i>`.
    pub thread: String,
    /// Samples delivered on this thread.
    pub count: u64,
    /// Total nanoseconds of those samples.
    pub total_nanos: u128,
    /// Median nanoseconds of those samples.
    pub p50_nanos: u64,
}

/// Aggregated latency statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Span name (see `uniq_obs::names`).
    pub name: String,
    /// Minimum nesting depth observed (indentation hint).
    pub depth: usize,
    /// Number of completed spans.
    pub count: u64,
    /// Total wall nanoseconds across all spans.
    pub total_nanos: u128,
    /// Fastest span, nanoseconds (exact).
    pub min_nanos: u64,
    /// Median span, nanoseconds (log-bucketed, ≤ ~0.4% relative error).
    pub p50_nanos: u64,
    /// 90th-percentile span, nanoseconds.
    pub p90_nanos: u64,
    /// 99th-percentile span, nanoseconds.
    pub p99_nanos: u64,
    /// Slowest span, nanoseconds (exact).
    pub max_nanos: u64,
    /// Per-thread breakdown, in shard order.
    pub threads: Vec<StageThreadRow>,
}

/// Busy-time summary for one attribution label.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadProfile {
    /// Attribution label: `main` or `worker-<i>`.
    pub thread: String,
    /// Sum of span self times delivered on this thread (each busy
    /// nanosecond counted once despite nesting).
    pub busy_nanos: u128,
    /// Spans closed on this thread.
    pub spans: u64,
}

/// Self/total time for one call path (`;`-joined span names).
#[derive(Debug, Clone, PartialEq)]
pub struct PathProfile {
    /// Root-to-leaf span names joined with `;` (collapsed-stack syntax).
    pub path: String,
    /// Nanoseconds in this path excluding child spans.
    pub self_nanos: u128,
    /// Nanoseconds in this path including child spans.
    pub total_nanos: u128,
    /// Times the leaf span closed on this path.
    pub count: u64,
}

/// Streaming aggregate of one metric series: count, sum, min, max.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricProfile {
    /// Metric name (see `uniq_obs::names`).
    pub name: String,
    /// Unit label of the first sample.
    pub unit: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (shard merge order affects the low bits, so it
    /// stays out of [`ProfileReport::determinism_key`]).
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl MetricProfile {
    fn first(name: &str, unit: &str, v: f64) -> Self {
        MetricProfile {
            name: name.to_string(),
            unit: unit.to_string(),
            count: 1,
            sum: v,
            min: v,
            max: v,
        }
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &MetricProfile) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The exportable registry snapshot (see [`ProfileSink::report`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Per-stage statistics, sorted by (depth, name).
    pub stages: Vec<StageProfile>,
    /// Per-thread busy time, in shard order.
    pub threads: Vec<ThreadProfile>,
    /// Per-call-path self time, sorted by path.
    pub paths: Vec<PathProfile>,
    /// Counter totals, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Metric aggregates, sorted by name (includes
    /// `obs.telemetry_overhead_ns`).
    pub metrics: Vec<MetricProfile>,
    /// Nanoseconds the sink spent handling events.
    pub overhead_ns: u64,
    /// Events discarded because their name was not registered.
    pub dropped: u64,
    /// Optional memory profile for the same run (see
    /// [`ProfileReport::attach_alloc`]). `None` unless the process ran
    /// with the `uniq-memprof` counting allocator enabled.
    pub alloc: Option<uniq_memprof::AllocSnapshot>,
}

impl ProfileReport {
    /// Looks up one stage by span name.
    pub fn stage(&self, name: &str) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Looks up one metric aggregate by name.
    pub fn metric(&self, name: &str) -> Option<&MetricProfile> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Attaches a memory profile captured over the same run. The table,
    /// JSON and flame exporters then include allocation data; stages
    /// present in the snapshot but absent from the latency profile (e.g.
    /// allocations under a span the sink never saw) still appear in the
    /// JSON via the embedded snapshot.
    pub fn attach_alloc(&mut self, snapshot: uniq_memprof::AllocSnapshot) {
        self.alloc = Some(snapshot);
    }

    /// A canonical string covering every scheduling-independent aggregate:
    /// counter totals, span counts, call-path counts, and metric counts
    /// plus min/max bits (sums are excluded because shard merge order
    /// varies with the thread count, and wall-clock-valued series
    /// contribute counts only).
    /// Two runs of the same seeded workload produce equal keys at any
    /// thread count.
    pub fn determinism_key(&self) -> String {
        let mut lines = Vec::new();
        for (name, total) in &self.counters {
            lines.push(format!("counter {name} total={total}"));
        }
        let mut spans: Vec<(&str, u64)> = self
            .stages
            .iter()
            .map(|s| (s.name.as_str(), s.count))
            .collect();
        spans.sort_unstable();
        for (name, count) in spans {
            lines.push(format!("span {name} count={count}"));
        }
        for p in &self.paths {
            lines.push(format!("path {} count={}", p.path, p.count));
        }
        for m in &self.metrics {
            if TIMING_METRICS.contains(&m.name.as_str()) {
                lines.push(format!("metric {} count={}", m.name, m.count));
            } else {
                lines.push(format!(
                    "metric {} count={} min={:016x} max={:016x}",
                    m.name,
                    m.count,
                    m.min.to_bits(),
                    m.max.to_bits()
                ));
            }
        }
        lines.join("\n")
    }

    /// The human-readable per-stage table (also the `Display` impl):
    ///
    /// ```text
    /// per-stage wall clock:
    ///   stage                          count      total        p50        p90        p99        max
    ///   personalize                        1     2.31s      2.31s      2.31s      2.31s      2.31s
    ///     session                          1   812.4ms    812.4ms    812.4ms    812.4ms    812.4ms
    ///       channel.estimate              12    40.1ms      3.3ms      3.6ms      3.8ms      3.8ms
    ///         [main]                       8    26.7ms      3.3ms
    ///         [worker-0]                   4    13.4ms      3.4ms
    /// threads:
    ///   main        busy 2.29s over 22 spans
    ///   worker-0    busy 13.4ms over 4 spans
    /// counters:
    ///   session.stops                  12
    /// metrics:
    ///   fusion.mean_residual_deg       2.3140 deg
    ///   channel.first_tap_snr_db       n=12 mean 31.2040 min 28.1000 max 33.9000 dB
    /// ```
    ///
    /// Per-thread subrows appear only for stages that ran on more than
    /// one thread, so single-threaded output stays compact.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("per-stage wall clock:\n");
        out.push_str(&format!(
            "  {:<30} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "total", "p50", "p90", "p99", "max"
        ));
        if self.alloc.is_some() {
            out.push_str(&format!(" {:>8} {:>12}", "allocs", "alloc-b"));
        }
        out.push('\n');
        for stage in &self.stages {
            let label = format!("{}{}", "  ".repeat(stage.depth), stage.name);
            out.push_str(&format!(
                "  {:<30} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
                label,
                stage.count,
                human_duration(stage.total_nanos),
                human_duration(u128::from(stage.p50_nanos)),
                human_duration(u128::from(stage.p90_nanos)),
                human_duration(u128::from(stage.p99_nanos)),
                human_duration(u128::from(stage.max_nanos)),
            ));
            if let Some(snap) = &self.alloc {
                match snap.stage(&stage.name) {
                    Some(a) => out.push_str(&format!(" {:>8} {:>12}", a.allocs, a.bytes)),
                    None => out.push_str(&format!(" {:>8} {:>12}", "-", "-")),
                }
            }
            out.push('\n');
            if stage.threads.len() > 1 {
                for row in &stage.threads {
                    let label = format!("{}[{}]", "  ".repeat(stage.depth + 1), row.thread);
                    out.push_str(&format!(
                        "  {:<30} {:>6} {:>10} {:>10}\n",
                        label,
                        row.count,
                        human_duration(row.total_nanos),
                        human_duration(u128::from(row.p50_nanos)),
                    ));
                }
            }
        }
        if !self.threads.is_empty() {
            out.push_str("threads:\n");
            for t in &self.threads {
                out.push_str(&format!(
                    "  {:<11} busy {} over {} span{}\n",
                    t.thread,
                    human_duration(t.busy_nanos),
                    t.spans,
                    if t.spans == 1 { "" } else { "s" },
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, total) in &self.counters {
                out.push_str(&format!("  {name:<30} {total}\n"));
            }
        }
        if !self.metrics.is_empty() {
            out.push_str("metrics:\n");
            for m in &self.metrics {
                let line = if m.count == 1 {
                    format!("  {:<30} {:.4} {}", m.name, m.sum, m.unit)
                } else {
                    format!(
                        "  {:<30} n={} mean {:.4} min {:.4} max {:.4} {}",
                        m.name,
                        m.count,
                        m.mean(),
                        m.min,
                        m.max,
                        m.unit
                    )
                };
                out.push_str(line.trim_end());
                out.push('\n');
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "dropped: {} event(s) with unregistered names\n",
                self.dropped
            ));
        }
        // The full memory table (frees, peak-live, largest, unattributed)
        // follows the latency table so `--memprof --profile` shows both
        // planes in one report.
        if let Some(snap) = &self.alloc {
            out.push_str(&snap.render_table());
        }
        out
    }

    /// Machine-readable JSON (schema [`PROFILE_SCHEMA_VERSION`]); parse
    /// it back with [`uniq_obs::json::Json::parse`]. All durations are integer
    /// nanoseconds.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"schema_version\": {PROFILE_SCHEMA_VERSION},\n  \"stages\": ["
        ));
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"depth\": {}, \"count\": {}, \"total_ns\": {}, \
                 \"min_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \
                 \"threads\": [{}]}}",
                json_escape(&s.name),
                s.depth,
                s.count,
                s.total_nanos,
                s.min_nanos,
                s.p50_nanos,
                s.p90_nanos,
                s.p99_nanos,
                s.max_nanos,
                s.threads
                    .iter()
                    .map(|t| format!(
                        "{{\"thread\": \"{}\", \"count\": {}, \"total_ns\": {}, \"p50_ns\": {}}}",
                        json_escape(&t.thread),
                        t.count,
                        t.total_nanos,
                        t.p50_nanos
                    ))
                    .collect::<Vec<_>>()
                    .join(", "),
            ));
        }
        out.push_str("\n  ],\n  \"threads\": [");
        for (i, t) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"thread\": \"{}\", \"busy_ns\": {}, \"spans\": {}}}",
                json_escape(&t.thread),
                t.busy_nanos,
                t.spans
            ));
        }
        out.push_str("\n  ],\n  \"counters\": {");
        for (i, (name, total)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), total));
        }
        out.push_str("\n  },\n  \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"unit\": \"{}\", \"count\": {}, \"sum\": {}, \"min\": {}, \
                 \"max\": {}}}",
                json_escape(&m.name),
                json_escape(&m.unit),
                m.count,
                json_number(m.sum),
                json_number(m.min),
                json_number(m.max),
            ));
        }
        out.push_str(&format!(
            "\n  }},\n  \"overhead_ns\": {},\n  \"dropped\": {}",
            self.overhead_ns, self.dropped
        ));
        // Additive: readers of schema 1 that ignore unknown keys keep
        // working; the embedded object is exactly
        // `uniq_memprof::AllocSnapshot::to_json` (its own schema stamp
        // included), so both exporters stay in lockstep.
        if let Some(snap) = &self.alloc {
            out.push_str(",\n  \"alloc\": ");
            out.push_str(snap.to_json().trim_end());
        }
        out.push_str("\n}\n");
        out
    }

    /// Prometheus-style exposition text: counters, metric summaries with
    /// quantile-labelled min/max, span latency summaries in nanoseconds,
    /// and the dropped-event counter. Dotted names map onto the
    /// Prometheus grammar as `uniq_<name with dots as underscores>`.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, total) in &self.counters {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} counter\n{p} {total}\n"));
        }
        for m in &self.metrics {
            let p = prom_name(&m.name);
            out.push_str(&format!(
                "# TYPE {p} summary\n\
                 {p}{{quantile=\"0\"}} {}\n\
                 {p}{{quantile=\"1\"}} {}\n\
                 {p}_sum {}\n\
                 {p}_count {}\n",
                prom_number(m.min),
                prom_number(m.max),
                prom_number(m.sum),
                m.count,
            ));
        }
        for s in &self.stages {
            let p = format!("{}_ns", prom_name(&s.name));
            out.push_str(&format!(
                "# TYPE {p} summary\n\
                 {p}{{quantile=\"0.5\"}} {}\n\
                 {p}{{quantile=\"0.99\"}} {}\n\
                 {p}_sum {}\n\
                 {p}_count {}\n",
                s.p50_nanos, s.p99_nanos, s.total_nanos, s.count,
            ));
        }
        out.push_str(&format!(
            "# TYPE uniq_telemetry_dropped_events counter\nuniq_telemetry_dropped_events {}\n",
            self.dropped
        ));
        out
    }

    /// Collapsed-stack lines (`span;child;leaf self_nanos`, one per call
    /// path), the input format of `flamegraph.pl` and compatible tools.
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            out.push_str(&format!("{} {}\n", p.path, p.self_nanos));
        }
        out
    }

    /// Bytes-weighted collapsed-stack lines: the attached
    /// [`uniq_memprof::AllocSnapshot`]'s per-stage allocated bytes mapped
    /// onto this report's call paths (`path;to;stage bytes`), so the same
    /// flamegraph tooling renders a memory flame next to the latency one.
    ///
    /// Per-stage bytes are attributed to the *hottest* latency path
    /// ending in that stage (highest sample count, ties broken by
    /// lexicographically smallest path — deterministic); stages the
    /// latency profile never saw fall back to a bare `stage bytes` line.
    /// Unattributed allocations (pool/sink infrastructure) appear as
    /// `(unattributed) bytes`. Returns an empty string when no snapshot
    /// is attached.
    pub fn alloc_collapsed_stacks(&self) -> String {
        let Some(snap) = &self.alloc else {
            return String::new();
        };
        let mut out = String::new();
        for (stage, alloc) in &snap.stages {
            if alloc.bytes == 0 && alloc.allocs == 0 {
                continue;
            }
            let best = self
                .paths
                .iter()
                .filter(|p| p.path.rsplit(';').next() == Some(stage.as_str()))
                .max_by(|a, b| a.count.cmp(&b.count).then_with(|| b.path.cmp(&a.path)));
            let path = best.map(|p| p.path.as_str()).unwrap_or(stage.as_str());
            out.push_str(&format!("{} {}\n", path, alloc.bytes));
        }
        if snap.unattributed.bytes > 0 {
            out.push_str(&format!("(unattributed) {}\n", snap.unattributed.bytes));
        }
        out
    }
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render_table())
    }
}

/// Maps a dotted registry name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("uniq_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus number formatting (no `null` — NaN spells itself).
fn prom_number(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uniq_obs::names::{
        FUSION_OBJECTIVE, GESTURE_RETRY, SESSION_STOPS, SPAN_CHANNEL_ESTIMATE, SPAN_FUSION,
        SPAN_PERSONALIZE, SPAN_SESSION, SPAN_STORE_VERIFY,
    };
    use uniq_obs::SpanIds;

    /// Registered names standing in for a root span and its child.
    const ROOT: &str = SPAN_PERSONALIZE;
    const CHILD: &str = SPAN_FUSION;

    /// Span `span` under span `parent` (0: a trace root).
    fn ids(span: u64, parent: u64) -> SpanIds {
        SpanIds {
            trace: 9,
            span,
            parent,
        }
    }

    fn start(name: &'static str, depth: usize, span: u64, parent: u64) -> Event {
        Event::SpanStart {
            name,
            depth,
            ids: ids(span, parent),
        }
    }

    fn end(name: &'static str, depth: usize, (span, parent): (u64, u64), nanos: u128) -> Event {
        end_with_self(name, depth, (span, parent), nanos, nanos)
    }

    fn end_with_self(
        name: &'static str,
        depth: usize,
        (span, parent): (u64, u64),
        nanos: u128,
        self_nanos: u128,
    ) -> Event {
        Event::SpanEnd {
            name,
            depth,
            nanos,
            self_nanos,
            ids: ids(span, parent),
        }
    }

    /// root(1000) { child(300), child(100) } — classic self-time split.
    fn feed_nested(sink: &ProfileSink) {
        for e in [
            start(ROOT, 0, 1, 0),
            start(CHILD, 1, 2, 1),
            end(CHILD, 1, (2, 1), 300),
            start(CHILD, 1, 3, 1),
            end(CHILD, 1, (3, 1), 100),
            end_with_self(ROOT, 0, (1, 0), 1000, 600),
        ] {
            sink.on_event(&e);
        }
    }

    #[test]
    fn self_time_accounting() {
        let sink = ProfileSink::new();
        feed_nested(&sink);
        let r = sink.report();

        let root = r.stage(ROOT).unwrap();
        assert_eq!((root.count, root.total_nanos, root.depth), (1, 1000, 0));
        let child = r.stage(CHILD).unwrap();
        assert_eq!(
            (
                child.count,
                child.total_nanos,
                child.min_nanos,
                child.max_nanos
            ),
            (2, 400, 100, 300)
        );

        // Paths: the root has the 600ns self its event carries, the child
        // keeps all 400 of its own.
        let by_path: BTreeMap<&str, &PathProfile> =
            r.paths.iter().map(|p| (p.path.as_str(), p)).collect();
        assert_eq!(by_path["personalize"].self_nanos, 600);
        assert_eq!(by_path["personalize"].total_nanos, 1000);
        assert_eq!(by_path["personalize;fusion"].self_nanos, 400);
        assert_eq!(by_path["personalize;fusion"].count, 2);

        // One thread (the test thread = "main"), busy = sum of self times
        // = 1000 exactly: no double counting across nesting.
        assert_eq!(r.threads.len(), 1);
        assert_eq!(r.threads[0].thread, "main");
        assert_eq!(r.threads[0].busy_nanos, 1000);
        assert_eq!(r.threads[0].spans, 3);
    }

    #[test]
    fn stages_sorted_by_depth_then_name() {
        let sink = ProfileSink::new();
        for e in [
            start(SPAN_STORE_VERIFY, 0, 1, 0),
            start(SPAN_SESSION, 1, 2, 1),
            end(SPAN_SESSION, 1, (2, 1), 10),
            start(SPAN_FUSION, 1, 3, 1),
            end(SPAN_FUSION, 1, (3, 1), 10),
            end_with_self(SPAN_STORE_VERIFY, 0, (1, 0), 100, 80),
        ] {
            sink.on_event(&e);
        }
        let report = sink.report();
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec![SPAN_STORE_VERIFY, SPAN_FUSION, SPAN_SESSION]);
    }

    #[test]
    fn percentiles_from_many_samples() {
        let sink = ProfileSink::new();
        sink.on_event(&start(ROOT, 0, 1, 0));
        for i in 1..=100u64 {
            sink.on_event(&start(CHILD, 1, 1 + i, 1));
            sink.on_event(&end(CHILD, 1, (1 + i, 1), u128::from(i) * 1_000_000));
        }
        sink.on_event(&end(ROOT, 0, (1, 0), 200_000_000));
        let s = sink.report().stage(CHILD).unwrap().clone();
        assert_eq!(s.count, 100);
        let tol = 1.0 / 200.0; // generous vs LogHistogram's 1/256 bound
        for (got, want) in [
            (s.p50_nanos, 50_000_000.0),
            (s.p90_nanos, 90_000_000.0),
            (s.p99_nanos, 99_000_000.0),
        ] {
            let err = (got as f64 - want).abs() / want;
            assert!(err <= tol, "{got} vs {want}: err {err}");
        }
        assert!(s.p50_nanos <= s.p90_nanos && s.p90_nanos <= s.p99_nanos);
        assert_eq!(s.max_nanos, 100_000_000);
        assert_eq!(s.min_nanos, 1_000_000);
    }

    #[test]
    fn aggregates_counters_and_metrics() {
        let sink = Arc::new(ProfileSink::new());
        uniq_obs::with_sink(sink.clone(), || {
            uniq_obs::counter(SESSION_STOPS, 3);
            uniq_obs::counter(SESSION_STOPS, 2);
            uniq_obs::metric(FUSION_OBJECTIVE, 4.0, "deg2");
            uniq_obs::metric(FUSION_OBJECTIVE, 2.0, "deg2");
        });
        let r = sink.report();
        assert_eq!(r.counters[SESSION_STOPS], 5);
        let m = r.metric(FUSION_OBJECTIVE).unwrap();
        assert_eq!((m.count, m.min, m.max, m.mean()), (2, 2.0, 4.0, 3.0));
        assert_eq!(m.unit, "deg2");
        assert!(r.stages.is_empty());
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn unregistered_names_are_dropped_and_counted() {
        let sink = Arc::new(ProfileSink::new());
        uniq_obs::with_sink(sink.clone(), || {
            uniq_obs::counter("made.up_counter", 1);
            uniq_obs::metric("made.up_metric", 1.0, "");
            let _root = uniq_obs::span(ROOT);
            let _s = uniq_obs::span("made.up_span");
        });
        let r = sink.report();
        assert!(r.counters.is_empty());
        // The unregistered span is neither a stage nor a path frame.
        assert_eq!(r.stages.len(), 1);
        assert_eq!(r.collapsed_stacks().lines().count(), 1);
        // Only the self-overhead metric survives.
        assert_eq!(r.metrics.len(), 1);
        assert!(r.metric(OBS_TELEMETRY_OVERHEAD_NS).is_some());
        assert_eq!(r.dropped, 3);
        assert!(r.render_table().contains("dropped: 3"));
    }

    #[test]
    fn end_without_start_is_tolerated() {
        // Sink installed mid-span: the end arrives without its start, and
        // its parent was never seen either, so it roots its own path. The
        // sample still counts, and what follows is unaffected.
        let sink = ProfileSink::new();
        sink.on_event(&end(SPAN_STORE_VERIFY, 3, (50, 40), 500));
        feed_nested(&sink);
        let r = sink.report();
        assert_eq!(r.stage(SPAN_STORE_VERIFY).unwrap().count, 1);
        assert_eq!(r.stage(ROOT).unwrap().total_nanos, 1000);
        let paths: Vec<(&str, u64)> = r.paths.iter().map(|p| (p.path.as_str(), p.count)).collect();
        assert_eq!(
            paths,
            [
                ("personalize", 1),
                ("personalize;fusion", 2),
                ("store.verify", 1)
            ]
        );
    }

    #[test]
    fn paths_follow_span_ids_not_event_order() {
        // Two items of one map, run by two threads: their events arrive
        // interleaved, and each child's path is still its id parent's.
        let sink = ProfileSink::new();
        for e in [
            start(ROOT, 0, 1, 0),
            start(SPAN_SESSION, 1, 2, 1),
            start(SPAN_SESSION, 1, 3, 1),
            start(SPAN_CHANNEL_ESTIMATE, 2, 4, 3),
            start(SPAN_CHANNEL_ESTIMATE, 2, 5, 2),
            end(SPAN_CHANNEL_ESTIMATE, 2, (4, 3), 10),
            end(SPAN_SESSION, 1, (3, 1), 20),
            end(SPAN_CHANNEL_ESTIMATE, 2, (5, 2), 10),
            end(SPAN_SESSION, 1, (2, 1), 20),
            end(ROOT, 0, (1, 0), 50),
        ] {
            sink.on_event(&e);
        }
        let paths: Vec<(String, u64)> = sink
            .report()
            .paths
            .into_iter()
            .map(|p| (p.path, p.count))
            .collect();
        assert_eq!(
            paths,
            [
                ("personalize".to_string(), 1),
                ("personalize;session".to_string(), 2),
                ("personalize;session;channel.estimate".to_string(), 2),
            ]
        );
    }

    #[test]
    fn table_renders_columns_and_indentation() {
        let sink = ProfileSink::new();
        feed_nested(&sink);
        sink.on_event(&Event::Counter {
            name: GESTURE_RETRY,
            delta: 1,
        });
        sink.on_event(&Event::Metric {
            name: FUSION_OBJECTIVE,
            value: 2.5,
            unit: "deg2",
        });
        let text = sink.report().render_table();
        for needle in ["per-stage wall clock:", "count", "p50", "p90", "p99", "max"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(text.contains("  personalize"));
        assert!(text.contains("    fusion"), "child not indented:\n{text}");
        for needle in [
            "threads:",
            "counters:",
            GESTURE_RETRY,
            "metrics:",
            "2.5000 deg2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("dropped:"), "{text}");
    }

    #[test]
    fn json_round_trips_through_own_parser() {
        let sink = ProfileSink::new();
        feed_nested(&sink);
        sink.on_event(&Event::Counter {
            name: GESTURE_RETRY,
            delta: 7,
        });
        sink.on_event(&Event::Metric {
            name: FUSION_OBJECTIVE,
            value: 2.5,
            unit: "deg2",
        });
        let doc = uniq_obs::json::Json::parse(&sink.report().to_json()).expect("self-emitted JSON");
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(PROFILE_SCHEMA_VERSION)
        );
        let stages = doc.get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), 2);
        let root = stages
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some(ROOT))
            .unwrap();
        assert_eq!(root.get("total_ns").unwrap().as_u64(), Some(1000));
        assert_eq!(root.get("count").unwrap().as_u64(), Some(1));
        assert!(root.get("p50_ns").unwrap().as_u64().is_some());
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get(GESTURE_RETRY)
                .unwrap()
                .as_u64(),
            Some(7)
        );
        let objective = doc.get("metrics").unwrap().get(FUSION_OBJECTIVE).unwrap();
        assert_eq!(objective.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(objective.get("max").unwrap().as_f64(), Some(2.5));
        assert!(doc.get("overhead_ns").unwrap().as_u64().is_some());
        assert_eq!(doc.get("dropped").unwrap().as_u64(), Some(0));
        let threads = doc.get("threads").unwrap().as_array().unwrap();
        assert_eq!(threads[0].get("thread").unwrap().as_str(), Some("main"));
    }

    #[test]
    fn collapsed_stack_line_format() {
        let sink = ProfileSink::new();
        feed_nested(&sink);
        let collapsed = sink.report().collapsed_stacks();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(lines, vec!["personalize 600", "personalize;fusion 400"]);
        for line in lines {
            let (path, value) = line.rsplit_once(' ').unwrap();
            assert!(!path.is_empty() && !path.contains(' '));
            value.parse::<u64>().expect("self time not an integer");
        }
    }

    #[test]
    fn live_spans_through_with_sink() {
        let profile = Arc::new(ProfileSink::new());
        uniq_obs::with_sink(profile.clone(), || {
            let _outer = uniq_obs::span(SPAN_SESSION);
            let _inner = uniq_obs::span(SPAN_CHANNEL_ESTIMATE);
        });
        let r = profile.report();
        assert_eq!(r.stages.len(), 2);
        let outer = r.stage(SPAN_SESSION).unwrap();
        let inner = r.stage(SPAN_CHANNEL_ESTIMATE).unwrap();
        assert_eq!((outer.depth, inner.depth), (0, 1));
        assert!(outer.total_nanos >= inner.total_nanos);
        assert_eq!(
            r.paths.iter().map(|p| p.path.as_str()).collect::<Vec<_>>(),
            vec!["session", "session;channel.estimate"]
        );
    }

    /// A hand-built snapshot matching `feed_nested`'s stage names.
    fn sample_alloc() -> uniq_memprof::AllocSnapshot {
        let mut snap = uniq_memprof::AllocSnapshot::default();
        snap.stages.insert(
            CHILD.to_string(),
            uniq_memprof::StageAlloc {
                allocs: 3,
                bytes: 768,
                frees: 1,
                freed_bytes: 256,
                peak_live_bytes: 512,
                largest_bytes: 512,
            },
        );
        snap.stages.insert(
            ROOT.to_string(),
            uniq_memprof::StageAlloc {
                allocs: 1,
                bytes: 64,
                ..Default::default()
            },
        );
        snap.unattributed.allocs = 2;
        snap.unattributed.bytes = 128;
        snap.peak_live_bytes = 640;
        snap
    }

    #[test]
    fn attached_alloc_shows_in_table_and_json() {
        let sink = ProfileSink::new();
        feed_nested(&sink);
        let mut report = sink.report();
        let plain = report.render_table();
        assert!(!plain.contains("alloc-b"), "columns must be opt-in");
        report.attach_alloc(sample_alloc());
        let table = report.render_table();
        for needle in [
            "alloc-b",
            "allocs",
            "768",
            "per-stage allocations:",
            "(unattributed)",
        ] {
            assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
        }

        let doc = uniq_obs::json::Json::parse(&report.to_json()).expect("self-emitted JSON");
        let alloc = doc.get("alloc").expect("alloc section present");
        assert_eq!(
            alloc.get("schema_version").unwrap().as_u64(),
            Some(uniq_memprof::ALLOC_SCHEMA_VERSION)
        );
        let stages = alloc.get("stages").unwrap().as_array().unwrap();
        let child = stages
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some(CHILD))
            .unwrap();
        assert_eq!(child.get("bytes").unwrap().as_u64(), Some(768));
        assert_eq!(alloc.get("peak_live_bytes").unwrap().as_u64(), Some(640));
    }

    #[test]
    fn alloc_collapsed_stacks_weights_paths_by_bytes() {
        let sink = ProfileSink::new();
        feed_nested(&sink);
        let mut report = sink.report();
        assert_eq!(report.alloc_collapsed_stacks(), "");
        let mut snap = sample_alloc();
        // A stage the latency profile never saw: bare-line fallback.
        snap.stages.insert(
            "orphan.stage".to_string(),
            uniq_memprof::StageAlloc {
                allocs: 1,
                bytes: 32,
                ..Default::default()
            },
        );
        report.attach_alloc(snap);
        let collapsed = report.alloc_collapsed_stacks();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(
            lines,
            vec![
                "personalize;fusion 768",
                "orphan.stage 32",
                "personalize 64",
                "(unattributed) 128"
            ]
        );
    }

    #[test]
    fn pool_items_nest_under_the_callers_span_at_any_pool_size() {
        for threads in [1, 2, 4] {
            let profile = Arc::new(ProfileSink::new());
            uniq_obs::with_sink(profile.clone(), || {
                let _trace = uniq_obs::trace(5);
                let _root = uniq_obs::span(ROOT);
                let items: Vec<u64> = (0..32).collect();
                let _: Vec<u64> = uniq_par::pool(threads).par_map_chunked(&items, 1, |&i| {
                    let _span = uniq_obs::span(CHILD);
                    i
                });
            });
            let r = profile.report();
            let paths: Vec<(&str, u64)> =
                r.paths.iter().map(|p| (p.path.as_str(), p.count)).collect();
            assert_eq!(
                paths,
                [("personalize", 1), ("personalize;fusion", 32)],
                "pool size {threads}"
            );
            if threads == 1 {
                let self_sum: u128 = r.paths.iter().map(|p| p.self_nanos).sum();
                assert_eq!(self_sum, r.stage(ROOT).unwrap().total_nanos);
            }
        }
    }

    #[test]
    fn pool_worker_samples_get_worker_labels() {
        let profile = Arc::new(ProfileSink::new());
        uniq_obs::with_sink(profile.clone(), || {
            let pool = uniq_par::pool(3);
            let items: Vec<u64> = (0..32).collect();
            let _: Vec<u64> = pool.par_map_chunked(&items, 1, |&i| {
                let _span = uniq_obs::span(CHILD);
                i
            });
        });
        let r = profile.report();
        let chunk = r.stage(CHILD).expect("worker spans reached the sink");
        assert_eq!(chunk.count, 32);
        // Labels are exactly main / worker-<i>, i < pool size - 1.
        for t in &r.threads {
            if t.thread != "main" {
                let idx: usize = t.thread.strip_prefix("worker-").unwrap().parse().unwrap();
                assert!(idx < 2, "unexpected worker index {idx}");
            }
        }
        let by_thread_total: u64 = chunk.threads.iter().map(|t| t.count).sum();
        assert_eq!(
            by_thread_total, 32,
            "per-thread rows must partition samples"
        );
    }
}
