//! Canonical metric and counter names.
//!
//! Every metric or counter the pipeline emits is named here, once.
//! Producers (`uniq-core` and friends) and consumers (reports,
//! experiments, CI assertions) both reference these constants, so a
//! renamed metric is a compile error on both sides instead of a silent
//! dashboard gap. `uniq-analyzer`'s `obs-metric-name` rule enforces the
//! discipline: an inline string literal passed to
//! [`metric`](crate::metric)/[`counter`](crate::counter) outside this
//! crate is a diagnostic.
//!
//! Naming scheme: `<stage>.<quantity>[_<unit>]`, dot-separated, all
//! lowercase — matching the span names of the stages that emit them.

/// Wall-clock seconds one subject's personalization took (histogram).
pub const BATCH_SUBJECT_SECONDS: &str = "batch.subject_seconds";
/// Subjects submitted to a batch run (counter).
pub const BATCH_SUBJECTS: &str = "batch.subjects";
/// Subjects whose personalization failed after retries (counter).
pub const BATCH_FAILURES: &str = "batch.failures";

/// SNR of one ear's first tap in a session's channel estimate, dB: the
/// value the stop's quality score reads. One per ear per estimate.
pub const CHANNEL_FIRST_TAP_SNR_DB: &str = "channel.first_tap_snr_db";

/// FFTs run, forward and inverse, one per transform call (counter;
/// deterministic at any thread count).
pub const DSP_TRANSFORMS: &str = "dsp.transforms";
/// Transform points `Σ n·log₂n` over the FFTs run: the butterfly work
/// behind [`DSP_TRANSFORMS`] (counter; deterministic at any thread count).
pub const DSP_TRANSFORM_POINTS: &str = "dsp.transform_points";

/// Per-stop localization residual against ground truth, degrees.
pub const FUSION_STOP_RESIDUAL_DEG: &str = "fusion.stop_residual_deg";
/// Number of stops the fusion localized (out of the sweep).
pub const FUSION_LOCALIZED_STOPS: &str = "fusion.localized_stops";
/// Mean localization residual over localized stops, degrees.
pub const FUSION_MEAN_RESIDUAL_DEG: &str = "fusion.mean_residual_deg";
/// Final fusion objective value, squared degrees.
pub const FUSION_OBJECTIVE: &str = "fusion.objective";
/// Eq. 2 objective evaluations the fusion's Nelder–Mead fit made
/// (counter; deterministic at any thread count).
pub const FUSION_OBJECTIVE_EVALS: &str = "fusion.objective_evals";
/// Gauss–Newton residual evaluations (each two wrap-path lengths with their gradients) across
/// the fit's objective evaluations (counter; deterministic at any thread
/// count).
pub const FUSION_RESIDUAL_EVALS: &str = "fusion.residual_evals";
/// Gauss–Newton steps solved across the fit's objective evaluations
/// (counter; deterministic at any thread count).
pub const FUSION_GN_ITERATIONS: &str = "fusion.gn_iterations";
/// Tangent-vertex searches the wrap-path queries of the fit's
/// Gauss–Newton residuals ran (counter; deterministic at any thread
/// count).
pub const FUSION_TANGENT_SEARCHES: &str = "fusion.tangent_searches";
/// Vertex angles (one `atan2` each) those tangent searches evaluated
/// (counter; deterministic at any thread count).
pub const FUSION_ANGLE_EVALS: &str = "fusion.angle_evals";

/// Estimated gesture radius, metres.
pub const PERSONALIZE_RADIUS_M: &str = "personalize.radius_m";
/// Personalization attempts consumed (1 = first try succeeded).
pub const PERSONALIZE_ATTEMPTS: &str = "personalize.attempts";

/// Gestures rejected by the radius sanity gate (counter).
pub const GESTURE_REJECTED: &str = "gesture.rejected";
/// Gesture retries after a rejected attempt (counter).
pub const GESTURE_RETRY: &str = "gesture.retry";

/// §4.2 interpolation check: absolute deviation of an interpolated HRIR's
/// first tap from the diffraction model's delay, *before* the model
/// correction moves it there, samples. One per ear per grid angle.
pub const NEARFIELD_INTERP_TAP_DEV: &str = "nearfield.interp_tap_dev";

/// Measurement stops accepted into a session.
pub const SESSION_STOPS: &str = "session.stops";
/// Quality score of one surviving stop's channel estimate, `[0, 1]`
/// (faulted sessions only).
pub const SESSION_STOP_QUALITY: &str = "session.stop_quality";
/// Stops dropped by the degradation policy (faulted sessions only).
pub const SESSION_STOPS_DROPPED: &str = "session.stops_dropped";
/// Stop captures retried by the degradation policy (faulted sessions
/// only).
pub const SESSION_STOPS_RETRIED: &str = "session.stops_retried";

/// Individual faults injected into a session (counter; faulted sessions
/// only).
pub const FAULTS_INJECTED: &str = "faults.injected";
/// Mean quality over the stops a degraded run kept.
pub const DEGRADATION_MEAN_QUALITY: &str = "degradation.mean_quality";

/// Point sources mixed by the binaural render engine (counter).
pub const RENDER_SOURCES: &str = "render.sources";
/// Signal blocks rendered by the motion renderer (counter).
pub const RENDER_BLOCKS: &str = "render.blocks";
/// Samples crossfaded at one block boundary of a motion render.
pub const RENDER_CROSSFADE_SAMPLES: &str = "render.crossfade_samples";
/// Externalization proxy score of a rendered/reference comparison, `[0, 1]`.
pub const RENDER_EXTERNALIZATION_PROXY: &str = "render.externalization_proxy";

/// Templates the known-source AoA scored with the Eq. 9 cost, summed over
/// calls (counter; deterministic at any thread count).
pub const AOA_TEMPLATES_SCORED: &str = "aoa.templates_scored";
/// Template angles the unknown-source AoA scored with the Eq. 11 check,
/// summed over calls (counter; deterministic at any thread count).
pub const AOA_CANDIDATES: &str = "aoa.candidates";
/// Unknown-source AoA calls where no Eq. 10 candidate matched within 3
/// samples, so every template angle was scored (counter; deterministic at
/// any thread count).
pub const AOA_CANDIDATE_FALLBACKS: &str = "aoa.candidate_fallbacks";

/// Nanoseconds the registry spent recording its own events —
/// observability cost, itself observed (added at report time by
/// `uniq-profile`'s `ProfileSink`).
pub const OBS_TELEMETRY_OVERHEAD_NS: &str = "obs.telemetry_overhead_ns";

// Allocation-profile names (`uniq-memprof`). The counters are sums over
// *attributed* stages only, so their totals are a pure function of the
// workload — bit-identical across runs and thread counts — and safe to
// fold into the telemetry determinism key. The peak/unattributed metrics
// are scheduling-dependent (see DESIGN.md §15) and are listed in
// `uniq-profile`'s `TIMING_METRICS` so only their counts are keyed.

/// Heap allocations attributed to pipeline stages during a profiled run
/// (counter; deterministic).
pub const ALLOC_TOTAL_COUNT: &str = "alloc.total_count";
/// Bytes requested by stage-attributed allocations (counter;
/// deterministic).
pub const ALLOC_TOTAL_BYTES: &str = "alloc.total_bytes";
/// Frees attributed to pipeline stages (counter).
pub const ALLOC_TOTAL_FREES: &str = "alloc.total_frees";
/// Process-wide peak of live (allocated minus freed) heap bytes while the
/// profiler was enabled. Scheduling-dependent: warn-tier only.
pub const ALLOC_PEAK_LIVE_BYTES: &str = "alloc.peak_live_bytes";
/// Largest single stage-attributed allocation, bytes.
pub const ALLOC_LARGEST_SINGLE_BYTES: &str = "alloc.largest_single_bytes";
/// Bytes allocated with no stage attribution (no open span, or inside an
/// attribution-suspended region). Harness and infrastructure noise:
/// excluded from every determinism gate.
pub const ALLOC_UNATTRIBUTED_BYTES: &str = "alloc.unattributed_bytes";

// Personalization-server names (`uniq-serve`). The counters are pure
// functions of the request stream (how many arrived, hit the cache, were
// shed, failed), so the serve baseline section and the backpressure test
// gate on them exactly; the request-seconds metric is wall clock and
// lives in `uniq-profile`'s `TIMING_METRICS` (counts keyed, values
// not).

/// Personalize requests accepted off the wire (counter; excludes
/// ping/stats/shutdown control frames).
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Requests shed with an `overloaded` response because the target
/// shard's bounded queue was full (counter).
pub const SERVE_SHED: &str = "serve.shed";
/// Requests answered from the content-addressed result cache — a store
/// lookup instead of a pipeline run (counter).
pub const SERVE_CACHE_HITS: &str = "serve.cache_hits";
/// Requests that produced a typed error response: malformed frames,
/// bad fields, or a failed personalization (counter).
pub const SERVE_ERRORS: &str = "serve.errors";
/// Wall-clock seconds one served request spent in its shard worker
/// (cache lookup or pipeline run; queue wait excluded).
pub const SERVE_REQUEST_SECONDS: &str = "serve.request_seconds";

/// Bytes written for one non-deduplicated artifact put.
pub const STORE_PUT_BYTES: &str = "store.put_bytes";
/// Puts answered by an existing blob (counter).
pub const STORE_DEDUP_HITS: &str = "store.dedup_hits";
/// Distinct artifacts in the store after an operation.
pub const STORE_ENTRIES: &str = "store.entries";
/// Blob bytes one store call folded into a content key with FNV-1a
/// (counter, emitted once per `put`/`get`; the subject fingerprint's
/// fold is not counted).
pub const STORE_BYTES_HASHED: &str = "store.bytes_hashed";
/// Blob bytes one store call ran through CRC-32, header and payload
/// (counter, emitted once per `encode`/`decode`/`get`).
pub const STORE_BYTES_CRC: &str = "store.bytes_crc";

/// Every metric/counter name the workspace may emit. The workspace-level
/// `every_emitted_name_is_registered` test runs a full pipeline under a
/// `MemorySink` and asserts the emitted set is a subset of this list, so
/// a new metric cannot silently bypass the registry (and with it the
/// analyzer's `obs-metric-name` rule, which only sees *literal* names).
pub const ALL_METRICS: &[&str] = &[
    BATCH_SUBJECT_SECONDS,
    BATCH_SUBJECTS,
    BATCH_FAILURES,
    CHANNEL_FIRST_TAP_SNR_DB,
    DSP_TRANSFORMS,
    DSP_TRANSFORM_POINTS,
    FUSION_STOP_RESIDUAL_DEG,
    FUSION_LOCALIZED_STOPS,
    FUSION_MEAN_RESIDUAL_DEG,
    FUSION_OBJECTIVE,
    FUSION_OBJECTIVE_EVALS,
    FUSION_RESIDUAL_EVALS,
    FUSION_GN_ITERATIONS,
    FUSION_TANGENT_SEARCHES,
    FUSION_ANGLE_EVALS,
    PERSONALIZE_RADIUS_M,
    PERSONALIZE_ATTEMPTS,
    GESTURE_REJECTED,
    GESTURE_RETRY,
    NEARFIELD_INTERP_TAP_DEV,
    SESSION_STOPS,
    SESSION_STOP_QUALITY,
    SESSION_STOPS_DROPPED,
    SESSION_STOPS_RETRIED,
    FAULTS_INJECTED,
    DEGRADATION_MEAN_QUALITY,
    RENDER_SOURCES,
    RENDER_BLOCKS,
    RENDER_CROSSFADE_SAMPLES,
    RENDER_EXTERNALIZATION_PROXY,
    AOA_TEMPLATES_SCORED,
    AOA_CANDIDATES,
    AOA_CANDIDATE_FALLBACKS,
    OBS_TELEMETRY_OVERHEAD_NS,
    ALLOC_TOTAL_COUNT,
    ALLOC_TOTAL_BYTES,
    ALLOC_TOTAL_FREES,
    ALLOC_PEAK_LIVE_BYTES,
    ALLOC_LARGEST_SINGLE_BYTES,
    ALLOC_UNATTRIBUTED_BYTES,
    SERVE_REQUESTS,
    SERVE_SHED,
    SERVE_CACHE_HITS,
    SERVE_ERRORS,
    SERVE_REQUEST_SECONDS,
    STORE_PUT_BYTES,
    STORE_DEDUP_HITS,
    STORE_ENTRIES,
    STORE_BYTES_HASHED,
    STORE_BYTES_CRC,
];

// Span names. Spans are the unit the profiling layer (`uniq-profile`)
// aggregates over, so their names are registered here exactly like
// metric names: the baseline comparator and the `verify-profile` CI
// smoke both key on them, and a renamed stage must be a compile error
// on both sides.

/// Root span of one personalization attempt.
pub const SPAN_PERSONALIZE: &str = "personalize";
/// The measurement session (gesture + IMU + per-stop recordings).
pub const SPAN_SESSION: &str = "session";
/// One stop's channel estimation (runs once per stop, inside `session`).
pub const SPAN_CHANNEL_ESTIMATE: &str = "channel.estimate";
/// Joint geometry/trajectory sensor fusion.
pub const SPAN_FUSION: &str = "fusion";
/// Assembly of the discrete near-field measurements.
pub const SPAN_NEARFIELD_ASSEMBLE: &str = "nearfield.assemble";
/// Near-field HRIR interpolation onto the output grid.
pub const SPAN_NEARFIELD_INTERPOLATE: &str = "nearfield.interpolate";
/// Near-to-far-field conversion.
pub const SPAN_NEARFAR_CONVERT: &str = "nearfar.convert";
/// Known-source angle-of-arrival estimation.
pub const SPAN_AOA_KNOWN: &str = "aoa.known";
/// Unknown-source angle-of-arrival estimation.
pub const SPAN_AOA_UNKNOWN: &str = "aoa.unknown";
/// A batch personalization run (fans subjects across the pool).
pub const SPAN_BATCH: &str = "batch";
/// A fault-injected measurement session (wraps `session` when a
/// `FaultPlan` is active; never opened on the clean path).
pub const SPAN_FAULTS: &str = "faults";
/// One binaural engine mix (all sources at one pose).
pub const SPAN_RENDER_ENGINE: &str = "render.engine";
/// A block-based motion render (pose sampling + crossfade + overlap-add).
pub const SPAN_RENDER_MOTION: &str = "render.motion";
/// Binaural quality-metric computation (LSD / ITD / ILD comparison).
pub const SPAN_RENDER_METRICS: &str = "render.metrics";
/// One artifact put into the content-addressed store.
pub const SPAN_STORE_PUT: &str = "store.put";
/// One artifact load (key check + decode) from the store.
pub const SPAN_STORE_GET: &str = "store.get";
/// A full deep-verification sweep over the store.
pub const SPAN_STORE_VERIFY: &str = "store.verify";
/// Snapshot + summary emission of the allocation profiler (`--memprof`,
/// after the measured command returns).
pub const SPAN_ALLOC_SNAPSHOT: &str = "alloc.snapshot";
/// One request processed by a personalization-server shard worker
/// (cache lookup or full pipeline run; wraps `personalize` on a miss).
pub const SPAN_SERVE_REQUEST: &str = "serve.request";
/// One closed-loop load-generator request, client side: serialize, send,
/// and wait for the response line. The latency histogram `uniq loadgen`
/// reports p50/p99 from aggregates over this span.
pub const SPAN_LOADGEN_REQUEST: &str = "loadgen.request";

/// Every span name the workspace may open (see [`ALL_METRICS`] for the
/// covering test).
pub const ALL_SPANS: &[&str] = &[
    SPAN_PERSONALIZE,
    SPAN_SESSION,
    SPAN_CHANNEL_ESTIMATE,
    SPAN_FUSION,
    SPAN_NEARFIELD_ASSEMBLE,
    SPAN_NEARFIELD_INTERPOLATE,
    SPAN_NEARFAR_CONVERT,
    SPAN_AOA_KNOWN,
    SPAN_AOA_UNKNOWN,
    SPAN_BATCH,
    SPAN_FAULTS,
    SPAN_RENDER_ENGINE,
    SPAN_RENDER_MOTION,
    SPAN_RENDER_METRICS,
    SPAN_STORE_PUT,
    SPAN_STORE_GET,
    SPAN_STORE_VERIFY,
    SPAN_ALLOC_SNAPSHOT,
    SPAN_SERVE_REQUEST,
    SPAN_LOADGEN_REQUEST,
];

/// The spans whose enclosing code is a *hot path*: per-iteration work
/// dominating wall time (fusion is the largest stage of the seed-6
/// profile; channel estimation runs once per stop in the session). `uniq-analyzer`'s
/// `hot-path-alloc` rule seeds on span sites naming these constants and
/// forbids per-call allocation in everything they transitively reach —
/// the scratch-arena discipline the upcoming SIMD/planned-FFT rewrite
/// will be held to. The analyzer reads this list textually from this
/// file, so extending it retunes the gate without touching the analyzer.
// uniq-analyzer: allow(dead-pub) — uniq-analyzer's hot-path-alloc rule reads this list by name (crates/analyzer/src/workspace.rs, hot_span_consts); no Rust code names it
pub const HOT_PATH_SPANS: &[&str] = &[SPAN_FUSION, SPAN_CHANNEL_ESTIMATE];

/// The spans every successful `personalize` run must traverse — the
/// stage-coverage contract the `verify-profile` CI smoke asserts on a
/// profiled run's JSON output.
pub const PIPELINE_STAGES: &[&str] = &[
    SPAN_PERSONALIZE,
    SPAN_SESSION,
    SPAN_CHANNEL_ESTIMATE,
    SPAN_FUSION,
    SPAN_NEARFIELD_ASSEMBLE,
    SPAN_NEARFIELD_INTERPOLATE,
    SPAN_NEARFAR_CONVERT,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_unique_and_well_formed() {
        for list in [ALL_METRICS, ALL_SPANS] {
            for (i, name) in list.iter().enumerate() {
                assert!(
                    !name.is_empty()
                        && name.chars().all(|c| c.is_ascii_lowercase()
                            || c.is_ascii_digit()
                            || "._".contains(c)),
                    "bad name {name:?}"
                );
                assert!(
                    !list[..i].contains(name),
                    "duplicate registry entry {name:?}"
                );
            }
        }
    }

    #[test]
    fn pipeline_stages_are_registered_spans() {
        for stage in PIPELINE_STAGES {
            assert!(ALL_SPANS.contains(stage), "{stage} missing from ALL_SPANS");
        }
    }
}
