//! Benchmark baselines and the one regression gate: a pinned,
//! deterministic workload matrix whose performance *and* quality numbers
//! are checked into the repo as `BENCH_BASELINE.json`, plus the
//! comparator that judges a fresh run against a reference set — the
//! blessed document, the run ledger's same-label history
//! ([`crate::ledger`]), or both.
//!
//! The contract (enforced by `scripts/ci.sh` via the `baseline` binary):
//!
//! - **Hard tier.** Quality numbers (localization medians, AoA error,
//!   HRIR similarity) must sit within [`QUALITY_TOL`] of every reference;
//!   fingerprints, flags, work counters, allocation counts and serve
//!   counts must equal every reference exactly. All of them are pure
//!   functions of the pinned seeds.
//! - **Warn tier** (fatal only under `--strict`): timings must sit within
//!   `max(PERF_TOL·median, 4·MAD)` of the references' median — for a
//!   single reference, within [`PERF_TOL`] of it. Wall clock depends on
//!   the machine, so latency is judged from several samples or through
//!   the deterministic work counters behind it, never fatally from one.
//!
//! Refresh the checked-in file after an intentional change with
//! `cargo run --release -p uniq-bench --bin baseline -- bless`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use uniq_core::batch::{
    hrtf_fingerprint, personalize_batch, result_fingerprint, FingerprintBuilder,
};
use uniq_core::config::UniqConfig;
use uniq_core::pipeline::{personalize_with_retry, PersonalizationResult};
use uniq_dsp::stats::median;
use uniq_geometry::vec2::angle_diff_deg;
use uniq_obs::json::Json;
use uniq_obs::sink::{json_escape, json_number, NoopSink};
use uniq_obs::Stopwatch;
use uniq_profile::ProfileSink;
use uniq_subjects::Subject;

/// Schema stamp on `BENCH_BASELINE.json` and every ledger run document
/// (bump on shape changes). v2 added the `alloc` section (per-stage
/// allocation gates), v3 the `serve` section (server response-fingerprint
/// and admission gates), v4 the `counters` section (work counters gated
/// exactly and across pool sizes), v5 the `fusion.gn_iterations` counter,
/// v6 the AoA work counters (`aoa.templates_scored`, `aoa.candidates`,
/// `aoa.candidate_fallbacks`) and `quality.aoa_unknown_median_deg`, v7 the
/// downstream-consumer pins `quality.aoa_estimates_fingerprint`,
/// `quality.render_motion_fingerprint` and the `render.blocks` counter, v8
/// the store ledger (`store.bytes_hashed`, `store.bytes_crc`) of one put
/// and one get of the seed's artifact, and `serve.miss_p50_ms` and
/// `serve.hit_p50_ms` in place of `serve.p50_ms` (a median over misses and
/// hits together).
pub const BASELINE_SCHEMA_VERSION: u64 = 8;

/// Relative tolerance for quality numbers: tight, because they are
/// deterministic functions of the seeds — the slack only absorbs
/// float-environment differences, not behavior changes.
pub const QUALITY_TOL: f64 = 0.02;

/// Relative tolerance for timings: wall time varies with the machine and
/// its load, so only call out large swings.
pub const PERF_TOL: f64 = 0.5;

/// The checked-in baseline file, relative to the workspace root.
pub const BASELINE_FILE: &str = "BENCH_BASELINE.json";

/// The pinned workload matrix. [`BaselineSpec::pinned`] is what CI and
/// the checked-in baseline use; tests shrink it.
#[derive(Debug, Clone)]
pub struct BaselineSpec {
    /// Seed of the single-subject personalization runs.
    pub seed: u64,
    /// Subjects (seeds `seed..seed+n`) in the batch runs.
    pub batch_subjects: u64,
    /// Pool sizes the batch and personalize runs are measured at.
    pub thread_counts: Vec<usize>,
    /// Output grid step, degrees (coarse: this is a regression gate, not
    /// an evaluation).
    pub grid_step_deg: f64,
    /// Simulated measurement SNR, dB.
    pub snr_db: f64,
    /// Source angles of the known-source AoA sweep, degrees.
    pub aoa_angles: Vec<f64>,
    /// Angles where personalized HRIRs are correlated against the
    /// subject's ground truth, degrees.
    pub sim_angles: Vec<f64>,
    /// Pool sizes the allocation profile is measured at; per-stage alloc
    /// count/bytes must be bit-identical across all of them (the hard
    /// memory gate). Only used when the `uniq-memprof` counting allocator
    /// is installed in the running binary.
    pub alloc_threads: Vec<usize>,
    /// Shard workers of the serve workload's in-process server.
    pub serve_shards: usize,
    /// Subjects the serve workload requests — each twice (repeat ratio
    /// 1.0), so cache hits are pinned to exactly this count.
    pub serve_subjects: u64,
}

impl BaselineSpec {
    /// The workload matrix behind the checked-in `BENCH_BASELINE.json`.
    pub fn pinned() -> Self {
        BaselineSpec {
            seed: 6,
            batch_subjects: 4,
            thread_counts: vec![1, 4],
            grid_step_deg: 15.0,
            snr_db: 45.0,
            aoa_angles: vec![20.0, 60.0, 100.0, 140.0],
            sim_angles: vec![0.0, 45.0, 90.0, 135.0, 180.0],
            alloc_threads: vec![1, 8],
            serve_shards: 2,
            serve_subjects: 2,
        }
    }

    /// A minimal matrix for unit tests (single thread count, one batch
    /// subject, short sweeps).
    pub fn quick() -> Self {
        BaselineSpec {
            seed: 6,
            batch_subjects: 1,
            thread_counts: vec![1],
            grid_step_deg: 15.0,
            snr_db: 45.0,
            aoa_angles: vec![60.0],
            sim_angles: vec![90.0],
            alloc_threads: vec![1, 2],
            serve_shards: 1,
            serve_subjects: 1,
        }
    }

    /// The pipeline configuration behind the pinned workload — public so
    /// golden tests can re-run the exact checked-in workload.
    pub fn config(&self, threads: usize) -> UniqConfig {
        UniqConfig {
            in_room: false,
            grid_step_deg: self.grid_step_deg,
            snr_db: self.snr_db,
            threads,
            ..UniqConfig::default()
        }
    }
}

/// Personalizes the spec's pinned subject (single-threaded, the
/// fingerprinted configuration) and persists the result into the
/// content-addressed store at `dir` — so the checked-in baseline's HRTF
/// exists as an on-disk `.uhrtf` artifact, and re-running on the same
/// code is a pure dedup hit.
pub fn persist_to_store(
    spec: &BaselineSpec,
    dir: &std::path::Path,
) -> Result<(uniq_store::PutOutcome, u64), String> {
    let cfg = spec.config(1);
    let subject = Subject::from_seed(spec.seed);
    let result = personalize_with_retry(&subject, &cfg, spec.seed, 3)
        .map_err(|e| format!("personalization failed: {e}"))?;
    let artifact =
        uniq_store::HrtfArtifact::from_result(spec.seed, &result, cfg.content_hash(), None);
    let store = uniq_store::Store::open(dir).map_err(|e| e.to_string())?;
    let outcome = store.put(&artifact).map_err(|e| e.to_string())?;
    Ok((outcome, artifact.subject_fingerprint))
}

fn median_localization_error(result: &PersonalizationResult) -> (f64, f64) {
    let errs: Vec<f64> = result
        .localization
        .iter()
        .map(|(t, e)| angle_diff_deg(*t, *e))
        .collect();
    (median(&errs), uniq_dsp::stats::percentile(&errs, 90.0))
}

/// AoA sweep over the personalized table: both estimators on the same
/// white-noise recording at each of the spec's angles. Returns the
/// known- and unknown-source errors and a digest of every estimate's bits.
fn aoa_sweep(
    result: &PersonalizationResult,
    spec: &BaselineSpec,
    cfg: &UniqConfig,
) -> (Vec<f64>, Vec<f64>, u64) {
    let table = &result.hrtf;
    let mut fp = FingerprintBuilder::new();
    let (known, unknown) = spec
        .aoa_angles
        .iter()
        .map(|&theta| {
            let sig = uniq_acoustics::signals::generate(
                uniq_acoustics::signals::SignalKind::WhiteNoise,
                0.4,
                table.sample_rate(),
                spec.seed,
            );
            let rendered = table.synthesize(&sig, theta, true);
            let rec = uniq_acoustics::measure::BinauralRecording {
                left: rendered.left,
                right: rendered.right,
            };
            let known = uniq_core::aoa::estimate_known_source(&rec, &sig, table.far(), cfg);
            let unknown = uniq_core::aoa::estimate_unknown_source(&rec, table.far(), cfg);
            fp.eat(known.to_bits());
            fp.eat(unknown.to_bits());
            (angle_diff_deg(known, theta), angle_diff_deg(unknown, theta))
        })
        .unzip();
    (known, unknown, fp.finish())
}

/// A digest of the output bits of one fixed head-tracked render on the
/// personalized table: three sources under a head turning from 0° to 90°,
/// a 0.25 s chirp in 1024-sample blocks with 128-sample crossfades.
fn render_motion_fingerprint(result: &PersonalizationResult) -> u64 {
    use uniq_geometry::Vec2;
    let mut scene = uniq_render::Scene::new();
    scene.add("far left", Vec2::new(-2.0, 1.0), 1.0);
    scene.add("far right", Vec2::new(2.0, 1.5), 0.7);
    scene.add("near", Vec2::new(0.3, -0.2), 0.5);
    let sig = uniq_dsp::signal::linear_chirp(200.0, 12_000.0, 0.25, result.hrtf.sample_rate());
    let poses = uniq_render::motion::turning_head(0.0, 90.0, sig.len().div_ceil(1024));
    let engine = uniq_render::BinauralEngine::new(result.hrtf.clone());
    let out = uniq_render::motion::render_with_motion(&engine, &scene, &poses, &sig, 1024, 128);
    let mut fp = FingerprintBuilder::new();
    out.left
        .iter()
        .chain(&out.right)
        .for_each(|v| fp.eat(v.to_bits()));
    fp.finish()
}

/// Puts the seed's artifact into a scratch store and gets it back, so the
/// store ledger of one put and one get (`store.bytes_hashed`,
/// `store.bytes_crc`) lands in the caller's sink.
fn store_round_trip(result: &PersonalizationResult, spec: &BaselineSpec, cfg: &UniqConfig) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CALL: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "uniq_baseline_store_{}_{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&root);
    let artifact =
        uniq_store::HrtfArtifact::from_result(spec.seed, result, cfg.content_hash(), None);
    let store = uniq_store::Store::open(&root).expect("open baseline scratch store");
    let put = store.put(&artifact).expect("baseline store put");
    let back = store.get(&put.key).expect("baseline store get");
    assert_eq!(
        back.subject_fingerprint, artifact.subject_fingerprint,
        "baseline artifact read back with another fingerprint"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}

/// The digest every pool size gave, or all of them, slash-separated, when
/// they differ (which no pinned value equals).
fn thread_invariant_digest(digests: &[u64]) -> String {
    let mut all: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    all.dedup();
    all.join("/")
}

/// Mean peak-normalized correlation between the personalized far-field
/// HRIRs and the subject's ground truth at the spec's angles (both ears
/// averaged).
fn hrir_similarity(
    subject: &Subject,
    result: &PersonalizationResult,
    spec: &BaselineSpec,
    cfg: &UniqConfig,
) -> f64 {
    let truth = subject.ground_truth(cfg.render, &spec.sim_angles);
    let mut sum = 0.0;
    for (k, &angle) in spec.sim_angles.iter().enumerate() {
        let est = result.hrtf.far().nearest(angle).0;
        let (l, r) = est.similarity(&truth.irs()[k]);
        sum += (l + r) / 2.0;
    }
    sum / spec.sim_angles.len() as f64
}

/// Measures the allocation profile of the spec's personalize workload at
/// `threads`: one unmeasured run first (prewarming the pool, lazy tables,
/// and span-name slots), then the measured run under a
/// [`NoopSink`] so spans stay enabled for stage
/// attribution even without another sink. Meaningful only when the
/// `uniq-memprof` counting allocator is installed in the running binary
/// (the snapshot is empty otherwise). Counters are process-global — the
/// caller serializes gate-grade measurements.
pub fn alloc_profile(spec: &BaselineSpec, threads: usize) -> uniq_memprof::AllocSnapshot {
    let cfg = spec.config(threads);
    let subject = Subject::from_seed(spec.seed);
    let sink = Arc::new(NoopSink);
    uniq_obs::with_sink(sink, || {
        personalize_with_retry(&subject, &cfg, spec.seed, 3).expect("baseline personalize failed");
        let (_, snap) = uniq_memprof::measure(|| {
            personalize_with_retry(&subject, &cfg, spec.seed, 3)
                .expect("baseline personalize failed")
        });
        snap
    })
}

/// Measures the allocation profile at each of `spec.alloc_threads` and
/// evaluates the thread-invariance predicate, with *steady-state
/// settlement*: if the first pass diverges, the whole matrix is measured
/// once more in the same process and the second pass is the verdict.
///
/// The settlement exists because process-lifetime lazy initialization —
/// a pool queue growing to its high-water mark, a thread-local stack's
/// first growth past its initial capacity — can allocate exactly once on
/// a scheduling-dependent path, and *which* measured run pays that
/// one-time cost is scheduler noise, not workload. A second pass cannot
/// pay it again, so the gate measures the steady state it documents; a
/// genuine regression (an allocation whose per-stage count varies with
/// the thread count) diverges on every pass and still fails hard.
pub fn alloc_profile_matrix(
    spec: &BaselineSpec,
) -> (Vec<(usize, uniq_memprof::AllocSnapshot)>, bool) {
    let measure = || -> Vec<(usize, uniq_memprof::AllocSnapshot)> {
        spec.alloc_threads
            .iter()
            .map(|&t| (t, alloc_profile(spec, t)))
            .collect()
    };
    let settled = |snaps: &[(usize, uniq_memprof::AllocSnapshot)]| {
        snaps.iter().all(|(_, s)| alloc_invariant(&snaps[0].1, s))
    };
    let mut snaps = measure();
    let mut invariant = settled(&snaps);
    if !invariant {
        snaps = measure();
        invariant = settled(&snaps);
    }
    (snaps, invariant)
}

/// Whether two snapshots agree bit-for-bit on the deterministic columns
/// (per-stage allocation count and bytes) — the thread-invariance
/// predicate behind the hard memory gate. Frees, peaks, and the
/// unattributed row are deliberately excluded (scheduling-dependent).
pub fn alloc_invariant(a: &uniq_memprof::AllocSnapshot, b: &uniq_memprof::AllocSnapshot) -> bool {
    a.stages.len() == b.stages.len()
        && a.stages
            .iter()
            .zip(&b.stages)
            .all(|((ka, sa), (kb, sb))| ka == kb && sa.allocs == sb.allocs && sa.bytes == sb.bytes)
}

/// The sections of a run document, in rendering order.
const SECTIONS: [&str; 6] = ["meta", "quality", "perf", "counters", "alloc", "serve"];

/// A run document under construction: the one schema behind
/// `BENCH_BASELINE.json`, `baseline run` output and every ledger line.
/// Writers fill the sections they have; members keep insertion order
/// within a section, and sections render in the fixed order meta,
/// quality, perf, counters, alloc, serve.
#[derive(Debug, Clone, Default)]
pub struct RunDoc {
    sections: Vec<(&'static str, Vec<(String, String)>)>,
}

impl RunDoc {
    /// Adds `key` with the already-rendered JSON `value` to `section`
    /// (one of the sections listed on [`RunDoc`]).
    pub fn raw(
        &mut self,
        section: &'static str,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> &mut Self {
        assert!(
            SECTIONS.contains(&section),
            "unknown run-document section {section:?}"
        );
        let i = match self.sections.iter().position(|(s, _)| *s == section) {
            Some(i) => i,
            None => {
                self.sections.push((section, Vec::new()));
                self.sections.len() - 1
            }
        };
        self.sections[i].1.push((key.into(), value.into()));
        self
    }

    /// Adds a number to `section`.
    pub fn num(&mut self, section: &'static str, key: impl Into<String>, value: f64) -> &mut Self {
        self.raw(section, key, json_number(value))
    }

    /// Adds a string to `section`.
    pub fn text(
        &mut self,
        section: &'static str,
        key: impl Into<String>,
        value: &str,
    ) -> &mut Self {
        self.raw(section, key, format!("\"{}\"", json_escape(value)))
    }

    /// Renders the document, one member per line.
    pub fn render(&self) -> String {
        let mut out = format!("{{\n  \"schema_version\": {BASELINE_SCHEMA_VERSION}");
        for name in SECTIONS {
            let Some((_, members)) = self.sections.iter().find(|(s, _)| *s == name) else {
                continue;
            };
            let body: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("    \"{}\": {v}", json_escape(k)))
                .collect();
            out.push_str(&format!(",\n  \"{name}\": {{\n{}\n  }}", body.join(",\n")));
        }
        out.push_str("\n}\n");
        out
    }
}

/// `[1, 4]` for a list of pool sizes.
fn int_list(values: &[usize]) -> String {
    let items: Vec<String> = values.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Adds the `alloc` section from the snapshots measured at each of
/// `spec.alloc_threads` (the first snapshot provides the recorded
/// numbers; `thread_invariant` reports the in-run cross-thread hard gate).
fn add_alloc_section(
    doc: &mut RunDoc,
    spec: &BaselineSpec,
    snaps: &[(usize, uniq_memprof::AllocSnapshot)],
    invariant: bool,
) {
    let first = &snaps[0].1;
    let total = first.total();
    let stages: Vec<String> = first
        .stages
        .iter()
        .map(|(name, s)| {
            format!(
                "{{\"name\": \"{}\", \"allocs\": {}, \"bytes\": {}, \"peak_live_bytes\": {}}}",
                json_escape(name),
                s.allocs,
                s.bytes,
                s.peak_live_bytes
            )
        })
        .collect();
    doc.raw("alloc", "thread_counts", int_list(&spec.alloc_threads))
        .raw("alloc", "thread_invariant", invariant.to_string())
        .raw("alloc", "total_allocs", total.allocs.to_string())
        .raw("alloc", "total_bytes", total.bytes.to_string())
        .raw(
            "alloc",
            "peak_live_bytes",
            first.peak_live_bytes.to_string(),
        )
        .raw("alloc", "stages", format!("[{}]", stages.join(", ")));
}

/// Runs the pinned serve workload — an in-process sharded server over a
/// scratch result store, driven by the deterministic closed-loop load
/// generator at repeat ratio 1.0 (every subject requested twice, so the
/// second hit of each is a store lookup) — and adds the `serve` section.
/// Fingerprint, request, cache-hit, and shed counts are exact functions
/// of the spec; throughput and latency are wall clock.
fn add_serve_section(doc: &mut RunDoc, spec: &BaselineSpec) {
    use std::sync::atomic::{AtomicU64, Ordering};
    // Unique per call: the quick test runs two baselines in one process
    // and each must start from a cold store.
    static CALL: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "uniq_baseline_serve_{}_{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = uniq_serve::ServeConfig {
        shards: spec.serve_shards,
        base: spec.config(1),
        store_dir: Some(root.clone()),
        ..Default::default()
    };
    let server =
        uniq_serve::Server::start("127.0.0.1:0", cfg).expect("start baseline serve workload");
    let lg = uniq_serve::LoadgenConfig {
        addr: server.local_addr().to_string(),
        subjects: spec.serve_subjects,
        seed_base: spec.seed,
        clients: spec.serve_shards,
        repeat: 1.0,
        ..Default::default()
    };
    let report = uniq_serve::loadgen::run(&lg).expect("baseline loadgen failed");
    let drain = server.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(
        report.fingerprint_conflicts, 0,
        "baseline serve workload returned conflicting fingerprints"
    );
    let fingerprint = uniq_serve::fold_fingerprints(&drain.fingerprints);
    assert_eq!(
        fingerprint,
        uniq_serve::fold_fingerprints(&report.fingerprints),
        "server and load generator disagree on the population fingerprint"
    );
    doc.raw("serve", "shards", spec.serve_shards.to_string())
        .raw("serve", "subjects", spec.serve_subjects.to_string())
        .text("serve", "fingerprint", &format!("{fingerprint:#018x}"))
        .raw("serve", "requests", drain.stats.requests.to_string())
        .raw("serve", "cache_hits", drain.stats.cache_hits.to_string())
        .raw("serve", "shed", drain.stats.shed.to_string())
        .num("serve", "subjects_per_second", report.subjects_per_second)
        .num("serve", "miss_p50_ms", report.miss_p50_ms)
        .num("serve", "hit_p50_ms", report.hit_p50_ms)
        .num("serve", "p99_ms", report.p99_ms);
}

/// Runs the workload matrix and renders the baseline document. Quality
/// numbers and work counters are pure functions of the spec's seeds;
/// perf numbers are wall-clock measurements of this machine. The `alloc`
/// section appears only when the `uniq-memprof` counting allocator is
/// installed (the `baseline` and `uniq` binaries install it; in-process
/// test harnesses usually do not).
pub fn run_baseline(spec: &BaselineSpec) -> String {
    let mut doc = RunDoc::default();
    doc.raw("meta", "seed", spec.seed.to_string())
        .raw("meta", "batch_subjects", spec.batch_subjects.to_string())
        .raw("meta", "thread_counts", int_list(&spec.thread_counts))
        .num("meta", "grid_step_deg", spec.grid_step_deg)
        .num("meta", "snr_db", spec.snr_db)
        .text("meta", "build", &crate::build_id());

    // --- personalize at each pool size, each under the profiler, then
    // the AoA sweep and the head-tracked render on its table under the
    // same profiler: the first run's stage timings and AoA errors, every
    // run's AoA and render digests and every run's work counters (fusion,
    // AoA and render) are kept.
    let subject = Subject::from_seed(spec.seed);
    let mut first_result: Option<PersonalizationResult> = None;
    let mut first_aoa: Option<(Vec<f64>, Vec<f64>)> = None;
    let mut aoa_digests = Vec::new();
    let mut render_digests = Vec::new();
    let mut stages_json: Option<String> = None;
    let mut fingerprints = Vec::new();
    let mut counters: Vec<BTreeMap<String, u64>> = Vec::new();
    // One unmeasured warm-up run. The stage timings below are single
    // samples, and a process's first run pays one-time costs (page
    // faults, lazy initialization) as large as its shorter stages, which
    // the gate's warn tier would report as latency swings.
    if let Some(&threads) = spec.thread_counts.first() {
        personalize_with_retry(&subject, &spec.config(threads), spec.seed, 3)
            .expect("baseline warm-up personalize failed");
    }
    for &threads in &spec.thread_counts {
        let cfg = spec.config(threads);
        let profile = Arc::new(ProfileSink::new());
        let sw = Stopwatch::start();
        let result = uniq_obs::with_sink(profile.clone(), || {
            personalize_with_retry(&subject, &cfg, spec.seed, 3)
        })
        .expect("baseline personalize failed");
        doc.num(
            "perf",
            format!("personalize_seconds_t{threads}"),
            sw.elapsed_seconds(),
        );
        let report = profile.report();
        stages_json.get_or_insert_with(|| {
            let rows: Vec<String> = report
                .stages
                .iter()
                .map(|s| {
                    format!(
                        "{{\"name\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
                        json_escape(&s.name),
                        s.count,
                        s.p50_nanos,
                        s.p99_nanos
                    )
                })
                .collect();
            format!("[{}]", rows.join(", "))
        });
        let (known, unknown, aoa_digest) =
            uniq_obs::with_sink(profile.clone(), || aoa_sweep(&result, spec, &cfg));
        render_digests.push(uniq_obs::with_sink(profile.clone(), || {
            render_motion_fingerprint(&result)
        }));
        uniq_obs::with_sink(profile.clone(), || store_round_trip(&result, spec, &cfg));
        aoa_digests.push(aoa_digest);
        counters.push(profile.report().counters);
        fingerprints.push(result_fingerprint(spec.seed, &result));
        first_result.get_or_insert(result);
        first_aoa.get_or_insert((known, unknown));
    }
    // uniq-analyzer: allow(panic-safety) — thread_counts is never empty, so the loop above ran at least once
    let result = first_result.expect("at least one thread count");
    // uniq-analyzer: allow(panic-safety) — set in the same loop iteration as first_result
    let (aoa_known, aoa_unknown) = first_aoa.expect("at least one thread count");
    let deterministic = fingerprints.iter().all(|&f| f == fingerprints[0]);
    let (loc_median, loc_p90) = median_localization_error(&result);
    let cfg_eval = spec.config(1);
    doc.text(
        "quality",
        "personalize_fingerprint",
        &format!("{:#018x}", fingerprints[0]),
    )
    .raw(
        "quality",
        "personalize_thread_invariant",
        deterministic.to_string(),
    )
    .num("quality", "localization_median_deg", loc_median)
    .num("quality", "localization_p90_deg", loc_p90)
    .num(
        "quality",
        "fusion_mean_residual_deg",
        result.fusion.mean_residual_deg,
    )
    .num("quality", "radius_m", result.radius_m)
    .raw("quality", "attempts", result.attempts.to_string())
    .num("quality", "aoa_known_median_deg", median(&aoa_known))
    .num("quality", "aoa_unknown_median_deg", median(&aoa_unknown))
    .text(
        "quality",
        "aoa_estimates_fingerprint",
        &thread_invariant_digest(&aoa_digests),
    )
    .text(
        "quality",
        "render_motion_fingerprint",
        &thread_invariant_digest(&render_digests),
    )
    .num(
        "quality",
        "hrir_similarity_mean",
        hrir_similarity(&subject, &result, spec, &cfg_eval),
    );

    // --- batch throughput and output fingerprint per pool size.
    let seeds: Vec<u64> = (0..spec.batch_subjects)
        .map(|i| spec.seed.wrapping_add(i))
        .collect();
    let batch_cfg = spec.config(1); // subject-level parallelism only
    for &threads in &spec.thread_counts {
        let sw = Stopwatch::start();
        let outcomes = personalize_batch(&seeds, &batch_cfg, threads, 3);
        let secs = sw.elapsed_seconds();
        doc.num(
            "perf",
            format!("batch_subjects_per_second_t{threads}"),
            outcomes.len() as f64 / secs.max(1e-12),
        )
        .text(
            "quality",
            format!("batch_fingerprint_t{threads}"),
            &format!("{:#018x}", hrtf_fingerprint(&outcomes)),
        );
    }
    doc.raw("perf", "stages", stages_json.unwrap_or_else(|| "[]".into()));

    // --- work counters: pure functions of the workload, so every pool
    // size must report the same totals (the latency gate that does not
    // depend on the machine).
    let invariant = counters.iter().all(|c| *c == counters[0]);
    doc.raw("counters", "thread_counts", int_list(&spec.thread_counts))
        .raw("counters", "thread_invariant", invariant.to_string());
    for (name, total) in &counters[0] {
        doc.raw("counters", name.clone(), total.to_string());
    }

    // --- allocation profile, measured at each alloc thread count. Gated
    // on the counting allocator actually being installed: without it the
    // snapshots would be all-zero and the gate meaningless.
    if uniq_memprof::installed() {
        let (snaps, invariant) = alloc_profile_matrix(spec);
        add_alloc_section(&mut doc, spec, &snaps, invariant);
    }

    // --- the serve workload: sharded server + closed-loop load over a
    // scratch store (see add_serve_section).
    add_serve_section(&mut doc, spec);
    doc.render()
}

/// The gate's verdict: hard failures and advisory warnings.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CompareReport {
    /// Hard-tier findings (quality, fingerprints, counts) — any entry
    /// fails CI.
    pub quality_failures: Vec<String>,
    /// Warn-tier findings (timings) — advisory unless `--strict`.
    pub perf_warnings: Vec<String>,
}

impl CompareReport {
    /// Whether the comparison passes at the given strictness.
    pub fn passes(&self, strict: bool) -> bool {
        self.quality_failures.is_empty() && (!strict || self.perf_warnings.is_empty())
    }
}

/// One document a fresh run is judged against, named in findings.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Where the document came from (a file name, a ledger line).
    pub name: String,
    /// The run document.
    pub doc: Json,
}

/// How the gate judges one leaf of a run document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Band {
    /// Hard: equal to every reference.
    Exact,
    /// Hard: within [`QUALITY_TOL`] of every reference.
    Quality,
    /// Warn: within `max(PERF_TOL·median, 4·MAD)` of the references'
    /// median, either direction.
    Timing,
    /// Warn: like `Timing`, growth only (peak live heap overlap is
    /// scheduling-dependent; shrinking is never a finding).
    Growth,
    /// Not judged: run metadata, stage span counts, per-stage peaks.
    Ignored,
}

/// The band of the leaf at `path` (`section.key[.row.field]`), given a
/// reference value for it.
fn band(path: &str, value: &Json) -> Band {
    let (section, key) = path.split_once('.').unwrap_or((path, ""));
    let timing_stage_field = key.ends_with(".p50_ns") || key.ends_with(".p99_ns");
    match section {
        "quality" if matches!(value, Json::Num(_)) => Band::Quality,
        "quality" | "counters" => Band::Exact,
        "perf" if key.starts_with("stages.") && !timing_stage_field => Band::Ignored,
        "perf" => Band::Timing,
        "alloc" if key == "peak_live_bytes" => Band::Growth,
        "alloc" if key.ends_with(".peak_live_bytes") => Band::Ignored,
        "serve"
            if matches!(
                key,
                "subjects_per_second" | "miss_p50_ms" | "hit_p50_ms" | "p99_ms"
            ) =>
        {
            Band::Timing
        }
        "alloc" | "serve" => Band::Exact,
        _ => Band::Ignored,
    }
}

/// A document's sections flattened to `section.key` leaves; the rows of
/// a `stages` array are keyed by their name (`perf.stages.fusion.p50_ns`).
fn leaves(doc: &Json) -> BTreeMap<String, &Json> {
    let mut out = BTreeMap::new();
    for (section, body) in doc.as_object().unwrap_or(&[]) {
        for (key, value) in body.as_object().unwrap_or(&[]) {
            let path = format!("{section}.{key}");
            match value.as_array() {
                Some(rows) if key == "stages" => {
                    for row in rows {
                        let Some(name) = row.get("name").and_then(Json::as_str) else {
                            continue;
                        };
                        for (field, v) in row.as_object().unwrap_or(&[]) {
                            if field != "name" {
                                out.insert(format!("{path}.{name}.{field}"), v);
                            }
                        }
                    }
                }
                _ => {
                    out.insert(path, value);
                }
            }
        }
    }
    out
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
}

/// Judges a fresh run document against a reference set — the blessed
/// document, same-label ledger history, or both — under the module's
/// two-tier contract. Every leaf a reference carries is judged; a leaf
/// (or a whole section) the fresh run lacks is a hard failure. Returns
/// `Err` only for structural problems (no reference, schema mismatch).
pub fn compare(fresh: &Json, references: &[Reference]) -> Result<CompareReport, String> {
    if references.is_empty() {
        return Err("no reference document to judge against".into());
    }
    let version = |doc: &Json| doc.get("schema_version").and_then(Json::as_u64);
    let fresh_version = version(fresh).ok_or("fresh document has no schema_version")?;
    for r in references {
        match version(&r.doc) {
            Some(v) if v == fresh_version => {}
            Some(v) => {
                return Err(format!(
                    "schema mismatch: {} is v{v}, the fresh run v{fresh_version}",
                    r.name
                ))
            }
            None => return Err(format!("{} has no schema_version", r.name)),
        }
    }
    let got = leaves(fresh);
    let refs: Vec<(&str, BTreeMap<String, &Json>)> = references
        .iter()
        .map(|r| (r.name.as_str(), leaves(&r.doc)))
        .collect();
    let mut report = CompareReport::default();
    // A run that reports thread variance fails whatever the references say.
    for (path, value) in &got {
        if path.ends_with("thread_invariant") && **value == Json::Bool(false) {
            report.quality_failures.push(format!(
                "{path}: the fresh run varies with the thread count"
            ));
        }
    }
    let paths: BTreeSet<&String> = refs.iter().flat_map(|(_, l)| l.keys()).collect();
    let mut missing_sections = BTreeSet::new();
    for path in paths {
        let samples: Vec<(&str, &Json)> = refs
            .iter()
            .filter_map(|(name, l)| l.get(path).map(|v| (*name, *v)))
            .collect();
        let band = band(path, samples[0].1);
        if band == Band::Ignored {
            continue;
        }
        let Some(&value) = got.get(path) else {
            let section = path.split('.').next().unwrap_or(path);
            if fresh.get(section).is_some() {
                report
                    .quality_failures
                    .push(format!("{path}: missing from fresh run"));
            } else if missing_sections.insert(section) {
                report
                    .quality_failures
                    .push(format!("{section}: section missing from fresh run"));
            }
            continue;
        };
        match (band, value) {
            (Band::Timing | Band::Growth, Json::Num(v)) => {
                let past: Vec<f64> = samples.iter().filter_map(|(_, e)| e.as_f64()).collect();
                let med = median(&past);
                let deviations: Vec<f64> = past.iter().map(|x| (x - med).abs()).collect();
                let threshold = (PERF_TOL * med.abs()).max(4.0 * median(&deviations));
                let off = if band == Band::Growth {
                    v - med
                } else {
                    (v - med).abs()
                };
                if off > threshold {
                    report.perf_warnings.push(format!(
                        "{path}: fresh {v} vs median {med} of {} reference(s) \
                         (threshold {threshold:.6})",
                        past.len()
                    ));
                }
            }
            _ => {
                let disagrees = samples.iter().find(|(_, e)| match (band, e, value) {
                    (Band::Quality, Json::Num(e), Json::Num(g)) => rel_diff(*e, *g) > QUALITY_TOL,
                    _ => *e != value,
                });
                if let Some((name, expected)) = disagrees {
                    report.quality_failures.push(match (expected, value) {
                        (Json::Num(e), Json::Num(g)) => format!(
                            "{path}: fresh {g} vs {e} in {name} (relative diff {:.3})",
                            rel_diff(*e, *g)
                        ),
                        (e, g) => format!("{path}: fresh {g:?} vs {e:?} in {name}"),
                    });
                }
            }
        }
    }
    Ok(report)
}

/// Whether two run documents carry bit-identical quality and work-counter
/// sections (the CI determinism check: two runs of the pinned workload
/// must agree exactly). When either document has a `serve` section, its
/// fingerprint is part of the identity too — the served population must
/// reproduce bit-for-bit alongside the library-path numbers.
pub fn quality_identical(a: &Json, b: &Json) -> bool {
    let same = |section: &str| a.get(section) == b.get(section);
    a.get("quality").is_some()
        && same("quality")
        && same("counters")
        && a.get("serve").map(|s| s.get("fingerprint"))
            == b.get("serve").map(|s| s.get("fingerprint"))
}

/// Validates a `--profile-out` JSON document: parseable, schema-stamped,
/// and covering every pipeline stage. Returns the covered stage names.
pub fn verify_profile(text: &str) -> Result<Vec<String>, String> {
    let doc = Json::parse(text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("profile has no schema_version")?;
    if version != uniq_profile::PROFILE_SCHEMA_VERSION {
        return Err(format!("unsupported profile schema v{version}"));
    }
    let stages: Vec<String> = doc
        .get("stages")
        .and_then(Json::as_array)
        .ok_or("profile has no stages array")?
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str).map(String::from))
        .collect();
    for required in uniq_obs::names::PIPELINE_STAGES {
        if !stages.iter().any(|s| s == required) {
            return Err(format!("pipeline stage {required:?} missing from profile"));
        }
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_profile_requires_stage_coverage() {
        let ok = format!(
            r#"{{"schema_version": 1, "stages": [{}]}}"#,
            uniq_obs::names::PIPELINE_STAGES
                .iter()
                .map(|s| format!(r#"{{"name": "{s}"}}"#))
                .collect::<Vec<_>>()
                .join(", ")
        );
        assert!(verify_profile(&ok).is_ok());

        let missing = r#"{"schema_version": 1, "stages": [{"name": "personalize"}]}"#;
        let err = verify_profile(missing).unwrap_err();
        assert!(err.contains("missing from profile"), "{err}");
        assert!(verify_profile("{}").is_err());
        assert!(verify_profile("not json").is_err());
    }

    #[test]
    fn quick_workload_emits_complete_and_deterministic_quality() {
        // The real thing, smallest possible: document parses, carries
        // every advertised section, and its quality half is bit-identical
        // across two runs in the same process.
        let spec = BaselineSpec::quick();
        let a = Json::parse(&run_baseline(&spec)).expect("baseline emits valid JSON");
        let b = Json::parse(&run_baseline(&spec)).unwrap();
        assert!(quality_identical(&a, &b), "quality not deterministic");

        let quality = a.get("quality").unwrap();
        for key in [
            "localization_median_deg",
            "aoa_known_median_deg",
            "aoa_estimates_fingerprint",
            "render_motion_fingerprint",
            "hrir_similarity_mean",
            "personalize_fingerprint",
            "batch_fingerprint_t1",
        ] {
            assert!(quality.get(key).is_some(), "quality missing {key}");
        }
        assert_eq!(
            quality.get("personalize_thread_invariant").unwrap(),
            &Json::Bool(true)
        );
        // Stage profile covers the pipeline (subset check: quick() runs
        // the full personalize pipeline).
        let stages: Vec<&str> = a
            .get("perf")
            .unwrap()
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        for required in uniq_obs::names::PIPELINE_STAGES {
            assert!(stages.contains(required), "stage {required} missing");
        }
        // Work counters are recorded and agree across the matrix.
        let counters = a.get("counters").unwrap();
        assert_eq!(counters.get("thread_invariant"), Some(&Json::Bool(true)));
        for name in [
            uniq_obs::names::FUSION_OBJECTIVE_EVALS,
            uniq_obs::names::FUSION_RESIDUAL_EVALS,
            uniq_obs::names::FUSION_GN_ITERATIONS,
            uniq_obs::names::FUSION_TANGENT_SEARCHES,
            uniq_obs::names::FUSION_ANGLE_EVALS,
            uniq_obs::names::RENDER_BLOCKS,
            uniq_obs::names::STORE_BYTES_HASHED,
            uniq_obs::names::STORE_BYTES_CRC,
        ] {
            assert!(
                counters
                    .get(name)
                    .and_then(Json::as_u64)
                    .is_some_and(|n| n > 0),
                "{name}: {counters:?}"
            );
        }
        // And the gate agrees the two runs match.
        let reference = Reference {
            name: "first run".into(),
            doc: a.clone(),
        };
        let r = compare(&b, &[reference]).unwrap();
        assert!(r.quality_failures.is_empty(), "{r:?}");
    }
}
