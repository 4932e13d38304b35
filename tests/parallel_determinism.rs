//! Parallel-vs-sequential bit-identity: the determinism contract of the
//! uniq-par engine. The same seeded subject personalized at `threads = 1`
//! and `threads = 8` must produce bit-identical HRTFs, AoA estimates, and
//! observability aggregates — thread count changes scheduling, never
//! results.

use std::collections::BTreeMap;
use std::sync::Arc;

use uniq_acoustics::measure::{record_plane_wave, MeasurementSetup};
use uniq_core::batch::{hrtf_fingerprint, personalize_batch};
use uniq_core::config::UniqConfig;
use uniq_core::pipeline::{personalize, PersonalizationResult};
use uniq_obs::sink::MemorySink;
use uniq_obs::Event;
use uniq_subjects::Subject;

fn cfg_with(threads: usize) -> UniqConfig {
    UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 10.0,
        threads,
        ..UniqConfig::fast_test()
    }
}

fn assert_results_identical(a: &PersonalizationResult, b: &PersonalizationResult) {
    assert_eq!(a.radius_m.to_bits(), b.radius_m.to_bits());
    assert_eq!(a.attempts, b.attempts);
    assert_eq!(a.localization, b.localization);
    assert_eq!(a.fusion.head.a.to_bits(), b.fusion.head.a.to_bits());
    for (x, y) in a.hrtf.far().irs().iter().zip(b.hrtf.far().irs()) {
        assert_eq!(x.left, y.left);
        assert_eq!(x.right, y.right);
    }
    for (x, y) in a.hrtf.near().irs().iter().zip(b.hrtf.near().irs()) {
        assert_eq!(x.left, y.left);
        assert_eq!(x.right, y.right);
    }
}

#[test]
fn pipeline_is_bit_identical_across_thread_counts() {
    let subject = Subject::from_seed(70);
    let sequential = personalize(&subject, &cfg_with(1), 42).expect("sequential run");
    let parallel = personalize(&subject, &cfg_with(8), 42).expect("parallel run");
    assert_results_identical(&sequential, &parallel);
}

#[test]
fn aoa_estimates_identical_across_thread_counts() {
    let c1 = cfg_with(1);
    let c8 = cfg_with(8);
    let subject = Subject::from_seed(90);
    let renderer = subject.renderer(c1.render, 1024);
    let angles: Vec<f64> = (0..=36).map(|k| k as f64 * 5.0).collect();
    let bank = renderer.ground_truth_bank(&angles);
    let setup = MeasurementSetup::anechoic(c1.render.sample_rate, 40.0);
    let probe = c1.probe();

    for truth in [20.0, 75.0, 140.0] {
        let rec = record_plane_wave(&renderer, &setup, truth, &probe, 7);
        let known1 = uniq_core::aoa::estimate_known_source(&rec, &probe, &bank, &c1);
        let known8 = uniq_core::aoa::estimate_known_source(&rec, &probe, &bank, &c8);
        assert_eq!(
            known1.to_bits(),
            known8.to_bits(),
            "known-source AoA diverged at θ={truth}: {known1} vs {known8}"
        );
        let unknown1 = uniq_core::aoa::estimate_unknown_source(&rec, &bank, &c1);
        let unknown8 = uniq_core::aoa::estimate_unknown_source(&rec, &bank, &c8);
        assert_eq!(
            unknown1.to_bits(),
            unknown8.to_bits(),
            "unknown-source AoA diverged at θ={truth}: {unknown1} vs {unknown8}"
        );
    }
}

type CounterTotals = BTreeMap<&'static str, u64>;
type MetricBits = BTreeMap<&'static str, Vec<u64>>;
type SpanCounts = BTreeMap<&'static str, usize>;

/// Aggregates one recorded run: per-name counter totals, per-name sorted
/// metric value bits, and per-name span counts. Event *order* may differ
/// across thread counts (workers interleave); the aggregates may not.
fn aggregates(events: &[Event]) -> (CounterTotals, MetricBits, SpanCounts) {
    let mut counters = BTreeMap::new();
    let mut metrics: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut spans = BTreeMap::new();
    for e in events {
        match e {
            Event::Counter { name, delta } => *counters.entry(*name).or_insert(0) += delta,
            Event::Metric { name, value, .. } => {
                metrics.entry(*name).or_default().push(value.to_bits())
            }
            Event::SpanStart { name, .. } => *spans.entry(*name).or_insert(0) += 1,
            Event::SpanEnd { .. } => {}
        }
    }
    for values in metrics.values_mut() {
        values.sort_unstable();
    }
    (counters, metrics, spans)
}

#[test]
fn observability_aggregates_identical_across_thread_counts() {
    let subject = Subject::from_seed(71);
    let record = |threads: usize| {
        let sink = Arc::new(MemorySink::new());
        uniq_obs::with_sink(sink.clone(), || {
            personalize(&subject, &cfg_with(threads), 43).expect("pipeline succeeds")
        });
        aggregates(&sink.events())
    };
    let (counters1, metrics1, spans1) = record(1);
    let (counters8, metrics8, spans8) = record(8);
    assert_eq!(counters1, counters8, "counter totals diverged");
    assert_eq!(spans1, spans8, "span counts diverged");
    assert_eq!(
        metrics1.keys().collect::<Vec<_>>(),
        metrics8.keys().collect::<Vec<_>>(),
        "metric names diverged"
    );
    for (name, values) in &metrics1 {
        assert_eq!(
            values, &metrics8[name],
            "metric {name} values diverged between thread counts"
        );
    }
}

/// The causal ids are part of the determinism contract: every span's
/// `(trace_id, span_id, parent_id)` triple is a pure function of its
/// position in the call tree, so a run at 8 threads must assign the
/// exact same ids as a run at 1 thread (acceptance criterion of the
/// telemetry layer — `uniq trace report` output must not depend on
/// `UNIQ_THREADS`).
#[test]
fn span_ids_bit_identical_across_thread_counts() {
    let subject = Subject::from_seed(73);
    let record = |threads: usize| {
        let sink = Arc::new(MemorySink::new());
        uniq_obs::with_sink(sink.clone(), || {
            personalize(&subject, &cfg_with(threads), 45).expect("pipeline succeeds")
        });
        let mut ids: Vec<(&'static str, u64, u64, u64)> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, ids, .. } => {
                    Some((*name, ids.trace, ids.span, ids.parent))
                }
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids
    };
    let ids1 = record(1);
    let ids8 = record(8);
    assert!(!ids1.is_empty(), "no spans recorded");
    assert_eq!(ids1, ids8, "span id triples diverged between thread counts");
    // Non-root spans must link to a parent that exists in the same run.
    let spans: std::collections::BTreeSet<u64> = ids1.iter().map(|t| t.2).collect();
    for (name, _, _, parent) in &ids1 {
        assert!(
            *parent == 0 || spans.contains(parent),
            "span {name} has a dangling parent id"
        );
    }
}

/// The degraded-session path: `fuse_weighted` with per-stop weights
/// localizes stops on the pool and reduces the weighted terms in index
/// order, so the fit is bit-identical at 1 and 8 threads.
#[test]
fn weighted_fusion_bit_identical_across_thread_counts() {
    use uniq_core::fusion::{fuse_weighted, FusionInput};
    use uniq_geometry::diffraction::path_to_ear;
    use uniq_geometry::vec2::unit_from_theta;
    use uniq_geometry::{Ear, HeadBoundary, HeadParams};

    let boundary = HeadBoundary::new(HeadParams::new(0.079, 0.097, 0.088), 2048);
    let inputs: Vec<FusionInput> = (0..12)
        .map(|k| {
            let theta = k as f64 * 180.0 / 11.0;
            let pos = unit_from_theta(theta) * 0.42;
            FusionInput {
                // IMU-like error on the inertial angle.
                alpha_deg: theta + [2.5, -1.5, 3.0, -3.5][k % 4],
                d_left_m: path_to_ear(&boundary, pos, Ear::Left).unwrap().length,
                d_right_m: path_to_ear(&boundary, pos, Ear::Right).unwrap().length,
            }
        })
        .collect();
    let weights = [1.0, 0.8, 0.05, 1.0, 0.6, 1.0, 0.3, 1.0, 0.9, 0.0, 1.0, 0.7];
    let fit = |threads: usize| {
        let cfg = UniqConfig {
            inverse_resolution: 512,
            threads,
            ..UniqConfig::fast_test()
        };
        fuse_weighted(&inputs, Some(&weights), &cfg).expect("weighted fusion converges")
    };
    let (a, b) = (fit(1), fit(8));
    let head_bits = |h: HeadParams| [h.a.to_bits(), h.b.to_bits(), h.c.to_bits()];
    assert_eq!(head_bits(a.head), head_bits(b.head), "fitted head diverged");
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "objective diverged"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a.final_thetas_deg),
        bits(&b.final_thetas_deg),
        "fused thetas diverged"
    );
    assert_eq!(a.mean_residual_deg.to_bits(), b.mean_residual_deg.to_bits());
}

/// Fusion's work counters are pure functions of the workload: identical
/// at 1 and 8 threads, and pinned on the seed-6 workload. With the exact
/// Gauss–Newton Jacobian a step costs one residual evaluation, so the
/// residual count sits just above the Newton steps plus the two seeds per
/// stop and objective evaluation (the finite-difference Jacobian it
/// replaced spent 44,573 residual evaluations here).
#[test]
fn fusion_work_counters_identical_across_thread_counts() {
    use uniq_bench::baseline::BaselineSpec;
    use uniq_core::pipeline::personalize_with_retry;
    use uniq_obs::names::{FUSION_GN_ITERATIONS, FUSION_OBJECTIVE_EVALS, FUSION_RESIDUAL_EVALS};

    let spec = BaselineSpec::quick();
    let subject = Subject::from_seed(spec.seed);
    let counts = |threads: usize| {
        let sink = Arc::new(MemorySink::new());
        uniq_obs::with_sink(sink.clone(), || {
            personalize_with_retry(&subject, &spec.config(threads), spec.seed, 3)
                .expect("seed-6 personalization succeeds")
        });
        (
            sink.counter_total(FUSION_OBJECTIVE_EVALS),
            sink.counter_total(FUSION_RESIDUAL_EVALS),
            sink.counter_total(FUSION_GN_ITERATIONS),
        )
    };
    let t1 = counts(1);
    assert_eq!(
        t1,
        counts(8),
        "fusion work counters vary with the thread count"
    );
    assert_eq!(
        t1,
        (108, 18_068, 13_326),
        "fusion work counts drifted from the pinned seed-6 counts"
    );
}

#[test]
fn faulted_pipeline_bit_identical_across_thread_counts() {
    use uniq_core::degrade::DegradationPolicy;
    use uniq_core::pipeline::personalize_faulted;
    use uniq_faults::FaultPlan;

    // A compound plan exercising every injection boundary: acoustic
    // corruption, gyro corruption, and session-structure faults.
    let plan = FaultPlan::parse(
        "drop@2,snr:-9@4,clip:0.5,jitter:0.03,gyro-dropout:0.45:0.05",
        9,
    )
    .expect("plan parses");
    let policy = DegradationPolicy::default();
    let subject = Subject::from_seed(72);
    let sequential = personalize_faulted(&subject, &cfg_with(1), 44, &plan, &policy)
        .expect("sequential faulted run");
    let parallel = personalize_faulted(&subject, &cfg_with(8), 44, &plan, &policy)
        .expect("parallel faulted run");
    assert_results_identical(&sequential.result, &parallel.result);
    assert_eq!(
        sequential.degradation, parallel.degradation,
        "degradation reports diverged between thread counts"
    );
}

/// N parallel writers racing `Store::put` must leave the store in the
/// same logical state as a sequential run: one blob per distinct
/// artifact, exact dedup accounting, a replayable index, and a store
/// fingerprint that is bit-identical at 1 and 8 threads (index line
/// *order* may differ; the contents may not).
#[test]
fn store_state_bit_identical_across_parallel_writers() {
    use uniq_store::Store;

    // 24 put jobs over 8 distinct artifacts → 16 dedup hits, regardless
    // of which writer wins each race.
    let jobs: Vec<u64> = (0..24).map(|i| i % 8).collect();
    let run = |threads: usize| {
        let root =
            std::env::temp_dir().join(format!("uniq_store_par_{}_{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root).expect("open scratch store");
        let pool = uniq_par::pool(threads);
        let outcomes = pool.par_map_chunked(&jobs, 1, |&seed| {
            let mut artifact = uniq_store::HrtfArtifact {
                seed,
                subject_fingerprint: 0,
                config_hash: 0xD15C,
                sample_rate: 48_000.0,
                head: [0.08, 0.09, 0.10],
                radius_m: 0.4 + seed as f64 * 0.01,
                attempts: 1,
                localization: vec![(seed as f64, seed as f64 + 0.5)],
                near: uniq_store::Grid {
                    angles_deg: vec![0.0, 90.0],
                    ir_len: 3,
                    irs: vec![
                        (vec![seed as f64, 1.0, 2.0], vec![3.0, 4.0, 5.0]),
                        (vec![6.0, 7.0, seed as f64], vec![9.0, 10.0, 11.0]),
                    ],
                },
                far: uniq_store::Grid::empty(),
                degradation_json: None,
            };
            artifact.subject_fingerprint = artifact.fingerprint();
            store.put(&artifact).expect("parallel put")
        });
        assert_eq!(outcomes.iter().filter(|o| o.deduped).count(), 16);
        assert_eq!(store.len(), 8);
        assert_eq!(store.dedup_hits(), 16);
        assert!(
            store.verify().is_clean(),
            "store corrupt after parallel puts"
        );
        let fingerprint = store.fingerprint();
        // Reopening replays the index the writers appended concurrently.
        drop(store);
        let reopened = Store::open(&root).expect("reopen after parallel puts");
        assert_eq!(reopened.len(), 8);
        assert_eq!(reopened.fingerprint(), fingerprint);
        let _ = std::fs::remove_dir_all(&root);
        fingerprint
    };
    assert_eq!(
        run(1),
        run(8),
        "store fingerprint diverged between 1 and 8 writer threads"
    );
}

#[test]
fn batch_fingerprint_identical_across_thread_counts() {
    let cfg = UniqConfig {
        grid_step_deg: 15.0,
        threads: 1,
        ..cfg_with(1)
    };
    let seeds = [70u64, 71, 72, 73];
    let fp1 = hrtf_fingerprint(&personalize_batch(&seeds, &cfg, 1, 2));
    let fp8 = hrtf_fingerprint(&personalize_batch(&seeds, &cfg, 8, 2));
    assert_eq!(fp1, fp8, "batch outputs diverged between 1 and 8 threads");
}
