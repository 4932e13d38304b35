//! Memory-profile gates over the real pipeline: per-stage allocation
//! count/bytes must be *bit-identical* across repeated runs and across
//! thread counts (the deterministic columns of `uniq-memprof`), and the
//! hot-path stages must not allocate per call beyond their pinned setup
//! allowance.
//!
//! The counting allocator is process-global, so every test here
//! serializes on one mutex and prewarms the workload before measuring
//! (first runs pay one-time lazy initialization; gates compare steady
//! state).

use std::sync::{Arc, Mutex};
use uniq_bench::baseline::{alloc_invariant, alloc_profile, BaselineSpec};
use uniq_core::pipeline::personalize_with_retry;
use uniq_profile::ProfileSink;
use uniq_subjects::Subject;

#[global_allocator]
static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();

/// Serializes the measuring tests: the profiler's counters are
/// process-global and `cargo test` runs tests concurrently.
static GATE: Mutex<()> = Mutex::new(());

/// Renders the deterministic columns of two snapshots side by side —
/// failure output that names the drifting stage directly.
fn diff_table(a: &uniq_memprof::AllocSnapshot, b: &uniq_memprof::AllocSnapshot) -> String {
    let mut out =
        String::from("stage                         allocs(a)  allocs(b)   bytes(a)   bytes(b)\n");
    let names: std::collections::BTreeSet<&String> =
        a.stages.keys().chain(b.stages.keys()).collect();
    for name in names {
        let sa = a.stages.get(name.as_str()).copied().unwrap_or_default();
        let sb = b.stages.get(name.as_str()).copied().unwrap_or_default();
        let marker = if (sa.allocs, sa.bytes) == (sb.allocs, sb.bytes) {
            " "
        } else {
            "!"
        };
        out.push_str(&format!(
            "{marker} {name:<28} {:>9} {:>10} {:>10} {:>10}\n",
            sa.allocs, sb.allocs, sa.bytes, sb.bytes
        ));
    }
    out
}

#[test]
fn per_stage_allocs_bit_identical_across_runs() {
    let _gate = GATE.lock().unwrap();
    let spec = BaselineSpec::quick();
    let a = alloc_profile(&spec, 1);
    let b = alloc_profile(&spec, 1);
    assert!(
        alloc_invariant(&a, &b),
        "two identical runs disagree on per-stage allocations:\n{}",
        diff_table(&a, &b)
    );
    assert!(!a.stages.is_empty(), "profile attributed nothing");
}

/// Pinned per-call allocation allowances for the hot-path stages — the
/// runtime form of the analyzer's static hot-path-alloc rule. Each stage
/// is allowed its *pre-span setup* allocations (scratch and output
/// buffers sized once per call before the tight loops); the gate fails
/// when a change adds per-call allocation beyond that. The numbers are
/// deterministic (bit-identical across runs and thread counts, asserted
/// above), so the ceilings sit directly on today's measured values.
const HOT_PATH_ALLOWANCE: &[(&str, u64, u64)] = &[
    // (stage, max allocs per call, max bytes per call)
    (uniq_obs::names::SPAN_FUSION, 232, 55_320),
    (uniq_obs::names::SPAN_CHANNEL_ESTIMATE, 6, 245_760),
    // The output-grid stages also build one buffer per output ear (and
    // nearfar one arc member list per ear) at each grid angle.
    (uniq_obs::names::SPAN_NEARFAR_CONVERT, 60, 133_280),
    (uniq_obs::names::SPAN_NEARFIELD_INTERPOLATE, 34, 132_640),
];

#[test]
fn hot_path_stages_stay_within_pinned_alloc_allowance() {
    let _gate = GATE.lock().unwrap();
    let spec = BaselineSpec::quick();
    let cfg = spec.config(1);
    let subject = Subject::from_seed(spec.seed);
    // Prewarm outside the profiled sink so lazy one-time setup does not
    // count against the allowance.
    uniq_obs::with_sink(Arc::new(uniq_obs::sink::NoopSink), || {
        personalize_with_retry(&subject, &cfg, spec.seed, 3).expect("personalize failed");
    });
    let profile = Arc::new(ProfileSink::new());
    let (_, snap) = uniq_obs::with_sink(profile.clone(), || {
        uniq_memprof::measure(|| {
            personalize_with_retry(&subject, &cfg, spec.seed, 3).expect("personalize failed")
        })
    });
    let report = profile.report();
    for &(stage, max_allocs, max_bytes) in HOT_PATH_ALLOWANCE {
        let calls = report.stage(stage).map(|s| s.count).unwrap_or(0);
        assert!(calls > 0, "hot-path stage {stage:?} never ran");
        let alloc = snap.stage(stage).copied().unwrap_or_default();
        let (per_allocs, per_bytes) = (alloc.allocs.div_ceil(calls), alloc.bytes.div_ceil(calls));
        assert!(
            per_allocs <= max_allocs && per_bytes <= max_bytes,
            "hot-path stage {stage:?} allocates {per_allocs} times / {per_bytes} bytes per call \
             (over {calls} calls) — allowance is {max_allocs} / {max_bytes}; either remove the \
             new per-call allocation or re-pin the allowance with justification"
        );
    }
}

#[test]
fn per_stage_allocs_thread_invariant_1_vs_8() {
    let _gate = GATE.lock().unwrap();
    let spec = BaselineSpec::quick();
    let mut a = alloc_profile(&spec, 1);
    let mut b = alloc_profile(&spec, 8);
    if !alloc_invariant(&a, &b) {
        // Steady-state settlement (same contract as
        // `alloc_profile_matrix`): a one-time lazy initialization — a
        // queue buffer or thread-local stack growing past its initial
        // capacity on a scheduling-dependent path — may land in either
        // measured run once per process; re-measuring cannot pay it
        // again, so only a genuine thread-count dependence diverges
        // twice.
        a = alloc_profile(&spec, 1);
        b = alloc_profile(&spec, 8);
    }
    assert!(
        alloc_invariant(&a, &b),
        "per-stage allocations vary with the thread count (t=1 vs t=8):\n{}",
        diff_table(&a, &b)
    );
}

/// Head-tracked rendering allocates per call, never per block: once a
/// warm-up call has filled the banks' spectrum caches, rendering the same
/// scene over 8 blocks and over 64 blocks makes the same allocations.
#[test]
fn motion_render_allocations_do_not_grow_with_block_count() {
    use uniq_acoustics::{pinna::PinnaModel, render::Renderer, types::RenderConfig};
    use uniq_geometry::{HeadBoundary, HeadParams, Vec2};
    use uniq_render::motion::{render_with_motion, turning_head};

    let _gate = GATE.lock().unwrap();
    let head = HeadParams::average_adult();
    let renderer = Renderer::new(
        HeadBoundary::new(head, 512),
        PinnaModel::from_seed(211),
        PinnaModel::from_seed(212),
        RenderConfig::default(),
    );
    let angles: Vec<f64> = (0..=18).map(|k| k as f64 * 10.0).collect();
    let engine = uniq_render::BinauralEngine::new(uniq_core::hrtf::PersonalHrtf::new(
        renderer
            .near_field_bank(&angles, 0.4)
            .expect("0.4 m clears the head"),
        renderer.ground_truth_bank(&angles),
        head,
    ));
    let mut scene = uniq_render::Scene::new();
    scene.add("far left", Vec2::new(-2.0, 1.0), 1.0);
    scene.add("far right", Vec2::new(2.0, 1.5), 0.7);
    scene.add("near", Vec2::new(0.3, -0.2), 0.5);
    let (block, fade) = (1024, 128);
    let sig = uniq_dsp::signal::linear_chirp(200.0, 12_000.0, 1.5, 48_000.0);
    let render = |blocks: usize| {
        let sig = &sig[..blocks * block];
        let poses = turning_head(0.0, 90.0, blocks);
        let (_, snap) = uniq_obs::with_sink(Arc::new(uniq_obs::sink::NoopSink), || {
            uniq_memprof::measure(|| render_with_motion(&engine, &scene, &poses, sig, block, fade))
        });
        snap
    };
    render(8);
    let (short, long) = (render(8), render(64));
    assert!(
        short.stage(uniq_obs::names::SPAN_RENDER_MOTION).is_some(),
        "the render allocated nothing under its span:\n{}",
        diff_table(&short, &long)
    );
    assert_eq!(
        short.total().allocs,
        long.total().allocs,
        "allocations grow with the block count (8 vs 64 blocks):\n{}",
        diff_table(&short, &long)
    );
}

/// Eq. 11 reads lag-domain terms cached on the bank (4·ir_len − 1 values
/// per entry), not spectra at the recording's transform size: the first
/// unknown-source call on a fresh 181-angle bank at the paper
/// configuration, which builds those terms, peaks under 16 MB of live
/// heap. Spectra at n = 32768 would take ~190 MB.
#[test]
fn first_unknown_source_call_builds_small_tables() {
    use uniq_acoustics::measure::{record_plane_wave, MeasurementSetup};
    use uniq_acoustics::signals::{generate, SignalKind};
    use uniq_acoustics::{pinna::PinnaModel, render::Renderer};
    use uniq_core::config::UniqConfig;
    use uniq_geometry::{HeadBoundary, HeadParams};

    let _gate = GATE.lock().unwrap();
    let cfg = UniqConfig::default();
    let renderer = Renderer::new(
        HeadBoundary::new(HeadParams::average_adult(), cfg.inverse_resolution),
        PinnaModel::from_seed(3),
        PinnaModel::from_seed(4),
        cfg.render,
    );
    let bank = renderer.ground_truth_bank(&cfg.output_grid());
    assert_eq!(bank.len(), 181);
    let setup = MeasurementSetup::anechoic(cfg.render.sample_rate, 35.0);
    let speech = generate(SignalKind::Speech, 0.4, cfg.render.sample_rate, 1);
    let rec = record_plane_wave(&renderer, &setup, 65.0, &speech, 2);
    let (_, snap) = uniq_obs::with_sink(Arc::new(uniq_obs::sink::NoopSink), || {
        uniq_memprof::measure(|| uniq_core::aoa::estimate_unknown_source(&rec, &bank, &cfg))
    });
    assert!(
        snap.peak_live_bytes <= 16 << 20,
        "first unknown-source call peaked at {} bytes of live heap",
        snap.peak_live_bytes
    );
}
