//! Criterion benchmarks for the UNIQ pipeline stages: localization, HRIR
//! rendering, the in-room forward model, channel estimation, AoA
//! matching and head-tracked binaural rendering.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use uniq_acoustics::measure::{record_plane_wave, record_point_source, MeasurementSetup};
use uniq_acoustics::pinna::PinnaModel;
use uniq_acoustics::render::Renderer;
use uniq_acoustics::room::Shoebox;
use uniq_acoustics::signals::{generate, SignalKind};
use uniq_core::aoa::{estimate_known_source, estimate_unknown_source};
use uniq_core::config::UniqConfig;
use uniq_core::fusion::localize_phone;
use uniq_core::hrtf::PersonalHrtf;
use uniq_geometry::diffraction::path_to_ear;
use uniq_geometry::vec2::unit_from_theta;
use uniq_geometry::{Ear, HeadBoundary, HeadParams};
use uniq_obs::names::AOA_CANDIDATE_FALLBACKS;
use uniq_obs::sink::MemorySink;
use uniq_render::motion::{render_with_motion, turning_head};
use uniq_render::{BinauralEngine, Scene};

fn bench_localize(c: &mut Criterion) {
    let boundary = HeadBoundary::new(HeadParams::average_adult(), 1024);
    let pos = unit_from_theta(55.0) * 0.42;
    let dl = path_to_ear(&boundary, pos, Ear::Left).unwrap().length;
    let dr = path_to_ear(&boundary, pos, Ear::Right).unwrap().length;
    c.bench_function("localize_phone", |b| {
        b.iter(|| localize_phone(std::hint::black_box(&boundary), dl, dr, 58.0))
    });
}

fn bench_render(c: &mut Criterion) {
    let cfg = uniq_acoustics::types::RenderConfig::default();
    let renderer = Renderer::new(
        HeadBoundary::new(HeadParams::average_adult(), 1024),
        PinnaModel::from_seed(1),
        PinnaModel::from_seed(2),
        cfg,
    );
    c.bench_function("render_point_source", |b| {
        let src = unit_from_theta(70.0) * 0.4;
        b.iter(|| renderer.render_point(std::hint::black_box(src)))
    });
    c.bench_function("render_plane_wave", |b| {
        b.iter(|| renderer.render_plane(std::hint::black_box(70.0)))
    });
}

/// One measurement stop's forward model at the paper configuration:
/// 4096-vertex boundary, living-room echoes (direct sound plus 12 images
/// per ear) in a 4096-sample response, and the full capture through the
/// 50 ms probe chirp at 35 dB SNR.
fn bench_forward_model(c: &mut Criterion) {
    let cfg = uniq_acoustics::types::RenderConfig::default();
    let renderer = Renderer::new(
        HeadBoundary::new(HeadParams::average_adult(), 4096),
        PinnaModel::from_seed(31),
        PinnaModel::from_seed(32),
        cfg,
    );
    let src = uniq_geometry::Vec2::new(-0.35, 0.2);
    let room = Shoebox::typical_living_room();
    c.bench_function("render_echoic/paper_4096", |b| {
        b.iter(|| room.render_echoic(&renderer, std::hint::black_box(src), 4096))
    });
    let setup = MeasurementSetup::home(cfg.sample_rate, 35.0);
    let probe = uniq_dsp::signal::linear_chirp(100.0, 20_000.0, 0.05, cfg.sample_rate);
    c.bench_function("record_point_source/paper", |b| {
        b.iter(|| record_point_source(&renderer, &setup, std::hint::black_box(src), &probe, 801))
    });
}

fn bench_aoa(c: &mut Criterion) {
    let cfg = UniqConfig {
        grid_step_deg: 5.0,
        ..UniqConfig::fast_test()
    };
    let renderer = Renderer::new(
        HeadBoundary::new(HeadParams::average_adult(), 1024),
        PinnaModel::from_seed(3),
        PinnaModel::from_seed(4),
        cfg.render,
    );
    let bank = renderer.ground_truth_bank(&cfg.output_grid());
    let setup = MeasurementSetup::anechoic(cfg.render.sample_rate, 40.0);
    let probe = cfg.probe();
    let rec = record_plane_wave(&renderer, &setup, 65.0, &probe, 1);
    c.bench_function("aoa_known_source_37_templates", |b| {
        b.iter(|| {
            estimate_known_source(
                std::hint::black_box(&rec),
                std::hint::black_box(&probe),
                &bank,
                &cfg,
            )
        })
    });
}

/// Both AoA estimators at the paper configuration: a 181-angle bank at
/// `UniqConfig::default()` and 0.4 s clips. The known source is white
/// noise; the unknown source is a speech clip whose Eq. 10 step finds no
/// candidate, so Eq. 11 scores all 181 angles. The first (calibration)
/// call fills what `uniq_core::aoa` caches on the bank (the TDoA features
/// and, at the call's transform size, the reversed template spectra for
/// Eq. 9; the lag-domain HRIR terms for Eq. 11); the samples time the
/// per-call work.
fn bench_aoa_paper(c: &mut Criterion) {
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
    let noise = generate(SignalKind::WhiteNoise, 0.4, cfg.render.sample_rate, 5);
    let rec = record_plane_wave(&renderer, &setup, 65.0, &noise, 1);
    c.bench_function("aoa_known_source_paper", |b| {
        b.iter(|| estimate_known_source(std::hint::black_box(&rec), &noise, &bank, &cfg))
    });
    let speech = generate(SignalKind::Speech, 0.4, cfg.render.sample_rate, 1);
    let rec = record_plane_wave(&renderer, &setup, 65.0, &speech, 2);
    let sink = Arc::new(MemorySink::new());
    uniq_obs::with_sink(sink.clone(), || estimate_unknown_source(&rec, &bank, &cfg));
    assert_eq!(sink.counter_total(AOA_CANDIDATE_FALLBACKS), 1);
    c.bench_function("aoa_unknown_source_paper", |b| {
        b.iter(|| estimate_unknown_source(std::hint::black_box(&rec), &bank, &cfg))
    });
}

/// Head-tracked rendering as the `aoa-render` workload runs it: 2 s of
/// music from three far-field sources through a 181-angle table, in
/// 1024-sample blocks with 128-sample crossfades while the head turns
/// 60°. The first (calibration) call fills the bank's spectrum cache.
fn bench_render_motion(c: &mut Criterion) {
    let cfg = UniqConfig::default();
    let renderer = Renderer::new(
        HeadBoundary::new(HeadParams::average_adult(), cfg.inverse_resolution),
        PinnaModel::from_seed(5),
        PinnaModel::from_seed(6),
        cfg.render,
    );
    let bank = renderer.ground_truth_bank(&cfg.output_grid());
    let engine = BinauralEngine::new(PersonalHrtf::new(
        bank.clone(),
        bank,
        HeadParams::average_adult(),
    ));
    let mut scene = Scene::new();
    scene.add("a", unit_from_theta(40.0) * 2.0, 0.9);
    scene.add("b", unit_from_theta(170.0) * 2.5, 0.6);
    scene.add("c", unit_from_theta(290.0) * 1.5, 0.8);
    let music = generate(SignalKind::Music, 2.0, cfg.render.sample_rate, 7);
    let poses = turning_head(0.0, 60.0, music.len().div_ceil(1024));
    c.bench_function("render_with_motion_3src_2s", |b| {
        b.iter(|| {
            render_with_motion(
                &engine,
                &scene,
                &poses,
                std::hint::black_box(&music),
                1024,
                128,
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_localize, bench_render, bench_forward_model, bench_aoa, bench_aoa_paper,
        bench_render_motion
}
criterion_main!(benches);
