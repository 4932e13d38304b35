//! Criterion benchmarks for the UNIQ pipeline stages: localization, HRIR
//! rendering, the in-room forward model, channel estimation and AoA
//! matching.

use criterion::{criterion_group, criterion_main, Criterion};
use uniq_acoustics::measure::{record_plane_wave, record_point_source, MeasurementSetup};
use uniq_acoustics::pinna::PinnaModel;
use uniq_acoustics::render::Renderer;
use uniq_acoustics::room::Shoebox;
use uniq_core::aoa::estimate_known_source;
use uniq_core::config::UniqConfig;
use uniq_core::fusion::localize_phone;
use uniq_geometry::diffraction::path_to_ear;
use uniq_geometry::vec2::unit_from_theta;
use uniq_geometry::{Ear, HeadBoundary, HeadParams};

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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_localize, bench_render, bench_forward_model, bench_aoa
}
criterion_main!(benches);
