//! Criterion micro-benchmarks for the geometry substrate: wrap paths are
//! the hottest call in sensor fusion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uniq_geometry::critical::critical_angles;
use uniq_geometry::diffraction::{path_length_to_ear, path_to_ear};
use uniq_geometry::planewave::plane_path_to_ear;
use uniq_geometry::vec2::unit_from_theta;
use uniq_geometry::{Ear, HeadBoundary, HeadParams};

fn bench_boundary_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("boundary_new");
    for &n in &[256usize, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| HeadBoundary::new(std::hint::black_box(HeadParams::average_adult()), n))
        });
    }
    group.finish();
}

fn bench_wrap_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_to_ear");
    for &n in &[256usize, 1024, 4096] {
        let boundary = HeadBoundary::new(HeadParams::average_adult(), n);
        let src = unit_from_theta(40.0) * 0.45;
        group.bench_with_input(BenchmarkId::new("shadowed", n), &boundary, |b, boundary| {
            b.iter(|| path_to_ear(std::hint::black_box(boundary), src, Ear::Right))
        });
        group.bench_with_input(BenchmarkId::new("lit", n), &boundary, |b, boundary| {
            b.iter(|| path_to_ear(std::hint::black_box(boundary), src, Ear::Left))
        });
    }
    group.finish();
}

/// The length-only query fusion's Gauss–Newton residual calls: the
/// tangent search without the wrap-angle walk, so its cost should barely
/// grow with the boundary resolution.
fn bench_wrap_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_length_to_ear");
    for &n in &[256usize, 1024, 4096] {
        let boundary = HeadBoundary::new(HeadParams::average_adult(), n);
        let src = unit_from_theta(40.0) * 0.45;
        group.bench_with_input(BenchmarkId::new("shadowed", n), &boundary, |b, boundary| {
            b.iter(|| path_length_to_ear(std::hint::black_box(boundary), src, Ear::Right))
        });
    }
    group.finish();
}

fn bench_plane_wave(c: &mut Criterion) {
    let boundary = HeadBoundary::new(HeadParams::average_adult(), 1024);
    c.bench_function("plane_path_to_ear_1024", |b| {
        b.iter(|| plane_path_to_ear(std::hint::black_box(&boundary), 60.0, Ear::Right))
    });
}

fn bench_critical_angles(c: &mut Criterion) {
    let boundary = HeadBoundary::new(HeadParams::average_adult(), 1024);
    c.bench_function("critical_angles_1024", |b| {
        b.iter(|| critical_angles(std::hint::black_box(&boundary), 45.0, 0.45))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_boundary_construction, bench_wrap_path, bench_wrap_length, bench_plane_wave,
        bench_critical_angles
}
criterion_main!(benches);
