//! Criterion micro-benchmarks for the geometry substrate: wrap paths are
//! the hottest call in sensor fusion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uniq_geometry::critical::critical_angles;
use uniq_geometry::diffraction::{ear_paths_and_gradients, path_to_ear, WrapWork};
use uniq_geometry::head::BoundaryTable;
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

/// What fusion pays to discretize one head hypothesis at the paper's
/// resolution: `new` computes 1024 cosines and sines, `reshape` reads
/// them from a table built once per fit.
fn bench_boundary_new_1024(c: &mut Criterion) {
    let mut group = c.benchmark_group("boundary_new_1024");
    let head = HeadParams::average_adult();
    group.bench_function("new", |b| {
        b.iter(|| HeadBoundary::new(std::hint::black_box(head), 1024))
    });
    let table = BoundaryTable::new(1024);
    let mut boundary = HeadBoundary::new(head, 1024);
    group.bench_function("reshape", |b| {
        b.iter(|| boundary.reshape(std::hint::black_box(head), &table))
    });
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

/// The query behind each Gauss–Newton residual: both ears' lengths plus
/// their gradients, one containment test and at most one tangent search,
/// without `path_to_ear`'s wrap angle, so it should cost less than two
/// `path_to_ear` calls at the same resolution.
fn bench_ear_paths_and_gradients(c: &mut Criterion) {
    let mut group = c.benchmark_group("ear_paths_and_gradients_1024");
    let boundary = HeadBoundary::new(HeadParams::average_adult(), 1024);
    // At 40° the left ear is lit and the right shadowed; straight ahead
    // both are shadowed and share the search.
    for (name, theta) in [("one_shadowed", 40.0), ("both_shadowed", 0.0)] {
        let src = unit_from_theta(theta) * 0.45;
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut work = WrapWork::default();
                ear_paths_and_gradients(std::hint::black_box(&boundary), src, &mut work)
            })
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
    targets = bench_boundary_construction, bench_boundary_new_1024, bench_wrap_path,
        bench_ear_paths_and_gradients, bench_plane_wave, bench_critical_angles
}
criterion_main!(benches);
