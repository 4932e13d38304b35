//! Criterion micro-benchmarks for the uniq-par pool: scheduling overhead
//! of `par_map` against a plain sequential map, across pool sizes.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uniq_profile::ProfileSink;

fn workload(x: &f64) -> f64 {
    let mut acc = *x;
    for _ in 0..64 {
        acc = acc.sin().mul_add(1.0001, 0.0001);
    }
    acc
}

fn bench_par_map(c: &mut Criterion) {
    let items: Vec<f64> = (0..4096).map(|k| k as f64 * 0.001).collect();
    let mut group = c.benchmark_group("par_map_4096");
    group.bench_function("sequential", |b| {
        b.iter(|| {
            std::hint::black_box(&items)
                .iter()
                .map(workload)
                .collect::<Vec<f64>>()
        })
    });
    for threads in [1usize, 2, 4, 8] {
        let pool = uniq_par::pool(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &items, |b, items| {
            b.iter(|| pool.par_map(std::hint::black_box(items), workload))
        });
    }
    group.finish();
}

/// Per-job cost: 64 trivial items at chunk 1 queue one job each. One
/// iteration runs 100 such maps, so an occasional descheduled worker is
/// averaged over them rather than deciding a whole sample; divide by
/// 6400 for the cost of one job.
fn bench_per_job(c: &mut Criterion) {
    let pool = uniq_par::pool(4);
    let items = [3.0f64; 64];
    let maps = || {
        for _ in 0..100 {
            std::hint::black_box(
                pool.par_map_chunked(std::hint::black_box(&items), 1, |x| x.sqrt()),
            );
        }
    };
    c.bench_function("par_map_chunked_64_jobs", |b| b.iter(maps));
    // The same maps under an installed sink: every item then runs with the
    // caller's context (sink, depth, span ids) installed around it.
    let profile = Arc::new(ProfileSink::new());
    c.bench_function("par_map_chunked_64_jobs_profiled", |b| {
        uniq_obs::with_sink(profile.clone(), || b.iter(maps))
    });
}

criterion_group!(benches, bench_par_map, bench_per_job);
criterion_main!(benches);
