//! Criterion micro-benchmarks for the uniq-store codec on one artifact of
//! the served shape: the checksum, content key, encode and decode that
//! every store put and get pays.

use criterion::{criterion_group, criterion_main, Criterion};
use uniq_core::config::UniqConfig;
use uniq_core::pipeline::personalize_with_retry;
use uniq_store::format::crc32;
use uniq_store::{content_key, decode, encode, HrtfArtifact};
use uniq_subjects::Subject;

/// The artifact a server answers with at the serve workload config
/// (anechoic, 1° grid, 45 dB SNR): ~2.97 MB encoded.
fn served_artifact() -> HrtfArtifact {
    let cfg = UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 1.0,
        threads: 1,
        ..UniqConfig::fast_test()
    };
    let seed = 6;
    let result = personalize_with_retry(&Subject::from_seed(seed), &cfg, seed, 3)
        .expect("personalize the bench subject");
    HrtfArtifact::from_result(seed, &result, cfg.content_hash(), None)
}

fn bench_codec(c: &mut Criterion) {
    let artifact = served_artifact();
    let bytes = encode(&artifact).expect("encode the served artifact");
    println!("artifact: {} bytes", bytes.len());
    let mut group = c.benchmark_group("store");
    group.bench_function("crc32", |b| b.iter(|| crc32(std::hint::black_box(&bytes))));
    group.bench_function("content_key", |b| {
        b.iter(|| content_key(std::hint::black_box(&bytes)))
    });
    group.bench_function("encode", |b| {
        b.iter(|| encode(std::hint::black_box(&artifact)))
    });
    group.bench_function("decode", |b| {
        b.iter(|| decode(std::hint::black_box(&bytes)))
    });
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
