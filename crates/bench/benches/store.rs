//! Criterion micro-benchmarks for the uniq-store codec on one artifact of
//! the served shape: the checksum, content key, encode and decode that
//! every store put and get pays, and the two paths a server runs:
//! `put_path` (a pipeline result to its blob, subject fingerprint and
//! content key; the blob is already stored, so nothing is written) and
//! `get_path` (a stored blob, key-checked, back to an artifact).

use criterion::{criterion_group, criterion_main, Criterion};
use uniq_core::config::UniqConfig;
use uniq_core::pipeline::{personalize_with_retry, PersonalizationResult};
use uniq_store::format::crc32;
use uniq_store::{content_key, decode, encode, Encoded, HrtfArtifact, Store};
use uniq_subjects::Subject;

/// The artifact a server answers with at the serve workload config
/// (anechoic, 1° grid, 45 dB SNR): ~2.97 MB encoded.
fn served_result() -> (u64, PersonalizationResult, u64) {
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
    (seed, result, cfg.content_hash())
}

fn bench_codec(c: &mut Criterion) {
    let (seed, result, config_hash) = served_result();
    let artifact = HrtfArtifact::from_result(seed, &result, config_hash, None);
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

    let root = std::env::temp_dir().join(format!("uniq_bench_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Store::open(&root).expect("open the bench store");
    let key = store.put(&artifact).expect("store the served artifact").key;
    group.bench_function("put_path", |b| {
        b.iter(|| {
            let blob = Encoded::from_result(seed, std::hint::black_box(&result), config_hash, None)
                .expect("encode the result");
            store.put_encoded(&blob).expect("key the blob")
        })
    });
    group.bench_function("get_path", |b| {
        b.iter(|| {
            store
                .get(std::hint::black_box(&key))
                .expect("read the blob")
        })
    });
    group.finish();
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
