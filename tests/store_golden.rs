//! Golden `.uhrtf` fixture: `tests/data/seed6.uhrtf` is the pinned
//! seed-6 personalized HRTF (the `BENCH_BASELINE.json` workload) as
//! written by `baseline run --store`. The bytes, content key, and
//! embedded fingerprint are pinned here; regenerating the pipeline must
//! reproduce the file verbatim, and the table read back from it must be
//! the in-memory table bit for bit (the §4.4 export path). Refresh the fixture together with the
//! baseline: `cargo run --release -p uniq-bench --bin baseline -- bless
//! --store DIR` and copy the new blob over `tests/data/seed6.uhrtf`.

use std::path::Path;
use uniq_acoustics::types::HrirBank;
use uniq_bench::baseline::{BaselineSpec, BASELINE_FILE};
use uniq_core::pipeline::personalize_with_retry;
use uniq_obs::json::Json;
use uniq_store::{content_key, decode, encode, HrtfArtifact, Store};
use uniq_subjects::Subject;

/// Pinned size of the fixture in bytes.
const GOLDEN_LEN: usize = 213_628;

/// Pinned content key (FNV-1a 64 of the encoded bytes, lowercase hex).
const GOLDEN_KEY: &str = "0efe5f2dc7fe6582";

fn golden_bytes() -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/seed6.uhrtf");
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Every angle and HRIR sample of a bank, as raw bits.
fn bank_bits(bank: &HrirBank) -> Vec<u64> {
    let samples = bank
        .irs()
        .iter()
        .flat_map(|ir| ir.left.iter().chain(&ir.right));
    bank.angles()
        .iter()
        .chain(samples)
        .map(|v| v.to_bits())
        .collect()
}

fn pinned_fingerprint() -> u64 {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(BASELINE_FILE);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let doc = Json::parse(&text).expect("BENCH_BASELINE.json parses");
    let hex = doc
        .get("quality")
        .and_then(|q| q.get("personalize_fingerprint"))
        .and_then(Json::as_str)
        .expect("baseline carries quality.personalize_fingerprint");
    u64::from_str_radix(hex.trim_start_matches("0x"), 16)
        .expect("personalize_fingerprint is 0x-prefixed hex")
}

#[test]
fn golden_fixture_bytes_and_key_are_pinned() {
    let bytes = golden_bytes();
    assert_eq!(bytes.len(), GOLDEN_LEN, "fixture byte length drifted");
    assert_eq!(
        content_key(&bytes),
        GOLDEN_KEY,
        "fixture content key drifted"
    );
}

#[test]
fn golden_fixture_decodes_to_the_pinned_baseline_hrtf() {
    let bytes = golden_bytes();
    let artifact = decode(&bytes).expect("golden fixture decodes");
    assert_eq!(artifact.seed, BaselineSpec::pinned().seed);
    assert_eq!(
        artifact.subject_fingerprint,
        pinned_fingerprint(),
        "fixture fingerprint disagrees with BENCH_BASELINE.json"
    );
    assert_eq!(
        artifact.fingerprint(),
        artifact.subject_fingerprint,
        "stamped fingerprint no longer matches the payload"
    );
    // Canonical codec: re-encoding reproduces the checked-in file
    // verbatim.
    assert_eq!(encode(&artifact).expect("re-encode"), bytes);
    // And the grids are usable, not just parseable.
    let table = artifact.to_table().expect("fixture builds a lookup table");
    assert!(!table.near().irs().is_empty());
    assert!(!table.far().irs().is_empty());
}

#[test]
fn regenerating_the_pipeline_reproduces_the_fixture_verbatim() {
    let spec = BaselineSpec::pinned();
    let cfg = spec.config(1);
    let subject = Subject::from_seed(spec.seed);
    let result = personalize_with_retry(&subject, &cfg, spec.seed, 3).expect("pinned workload");
    let artifact = HrtfArtifact::from_result(spec.seed, &result, cfg.content_hash(), None);
    let bytes = encode(&artifact).expect("fresh artifact encodes");
    assert_eq!(
        content_key(&bytes),
        GOLDEN_KEY,
        "fresh seed-6 run no longer hashes to the pinned key — numeric drift"
    );
    assert_eq!(
        bytes,
        golden_bytes(),
        "fresh seed-6 run diverged from the fixture"
    );

    // The table read back from the bytes is the in-memory table, bit for
    // bit, and renders identically.
    let original = &result.hrtf;
    let restored = decode(&bytes)
        .and_then(|a| a.to_table())
        .expect("fresh artifact reads back as a table");
    assert_eq!(bank_bits(restored.near()), bank_bits(original.near()));
    assert_eq!(bank_bits(restored.far()), bank_bits(original.far()));
    assert_eq!(restored.head(), original.head());
    assert_eq!(
        restored.sample_rate().to_bits(),
        original.sample_rate().to_bits()
    );
    let sig = uniq_dsp::signal::linear_chirp(300.0, 8000.0, 0.02, original.sample_rate());
    for far in [false, true] {
        let a = original.synthesize(&sig, 45.0, far);
        let b = restored.synthesize(&sig, 45.0, far);
        assert_eq!(a.left, b.left);
        assert_eq!(a.right, b.right);
    }

    // Putting the fresh artifact lands on the same key, and importing
    // the fixture on top is a pure dedup hit.
    let root = std::env::temp_dir().join(format!("uniq_store_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Store::open(&root).expect("open scratch store");
    let fresh = store.put(&artifact).expect("put fresh artifact");
    assert_eq!(fresh.key, GOLDEN_KEY);
    assert!(!fresh.deduped);
    let fixture = decode(&golden_bytes()).expect("fixture decodes");
    assert!(store.put(&fixture).expect("re-put fixture").deduped);
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}
