//! Corruption battery for the `.uhrtf` codec and the content-addressed
//! store: truncate at every boundary, flip bytes in every header and
//! payload region, and craft checksum-valid-but-malformed payloads.
//! Every case must yield a typed [`StoreError`] — never a panic, never a
//! silent success.

use std::path::PathBuf;
use uniq_store::format::crc32;
use uniq_store::{decode, encode, Grid, HrtfArtifact, Store, StoreError, HEADER_LEN};

/// A small reference artifact with every feature populated (both grids,
/// localization pairs, a degradation report exercising the flag bit).
fn reference_artifact() -> HrtfArtifact {
    let grid = |offset: f64| Grid {
        angles_deg: vec![0.0 + offset, 90.0 + offset, 180.0 + offset],
        ir_len: 4,
        irs: (0..3)
            .map(|a| {
                let base = (a * 8) as f64 + offset;
                (
                    (0..4).map(|j| base + j as f64 * 0.25).collect(),
                    (0..4).map(|j| -base - j as f64 * 0.125).collect(),
                )
            })
            .collect(),
    };
    let mut artifact = HrtfArtifact {
        seed: 1234,
        subject_fingerprint: 0,
        config_hash: 0xC0FF_EE00_DEAD_BEEF,
        sample_rate: 48_000.0,
        head: [0.08, 0.09, 0.10],
        radius_m: 0.45,
        attempts: 2,
        localization: vec![(30.0, 31.5), (150.0, 148.0)],
        near: grid(0.0),
        far: grid(0.5),
        degradation_json: Some("{\"mode\":\"noisy\"}".to_string()),
    };
    artifact.subject_fingerprint = artifact.fingerprint();
    artifact
}

/// Recomputes payload length, payload CRC, and header CRC so structural
/// corruption tests isolate the parser (checksums deliberately valid).
fn reseal(bytes: &mut [u8]) {
    let payload_len = (bytes.len() - HEADER_LEN) as u64;
    let payload_crc = crc32(&bytes[HEADER_LEN..]);
    bytes[16..24].copy_from_slice(&payload_len.to_le_bytes());
    bytes[24..28].copy_from_slice(&payload_crc.to_le_bytes());
    bytes[12..16].copy_from_slice(&[0; 4]);
    let header_crc = crc32(&bytes[..HEADER_LEN]);
    bytes[12..16].copy_from_slice(&header_crc.to_le_bytes());
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let bytes = encode(&reference_artifact()).expect("reference artifact encodes");
    for len in 0..bytes.len() {
        let err = decode(&bytes[..len]).expect_err("every truncation must fail");
        if len < HEADER_LEN {
            assert_eq!(err, StoreError::TooShort { len }, "truncated at {len}");
        } else {
            assert!(
                matches!(err, StoreError::LengthMismatch { .. }),
                "truncated at {len}: expected LengthMismatch, got {err}"
            );
        }
    }
}

#[test]
fn byte_flips_in_every_region_are_typed_errors() {
    let bytes = encode(&reference_artifact()).expect("reference artifact encodes");
    for offset in 0..bytes.len() {
        for mask in [0x01u8, 0xFF] {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= mask;
            let err = decode(&corrupt).expect_err("a flipped byte must never decode silently");
            let region_ok = match offset {
                0..=7 => matches!(err, StoreError::BadMagic { .. }),
                8..=9 => matches!(err, StoreError::UnsupportedVersion { .. }),
                10..=63 => matches!(err, StoreError::HeaderChecksum { .. }),
                _ => matches!(err, StoreError::PayloadChecksum { .. }),
            };
            assert!(
                region_ok,
                "flip ^{mask:#04x} at offset {offset}: unexpected error {err}"
            );
        }
    }
}

#[test]
fn trailing_payload_bytes_are_malformed() {
    let mut bytes = encode(&reference_artifact()).expect("encodes");
    bytes.push(0xAB);
    reseal(&mut bytes);
    let err = decode(&bytes).expect_err("trailing byte must fail");
    assert!(
        matches!(&err, StoreError::Malformed(m) if m.contains("trail")),
        "got {err}"
    );
}

#[test]
fn hostile_counts_are_malformed_not_oom() {
    // Localization count lives at payload offset 36 (head 24 + radius 8
    // + attempts 4). A count of u32::MAX must be rejected by the byte
    // budget check, not trigger a multi-gigabyte allocation.
    let mut bytes = encode(&reference_artifact()).expect("encodes");
    bytes[HEADER_LEN + 36..HEADER_LEN + 40].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bytes);
    assert!(
        matches!(decode(&bytes), Err(StoreError::Malformed(_))),
        "hostile localization count must be Malformed"
    );

    // Same for the near-grid angle count (right after the localization
    // pairs: offset 36 + 4 + 2·2·8 = 72).
    let mut bytes = encode(&reference_artifact()).expect("encodes");
    bytes[HEADER_LEN + 72..HEADER_LEN + 76].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bytes);
    assert!(
        matches!(decode(&bytes), Err(StoreError::Malformed(_))),
        "hostile grid count must be Malformed"
    );
}

#[test]
fn degradation_flag_and_bytes_must_agree() {
    // Bytes present, flag cleared → Malformed.
    let mut bytes = encode(&reference_artifact()).expect("encodes");
    bytes[10] &= !0x01;
    reseal(&mut bytes);
    let err = decode(&bytes).expect_err("flag/payload disagreement must fail");
    assert!(
        matches!(&err, StoreError::Malformed(m) if m.contains("flag")),
        "got {err}"
    );

    // Invalid UTF-8 inside the report → Malformed.
    let mut bytes = encode(&reference_artifact()).expect("encodes");
    let last = bytes.len() - 1;
    bytes[last] = 0xFF;
    reseal(&mut bytes);
    let err = decode(&bytes).expect_err("invalid UTF-8 must fail");
    assert!(
        matches!(&err, StoreError::Malformed(m) if m.contains("UTF-8")),
        "got {err}"
    );
}

#[test]
fn future_versions_and_unknown_flags_are_gated() {
    let mut bytes = encode(&reference_artifact()).expect("encodes");
    bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
    reseal(&mut bytes);
    assert_eq!(
        decode(&bytes),
        Err(StoreError::UnsupportedVersion { version: 2 })
    );

    let mut bytes = encode(&reference_artifact()).expect("encodes");
    bytes[11] |= 0x80; // flag bit 15, undefined in v1
    reseal(&mut bytes);
    assert!(
        matches!(decode(&bytes), Err(StoreError::UnsupportedFlags { .. })),
        "unknown flag bit must be gated"
    );
}

#[test]
fn checksum_valid_files_with_bad_values_are_typed_errors_not_panics() {
    // The file decodes (both CRCs valid) but its values cannot back a
    // lookup table: `to_table` must say so instead of tripping the
    // asserts in `HeadParams::new` or `PersonalHrtf::new`.
    let bytes = encode(&reference_artifact()).expect("encodes");
    let cases = [
        (HEADER_LEN, 1.0),           // head.a far outside [0.02, 0.30] m
        (HEADER_LEN + 8, 0.0),       // head.b zero
        (HEADER_LEN + 16, f64::NAN), // head.c NaN
        (48, f64::NAN),              // sample rate NaN
        (48, f64::INFINITY),
        (48, 0.0),
        (48, -48_000.0),
    ];
    for (offset, value) in cases {
        let mut corrupt = bytes.clone();
        corrupt[offset..offset + 8].copy_from_slice(&value.to_bits().to_le_bytes());
        reseal(&mut corrupt);
        let artifact = decode(&corrupt).expect("checksum-valid file decodes");
        let err = artifact
            .to_table()
            .expect_err("a bad value must not build a table");
        assert!(
            matches!(err, StoreError::BadValue(_)),
            "{value} at offset {offset}: got {err}"
        );
    }

    // Zero-length impulse responses cannot back a table either.
    let mut artifact = reference_artifact();
    artifact.far.ir_len = 0;
    artifact.far.irs = vec![(Vec::new(), Vec::new()); artifact.far.len()];
    artifact.subject_fingerprint = artifact.fingerprint();
    let bytes = encode(&artifact).expect("encodes");
    let err = decode(&bytes)
        .and_then(|a| a.to_table())
        .expect_err("empty IRs");
    assert!(matches!(err, StoreError::BadGrid(_)), "got {err}");

    // A far grid with no entry heard in both ears leaves AoA no template
    // to match against. Payload layout: head, radius, attempts and the
    // two localization pairs (72 bytes), the near grid (224), the far
    // grid's counts and angles (32), then its IRs: per entry 4 left and 4
    // right samples.
    let bytes = encode(&reference_artifact()).expect("encodes");
    let far_irs = HEADER_LEN + 72 + 224 + 32;
    let entry = 8 * 8;
    for (what, ranges) in [
        ("all far IRs silent", vec![(far_irs, 3 * entry)]),
        (
            "every far right ear silent",
            (0..3).map(|k| (far_irs + k * entry + 32, 32)).collect(),
        ),
    ] {
        let mut corrupt = bytes.clone();
        for (start, len) in ranges {
            corrupt[start..start + len].fill(0);
        }
        reseal(&mut corrupt);
        let artifact = decode(&corrupt).expect("checksum-valid file decodes");
        assert!(
            artifact
                .far
                .irs
                .iter()
                .all(|(_, r)| r.iter().all(|v| *v == 0.0)),
            "{what}: the patch must land on the far IRs"
        );
        let err = artifact.to_table().expect_err(what);
        assert!(matches!(err, StoreError::BadValue(_)), "{what}: got {err}");
    }

    // The untouched reference builds a table.
    assert!(reference_artifact().to_table().is_ok());
}

/// A scratch store rooted in a unique temp dir, removed on drop.
struct ScratchStore {
    root: PathBuf,
}

impl ScratchStore {
    fn new(tag: &str) -> ScratchStore {
        let root = std::env::temp_dir().join(format!(
            "uniq_store_corruption_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        ScratchStore { root }
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn corrupted_blob_is_caught_by_get_and_verify() {
    let scratch = ScratchStore::new("blob");
    let store = Store::open(&scratch.root).expect("open scratch store");
    let outcome = store.put(&reference_artifact()).expect("put");

    let blob = scratch
        .root
        .join("blobs")
        .join(format!("{}.uhrtf", outcome.key));
    let mut bytes = std::fs::read(&blob).expect("read blob");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&blob, &bytes).expect("rewrite blob");

    // The flipped byte changes the content hash, so the key check (which
    // runs before decoding) is what catches it.
    assert!(
        matches!(store.get(&outcome.key), Err(StoreError::KeyMismatch { .. })),
        "a flipped blob byte must fail the content-key check on get"
    );
    let report = store.verify();
    assert!(!report.is_clean());
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].0, outcome.key);
}

#[test]
fn swapped_blob_content_is_a_key_mismatch() {
    let scratch = ScratchStore::new("swap");
    let store = Store::open(&scratch.root).expect("open scratch store");
    let a = store.put(&reference_artifact()).expect("put a");
    let mut other = reference_artifact();
    other.seed = 999;
    other.subject_fingerprint = other.fingerprint();
    let b = store.put(&other).expect("put b");

    // Overwrite a's blob with b's (valid!) bytes: the file decodes fine
    // but no longer hashes to its own name.
    let blob_dir = scratch.root.join("blobs");
    std::fs::copy(
        blob_dir.join(format!("{}.uhrtf", b.key)),
        blob_dir.join(format!("{}.uhrtf", a.key)),
    )
    .expect("swap blobs");

    assert!(
        matches!(store.get(&a.key), Err(StoreError::KeyMismatch { .. })),
        "content/key disagreement must be a KeyMismatch"
    );
    assert!(!store.verify().is_clean());
}

#[test]
fn missing_blob_and_stale_fingerprint_fail_verify() {
    let scratch = ScratchStore::new("verify");
    let store = Store::open(&scratch.root).expect("open scratch store");
    let gone = store.put(&reference_artifact()).expect("put");

    let mut stale = reference_artifact();
    stale.seed = 77;
    stale.subject_fingerprint = 0xBAD; // deliberately not fingerprint()
    let stale_key = store.put(&stale).expect("put stale").key;

    std::fs::remove_file(
        scratch
            .root
            .join("blobs")
            .join(format!("{}.uhrtf", gone.key)),
    )
    .expect("delete blob");

    let report = store.verify();
    assert_eq!(report.failures.len(), 2);
    for (key, err) in &report.failures {
        if key == &gone.key {
            assert!(matches!(err, StoreError::Io { .. }), "got {err}");
        } else {
            assert_eq!(key, &stale_key);
            assert!(
                matches!(err, StoreError::FingerprintMismatch { .. }),
                "got {err}"
            );
        }
    }
}

#[test]
fn corrupted_index_is_rejected_on_open() {
    use std::io::Write as _;

    let scratch = ScratchStore::new("index");
    {
        let store = Store::open(&scratch.root).expect("open scratch store");
        store.put(&reference_artifact()).expect("put");
    }
    let index = scratch.root.join("index");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&index)
        .expect("open index for append");
    writeln!(file, "put zzz not-a-hex-fingerprint 0 0 0").expect("append garbage");
    drop(file);
    assert!(
        matches!(
            Store::open(&scratch.root),
            Err(StoreError::IndexCorrupt { .. })
        ),
        "a garbage index line must fail open"
    );

    // A mangled header is equally fatal.
    let mut text = std::fs::read_to_string(&index).expect("read index");
    text.replace_range(0..1, "X");
    std::fs::write(&index, text).expect("rewrite index");
    assert!(
        matches!(
            Store::open(&scratch.root),
            Err(StoreError::IndexCorrupt { .. })
        ),
        "a mangled index header must fail open"
    );
}
