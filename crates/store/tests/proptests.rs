//! Property tests for the `.uhrtf` codec: encode→decode round-trips
//! bit-exactly for arbitrary grid shapes, IR lengths, and metadata —
//! including empty and degenerate grids — and the encoding is canonical
//! (decode→re-encode reproduces the input bytes verbatim). The
//! slicing-by-8 CRC-32 returns the bits of the byte-at-a-time definition.

use proptest::prelude::*;
use uniq_store::format::crc32;
use uniq_store::{content_key, decode, encode, Grid, HrtfArtifact};

/// Deterministic integer mixer so every float in a generated artifact is
/// a pure function of `(seed, j)` — the proptest runner only has to
/// sample a handful of scalars per case.
fn mix(seed: u64, j: u64) -> u64 {
    let mut x = seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `len` bytes, each a function of `seed` and its index.
fn mixed_bytes(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64).map(|j| mix(seed, j) as u8).collect()
}

/// The CRC-32 definition one byte and one bit at a time, with no table:
/// the oracle the slicing-by-8 `crc32` must match bit for bit.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// A value in roughly `[-1, 1)` derived from the mixer.
fn mixed_f64(seed: u64, j: u64) -> f64 {
    (mix(seed, j) & 0xF_FFFF) as f64 / 524_288.0 - 1.0
}

/// A grid with `angles` entries of `ir_len` samples per ear, every value
/// a function of `seed`. Angles are strictly increasing but otherwise
/// arbitrary; `angles` or `ir_len` may be zero (degenerate grids).
fn synth_grid(seed: u64, angles: usize, ir_len: usize) -> Grid {
    Grid {
        angles_deg: (0..angles)
            .map(|a| a as f64 * 15.0 + mixed_f64(seed, 1000 + a as u64))
            .collect(),
        ir_len,
        irs: (0..angles)
            .map(|a| {
                let base = seed.wrapping_add(a as u64 * 7919);
                let left = (0..ir_len).map(|j| mixed_f64(base, j as u64)).collect();
                let right = (0..ir_len)
                    .map(|j| mixed_f64(base, 5000 + j as u64))
                    .collect();
                (left, right)
            })
            .collect(),
    }
}

/// A full artifact from sampled shape parameters. `deg` selects the
/// degradation report: 0 → absent, 1 → present but empty (the case the
/// header flag bit exists to disambiguate), otherwise a non-trivial
/// string with multi-byte UTF-8.
fn synth_artifact(
    seed: u64,
    near_angles: usize,
    far_angles: usize,
    ir_len: usize,
    loc_count: usize,
    deg: u32,
) -> HrtfArtifact {
    let mut artifact = HrtfArtifact {
        seed,
        subject_fingerprint: 0,
        config_hash: mix(seed, 2),
        sample_rate: 8_000.0 + (mix(seed, 3) & 0xFFFF) as f64,
        head: [
            0.05 + mixed_f64(seed, 4).abs() * 0.05,
            0.06 + mixed_f64(seed, 5).abs() * 0.05,
            0.07 + mixed_f64(seed, 6).abs() * 0.05,
        ],
        radius_m: 0.2 + mixed_f64(seed, 7).abs(),
        attempts: (mix(seed, 8) & 0xF) as u32,
        localization: (0..loc_count)
            .map(|i| {
                let i = i as u64;
                (
                    mixed_f64(seed, 9 + i) * 180.0,
                    mixed_f64(seed, 90 + i) * 180.0,
                )
            })
            .collect(),
        near: synth_grid(seed, near_angles, ir_len),
        far: synth_grid(seed ^ 0xFA2, far_angles, ir_len),
        degradation_json: match deg {
            0 => None,
            1 => Some(String::new()),
            _ => Some(format!(
                "{{\"faults\":{},\"note\":\"κ≤{}\"}}",
                deg,
                seed & 0xFF
            )),
        },
    };
    artifact.subject_fingerprint = artifact.fingerprint();
    artifact
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_is_bit_exact(
        seed in 0u64..u64::MAX,
        near_angles in 0usize..6,
        far_angles in 0usize..6,
        ir_len in 0usize..9,
        loc_count in 0usize..5,
        deg in 0u32..4,
    ) {
        let artifact = synth_artifact(seed, near_angles, far_angles, ir_len, loc_count, deg);
        let bytes = encode(&artifact).expect("arbitrary well-formed artifact encodes");
        let back = decode(&bytes).expect("encoded artifact decodes");
        prop_assert_eq!(&back, &artifact);
        // The fingerprint is a pure function of the payload, so the
        // decoded copy recomputes the stamped value exactly.
        prop_assert_eq!(back.fingerprint(), artifact.subject_fingerprint);
        // Canonical encoding: re-encoding the decoded artifact must
        // reproduce the input bytes verbatim (same content key).
        let again = encode(&back).expect("decoded artifact re-encodes");
        prop_assert_eq!(&again, &bytes);
        let key = content_key(&bytes);
        prop_assert_eq!(key.len(), 16);
        prop_assert!(key.bytes().all(|b| b.is_ascii_hexdigit()));
        prop_assert_eq!(content_key(&again), key);
    }

    #[test]
    fn degenerate_grids_round_trip(
        seed in 0u64..u64::MAX,
        ir_len in 0usize..9,
        loc_count in 0usize..3,
    ) {
        // Zero angles with a nonzero declared IR length, and nonzero
        // angles whose responses are zero-length, are both legal files.
        for (near_angles, far_angles) in [(0, 0), (0, 3), (3, 0)] {
            let artifact = synth_artifact(seed, near_angles, far_angles, ir_len, loc_count, 0);
            let bytes = encode(&artifact).expect("degenerate artifact encodes");
            prop_assert_eq!(decode(&bytes).expect("degenerate artifact decodes"), artifact);
        }
        let zero_len = synth_artifact(seed, 2, 2, 0, loc_count, 2);
        let bytes = encode(&zero_len).expect("zero-length IRs encode");
        prop_assert_eq!(decode(&bytes).expect("zero-length IRs decode"), zero_len);
    }

    #[test]
    fn arbitrary_float_bits_round_trip_through_bytes(
        bits_a in 0u64..u64::MAX,
        bits_b in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
    ) {
        // Any bit pattern — infinities, NaNs with payload, negative
        // zero — must survive the codec verbatim. Compare at the byte
        // level so NaN ≠ NaN equality semantics cannot mask a loss.
        let mut artifact = synth_artifact(seed, 1, 1, 2, 1, 0);
        artifact.sample_rate = f64::from_bits(bits_a);
        artifact.radius_m = f64::from_bits(bits_b);
        artifact.near.irs[0].0[0] = f64::from_bits(bits_a ^ bits_b);
        artifact.head[2] = f64::from_bits(!bits_a);
        let bytes = encode(&artifact).expect("artifact with raw float bits encodes");
        let back = decode(&bytes).expect("artifact with raw float bits decodes");
        prop_assert_eq!(back.sample_rate.to_bits(), bits_a);
        prop_assert_eq!(back.radius_m.to_bits(), bits_b);
        prop_assert_eq!(back.near.irs[0].0[0].to_bits(), bits_a ^ bits_b);
        prop_assert_eq!(back.head[2].to_bits(), !bits_a);
        prop_assert_eq!(encode(&back).expect("re-encode"), bytes);
    }

    #[test]
    fn absent_and_empty_degradation_are_distinct(seed in 0u64..u64::MAX) {
        // `None` and `Some("")` carry the same zero payload bytes and
        // differ only in the header flag bit — the codec must keep them
        // apart (and give them different content keys).
        let absent = synth_artifact(seed, 2, 2, 3, 1, 0);
        let empty = synth_artifact(seed, 2, 2, 3, 1, 1);
        let bytes_absent = encode(&absent).expect("absent-report artifact encodes");
        let bytes_empty = encode(&empty).expect("empty-report artifact encodes");
        prop_assert!(bytes_absent != bytes_empty);
        prop_assert!(content_key(&bytes_absent) != content_key(&bytes_empty));
        prop_assert_eq!(decode(&bytes_absent).expect("decode").degradation_json, None);
        prop_assert_eq!(
            decode(&bytes_empty).expect("decode").degradation_json,
            Some(String::new())
        );
    }

    #[test]
    fn crc32_matches_the_bytewise_oracle_at_every_short_length(seed in 0u64..u64::MAX) {
        // 0..=64 covers an empty input, a remainder alone, and every
        // remainder behind one to eight 8-byte steps.
        let bytes = mixed_bytes(seed, 64);
        for len in 0..=bytes.len() {
            prop_assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]));
        }
    }

    #[test]
    fn crc32_matches_the_bytewise_oracle_at_every_offset(
        seed in 0u64..u64::MAX,
        len in 0usize..4097,
    ) {
        let bytes = mixed_bytes(seed, len + 8);
        for start in 0..8 {
            let slice = &bytes[start..start + len];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}
