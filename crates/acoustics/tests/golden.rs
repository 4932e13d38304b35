//! Golden pin for one in-room capture at the paper's configuration: the
//! exact bits of a `record_point_source` recording (13 image sources per
//! ear at a 4096-sample echoic IR, probe convolution and seeded noise),
//! folded into one FNV-1a digest.
//!
//! The session stage is built from these captures, so a change to the
//! arithmetic under them (the FFT, convolution, the room model) fails
//! here before it moves the end-to-end fingerprint.

use uniq_acoustics::measure::{record_point_source, MeasurementSetup};
use uniq_acoustics::pinna::PinnaModel;
use uniq_acoustics::render::Renderer;
use uniq_acoustics::types::RenderConfig;
use uniq_geometry::{HeadBoundary, HeadParams, Vec2};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Digest of the left then right stream of the capture below.
const CAPTURE_DIGEST: u64 = 0x5f42_75e7_a863_50bb;

fn fnv(mut h: u64, values: &[f64]) -> u64 {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[test]
fn in_room_capture_bits_match_the_golden_digest() {
    // The paper configuration: 48 kHz, 4096-vertex forward boundary,
    // living-room echoes, 35 dB SNR, the 100 Hz–20 kHz 50 ms probe chirp.
    let cfg = RenderConfig::default();
    let renderer = Renderer::new(
        HeadBoundary::new(HeadParams::average_adult(), 4096),
        PinnaModel::from_seed(31),
        PinnaModel::from_seed(32),
        cfg,
    );
    let setup = MeasurementSetup::home(cfg.sample_rate, 35.0);
    let probe = uniq_dsp::signal::linear_chirp(100.0, 20_000.0, 0.05, cfg.sample_rate);
    let rec = record_point_source(&renderer, &setup, Vec2::new(-0.35, 0.2), &probe, 801)
        .expect("source outside the head");
    let got = fnv(fnv(FNV_OFFSET, &rec.left), &rec.right);
    assert_eq!(
        got, CAPTURE_DIGEST,
        "capture digest drifted: got {got:#018x}"
    );
}
