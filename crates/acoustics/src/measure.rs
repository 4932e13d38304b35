//! The measurement channel: what the earphone actually records.
//!
//! Chains the full forward model: probe → speaker/mic system response →
//! head propagation (optionally through a reverberant room) → additive
//! microphone noise at a configurable SNR. This is the only place the UNIQ
//! pipeline "touches" the physical world, mirroring the paper's hardware
//! loop (phone speaker → air → in-ear microphone).

use crate::render::Renderer;
use crate::room::Shoebox;
use crate::system::SystemResponse;
use crate::types::BinauralIr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniq_dsp::conv::convolve;
use uniq_dsp::signal::rms;
use uniq_geometry::Vec2;

/// Impulse-response length, samples, used when the room is enabled: long
/// enough to cover the echoes of [`Shoebox::typical_living_room`].
pub const ECHOIC_IR_LEN: usize = 4096;

/// Measurement-chain configuration.
#[derive(Debug, Clone)]
pub struct MeasurementSetup {
    /// Hardware colouration applied to the probe before it leaves the
    /// speaker.
    pub system: SystemResponse,
    /// Optional room (None = anechoic).
    pub room: Option<Shoebox>,
    /// Microphone signal-to-noise ratio in dB (white noise).
    pub snr_db: f64,
}

impl MeasurementSetup {
    /// An anechoic, noisy chain with budget hardware.
    pub fn anechoic(sample_rate: f64, snr_db: f64) -> Self {
        MeasurementSetup {
            system: SystemResponse::budget_hardware(sample_rate),
            room: None,
            snr_db,
        }
    }

    /// A typical living room with budget hardware.
    pub fn home(sample_rate: f64, snr_db: f64) -> Self {
        MeasurementSetup {
            room: Some(Shoebox::typical_living_room()),
            ..Self::anechoic(sample_rate, snr_db)
        }
    }
}

/// One binaural recording (left/right microphone streams).
#[derive(Debug, Clone)]
pub struct BinauralRecording {
    /// Left in-ear microphone.
    pub left: Vec<f64>,
    /// Right in-ear microphone.
    pub right: Vec<f64>,
}

/// Records `probe` played from a point source at `src` through the full
/// measurement chain. Returns `None` if `src` is inside the head.
pub fn record_point_source(
    renderer: &Renderer,
    setup: &MeasurementSetup,
    src: Vec2,
    probe: &[f64],
    noise_seed: u64,
) -> Option<BinauralRecording> {
    let ir = propagation_ir(renderer, setup, src)?;
    Some(record_through(&ir, setup, probe, noise_seed))
}

/// Records `signal` arriving as a far-field plane wave from `theta_deg`
/// through the measurement chain (ambient-source scenario: no speaker
/// colouration is applied, since the source is not our hardware — only the
/// microphone noise is added).
pub fn record_plane_wave(
    renderer: &Renderer,
    setup: &MeasurementSetup,
    theta_deg: f64,
    signal: &[f64],
    noise_seed: u64,
) -> BinauralRecording {
    let ir = renderer.render_plane(theta_deg);
    let left = convolve(signal, &ir.left);
    let right = convolve(signal, &ir.right);
    let mut rec = BinauralRecording { left, right };
    add_noise(&mut rec, setup.snr_db, noise_seed);
    rec
}

/// The propagation impulse response for a point source, with or without
/// the room.
pub fn propagation_ir(
    renderer: &Renderer,
    setup: &MeasurementSetup,
    src: Vec2,
) -> Option<BinauralIr> {
    match &setup.room {
        None => renderer.render_point(src),
        Some(room) => room.render_echoic(renderer, src, ECHOIC_IR_LEN),
    }
}

/// Records `probe` arriving through the propagation response `ir`: the
/// probe leaves the speaker coloured by `setup.system`, is convolved with
/// each ear's response, and picks up microphone noise at `setup.snr_db`
/// drawn from `noise_seed`.
pub fn record_through(
    ir: &BinauralIr,
    setup: &MeasurementSetup,
    probe: &[f64],
    noise_seed: u64,
) -> BinauralRecording {
    let emitted = setup.system.apply(probe);
    let mut rec = BinauralRecording {
        left: convolve(&emitted, &ir.left),
        right: convolve(&emitted, &ir.right),
    };
    add_noise(&mut rec, setup.snr_db, noise_seed);
    rec
}

fn add_noise(rec: &mut BinauralRecording, snr_db: f64, seed: u64) {
    let level = rms(&rec.left).max(rms(&rec.right));
    if level <= 0.0 {
        return;
    }
    let noise_rms = level / 10f64.powf(snr_db / 20.0);
    // Uniform noise has RMS = amplitude/√3.
    let amp = noise_rms * 3f64.sqrt();
    // A target SNR so high the noise underflows to zero (or so low it
    // overflows) gets no noise.
    if !(amp > 0.0 && amp.is_finite()) {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for v in rec.left.iter_mut().chain(rec.right.iter_mut()) {
        *v += rng.gen_range(-amp..amp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pinna::PinnaModel;
    use crate::types::RenderConfig;
    use uniq_dsp::signal::linear_chirp;
    use uniq_geometry::{HeadBoundary, HeadParams};

    const SR: f64 = 48_000.0;

    fn renderer() -> Renderer {
        Renderer::new(
            HeadBoundary::new(HeadParams::average_adult(), 512),
            PinnaModel::from_seed(21),
            PinnaModel::from_seed(22),
            RenderConfig::default(),
        )
    }

    fn probe() -> Vec<f64> {
        linear_chirp(100.0, 20_000.0, 0.05, SR)
    }

    #[test]
    fn recording_reproducible_per_seed() {
        let r = renderer();
        let setup = MeasurementSetup::anechoic(SR, 30.0);
        let a = record_point_source(&r, &setup, Vec2::new(-0.4, 0.1), &probe(), 5).unwrap();
        let b = record_point_source(&r, &setup, Vec2::new(-0.4, 0.1), &probe(), 5).unwrap();
        assert_eq!(a.left, b.left);
        let c = record_point_source(&r, &setup, Vec2::new(-0.4, 0.1), &probe(), 6).unwrap();
        assert_ne!(a.left, c.left);
    }

    #[test]
    fn snr_controls_noise_floor() {
        let r = renderer();
        let src = Vec2::new(-0.4, 0.1);
        let clean_setup = MeasurementSetup::anechoic(SR, 80.0);
        let noisy_setup = MeasurementSetup::anechoic(SR, 10.0);
        let clean = record_point_source(&r, &clean_setup, src, &probe(), 1).unwrap();
        let noisy = record_point_source(&r, &noisy_setup, src, &probe(), 1).unwrap();
        // Difference energy between 80 dB and 10 dB versions ≈ the noise.
        let diff_energy: f64 = clean
            .left
            .iter()
            .zip(&noisy.left)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let clean_energy: f64 = clean.left.iter().map(|v| v * v).sum();
        let ratio = 10.0 * (clean_energy / diff_energy).log10();
        assert!((ratio - 10.0).abs() < 3.0, "effective SNR {ratio} dB");
    }

    #[test]
    fn vanishing_noise_leaves_the_recording_alone() {
        // 10^(snr/20) overflows: the noise amplitude is zero, so no noise
        // is drawn and the noise seed no longer matters.
        let r = renderer();
        let src = Vec2::new(-0.4, 0.1);
        let setup = MeasurementSetup::anechoic(SR, 7000.0);
        let a = record_point_source(&r, &setup, src, &probe(), 1).unwrap();
        let b = record_point_source(&r, &setup, src, &probe(), 2).unwrap();
        assert_eq!(a.left, b.left);
        assert!(a.left.iter().any(|v| *v != 0.0));
        let setup = MeasurementSetup::anechoic(SR, 1e308);
        let c = record_point_source(&r, &setup, src, &probe(), 3).unwrap();
        assert_eq!(a.right, c.right);
    }

    #[test]
    fn room_lengthens_recording_energy_tail() {
        let r = renderer();
        let src = Vec2::new(-0.4, 0.1);
        let dry = record_point_source(&r, &MeasurementSetup::anechoic(SR, 80.0), src, &probe(), 1)
            .unwrap();
        let wet =
            record_point_source(&r, &MeasurementSetup::home(SR, 80.0), src, &probe(), 1).unwrap();
        assert!(wet.left.len() > dry.left.len());
    }

    #[test]
    fn plane_wave_recording_has_itd() {
        let r = renderer();
        let setup = MeasurementSetup::anechoic(SR, 60.0);
        let sig = linear_chirp(200.0, 8000.0, 0.02, SR);
        let rec = record_plane_wave(&r, &setup, 60.0, &sig, 3);
        let lag = uniq_dsp::xcorr::xcorr_peak_lag(&rec.left, &rec.right).0;
        // Source on the left → right is delayed → aligning lag positive.
        assert!(lag > 0, "lag {lag}");
    }

    #[test]
    fn inside_head_rejected() {
        let r = renderer();
        let setup = MeasurementSetup::anechoic(SR, 40.0);
        assert!(record_point_source(&r, &setup, Vec2::ZERO, &probe(), 0).is_none());
    }
}
