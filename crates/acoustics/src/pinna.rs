//! Angle-sensitive pinna micro-echo models.
//!
//! §2 of the paper establishes two facts the whole system rests on:
//!
//! 1. a pinna's impulse response changes markedly with the arrival angle
//!    (Fig 2a — strongly diagonal autocorrelation matrix), and
//! 2. two people's pinnae differ for the *same* angle (Fig 2b).
//!
//! We model a pinna as a direct tap plus `K` micro-echoes whose delays and
//! gains vary smoothly with the local arrival angle through low-order
//! Fourier series. Coefficients are drawn from a subject-seeded RNG, so a
//! pinna is a reproducible function of `(subject seed, ear)` — personal by
//! construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniq_dsp::delay::add_fractional_impulse;

/// One micro-echo of a pinna model.
#[derive(Debug, Clone, Copy)]
pub struct PinnaTap {
    /// Delay at arrival angle 0, milliseconds.
    pub base_delay_ms: f64,
    /// First-harmonic delay modulation amplitude, milliseconds.
    pub delay_mod_ms: f64,
    /// Phase of the delay modulation, radians.
    pub delay_phase: f64,
    /// Gain at arrival angle 0 (relative to the direct tap).
    pub gain: f64,
    /// First-harmonic gain modulation amplitude (fraction of `gain`).
    pub gain_mod: f64,
    /// Phase of the gain modulation, radians.
    pub gain_phase: f64,
    /// Second-harmonic delay modulation amplitude, milliseconds.
    pub delay_mod2_ms: f64,
    /// Elevation delay-modulation amplitude, milliseconds (3-D extension:
    /// how strongly this micro-echo's timing shifts as the source rises).
    pub elev_delay_mod_ms: f64,
    /// Elevation gain-modulation fraction (3-D extension).
    pub elev_gain_mod: f64,
}

/// An angle-sensitive pinna impulse-response model for one ear.
///
/// ```
/// use uniq_acoustics::pinna::PinnaModel;
/// use uniq_dsp::xcorr::peak_normalized_xcorr;
/// let pinna = PinnaModel::from_seed(7);
/// let frontal = pinna.response(0.0, 48_000.0, 128);
/// let lateral = pinna.response(1.2, 48_000.0, 128);
/// // The response depends on where the sound comes from (Fig 2a).
/// assert!(peak_normalized_xcorr(&frontal, &lateral) < 1.0 - 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct PinnaModel {
    taps: Vec<PinnaTap>,
}

/// Bounds used when sampling random pinna models.
mod ranges {
    /// Number of micro-echo taps.
    pub const TAPS: std::ops::Range<usize> = 5..9;
    /// Base micro-echo delay, ms (0.05–0.55 ms ≈ 2–26 samples at 48 kHz).
    pub const BASE_DELAY_MS: std::ops::Range<f64> = 0.05..0.55;
    /// Delay modulation amplitude, ms.
    pub const DELAY_MOD_MS: std::ops::Range<f64> = 0.05..0.20;
    /// Second-harmonic delay modulation, ms.
    pub const DELAY_MOD2_MS: std::ops::Range<f64> = 0.01..0.08;
    /// Echo gain relative to the direct tap.
    pub const GAIN: std::ops::Range<f64> = 0.15..0.65;
    /// Gain modulation fraction.
    pub const GAIN_MOD: std::ops::Range<f64> = 0.2..0.8;
    /// Elevation delay-modulation amplitude, ms.
    pub const ELEV_DELAY_MOD_MS: std::ops::Range<f64> = 0.03..0.15;
    /// Elevation gain-modulation fraction.
    pub const ELEV_GAIN_MOD: std::ops::Range<f64> = 0.1..0.5;
}

impl PinnaModel {
    /// Samples a random pinna for the given seed. Different seeds give
    /// markedly different pinnae; the same seed is fully reproducible.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(ranges::TAPS);
        let taps = (0..n)
            .map(|_| PinnaTap {
                base_delay_ms: rng.gen_range(ranges::BASE_DELAY_MS),
                delay_mod_ms: rng.gen_range(ranges::DELAY_MOD_MS),
                delay_phase: rng.gen_range(0.0..std::f64::consts::TAU),
                gain: rng.gen_range(ranges::GAIN) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
                gain_mod: rng.gen_range(ranges::GAIN_MOD),
                gain_phase: rng.gen_range(0.0..std::f64::consts::TAU),
                delay_mod2_ms: rng.gen_range(ranges::DELAY_MOD2_MS),
                elev_delay_mod_ms: rng.gen_range(ranges::ELEV_DELAY_MOD_MS),
                elev_gain_mod: rng.gen_range(ranges::ELEV_GAIN_MOD),
            })
            .collect();
        PinnaModel { taps }
    }

    /// Renders the pinna impulse response for a wave arriving at
    /// `arrival_angle` radians (local angle at the ear), as `len` samples
    /// at `sample_rate`. Tap 0 of the output is the direct (unit) arrival.
    pub fn response(&self, arrival_angle: f64, sample_rate: f64, len: usize) -> Vec<f64> {
        self.response_3d(arrival_angle, 0.0, sample_rate, len)
    }

    /// Renders the pinna response for a 3-D arrival: `arrival_angle` as in
    /// [`PinnaModel::response`], plus the `elevation` (radians) of the
    /// incoming ray above the horizontal plane. Elevation modulates each
    /// micro-echo's delay and gain through its own Fourier terms — the
    /// cue that breaks the cone of confusion in real pinnae.
    pub fn response_3d(
        &self,
        arrival_angle: f64,
        elevation: f64,
        sample_rate: f64,
        len: usize,
    ) -> Vec<f64> {
        let mut ir = vec![0.0; len];
        add_fractional_impulse(&mut ir, 0.0, 1.0);
        for t in &self.taps {
            let delay_ms = t.base_delay_ms
                + t.delay_mod_ms * (arrival_angle + t.delay_phase).sin()
                + t.delay_mod2_ms * (2.0 * arrival_angle + t.delay_phase).sin()
                + t.elev_delay_mod_ms * (elevation + 0.5 * t.delay_phase).sin();
            let delay_samples = (delay_ms.max(0.02) / 1000.0) * sample_rate;
            let gain = t.gain
                * (1.0 + t.gain_mod * (arrival_angle + t.gain_phase).cos())
                * (1.0 + t.elev_gain_mod * (elevation + t.gain_phase).sin());
            add_fractional_impulse(&mut ir, delay_samples, gain);
        }
        ir
    }

    /// Length (in samples at `sample_rate`) needed to contain every tap of
    /// this model plus the interpolation kernel tail.
    pub fn required_len(&self, sample_rate: f64) -> usize {
        let max_ms = self
            .taps
            .iter()
            .map(|t| t.base_delay_ms + t.delay_mod_ms + t.delay_mod2_ms + t.elev_delay_mod_ms)
            .fold(0.0_f64, f64::max);
        (max_ms / 1000.0 * sample_rate).ceil() as usize + uniq_dsp::delay::SINC_HALF_WIDTH + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_dsp::xcorr::peak_normalized_xcorr;

    const SR: f64 = 48_000.0;

    #[test]
    fn reproducible_from_seed() {
        let a = PinnaModel::from_seed(7);
        let b = PinnaModel::from_seed(7);
        let ra = a.response(0.3, SR, 128);
        let rb = b.response(0.3, SR, 128);
        assert_eq!(ra, rb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = PinnaModel::from_seed(1).response(0.0, SR, 128);
        let b = PinnaModel::from_seed(2).response(0.0, SR, 128);
        let sim = peak_normalized_xcorr(&a, &b);
        assert!(sim < 0.98, "seeds too similar: {sim}");
    }

    #[test]
    fn angle_sensitivity_like_fig2a() {
        // Same pinna, angles 20° apart should decorrelate noticeably;
        // identical angles correlate perfectly. This is the Fig 2a diagonal.
        let p = PinnaModel::from_seed(42);
        let r0 = p.response(0.0, SR, 128);
        let r0b = p.response(0.0, SR, 128);
        let r20 = p.response(20f64.to_radians(), SR, 128);
        let r90 = p.response(90f64.to_radians(), SR, 128);
        assert!((peak_normalized_xcorr(&r0, &r0b) - 1.0).abs() < 1e-12);
        let c20 = peak_normalized_xcorr(&r0, &r20);
        let c90 = peak_normalized_xcorr(&r0, &r90);
        assert!(c20 < 0.999, "no sensitivity at 20°: {c20}");
        assert!(c90 < c20 + 0.05, "90° should decorrelate at least as much");
    }

    #[test]
    fn response_is_smooth_in_angle() {
        let p = PinnaModel::from_seed(9);
        let r1 = p.response(0.50, SR, 128);
        let r2 = p.response(0.51, SR, 128);
        let sim = peak_normalized_xcorr(&r1, &r2);
        assert!(sim > 0.99, "tiny angle step decorrelated too much: {sim}");
    }

    #[test]
    fn direct_tap_is_unit_without_echoes() {
        // With no micro-echoes the response is exactly a unit delta.
        let p = PinnaModel { taps: vec![] };
        let r = p.response(1.0, SR, 64);
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert!(r[1..].iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn isolated_tap_lands_at_its_delay() {
        let p = PinnaModel {
            taps: vec![PinnaTap {
                base_delay_ms: 0.5,
                delay_mod_ms: 0.0,
                delay_phase: 0.0,
                gain: -0.4,
                gain_mod: 0.0,
                gain_phase: 0.0,
                delay_mod2_ms: 0.0,
                elev_delay_mod_ms: 0.0,
                elev_gain_mod: 0.0,
            }],
        };
        let r = p.response(0.3, SR, 128);
        assert!((r[0] - 1.0).abs() < 1e-12);
        let at = (0.5e-3 * SR) as usize; // 24 samples
        assert!((r[at] + 0.4).abs() < 1e-9, "tap value {}", r[at]);
    }

    #[test]
    fn required_len_contains_all_energy() {
        let p = PinnaModel::from_seed(11);
        let need = p.required_len(SR);
        let long = p.response(0.7, SR, need + 64);
        let tail: f64 = long[need..].iter().map(|v| v * v).sum();
        assert!(tail < 1e-12, "energy beyond required_len: {tail}");
    }

    #[test]
    fn elevation_changes_response() {
        let p = PinnaModel::from_seed(77);
        let flat = p.response_3d(0.4, 0.0, SR, 128);
        let raised = p.response_3d(0.4, 0.8, SR, 128);
        let sim = peak_normalized_xcorr(&flat, &raised);
        assert!(sim < 0.999, "no elevation sensitivity: {sim}");
        // Zero elevation must reduce exactly to the 2-D response.
        assert_eq!(flat, p.response(0.4, SR, 128));
    }

    #[test]
    fn elevation_response_smooth() {
        let p = PinnaModel::from_seed(78);
        let a = p.response_3d(0.3, 0.50, SR, 128);
        let b = p.response_3d(0.3, 0.51, SR, 128);
        assert!(peak_normalized_xcorr(&a, &b) > 0.99);
    }

    #[test]
    fn taps_within_sampling_ranges() {
        for seed in 0..20 {
            let p = PinnaModel::from_seed(seed);
            assert!((5..9).contains(&p.taps.len()));
            for t in &p.taps {
                assert!((0.05..0.55).contains(&t.base_delay_ms));
                assert!(t.gain.abs() >= 0.15 && t.gain.abs() < 0.65);
            }
        }
    }
}
