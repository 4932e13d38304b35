//! Deterministic test and probe signals.
//!
//! The UNIQ measurement protocol plays known probe chirps from the phone;
//! this module generates those probes plus assorted deterministic signals
//! used by tests. Stochastic signals (white noise, synthetic music/speech)
//! live in `uniq-acoustics::signals` because they need an RNG.

use crate::window::{apply_window, window, WindowKind};
use std::f64::consts::PI;

/// A linear frequency sweep (chirp) from `f0` to `f1` hertz over `duration`
/// seconds, sampled at `sample_rate`, with a Tukey taper to avoid spectral
/// splatter at the edges.
///
/// The instantaneous phase is `2π (f0 t + (f1-f0) t² / 2T)`, the standard
/// linear chirp used by acoustic channel sounders.
pub fn linear_chirp(f0: f64, f1: f64, duration: f64, sample_rate: f64) -> Vec<f64> {
    let n = (duration * sample_rate).round() as usize;
    let mut out: Vec<f64> = (0..n)
        .map(|k| {
            let t = k as f64 / sample_rate;
            let phase = 2.0 * PI * (f0 * t + 0.5 * (f1 - f0) * t * t / duration);
            phase.sin()
        })
        .collect();
    let win = window(WindowKind::Tukey(0.1), n);
    apply_window(&mut out, &win);
    out
}

/// A pure sine tone at `freq` hertz.
pub fn tone(freq: f64, duration: f64, sample_rate: f64) -> Vec<f64> {
    let n = (duration * sample_rate).round() as usize;
    (0..n)
        .map(|k| (2.0 * PI * freq * k as f64 / sample_rate).sin())
        .collect()
}

/// A unit impulse (Kronecker delta) at sample `at` in a buffer of `len`.
///
/// # Panics
/// Panics if `at >= len`.
pub fn impulse(len: usize, at: usize) -> Vec<f64> {
    assert!(at < len, "impulse position {at} out of range {len}");
    let mut v = vec![0.0; len];
    v[at] = 1.0;
    v
}

/// Maximum absolute amplitude of a signal (0 for an empty slice).
pub fn peak_amplitude(signal: &[f64]) -> f64 {
    signal.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// Root-mean-square level of a signal (0 for an empty slice).
pub fn rms(signal: &[f64]) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    (signal.iter().map(|v| v * v).sum::<f64>() / signal.len() as f64).sqrt()
}

/// Scales a signal in place so its peak amplitude is `target` (no-op for
/// silent input).
pub fn normalize_peak(signal: &mut [f64], target: f64) {
    let peak = peak_amplitude(signal);
    if peak > 0.0 {
        let g = target / peak;
        for v in signal.iter_mut() {
            *v *= g;
        }
    }
}

/// Total energy `Σ x²` of a signal.
pub fn energy(signal: &[f64]) -> f64 {
    signal.iter().map(|v| v * v).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::rfft;

    #[test]
    fn chirp_length_matches_duration() {
        let c = linear_chirp(100.0, 8000.0, 0.05, 48000.0);
        assert_eq!(c.len(), 2400);
    }

    #[test]
    fn chirp_amplitude_bounded() {
        let c = linear_chirp(100.0, 8000.0, 0.02, 48000.0);
        assert!(peak_amplitude(&c) <= 1.0 + 1e-12);
        assert!(peak_amplitude(&c) > 0.9);
    }

    #[test]
    fn chirp_spectrum_covers_band() {
        // Energy should be concentrated between f0 and f1.
        let sr = 16000.0;
        let c = linear_chirp(1000.0, 4000.0, 0.064, sr);
        let spec = rfft(&c);
        let n = spec.len();
        let hz_per_bin = sr / n as f64;
        let band: f64 = spec[..n / 2]
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = *k as f64 * hz_per_bin;
                (900.0..=4100.0).contains(&f)
            })
            .map(|(_, v)| v.norm_sqr())
            .sum();
        let total: f64 = spec[..n / 2].iter().map(|v| v.norm_sqr()).sum();
        assert!(band / total > 0.95, "band fraction {}", band / total);
    }

    #[test]
    fn tone_period_is_correct() {
        let sr = 8000.0;
        let t = tone(1000.0, 0.01, sr);
        // 1 kHz at 8 kHz: period of 8 samples; sample 0 and 8 both ~0, sample 2 is peak.
        assert!(t[0].abs() < 1e-12);
        assert!((t[2] - 1.0).abs() < 1e-12);
        assert!((t[8]).abs() < 1e-9);
    }

    #[test]
    fn impulse_is_delta() {
        let d = impulse(8, 3);
        assert_eq!(energy(&d), 1.0);
        assert_eq!(d[3], 1.0);
    }

    #[test]
    fn rms_of_unit_sine_is_inv_sqrt2() {
        let t = tone(100.0, 1.0, 8000.0);
        assert!((rms(&t) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
    }

    #[test]
    fn normalize_peak_hits_target() {
        let mut s = vec![0.1, -0.4, 0.2];
        normalize_peak(&mut s, 1.0);
        assert!((peak_amplitude(&s) - 1.0).abs() < 1e-12);
        let mut silent = vec![0.0; 4];
        normalize_peak(&mut silent, 1.0);
        assert!(silent.iter().all(|&v| v == 0.0));
    }
}
