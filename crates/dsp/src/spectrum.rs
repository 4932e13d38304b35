//! Magnitude spectra and decibel helpers.

use crate::fft::rfft;

/// Converts an amplitude ratio to decibels, flooring at `-200 dB` for zero.
#[inline]
pub fn amplitude_to_db(a: f64) -> f64 {
    if a <= 0.0 {
        -200.0
    } else {
        20.0 * a.log10()
    }
}

/// One-sided magnitude spectrum of a real signal.
///
/// Returns `(frequencies_hz, magnitudes)` for bins `0..=N/2` where `N` is
/// the (power-of-two padded) FFT size.
pub fn magnitude_spectrum(signal: &[f64], sample_rate: f64) -> (Vec<f64>, Vec<f64>) {
    if signal.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let spec = rfft(signal);
    let n = spec.len();
    let half = n / 2 + 1;
    let freqs = (0..half)
        .map(|k| k as f64 * sample_rate / n as f64)
        .collect();
    let mags = spec[..half].iter().map(|z| z.abs()).collect();
    (freqs, mags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::tone;

    #[test]
    fn db_roundtrip() {
        for db in [-60.0, -6.0, 0.0, 12.0] {
            assert!((amplitude_to_db(10f64.powf(db / 20.0)) - db).abs() < 1e-9);
        }
        assert_eq!(amplitude_to_db(0.0), -200.0);
    }

    #[test]
    fn tone_spectrum_peaks_at_tone() {
        let sr = 8192.0;
        let t = tone(1024.0, 0.125, sr); // 1024 samples
        let (freqs, mags) = magnitude_spectrum(&t, sr);
        let (argmax, _) = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!((freqs[argmax] - 1024.0).abs() < sr / 1024.0);
    }

    #[test]
    fn empty_signal_empty_spectrum() {
        let (f, m) = magnitude_spectrum(&[], 48000.0);
        assert!(f.is_empty() && m.is_empty());
    }
}
