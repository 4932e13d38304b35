//! Channel estimation by deconvolution.
//!
//! Given a received recording `y = h ⊛ x + n` and the known probe `x`, the
//! UNIQ pipeline recovers the acoustic channel `h` (the raw HRIR plus room
//! taps) with [`wiener_deconvolve`]: regularized frequency-domain division
//! `H = Y·X* / (|X|² + ε)`. [`ProbeSpectrum`] is the probe's side of that
//! division prepared once, so several recordings of one probe transform
//! it once.

use crate::complex::Complex;
use crate::fft::{fft_in_place, ifft_in_place, next_pow2};

/// Estimates the channel impulse response from a recording of a known probe
/// using Wiener-regularized spectral division.
///
/// * `received` — microphone recording (may be longer than the probe).
/// * `probe` — the transmitted signal.
/// * `noise_floor` — Wiener regularizer as a fraction of the probe's peak
///   spectral power (e.g. `1e-3`); guards the division where the probe has
///   little energy.
/// * `out_len` — number of leading channel taps to return.
///
/// The returned vector is the first `out_len` taps of the estimated impulse
/// response; tap `k` corresponds to a delay of `k` samples between
/// transmission and reception. This is the one-shot form of
/// [`ProbeSpectrum`] at [`transform_size`].
///
/// ```
/// use uniq_dsp::{conv::convolve, deconv::wiener_deconvolve};
/// use uniq_dsp::signal::linear_chirp;
/// let probe = linear_chirp(100.0, 20_000.0, 0.02, 48_000.0);
/// let mut channel = vec![0.0; 64];
/// channel[10] = 1.0;                         // a single 10-sample echo
/// let recording = convolve(&probe, &channel);
/// let estimate = wiener_deconvolve(&recording, &probe, 1e-4, 64);
/// let peak = estimate.iter().enumerate().max_by(|a, b| a.1.abs().total_cmp(&b.1.abs())).unwrap().0;
/// assert_eq!(peak, 10);
/// ```
///
/// # Panics
/// Panics if the probe is empty or silent, or `out_len == 0`.
pub fn wiener_deconvolve(
    received: &[f64],
    probe: &[f64],
    noise_floor: f64,
    out_len: usize,
) -> Vec<f64> {
    let n = transform_size(received.len(), probe.len(), out_len);
    ProbeSpectrum::new(probe, noise_floor, n).deconvolve(received, out_len)
}

/// The FFT size [`wiener_deconvolve`] uses: the smallest power of two that
/// holds `out_len` channel taps past the longer of a recording of
/// `received_len` samples and a probe of `probe_len` without wrap-around.
pub fn transform_size(received_len: usize, probe_len: usize, out_len: usize) -> usize {
    next_pow2(received_len.max(probe_len) + out_len)
}

/// The probe's side of a Wiener deconvolution at one transform size: its
/// zero-padded spectrum `X` and the regularizer `ε`. Deconvolving a
/// recording whose [`transform_size`] is the size the probe was prepared
/// at returns the bits [`wiener_deconvolve`] returns for it.
#[derive(Debug, Clone)]
pub struct ProbeSpectrum {
    spectrum: Vec<Complex>,
    eps: f64,
}

impl ProbeSpectrum {
    /// Transforms `probe` at size `n`; `noise_floor` is as in
    /// [`wiener_deconvolve`].
    ///
    /// # Panics
    /// Panics if the probe is empty or silent, or `n` is not a power of two
    /// or is shorter than the probe.
    pub fn new(probe: &[f64], noise_floor: f64, n: usize) -> Self {
        assert!(!probe.is_empty(), "wiener_deconvolve: empty probe");
        assert!(probe.len() <= n, "wiener_deconvolve: probe longer than n");
        let probe_energy: f64 = probe.iter().map(|v| v * v).sum();
        assert!(probe_energy > 0.0, "wiener_deconvolve: silent probe");
        let mut spectrum = vec![Complex::ZERO; n];
        for (dst, &s) in spectrum.iter_mut().zip(probe) {
            *dst = Complex::from_real(s);
        }
        fft_in_place(&mut spectrum);
        let peak_power = spectrum
            .iter()
            .map(|v| v.norm_sqr())
            .fold(0.0_f64, f64::max);
        ProbeSpectrum {
            spectrum,
            eps: (noise_floor.max(1e-12)) * peak_power,
        }
    }

    /// The first `out_len` taps of `Y·X* / (|X|² + ε)`, back in time.
    ///
    /// # Panics
    /// Panics if `out_len == 0`, or `received.len() + out_len` exceeds the
    /// transform size (the taps would wrap around).
    pub fn deconvolve(&self, received: &[f64], out_len: usize) -> Vec<f64> {
        assert!(out_len > 0, "wiener_deconvolve: out_len must be positive");
        assert!(
            received.len() + out_len <= self.spectrum.len(),
            "wiener_deconvolve: {} samples and {out_len} taps wrap at size {}",
            received.len(),
            self.spectrum.len()
        );
        let mut fy = vec![Complex::ZERO; self.spectrum.len()];
        for (dst, &s) in fy.iter_mut().zip(received) {
            *dst = Complex::from_real(s);
        }
        fft_in_place(&mut fy);
        for (y, x) in fy.iter_mut().zip(&self.spectrum) {
            let denom = x.norm_sqr() + self.eps;
            *y = *y * x.conj() / denom;
        }
        ifft_in_place(&mut fy);
        fy.truncate(out_len);
        fy.into_iter().map(|z| z.re).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::convolve;
    use crate::signal::linear_chirp;

    /// Deterministic full-band pseudo-noise probe (LCG-driven, uniform in
    /// (-1, 1)). Chirps are band-limited, so exact tap recovery tests need a
    /// probe with energy in every bin.
    fn pn_probe(len: usize) -> Vec<f64> {
        let mut state: u64 = 0x1234_5678_9abc_def0;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    fn test_channel() -> Vec<f64> {
        let mut h = vec![0.0; 64];
        h[5] = 1.0;
        h[12] = -0.5;
        h[30] = 0.25;
        h
    }

    #[test]
    fn wiener_recovers_sparse_channel() {
        let probe = pn_probe(1024);
        let h = test_channel();
        let rx = convolve(&probe, &h);
        let est = wiener_deconvolve(&rx, &probe, 1e-9, 64);
        for (k, (&a, &b)) in est.iter().zip(&h).enumerate() {
            assert!((a - b).abs() < 5e-3, "tap {k}: {a} vs {b}");
        }
    }

    #[test]
    fn wiener_tolerates_noise() {
        let probe = pn_probe(2048);
        let h = test_channel();
        let mut rx = convolve(&probe, &h);
        // Deterministic pseudo-noise at ~-30 dB (independent LCG stream).
        let mut state: u64 = 0xdead_beef_cafe_f00d;
        for v in rx.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v += 0.01 * ((state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0);
        }
        let est = wiener_deconvolve(&rx, &probe, 1e-3, 64);
        // Main taps should still dominate.
        assert!(est[5] > 0.8);
        assert!(est[12] < -0.35);
        assert!(est[30] > 0.15);
    }

    #[test]
    fn wiener_identity_channel() {
        let probe = pn_probe(512);
        let est = wiener_deconvolve(&probe, &probe, 1e-9, 8);
        assert!((est[0] - 1.0).abs() < 1e-4);
        for &v in &est[1..] {
            assert!(v.abs() < 1e-3);
        }
    }

    #[test]
    fn wiener_with_chirp_probe_is_bandlimited_but_peaks_correctly() {
        // A chirp probe cannot recover out-of-band bins; the estimate is a
        // band-limited image of the channel with peaks in the right places.
        let probe = linear_chirp(200.0, 20_000.0, 0.05, 48000.0);
        let h = test_channel();
        let rx = convolve(&probe, &h);
        let est = wiener_deconvolve(&rx, &probe, 1e-3, 64);
        let (argmax, _) = est
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        assert_eq!(argmax, 5);
    }

    #[test]
    #[should_panic(expected = "silent probe")]
    fn silent_probe_panics() {
        wiener_deconvolve(&[1.0; 16], &[0.0; 16], 1e-3, 4);
    }
}
