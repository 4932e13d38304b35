//! Channel estimation by deconvolution.
//!
//! Given a received recording `y = h ⊛ x + n` and the known probe `x`, the
//! UNIQ pipeline recovers the acoustic channel `h` (the raw HRIR plus room
//! taps) with [`wiener_deconvolve`]: regularized frequency-domain division
//! `H = Y·X* / (|X|² + ε)`.

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
/// transmission and reception.
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
    assert!(out_len > 0, "wiener_deconvolve: out_len must be positive");
    let n = transform_size(received, probe, out_len);
    ProbeSpectrum::new(probe, noise_floor, n).deconvolve(received, out_len)
}

/// Wiener-deconvolves every recording in `recordings` against the same
/// probe, scheduled across `pool`. The per-ear channel estimates of one
/// measurement stop are the canonical use.
///
/// The probe is transformed once per distinct transform size, not once
/// per recording; each recording then runs the same arithmetic as
/// [`wiener_deconvolve`], so results are bit-identical to the sequential
/// loop regardless of the pool size — only the scheduling differs.
///
/// # Panics
/// Panics as [`wiener_deconvolve`] does (empty/silent probe, zero
/// `out_len`).
pub fn wiener_deconvolve_batch(
    recordings: &[&[f64]],
    probe: &[f64],
    noise_floor: f64,
    out_len: usize,
    pool: &uniq_par::ThreadPool,
) -> Vec<Vec<f64>> {
    assert!(out_len > 0, "wiener_deconvolve: out_len must be positive");
    // uniq-analyzer: allow(hot-path-alloc) — one entry per distinct transform size (one for a stop's two ears); the probe used to be transformed into a fresh buffer per recording
    let mut spectra: Vec<(usize, ProbeSpectrum)> = Vec::new();
    for rx in recordings {
        let n = transform_size(rx, probe, out_len);
        if spectra.iter().all(|(m, _)| *m != n) {
            spectra.push((n, ProbeSpectrum::new(probe, noise_floor, n)));
        }
    }
    pool.par_map_chunked(recordings, 1, |rx| {
        let n = transform_size(rx, probe, out_len);
        let spectrum = spectra.iter().find(|(m, _)| *m == n).map(|(_, s)| s);
        // uniq-analyzer: allow(panic-safety) — the loop above prepared every recording's size
        spectrum.expect("size prepared").deconvolve(rx, out_len)
    })
}

/// The FFT size that holds `out_len` channel taps past the longer of the
/// recording and the probe without wrap-around.
fn transform_size(received: &[f64], probe: &[f64], out_len: usize) -> usize {
    next_pow2(received.len().max(probe.len()) + out_len)
}

/// The probe's side of a Wiener deconvolution at one transform size: its
/// zero-padded spectrum `X` and the regularizer `ε`.
struct ProbeSpectrum {
    spectrum: Vec<Complex>,
    eps: f64,
}

impl ProbeSpectrum {
    /// # Panics
    /// Panics if the probe is empty or silent.
    fn new(probe: &[f64], noise_floor: f64, n: usize) -> Self {
        assert!(!probe.is_empty(), "wiener_deconvolve: empty probe");
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
    fn deconvolve(&self, received: &[f64], out_len: usize) -> Vec<f64> {
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

    /// One probe transform per distinct size serves every recording of
    /// that size with the bits a per-call deconvolution returns.
    #[test]
    fn batch_matches_per_call_bitwise_across_transform_sizes() {
        let probe = pn_probe(300);
        let h = test_channel();
        // Transform sizes 512, 512, 1024 and 2048.
        let recordings: Vec<Vec<f64>> = [200, 400, 700, 1500]
            .iter()
            .map(|&len| {
                let mut rx = convolve(&pn_probe(len), &h);
                rx.truncate(len);
                rx
            })
            .collect();
        let refs: Vec<&[f64]> = recordings.iter().map(Vec::as_slice).collect();
        for threads in [1, 3] {
            let pool = uniq_par::ThreadPool::new(threads);
            let batch = wiener_deconvolve_batch(&refs, &probe, 1e-3, 64, &pool);
            assert_eq!(batch.len(), recordings.len());
            for (rx, out) in recordings.iter().zip(&batch) {
                let want = wiener_deconvolve(rx, &probe, 1e-3, 64);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(out), bits(&want), "recording of {} samples", rx.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "silent probe")]
    fn silent_probe_panics() {
        wiener_deconvolve(&[1.0; 16], &[0.0; 16], 1e-3, 4);
    }
}
