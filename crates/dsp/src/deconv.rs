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
    assert!(!probe.is_empty(), "wiener_deconvolve: empty probe");
    assert!(out_len > 0, "wiener_deconvolve: out_len must be positive");
    let probe_energy: f64 = probe.iter().map(|v| v * v).sum();
    assert!(probe_energy > 0.0, "wiener_deconvolve: silent probe");

    let n = next_pow2(received.len().max(probe.len()) + out_len);
    let mut fy = vec![Complex::ZERO; n];
    let mut fx = vec![Complex::ZERO; n];
    for (dst, &s) in fy.iter_mut().zip(received) {
        *dst = Complex::from_real(s);
    }
    for (dst, &s) in fx.iter_mut().zip(probe) {
        *dst = Complex::from_real(s);
    }
    fft_in_place(&mut fy);
    fft_in_place(&mut fx);

    let peak_power = fx.iter().map(|v| v.norm_sqr()).fold(0.0_f64, f64::max);
    let eps = (noise_floor.max(1e-12)) * peak_power;

    for (y, x) in fy.iter_mut().zip(&fx) {
        let denom = x.norm_sqr() + eps;
        *y = *y * x.conj() / denom;
    }
    ifft_in_place(&mut fy);
    fy.truncate(out_len);
    fy.into_iter().map(|z| z.re).collect()
}

/// Wiener-deconvolves every recording in `recordings` against the same
/// probe, scheduled across `pool`. The per-ear channel estimates of one
/// measurement stop are the canonical use.
///
/// Each recording runs the exact same code path as [`wiener_deconvolve`],
/// so results are bit-identical to the sequential loop regardless of the
/// pool size — only the scheduling differs.
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
    pool.par_map_chunked(recordings, 1, |rx| {
        wiener_deconvolve(rx, probe, noise_floor, out_len)
    })
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
