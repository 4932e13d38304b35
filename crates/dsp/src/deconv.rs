//! Channel estimation by deconvolution.
//!
//! Given a received recording `y = h ⊛ x + n` and the known probe `x`, the
//! UNIQ pipeline recovers the acoustic channel `h` (the raw HRIR plus room
//! taps) with [`wiener_deconvolve`]: regularized frequency-domain division
//! `H = Y·X* / (|X|² + ε)`. [`ProbeSpectrum`] is the probe's side of that
//! division prepared once, so several recordings of one probe transform
//! it once, and [`ProbeSpectrum::deconvolve_pair`] filters two recordings
//! (the two ears) in one complex transform.

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
/// [`ProbeSpectrum`] at [`transform_size`], with a silent second
/// recording.
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
    ProbeSpectrum::new(probe, noise_floor, n)
        .deconvolve_pair(received, &[], out_len)
        .0
}

/// The FFT size [`wiener_deconvolve`] uses: the smallest power of two that
/// holds `out_len` channel taps past the longer of a recording of
/// `received_len` samples and a probe of `probe_len` without wrap-around.
pub fn transform_size(received_len: usize, probe_len: usize, out_len: usize) -> usize {
    next_pow2(received_len.max(probe_len) + out_len)
}

/// The probe's side of a Wiener deconvolution at one transform size: its
/// zero-padded spectrum `X` and the regularizer `ε`. Deconvolving a
/// recording (with a silent second one) whose [`transform_size`] is the
/// size the probe was prepared at returns the bits [`wiener_deconvolve`]
/// returns for it.
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

    /// The first `out_len` taps of `Y·X* / (|X|² + ε)`, back in time, for
    /// the recordings `left` and `right`. The two ride in one complex
    /// buffer as `left + i·right`. The filter `X* / (|X|² + ε)` is the
    /// spectrum of a real impulse response, because the probe is real, so
    /// the inverse transform holds the left estimate in its real part and
    /// the right one in its imaginary part: one forward and one inverse
    /// transform for both. An empty recording deconvolves to zeros.
    ///
    /// # Panics
    /// Panics if `out_len == 0`, or the longer recording's length plus
    /// `out_len` exceeds the transform size (the taps would wrap around).
    pub fn deconvolve_pair(
        &self,
        left: &[f64],
        right: &[f64],
        out_len: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        assert!(out_len > 0, "wiener_deconvolve: out_len must be positive");
        let received = left.len().max(right.len());
        assert!(
            received + out_len <= self.spectrum.len(),
            "wiener_deconvolve: {received} samples and {out_len} taps wrap at size {}",
            self.spectrum.len()
        );
        let mut fy = vec![Complex::ZERO; self.spectrum.len()];
        for (dst, &s) in fy.iter_mut().zip(left) {
            dst.re = s;
        }
        for (dst, &s) in fy.iter_mut().zip(right) {
            dst.im = s;
        }
        fft_in_place(&mut fy);
        for (y, x) in fy.iter_mut().zip(&self.spectrum) {
            let denom = x.norm_sqr() + self.eps;
            *y = *y * x.conj() / denom;
        }
        ifft_in_place(&mut fy);
        (
            fy[..out_len].iter().map(|z| z.re).collect(),
            fy[..out_len].iter().map(|z| z.im).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::convolve;
    use crate::signal::linear_chirp;
    use proptest::prelude::*;

    impl ProbeSpectrum {
        /// The per-recording filter [`ProbeSpectrum::deconvolve_pair`]
        /// replaced: one real recording per forward/inverse transform
        /// pair. The oracle the pair path is checked against.
        fn deconvolve_one(&self, received: &[f64], out_len: usize) -> Vec<f64> {
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn peak(v: &[f64]) -> f64 {
        v.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn one_recording_matches_the_per_recording_filter_bits() {
        let probe = pn_probe(700);
        let rx = convolve(&probe, &test_channel());
        let n = transform_size(rx.len(), probe.len(), 64);
        let op = ProbeSpectrum::new(&probe, 1e-3, n);
        let want = op.deconvolve_one(&rx, 64);
        assert_eq!(bits(&wiener_deconvolve(&rx, &probe, 1e-3, 64)), bits(&want));
        let (left, right) = op.deconvolve_pair(&rx, &[], 64);
        assert_eq!(bits(&left), bits(&want));
        // A real input's transform is Hermitian only to round-off, so the
        // silent ear reads round-off of the other ear's scale.
        assert!(peak(&right) < 1e-12 * peak(&left).max(1.0));
    }

    #[test]
    #[should_panic(expected = "wrap")]
    fn pair_longer_than_the_transform_panics() {
        let probe = pn_probe(16);
        ProbeSpectrum::new(&probe, 1e-3, 64).deconvolve_pair(&[1.0; 8], &[1.0; 60], 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The pair deconvolution agrees with the per-recording filter at
        /// the same transform size within 1e-12 of the larger estimate's
        /// peak: random lengths, ears of unequal length (whose own
        /// transform sizes may differ from the pair's), a silent ear, and
        /// transform sizes from 2 to 2^15.
        #[test]
        fn pair_deconvolution_matches_per_ear_filter(
            probe_len in 1usize..4096,
            left_len in 0usize..16_384,
            right_len in 0usize..16_384,
            out_len in 64usize..512,
            silent in 0usize..4,
            right_gain_log10 in -6.0f64..2.0,
        ) {
            let probe = pn_probe(probe_len);
            let channel = test_channel();
            let rx = |len: usize, gain: f64| -> Vec<f64> {
                let mut full = convolve(&probe, &channel);
                full.resize(len, 0.0);
                full.iter().map(|v| v * gain).collect()
            };
            let left = if silent == 0 { vec![0.0; left_len] } else { rx(left_len, 1.0) };
            let right = if silent == 1 {
                vec![0.0; right_len]
            } else {
                rx(right_len, 10f64.powf(right_gain_log10))
            };
            let n = transform_size(left_len.max(right_len), probe_len, out_len);
            prop_assert!((2..=1 << 15).contains(&n));
            let op = ProbeSpectrum::new(&probe, 1e-3, n);
            let (got_left, got_right) = op.deconvolve_pair(&left, &right, out_len);
            let want_left = op.deconvolve_one(&left, out_len);
            let want_right = op.deconvolve_one(&right, out_len);
            let tol = 1e-12 * peak(&want_left).max(peak(&want_right)).max(f64::MIN_POSITIVE);
            let case = format!(
                "probe {probe_len}, ears {left_len}/{right_len}, {out_len} taps, silent {silent}, \
                 gain 1e{right_gain_log10:.1}, peaks {}/{}",
                peak(&want_left),
                peak(&want_right)
            );
            prop_assert!(max_diff(&got_left, &want_left) <= tol, "left off by {}: {case}", max_diff(&got_left, &want_left));
            prop_assert!(max_diff(&got_right, &want_right) <= tol, "right off by {}: {case}", max_diff(&got_right, &want_right));
        }

        /// Tiny transforms: a 1-sample probe and a 1-tap estimate give n = 2.
        #[test]
        fn tiny_pair_deconvolution_matches_per_ear_filter(
            left in prop::collection::vec(-1.0f64..1.0, 0..2),
            right in prop::collection::vec(-1.0f64..1.0, 0..2),
            tap in 0.1f64..1.0,
        ) {
            let n = transform_size(left.len().max(right.len()), 1, 1);
            let op = ProbeSpectrum::new(&[tap], 1e-3, n);
            let (got_left, got_right) = op.deconvolve_pair(&left, &right, 1);
            let want_left = op.deconvolve_one(&left, 1);
            let want_right = op.deconvolve_one(&right, 1);
            let tol = 1e-12 * peak(&want_left).max(peak(&want_right)).max(f64::MIN_POSITIVE);
            prop_assert!(max_diff(&got_left, &want_left) <= tol);
            prop_assert!(max_diff(&got_right, &want_right) <= tol);
        }
    }
}
