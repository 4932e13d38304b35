//! Convolution.
//!
//! Direct (time-domain) convolution for short kernels and FFT-based fast
//! convolution for long ones, with [`convolve`] picking automatically.
//! [`convolve_pair`] convolves one real signal with two real kernels (the
//! two ears of a binaural response) in one complex transform, and
//! [`SignalSpectrum`] prepares the signal's side once for many pairs.
//! All variants compute **full** linear convolution:
//! output length `a.len() + b.len() - 1`.

use crate::complex::Complex;
use crate::fft::{fft_in_place, ifft_in_place, next_pow2};

/// Above this cost product, [`convolve`] switches to the FFT path.
const DIRECT_COST_LIMIT: usize = 1 << 14;

/// Full linear convolution, direct O(N·M) evaluation.
///
/// Returns an empty vector if either input is empty.
pub fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// Full linear convolution via FFT (O((N+M) log(N+M))).
///
/// Returns an empty vector if either input is empty.
pub fn convolve_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let n = next_pow2(out_len);
    let mut fa = vec![Complex::ZERO; n];
    let mut fb = vec![Complex::ZERO; n];
    for (dst, &s) in fa.iter_mut().zip(a) {
        *dst = Complex::from_real(s);
    }
    for (dst, &s) in fb.iter_mut().zip(b) {
        *dst = Complex::from_real(s);
    }
    fft_in_place(&mut fa);
    fft_in_place(&mut fb);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x *= *y;
    }
    ifft_in_place(&mut fa);
    fa.truncate(out_len);
    fa.into_iter().map(|z| z.re).collect()
}

/// Full linear convolution, choosing direct vs FFT by input size.
///
/// ```
/// use uniq_dsp::conv::convolve;
/// let smoothed = convolve(&[1.0, 2.0, 3.0], &[0.5, 0.5]);
/// assert_eq!(smoothed, vec![0.5, 1.5, 2.5, 1.5]);
/// ```
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.len().saturating_mul(b.len()) <= DIRECT_COST_LIMIT {
        convolve_direct(a, b)
    } else {
        convolve_fft(a, b)
    }
}

/// Full linear convolutions of `signal` with `left` and with `right`, in
/// one forward and one inverse complex transform (plus the signal's own):
/// [`SignalSpectrum::convolve_pair`] at the smallest size that holds the
/// longer output. An empty input gives an empty output, as in [`convolve`].
///
/// ```
/// use uniq_dsp::conv::convolve_pair;
/// let (l, r) = convolve_pair(&[1.0, 2.0, 3.0], &[0.5, 0.5], &[0.0, 1.0]);
/// assert!(l.iter().zip([0.5, 1.5, 2.5, 1.5]).all(|(a, b)| (a - b).abs() < 1e-12));
/// assert!(r.iter().zip([0.0, 1.0, 2.0, 3.0]).all(|(a, b)| (a - b).abs() < 1e-12));
/// ```
pub fn convolve_pair(signal: &[f64], left: &[f64], right: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let kernel_len = left.len().max(right.len());
    let n = next_pow2(signal.len() + kernel_len.saturating_sub(1));
    SignalSpectrum::new(signal, n).convolve_pair(left, right)
}

/// A real signal's zero-padded spectrum at one transform size, prepared
/// to convolve with many kernel pairs.
#[derive(Debug, Clone)]
pub struct SignalSpectrum {
    len: usize,
    spectrum: Vec<Complex>,
}

impl SignalSpectrum {
    /// Transforms `signal` at size `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is shorter than the signal.
    pub fn new(signal: &[f64], n: usize) -> Self {
        assert!(signal.len() <= n, "SignalSpectrum: signal longer than n");
        let mut spectrum = vec![Complex::ZERO; n];
        for (dst, &s) in spectrum.iter_mut().zip(signal) {
            *dst = Complex::from_real(s);
        }
        fft_in_place(&mut spectrum);
        SignalSpectrum {
            len: signal.len(),
            spectrum,
        }
    }

    /// Full linear convolutions of the signal with `left` and with
    /// `right`. The kernels ride in one complex buffer as `left + i·right`;
    /// the signal is real, so the inverse transform of the product holds
    /// `signal ⊛ left` in its real part and `signal ⊛ right` in its
    /// imaginary part.
    ///
    /// # Panics
    /// Panics if a full convolution is longer than the transform size
    /// (it would wrap around).
    pub fn convolve_pair(&self, left: &[f64], right: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let out_len = |k: &[f64]| {
            if self.len == 0 || k.is_empty() {
                0
            } else {
                self.len + k.len() - 1
            }
        };
        let (left_len, right_len) = (out_len(left), out_len(right));
        let n = self.spectrum.len();
        assert!(
            left_len.max(right_len) <= n,
            "convolve_pair: a {}-sample output wraps at size {n}",
            left_len.max(right_len)
        );
        if left_len.max(right_len) == 0 {
            return (Vec::new(), Vec::new());
        }
        let mut buf = vec![Complex::ZERO; n];
        for (dst, &s) in buf.iter_mut().zip(left) {
            dst.re = s;
        }
        for (dst, &s) in buf.iter_mut().zip(right) {
            dst.im = s;
        }
        fft_in_place(&mut buf);
        for (x, y) in buf.iter_mut().zip(&self.spectrum) {
            *x *= *y;
        }
        ifft_in_place(&mut buf);
        (
            buf[..left_len].iter().map(|z| z.re).collect(),
            buf[..right_len].iter().map(|z| z.im).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::impulse;
    use proptest::prelude::*;

    #[test]
    fn empty_inputs() {
        assert!(convolve_direct(&[], &[1.0]).is_empty());
        assert!(convolve_fft(&[1.0], &[]).is_empty());
    }

    #[test]
    fn identity_with_delta() {
        let x = vec![1.0, -2.0, 3.5, 0.25];
        let d = impulse(1, 0);
        assert_eq!(convolve_direct(&x, &d), x);
    }

    #[test]
    fn delayed_delta_shifts() {
        let x = vec![1.0, 2.0, 3.0];
        let d = impulse(3, 2);
        assert_eq!(convolve_direct(&x, &d), vec![0.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_small_case() {
        // [1,2,3] * [4,5] = [4, 13, 22, 15]
        assert_eq!(
            convolve_direct(&[1.0, 2.0, 3.0], &[4.0, 5.0]),
            vec![4.0, 13.0, 22.0, 15.0]
        );
    }

    #[test]
    fn fft_matches_direct() {
        let a: Vec<f64> = (0..77).map(|k| ((k * k) as f64 * 0.03).sin()).collect();
        let b: Vec<f64> = (0..33).map(|k| (k as f64 * 0.7).cos()).collect();
        let d = convolve_direct(&a, &b);
        let f = convolve_fft(&a, &b);
        assert_eq!(d.len(), f.len());
        for (x, y) in d.iter().zip(&f) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn auto_selector_matches_both() {
        let a: Vec<f64> = (0..200).map(|k| (k as f64 * 0.11).sin()).collect();
        let b: Vec<f64> = (0..150).map(|k| (k as f64 * 0.05).cos()).collect();
        let auto = convolve(&a, &b);
        let fft = convolve_fft(&a, &b);
        for (x, y) in auto.iter().zip(&fft) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn commutative() {
        let a = vec![1.0, 0.5, -0.25, 2.0];
        let b = vec![3.0, -1.0];
        assert_eq!(convolve_direct(&a, &b), convolve_direct(&b, &a));
    }

    /// A deterministic signal of `len` samples in (-1, 1), scaled by `gain`.
    fn noise(len: usize, seed: u64, gain: f64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                gain * ((state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
            })
            .collect()
    }

    /// Largest absolute difference, or infinity on a length mismatch.
    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        if a.len() != b.len() {
            return f64::INFINITY;
        }
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    fn peak(v: &[f64]) -> f64 {
        v.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    #[test]
    fn pair_of_empty_kernels_is_empty() {
        assert_eq!(convolve_pair(&[1.0, 2.0], &[], &[]), (vec![], vec![]));
        assert_eq!(convolve_pair(&[], &[1.0], &[1.0]), (vec![], vec![]));
        let (l, r) = convolve_pair(&[1.0, 2.0], &[3.0], &[]);
        assert_eq!((l.len(), r.len()), (2, 0));
    }

    #[test]
    #[should_panic(expected = "wraps")]
    fn pair_output_longer_than_the_transform_panics() {
        SignalSpectrum::new(&[1.0; 4], 4).convolve_pair(&[1.0, 1.0], &[]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The pair convolution agrees with one per-ear FFT convolution
        /// per kernel within 1e-12 of the larger output's peak: random
        /// lengths, unequal kernels, a silent ear, outputs from 2 to
        /// 2^15 samples.
        #[test]
        fn pair_convolution_matches_per_ear_convolution(
            signal_len in 1usize..16_384,
            left_len in 1usize..16_384,
            right_len in 0usize..16_384,
            silent in 0usize..4,
            seed in 0u64..u64::MAX,
            right_gain_log10 in -6.0f64..2.0,
        ) {
            let signal = noise(signal_len, seed, 1.0);
            let mut left = noise(left_len, seed ^ 0x5a5a, 1.0);
            let mut right = noise(right_len, seed ^ 0xa5a5, 10f64.powf(right_gain_log10));
            match silent {
                0 => left.iter_mut().for_each(|v| *v = 0.0),
                1 => right.iter_mut().for_each(|v| *v = 0.0),
                _ => {}
            }
            let (got_left, got_right) = convolve_pair(&signal, &left, &right);
            let want_left = convolve_fft(&signal, &left);
            let want_right = convolve_fft(&signal, &right);
            let tol = 1e-12 * peak(&want_left).max(peak(&want_right)).max(f64::MIN_POSITIVE);
            prop_assert!(max_diff(&got_left, &want_left) <= tol, "left off by {}", max_diff(&got_left, &want_left));
            prop_assert!(max_diff(&got_right, &want_right) <= tol, "right off by {}", max_diff(&got_right, &want_right));
        }

        /// Short signals and kernels too: transform sizes from 2 up.
        #[test]
        fn short_pair_convolution_matches_direct(
            signal_len in 1usize..9,
            left_len in 1usize..9,
            right_len in 1usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let signal = noise(signal_len, seed, 1.0);
            let left = noise(left_len, seed ^ 1, 1.0);
            let right = noise(right_len, seed ^ 2, 1.0);
            let (got_left, got_right) = convolve_pair(&signal, &left, &right);
            let want_left = convolve_direct(&signal, &left);
            let want_right = convolve_direct(&signal, &right);
            let tol = 1e-12 * peak(&want_left).max(peak(&want_right)).max(f64::MIN_POSITIVE);
            prop_assert!(max_diff(&got_left, &want_left) <= tol);
            prop_assert!(max_diff(&got_right, &want_right) <= tol);
        }
    }
}
