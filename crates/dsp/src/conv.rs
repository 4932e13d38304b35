//! Convolution.
//!
//! Direct (time-domain) convolution for short kernels and FFT-based fast
//! convolution for long ones, with [`convolve`] picking automatically.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::impulse;

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
}
