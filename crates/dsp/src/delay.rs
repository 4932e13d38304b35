//! Fractional sample delays.
//!
//! The forward acoustic simulator places propagation taps at non-integer
//! sample positions; the windowed-sinc kernel here band-limits those taps so
//! sub-sample timing survives into the discrete signal (essential for the
//! paper's TDoA analysis, where one sample at 48 kHz is 7 mm of path).

use crate::window::{window, WindowKind};
use std::f64::consts::PI;

/// Half-width (in samples) of the windowed-sinc interpolation kernel.
pub const SINC_HALF_WIDTH: usize = 16;

/// Normalized sinc: `sin(πx)/(πx)`, 1 at x = 0.
#[inline]
pub fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        (PI * x).sin() / (PI * x)
    }
}

/// Adds a band-limited impulse of amplitude `amp` at (possibly fractional)
/// sample position `pos` into `buf`, using a Hann-windowed sinc kernel.
///
/// Contributions that fall outside the buffer are clipped. Positions may be
/// negative (only the in-range tail is written).
pub fn add_fractional_impulse(buf: &mut [f64], pos: f64, amp: f64) {
    if amp == 0.0 || !pos.is_finite() {
        return;
    }
    let center = pos.round() as isize;
    let frac = pos - center as f64; // in [-0.5, 0.5]
    let half = SINC_HALF_WIDTH as isize;
    let win = window(WindowKind::Hann, 2 * SINC_HALF_WIDTH + 1);
    // Pre-compute the full kernel and normalize to unit sum so a fractional
    // tap keeps exact DC gain (truncated windowed sincs otherwise droop).
    let mut kernel = [0.0; 2 * SINC_HALF_WIDTH + 1];
    let mut total = 0.0;
    for k in -half..=half {
        let x = k as f64 - frac;
        let w = win[(k + half) as usize] * sinc(x);
        kernel[(k + half) as usize] = w;
        total += w;
    }
    if total.abs() < 1e-12 {
        return;
    }
    for k in -half..=half {
        let idx = center + k;
        if idx < 0 || idx as usize >= buf.len() {
            continue;
        }
        buf[idx as usize] += amp * kernel[(k + half) as usize] / total;
    }
}

/// Delays a signal by a fractional number of samples using windowed-sinc
/// interpolation. Output has the same length as the input.
///
/// # Panics
/// Panics if `delay` is negative or non-finite.
pub fn delay_fractional(signal: &[f64], delay: f64) -> Vec<f64> {
    assert!(
        delay.is_finite() && delay >= 0.0,
        "delay_fractional: invalid delay {delay}"
    );
    // Offset the kernel by its half-width so the anti-causal sinc tail is
    // not clipped at index 0, then discard that lead-in after convolving.
    let lead = SINC_HALF_WIDTH;
    let mut kernel = vec![0.0; 2 * SINC_HALF_WIDTH + delay.ceil() as usize + 2];
    add_fractional_impulse(&mut kernel, delay + lead as f64, 1.0);
    let out = crate::conv::convolve(signal, &kernel);
    out[lead..lead + signal.len()].to_vec()
}

/// Reads the signal value at fractional index `pos` by linear interpolation,
/// returning 0 outside the valid range.
pub fn sample_linear(signal: &[f64], pos: f64) -> f64 {
    if signal.is_empty() || !pos.is_finite() || pos < 0.0 {
        return 0.0;
    }
    let i = pos.floor() as usize;
    if i + 1 >= signal.len() {
        return if i < signal.len() { signal[i] } else { 0.0 };
    }
    let f = pos - i as f64;
    signal[i] * (1.0 - f) + signal[i + 1] * f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::tone;
    use crate::xcorr::xcorr_peak_lag_subsample;

    #[test]
    fn sinc_at_integers() {
        assert_eq!(sinc(0.0), 1.0);
        for k in 1..6 {
            assert!(sinc(k as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn fractional_impulse_integer_position_is_delta() {
        let mut buf = vec![0.0; 64];
        add_fractional_impulse(&mut buf, 30.0, 2.0);
        assert!((buf[30] - 2.0).abs() < 1e-9);
        // Energy concentrated at the tap.
        let side: f64 = buf
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != 30)
            .map(|(_, v)| v * v)
            .sum();
        assert!(side < 1e-12);
    }

    #[test]
    fn fractional_impulse_preserves_subsample_timing() {
        let mut a = vec![0.0; 128];
        let mut b = vec![0.0; 128];
        add_fractional_impulse(&mut a, 50.0, 1.0);
        add_fractional_impulse(&mut b, 50.4, 1.0);
        let lag = xcorr_peak_lag_subsample(&a, &b);
        // b is a delayed by 0.4 samples, so the aligning lag is +0.4.
        // Parabolic refinement on a sinc-shaped correlation peak is biased
        // toward the integer grid; 0.2 samples of slack covers that.
        assert!((lag - 0.4).abs() < 0.2, "lag {lag}");
    }

    #[test]
    fn fractional_delay_of_tone_matches_phase() {
        let sr = 8000.0;
        let f = 500.0;
        let s = tone(f, 0.05, sr);
        let d = 3.5;
        let delayed = delay_fractional(&s, d);
        // Compare against analytically delayed tone in the steady-state region.
        for (k, &got) in delayed.iter().enumerate().take(300).skip(100) {
            let expect = (2.0 * PI * f * (k as f64 - d) / sr).sin();
            assert!((got - expect).abs() < 1e-2, "sample {k}: {got} vs {expect}");
        }
    }

    #[test]
    fn clipping_at_edges_is_safe() {
        let mut buf = vec![0.0; 8];
        add_fractional_impulse(&mut buf, -3.0, 1.0);
        add_fractional_impulse(&mut buf, 100.0, 1.0);
        add_fractional_impulse(&mut buf, 7.7, 1.0);
        // Should not panic; some energy may land inside.
        assert!(buf.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sample_linear_interpolates() {
        let s = vec![0.0, 2.0, 4.0];
        assert_eq!(sample_linear(&s, 0.5), 1.0);
        assert_eq!(sample_linear(&s, 1.25), 2.5);
        assert_eq!(sample_linear(&s, 2.0), 4.0);
        assert_eq!(sample_linear(&s, 5.0), 0.0);
        assert_eq!(sample_linear(&s, -1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn negative_delay_panics() {
        delay_fractional(&[1.0; 4], -1.0);
    }
}
