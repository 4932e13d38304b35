//! Frequency-dependent diffraction-shadow attenuation.
//!
//! A creeping wave that wraps angle `φ` around the head sheds energy
//! continuously, and sheds *more at higher frequencies* — the classic
//! head-shadow low-pass. We use a first-order UTD-flavoured magnitude
//! model:
//!
//! ```text
//! A(f, φ) = exp(−κ · φ · sqrt(f / f₀))
//! ```
//!
//! with `κ` = [`SHADOW_KAPPA`] and `f₀` = [`SHADOW_F0_HZ`]. The renderer
//! realizes this magnitude as a **linear-phase FIR** (frequency sampling),
//! so shadowed taps keep their arrival time while losing treble.

use uniq_dsp::complex::Complex;
use uniq_dsp::fft::ifft;
use uniq_dsp::window::{window, WindowKind};

/// Number of taps in the generated shadow FIR (odd → symmetric linear
/// phase with integer group delay `(LEN-1)/2`).
pub const SHADOW_FIR_LEN: usize = 33;

/// Shadow-attenuation strength κ of the model above.
pub const SHADOW_KAPPA: f64 = 0.6;

/// Shadow-attenuation reference frequency f₀ of the model above, hertz.
pub const SHADOW_F0_HZ: f64 = 4000.0;

/// Frequency-sampling design size.
const DESIGN_N: usize = 256;

/// The shadow magnitude `A(f, φ)` of the model above.
pub fn shadow_magnitude(freq_hz: f64, wrap_angle: f64) -> f64 {
    if wrap_angle <= 0.0 {
        return 1.0;
    }
    (-SHADOW_KAPPA * wrap_angle * (freq_hz.max(0.0) / SHADOW_F0_HZ).sqrt()).exp()
}

/// Designs the linear-phase shadow FIR for a given wrap angle.
///
/// Returns `None` for non-positive wrap angles (no filtering needed —
/// the caller should place the raw tap). The kernel's group delay is
/// [`group_delay_samples`] samples; the renderer subtracts it when placing
/// taps so arrival times stay exact.
pub fn shadow_fir(wrap_angle: f64, sample_rate: f64) -> Option<Vec<f64>> {
    if wrap_angle <= 0.0 {
        return None;
    }
    // Sample the desired magnitude on the full FFT grid (conjugate
    // symmetric, zero phase) and inverse transform.
    let mut spec = vec![Complex::ZERO; DESIGN_N];
    for (k, s) in spec.iter_mut().enumerate() {
        let f = if k <= DESIGN_N / 2 {
            k as f64 * sample_rate / DESIGN_N as f64
        } else {
            (DESIGN_N - k) as f64 * sample_rate / DESIGN_N as f64
        };
        *s = Complex::from_real(shadow_magnitude(f, wrap_angle));
    }
    let impulse = ifft(&spec);
    // Zero-phase impulse is centred at 0 (wrapping negatively); rotate so
    // the centre lands mid-kernel, window, truncate.
    let half = SHADOW_FIR_LEN / 2;
    let win = window(WindowKind::Hann, SHADOW_FIR_LEN);
    let mut taps: Vec<f64> = (0..SHADOW_FIR_LEN)
        .map(|i| {
            let src = (i + DESIGN_N - half) % DESIGN_N;
            impulse[src].re * win[i]
        })
        .collect();
    // Renormalize the DC response to the analytic value (windowing nudges
    // it slightly).
    let dc: f64 = taps.iter().sum();
    let want = shadow_magnitude(0.0, wrap_angle);
    if dc.abs() > 1e-12 {
        let g = want / dc;
        for t in taps.iter_mut() {
            *t *= g;
        }
    }
    Some(taps)
}

/// Group delay of the generated FIR in samples.
pub const fn group_delay_samples() -> usize {
    SHADOW_FIR_LEN / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_dsp::fft::rfft;

    const SR: f64 = 48_000.0;

    #[test]
    fn magnitude_monotone_in_everything() {
        let m = |f: f64, w: f64| shadow_magnitude(f, w);
        // Decreases with frequency.
        assert!(m(8000.0, 1.0) < m(1000.0, 1.0));
        // Decreases with wrap angle.
        assert!(m(1000.0, 2.0) < m(1000.0, 0.5));
        // No wrap → no attenuation.
        assert_eq!(m(10_000.0, 0.0), 1.0);
        // DC unaffected by wrap.
        assert_eq!(m(0.0, 3.0), 1.0);
    }

    #[test]
    fn fir_none_for_direct_path() {
        assert!(shadow_fir(0.0, SR).is_none());
        assert!(shadow_fir(-1.0, SR).is_none());
    }

    #[test]
    fn fir_matches_analytic_magnitude() {
        // A 33-tap windowed design smooths the analytic curve; check the
        // match where the curve is resolvable at this kernel length.
        let wrap = 1.2;
        let taps = shadow_fir(wrap, SR).unwrap();
        assert_eq!(taps.len(), SHADOW_FIR_LEN);
        let spec = rfft(&taps); // padded to 64 bins
        let n = spec.len();
        // High-frequency plateau: the analytic curve is flat enough there
        // for the short kernel to track it.
        for &f in &[12_000.0, 18_000.0] {
            let bin = (f / SR * n as f64).round() as usize;
            let got = spec[bin].abs();
            let want = shadow_magnitude(bin as f64 * SR / n as f64, wrap);
            assert!((got - want).abs() < 0.15, "f={f}: got {got}, want {want}");
        }
        // The steep low-frequency knee is necessarily smoothed by a 33-tap
        // kernel; require monotone decrease instead of a pointwise match.
        let mags: Vec<f64> = (0..=n / 2).map(|k| spec[k].abs()).collect();
        for w in mags.windows(2) {
            assert!(w[1] <= w[0] + 0.02, "response not monotone: {w:?}");
        }
        // And the filter must actually be a low-pass: treble well below DC.
        let hi = spec[n / 2 - 1].abs();
        let lo = spec[1].abs();
        assert!(hi < 0.6 * lo, "not a low-pass: lo={lo} hi={hi}");
    }

    #[test]
    fn fir_symmetric_linear_phase() {
        let taps = shadow_fir(0.7, SR).unwrap();
        for k in 0..taps.len() / 2 {
            assert!(
                (taps[k] - taps[taps.len() - 1 - k]).abs() < 1e-9,
                "asymmetry at {k}"
            );
        }
    }

    #[test]
    fn heavier_wrap_attenuates_more_broadband() {
        let light = shadow_fir(0.3, SR).unwrap();
        let heavy = shadow_fir(2.0, SR).unwrap();
        let energy = |t: &[f64]| t.iter().map(|v| v * v).sum::<f64>();
        assert!(energy(&heavy) < energy(&light));
    }
}
