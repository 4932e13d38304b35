//! IIR biquad sections and cascades.
//!
//! Biquads follow the Audio-EQ-Cookbook (RBJ) designs; cascading two
//! identical sections gives the 4th-order Butterworth-style band edges used
//! to emulate the paper's speaker–microphone response (Fig 16).

use std::f64::consts::PI;

/// A single direct-form-I biquad section.
#[derive(Debug, Clone, Copy)]
pub struct Biquad {
    /// Feed-forward coefficients (normalized by `a0`).
    pub b: [f64; 3],
    /// Feedback coefficients `a1, a2` (normalized by `a0`).
    pub a: [f64; 2],
}

impl Biquad {
    /// RBJ low-pass with cutoff `fc` hertz and quality `q` at `sample_rate`.
    ///
    /// # Panics
    /// Panics unless `0 < fc < sample_rate/2` and `q > 0`.
    pub fn lowpass(fc: f64, q: f64, sample_rate: f64) -> Self {
        let (_, alpha, cw) = rbj_params(fc, q, sample_rate);
        let b1 = 1.0 - cw;
        Self::normalize(
            [b1 / 2.0, b1, b1 / 2.0],
            [1.0 + alpha, -2.0 * cw, 1.0 - alpha],
        )
    }

    /// RBJ high-pass with cutoff `fc` hertz and quality `q`.
    ///
    /// # Panics
    /// Panics unless `0 < fc < sample_rate/2` and `q > 0`.
    pub fn highpass(fc: f64, q: f64, sample_rate: f64) -> Self {
        let (_, alpha, cw) = rbj_params(fc, q, sample_rate);
        let b1 = 1.0 + cw;
        Self::normalize(
            [b1 / 2.0, -b1, b1 / 2.0],
            [1.0 + alpha, -2.0 * cw, 1.0 - alpha],
        )
    }

    /// RBJ constant-peak band-pass centred at `fc` with quality `q`.
    ///
    /// # Panics
    /// Panics unless `0 < fc < sample_rate/2` and `q > 0`.
    pub fn bandpass(fc: f64, q: f64, sample_rate: f64) -> Self {
        let (_, alpha, cw) = rbj_params(fc, q, sample_rate);
        Self::normalize([alpha, 0.0, -alpha], [1.0 + alpha, -2.0 * cw, 1.0 - alpha])
    }

    fn normalize(b: [f64; 3], a: [f64; 3]) -> Self {
        Biquad {
            b: [b[0] / a[0], b[1] / a[0], b[2] / a[0]],
            a: [a[1] / a[0], a[2] / a[0]],
        }
    }

    /// Filters a signal through this section (zero initial state).
    pub fn filter(&self, input: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(input.len());
        let (mut x1, mut x2, mut y1, mut y2) = (0.0, 0.0, 0.0, 0.0);
        for &x in input {
            let y =
                self.b[0] * x + self.b[1] * x1 + self.b[2] * x2 - self.a[0] * y1 - self.a[1] * y2;
            x2 = x1;
            x1 = x;
            y2 = y1;
            y1 = y;
            out.push(y);
        }
        out
    }

    /// Complex frequency response at `freq` hertz.
    pub fn response(&self, freq: f64, sample_rate: f64) -> crate::Complex {
        let w = 2.0 * PI * freq / sample_rate;
        let z1 = crate::Complex::cis(-w);
        let z2 = crate::Complex::cis(-2.0 * w);
        let num = crate::Complex::from_real(self.b[0]) + z1 * self.b[1] + z2 * self.b[2];
        let den = crate::Complex::ONE + z1 * self.a[0] + z2 * self.a[1];
        num / den
    }
}

fn rbj_params(fc: f64, q: f64, sample_rate: f64) -> (f64, f64, f64) {
    // Returns (w0, alpha, cos w0); w0 itself is unused by the current designs
    // but kept for shelf/peak designs.
    assert!(
        fc > 0.0 && fc < sample_rate / 2.0,
        "corner {fc} Hz outside (0, {})",
        sample_rate / 2.0
    );
    assert!(q > 0.0, "quality factor must be positive");
    let w0 = 2.0 * PI * fc / sample_rate;
    (w0, w0.sin() / (2.0 * q), w0.cos())
}

/// A cascade of biquad sections applied in series.
#[derive(Debug, Clone)]
pub struct BiquadCascade {
    sections: Vec<Biquad>,
}

impl BiquadCascade {
    /// Builds a cascade from individual sections (empty cascade = identity).
    pub fn new(sections: Vec<Biquad>) -> Self {
        BiquadCascade { sections }
    }

    /// A 4th-order Butterworth-style band-pass built from two high-pass and
    /// two low-pass sections with Butterworth pole quality (1/√2).
    pub fn butterworth_bandpass(f_low: f64, f_high: f64, sample_rate: f64) -> Self {
        assert!(f_low < f_high, "band edges out of order");
        let q = std::f64::consts::FRAC_1_SQRT_2;
        BiquadCascade::new(vec![
            Biquad::highpass(f_low, q, sample_rate),
            Biquad::highpass(f_low, q, sample_rate),
            Biquad::lowpass(f_high, q, sample_rate),
            Biquad::lowpass(f_high, q, sample_rate),
        ])
    }

    /// Filters a signal through every section in order.
    pub fn filter(&self, input: &[f64]) -> Vec<f64> {
        let mut sig = input.to_vec();
        for s in &self.sections {
            sig = s.filter(&sig);
        }
        sig
    }

    /// Complex frequency response (product over sections).
    pub fn response(&self, freq: f64, sample_rate: f64) -> crate::Complex {
        self.sections.iter().fold(crate::Complex::ONE, |acc, s| {
            acc * s.response(freq, sample_rate)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{rms, tone};

    const SR: f64 = 48_000.0;

    #[test]
    fn identity_passes_signal() {
        let s = vec![1.0, -0.5, 0.25, 2.0];
        let identity = Biquad {
            b: [1.0, 0.0, 0.0],
            a: [0.0, 0.0],
        };
        assert_eq!(identity.filter(&s), s);
    }

    #[test]
    fn lowpass_attenuates_high_frequency() {
        let lp = Biquad::lowpass(1000.0, 0.707, SR);
        let low = tone(100.0, 0.1, SR);
        let high = tone(10_000.0, 0.1, SR);
        let rl = rms(&lp.filter(&low)[2000..]);
        let rh = rms(&lp.filter(&high)[2000..]);
        assert!(rl > 0.9 * rms(&low[2000..]));
        assert!(rh < 0.05 * rms(&high[2000..]), "high rms ratio {rh}");
    }

    #[test]
    fn highpass_attenuates_low_frequency() {
        let hp = Biquad::highpass(1000.0, 0.707, SR);
        let low = tone(50.0, 0.2, SR);
        let rl = rms(&hp.filter(&low)[4000..]);
        assert!(rl < 0.05 * rms(&low[4000..]));
    }

    #[test]
    fn bandpass_peaks_at_center() {
        let bp = Biquad::bandpass(2000.0, 2.0, SR);
        let g_center = bp.response(2000.0, SR).abs();
        let g_off = bp.response(8000.0, SR).abs();
        assert!((g_center - 1.0).abs() < 0.01);
        assert!(g_off < 0.3);
    }

    #[test]
    fn response_matches_measurement() {
        let lp = Biquad::lowpass(3000.0, 0.707, SR);
        let f = 1500.0;
        let t = tone(f, 0.2, SR);
        let filtered = lp.filter(&t);
        let measured = rms(&filtered[4000..]) / rms(&t[4000..]);
        let predicted = lp.response(f, SR).abs();
        assert!(
            (measured - predicted).abs() < 0.02,
            "measured {measured} predicted {predicted}"
        );
    }

    #[test]
    fn butterworth_bandpass_shape() {
        let bp = BiquadCascade::butterworth_bandpass(100.0, 10_000.0, SR);
        assert_eq!(bp.sections.len(), 4);
        let db = |f: f64| 20.0 * bp.response(f, SR).abs().log10();
        // Passband ~0 dB.
        assert!(db(1000.0).abs() < 1.0);
        // Stop bands well down.
        assert!(db(10.0) < -30.0);
        assert!(db(23_000.0) < -20.0);
    }

    #[test]
    fn empty_cascade_is_identity() {
        let c = BiquadCascade::new(vec![]);
        let s = vec![0.5, -1.0, 2.0];
        assert_eq!(c.filter(&s), s);
        assert!((c.response(1234.0, SR).abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn corner_beyond_nyquist_panics() {
        Biquad::lowpass(30_000.0, 0.7, SR);
    }
}
