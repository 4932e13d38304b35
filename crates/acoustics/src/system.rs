//! Speaker–microphone system response and its compensation.
//!
//! Every recording passes through the phone speaker and the in-ear
//! microphone, whose combined response is far from flat (Fig 16 of the
//! paper: unstable below 50 Hz, usable over 100 Hz – 10 kHz). UNIQ's first
//! engineering step (§4.6) calibrates this response by playing a flat
//! chirp with the microphone co-located with the speaker, then divides it
//! out of every subsequent channel estimate.

use uniq_dsp::filter::BiquadCascade;
use uniq_dsp::spectrum::amplitude_to_db;

/// The emulated speaker–microphone chain.
#[derive(Debug, Clone)]
pub struct SystemResponse {
    cascade: BiquadCascade,
    sample_rate: f64,
}

impl SystemResponse {
    /// A budget phone-speaker + in-ear-microphone pair: 4th-order band-pass
    /// with corners near 90 Hz and 16 kHz — the Fig 16 shape.
    pub fn budget_hardware(sample_rate: f64) -> Self {
        SystemResponse {
            cascade: BiquadCascade::butterworth_bandpass(90.0, 16_000.0, sample_rate),
            sample_rate,
        }
    }

    /// Applies the hardware colouration to a signal.
    pub fn apply(&self, signal: &[f64]) -> Vec<f64> {
        self.cascade.filter(signal)
    }

    /// Magnitude response at `freq` hertz.
    pub fn magnitude(&self, freq: f64) -> f64 {
        self.cascade.response(freq, self.sample_rate).abs()
    }

    /// Magnitude response in decibels (Fig 16's y-axis).
    pub fn magnitude_db(&self, freq: f64) -> f64 {
        amplitude_to_db(self.magnitude(freq))
    }

    /// The calibration measurement: the system's impulse response as
    /// estimated by playing `probe` through the chain with the microphone
    /// co-located with the speaker, then deconvolving.
    pub fn calibrate(&self, probe: &[f64], ir_len: usize) -> Vec<f64> {
        let recorded = self.apply(probe);
        uniq_dsp::deconv::wiener_deconvolve(&recorded, probe, 1e-4, ir_len)
    }
}

/// Compensates a channel estimate for the calibrated system response:
/// divides the channel spectrum by the system spectrum (Wiener-regularized
/// so the unstable sub-50 Hz region cannot explode).
pub fn compensate_response(channel: &[f64], system_ir: &[f64], noise_floor: f64) -> Vec<f64> {
    uniq_dsp::deconv::wiener_deconvolve(channel, system_ir, noise_floor, channel.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_dsp::signal::linear_chirp;

    const SR: f64 = 48_000.0;

    #[test]
    fn fig16_shape() {
        let sys = SystemResponse::budget_hardware(SR);
        // Unstable (heavily attenuated) below 50 Hz.
        assert!(sys.magnitude_db(30.0) < -15.0);
        // Reasonably flat over the usable band.
        for f in [200.0, 1000.0, 5000.0, 10_000.0] {
            assert!(
                sys.magnitude_db(f).abs() < 3.0,
                "not flat at {f} Hz: {} dB",
                sys.magnitude_db(f)
            );
        }
        // Rolls off again toward Nyquist.
        assert!(sys.magnitude_db(22_000.0) < -6.0);
    }

    #[test]
    fn flat_system_is_identity() {
        let sys = SystemResponse {
            cascade: BiquadCascade::new(vec![]),
            sample_rate: SR,
        };
        let sig = linear_chirp(100.0, 10_000.0, 0.01, SR);
        assert_eq!(sys.apply(&sig), sig);
        assert!((sys.magnitude(1234.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_captures_response() {
        let sys = SystemResponse::budget_hardware(SR);
        let probe = linear_chirp(50.0, 20_000.0, 0.1, SR);
        let ir = sys.calibrate(&probe, 256);
        // The calibrated IR's spectrum should match the filter's magnitude
        // in the probe band.
        let spec = uniq_dsp::fft::rfft(&ir);
        let n = spec.len();
        for f in [500.0, 2000.0, 8000.0] {
            let bin = (f / SR * n as f64).round() as usize;
            let got = spec[bin].abs();
            let want = sys.magnitude(bin as f64 * SR / n as f64);
            assert!(
                (got - want).abs() < 0.1,
                "calibration off at {f} Hz: {got} vs {want}"
            );
        }
    }

    #[test]
    fn compensation_flattens_channel() {
        // A channel measured through the system, then compensated, should
        // recover the in-band structure of the raw channel.
        let sys = SystemResponse::budget_hardware(SR);
        let mut channel = vec![0.0; 128];
        channel[10] = 1.0;
        channel[30] = -0.4;
        let coloured = sys.apply(&channel);
        let probe = linear_chirp(50.0, 20_000.0, 0.1, SR);
        let sys_ir = sys.calibrate(&probe, 128);
        let restored = compensate_response(&coloured, &sys_ir, 1e-3);
        // Peaks should be back near their raw amplitudes/locations.
        assert!(restored[10] > 0.7, "main tap lost: {}", restored[10]);
        assert!(restored[30] < -0.25, "echo tap lost: {}", restored[30]);
    }
}
