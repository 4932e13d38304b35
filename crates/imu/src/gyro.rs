//! Consumer gyroscope model and rate integration.
//!
//! The paper uses only the gyroscope (not the accelerometer) for phone
//! orientation: double-integrating accelerometer noise is hopeless, while
//! single-integrating gyro rates drifts slowly (§4.1). This model captures
//! the three error terms that matter at gesture time scales: a constant
//! bias, white measurement noise and a slow bias random walk.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gyroscope error model (all in degrees/second units).
///
/// ```
/// use uniq_imu::gyro::{GyroModel, integrate_rates};
/// let truth = vec![9.0; 201];                           // 9 °/s for 2 s
/// let measured = GyroModel::consumer_phone().simulate(&truth, 0.01, 7);
/// let angle = integrate_rates(&measured, 0.01, 0.0);
/// // Drift stays within a few degrees over a short gesture.
/// assert!((angle.last().unwrap() - 18.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GyroModel {
    /// Constant rate bias, °/s.
    pub bias_dps: f64,
    /// White noise standard deviation per sample, °/s.
    pub noise_std_dps: f64,
    /// Bias random-walk intensity, °/s per √s.
    pub bias_walk_dps: f64,
}

impl GyroModel {
    /// An ideal, noiseless gyro.
    pub fn ideal() -> Self {
        GyroModel {
            bias_dps: 0.0,
            noise_std_dps: 0.0,
            bias_walk_dps: 0.0,
        }
    }

    /// A calibrated consumer phone gyroscope: ~0.1 °/s residual bias,
    /// moderate white noise, slow bias walk. Integrated over a 20 s
    /// gesture this drifts a few degrees — matching the paper's premise
    /// that the IMU alone is insufficient.
    pub fn consumer_phone() -> Self {
        GyroModel {
            bias_dps: 0.10,
            noise_std_dps: 0.25,
            bias_walk_dps: 0.03,
        }
    }

    /// A worn-out or uncalibrated sensor.
    pub fn poor() -> Self {
        GyroModel {
            bias_dps: 0.5,
            noise_std_dps: 0.8,
            bias_walk_dps: 0.12,
        }
    }

    /// Simulates gyro readings for a stream of true angular rates sampled
    /// every `dt` seconds. Deterministic per seed.
    ///
    /// # Panics
    /// Panics if `dt` is not positive.
    pub fn simulate(&self, true_rates_dps: &[f64], dt: f64, seed: u64) -> Vec<f64> {
        assert!(dt > 0.0, "dt must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut walk = 0.0;
        let walk_step = self.bias_walk_dps * dt.sqrt();
        true_rates_dps
            .iter()
            .map(|&w| {
                walk += walk_step * gaussian(&mut rng);
                w + self.bias_dps + walk + self.noise_std_dps * gaussian(&mut rng)
            })
            .collect()
    }
}

/// A fault injector operating at the rate-stream boundary — corruption is
/// applied to the *measured* gyro rates, after the sensor error model, the
/// way a real dropout or range saturation would present to the pipeline.
///
/// Implementations must be deterministic for a given stream: the session
/// layer integrates the corrupted stream once per run and expects
/// bit-identical angles across thread counts.
pub trait RateInjector: std::fmt::Debug + Sync {
    /// Corrupts `rates_dps` (sampled every `dt` seconds) in place and
    /// returns the labels of the fault classes actually applied (empty =
    /// untouched).
    fn corrupt_rates(&self, rates_dps: &mut [f64], dt: f64) -> Vec<&'static str>;
}

/// Integrates angular rates (°/s, sampled every `dt` s) into orientation
/// (degrees), trapezoidal rule, starting at `initial_deg`.
///
/// Returns one orientation per input sample (the first equals
/// `initial_deg`).
///
/// # Panics
/// Panics if `dt` is not positive.
pub fn integrate_rates(rates_dps: &[f64], dt: f64, initial_deg: f64) -> Vec<f64> {
    assert!(dt > 0.0, "dt must be positive");
    let mut out = Vec::with_capacity(rates_dps.len());
    let mut angle = initial_deg;
    out.push(angle);
    for w in rates_dps.windows(2) {
        angle += 0.5 * (w[0] + w[1]) * dt;
        out.push(angle);
    }
    out
}

/// Standard normal sample via Box–Muller (rand 0.8 ships no normal
/// distribution without `rand_distr`).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{generate_trajectory, GesturePlan, Imperfections};

    #[test]
    fn ideal_gyro_passthrough() {
        let rates = vec![1.0, 2.0, 3.0];
        let out = GyroModel::ideal().simulate(&rates, 0.01, 1);
        assert_eq!(out, rates);
    }

    #[test]
    fn bias_shifts_mean() {
        let rates = vec![0.0; 10_000];
        let model = GyroModel {
            bias_dps: 0.5,
            noise_std_dps: 0.2,
            bias_walk_dps: 0.0,
        };
        let out = model.simulate(&rates, 0.01, 2);
        let mean: f64 = out.iter().sum::<f64>() / out.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn noise_std_calibrated() {
        let rates = vec![0.0; 20_000];
        let model = GyroModel {
            bias_dps: 0.0,
            noise_std_dps: 0.3,
            bias_walk_dps: 0.0,
        };
        let out = model.simulate(&rates, 0.01, 3);
        let mean: f64 = out.iter().sum::<f64>() / out.len() as f64;
        let var: f64 = out.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / out.len() as f64;
        assert!((var.sqrt() - 0.3).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn integration_of_constant_rate() {
        let rates = vec![10.0; 101]; // 10 °/s for 1 s at 100 Hz
        let angles = integrate_rates(&rates, 0.01, 5.0);
        assert_eq!(angles.len(), 101);
        assert!((angles[0] - 5.0).abs() < 1e-12);
        assert!((angles[100] - 15.0).abs() < 1e-9);
    }

    #[test]
    fn drift_grows_with_time() {
        // Integrated bias error is linear in time.
        let rates = vec![0.0; 3001];
        let model = GyroModel {
            bias_dps: 0.2,
            noise_std_dps: 0.0,
            bias_walk_dps: 0.0,
        };
        let measured = model.simulate(&rates, 0.01, 4);
        let angles = integrate_rates(&measured, 0.01, 0.0);
        assert!((angles[1000] - 2.0).abs() < 1e-6); // 10 s × 0.2 °/s
        assert!((angles[3000] - 6.0).abs() < 1e-6); // 30 s × 0.2 °/s
    }

    #[test]
    fn end_to_end_gesture_drift_is_a_few_degrees() {
        // The paper's design point: consumer gyro over a 20 s gesture ends
        // within a few degrees — useful but not sufficient alone.
        let traj = generate_trajectory(&GesturePlan::standard(Imperfections::none()), 8);
        let rates: Vec<f64> = traj.iter().map(|s| s.angular_rate_dps).collect();
        let dt = 0.01;
        let measured = GyroModel::consumer_phone().simulate(&rates, dt, 8);
        let est = integrate_rates(&measured, dt, traj[0].orientation_deg);
        let err = (est.last().unwrap() - traj.last().unwrap().orientation_deg).abs();
        assert!(err > 0.2, "unrealistically clean gyro: {err}°");
        assert!(err < 15.0, "unrealistically bad gyro: {err}°");
    }

    #[test]
    fn deterministic_per_seed() {
        let rates = vec![1.0; 100];
        let m = GyroModel::consumer_phone();
        assert_eq!(m.simulate(&rates, 0.01, 9), m.simulate(&rates, 0.01, 9));
        assert_ne!(m.simulate(&rates, 0.01, 9), m.simulate(&rates, 0.01, 10));
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        integrate_rates(&[1.0], 0.0, 0.0);
    }
}
