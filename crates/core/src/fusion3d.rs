//! 3-D diffraction-aware sensor fusion — the tracking half of the §7 "3D
//! HRTF" extension: *"the motion tracking equations need to be extended to
//! 3D."*
//!
//! The measurement session becomes a serpentine spherical gesture
//! (`uniq_imu::trajectory3d`); the IMU now integrates two angles
//! `(α_az, α_el)`; the acoustics still give two path lengths `(d_L, d_R)`.
//! Two distances in 3-D constrain the phone to a 1-D curve (the
//! intersection of two iso-distance surfaces), so — exactly as the paper
//! anticipates — the IMU's *elevation* angle becomes load-bearing rather
//! than a mere front/back disambiguator: localization minimizes the
//! distance residuals with a weak angular prior toward the IMU hints, and
//! the head fit extends to four parameters `(a, b, c, h)`.

use crate::channel::{estimate_channel_with, ChannelOperators, EstimatedChannel};
use crate::config::UniqConfig;
use crate::session::SessionError;
use uniq_acoustics::measure::{EmittedProbe, MeasurementSetup};
use uniq_acoustics::render3d::Renderer3;
use uniq_geometry::elevation::{path_to_ear_3d_res, Head3, Vec3};
use uniq_geometry::vec2::angle_diff_deg;
use uniq_geometry::{Ear, HeadParams};
use uniq_imu::gyro::integrate_rates;
use uniq_imu::trajectory3d::{generate_spherical, spherical_stops, SphericalPlan};
use uniq_optim::{nelder_mead, NelderMeadOptions};
use uniq_subjects::Subject;

/// Cross-section resolution used by the 3-D inverse solver.
const INVERSE_SECTION: usize = 128;

/// One spherical stop's fusion inputs.
#[derive(Debug, Clone, Copy)]
pub struct FusionInput3 {
    /// IMU-integrated azimuth orientation, degrees.
    pub alpha_az_deg: f64,
    /// IMU-integrated elevation orientation, degrees.
    pub alpha_el_deg: f64,
    /// First-tap path length to the left ear, metres.
    pub d_left_m: f64,
    /// First-tap path length to the right ear, metres.
    pub d_right_m: f64,
}

/// A localized stop in 3-D.
#[derive(Debug, Clone, Copy)]
pub struct Localized3 {
    /// Azimuth, degrees.
    pub theta_deg: f64,
    /// Elevation, degrees.
    pub elevation_deg: f64,
    /// Radius, metres.
    pub radius_m: f64,
    /// Distance residual at the solution, metres.
    pub residual_m: f64,
}

/// 3-D fusion output.
#[derive(Debug, Clone)]
pub struct FusionResult3 {
    /// Fitted four-parameter head `(a, b, c, h)`.
    pub head: Head3,
    /// Per-stop localizations.
    pub stops: Vec<Localized3>,
    /// Mean combined angular residual `|α − θ(E)|`, degrees.
    pub mean_residual_deg: f64,
}

/// Localizes the phone in 3-D under a head hypothesis: minimizes the
/// squared distance residuals with a weak prior toward the IMU hints
/// (which selects a point on the 1-D ambiguity curve).
///
/// Returns `None` when the optimizer cannot reach a residual below one
/// sample of path length (~7 mm at 48 kHz).
pub fn localize_phone_3d(head: &Head3, input: &FusionInput3) -> Option<Localized3> {
    // Decision variables: (azimuth°, elevation°, radius m).
    let objective = |x: &[f64]| -> f64 {
        let (az, el, r) = (x[0], x[1], x[2]);
        if !(0.1..2.0).contains(&r) || !(-80.0..80.0).contains(&el) {
            return f64::INFINITY;
        }
        let pos = Vec3::from_angles(az, el).scale(r);
        let dl = match path_to_ear_3d_res(head, pos, Ear::Left, INVERSE_SECTION) {
            Some(p) => p.length,
            None => return f64::INFINITY,
        };
        let dr = match path_to_ear_3d_res(head, pos, Ear::Right, INVERSE_SECTION) {
            Some(p) => p.length,
            None => return f64::INFINITY,
        };
        let dist_term = (dl - input.d_left_m).powi(2) + (dr - input.d_right_m).powi(2);
        // Weak prior (metres²-per-degree² scale chosen so a 10° deviation
        // costs about as much as a 3 mm distance residual).
        let prior = 1e-7
            * (angle_diff_deg(az, input.alpha_az_deg).powi(2) + (el - input.alpha_el_deg).powi(2));
        dist_term + prior
    };

    let r0 = 0.5 * (input.d_left_m + input.d_right_m).clamp(0.2, 1.5);
    let seed = [input.alpha_az_deg, input.alpha_el_deg, r0];
    let opts = NelderMeadOptions {
        max_iter: 120,
        initial_step: 0.05,
        f_tol: 1e-12,
        x_tol: 1e-9,
    };
    let fit = nelder_mead(objective, &seed, &opts);
    let fit = match fit {
        Ok(fit) if fit.fx.is_finite() => fit,
        _ => return None,
    };
    // Residual without the prior.
    let pos = Vec3::from_angles(fit.x[0], fit.x[1]).scale(fit.x[2]);
    let dl = path_to_ear_3d_res(head, pos, Ear::Left, INVERSE_SECTION)?.length;
    let dr = path_to_ear_3d_res(head, pos, Ear::Right, INVERSE_SECTION)?.length;
    let residual = ((dl - input.d_left_m).powi(2) + (dr - input.d_right_m).powi(2)).sqrt();
    if residual > 0.012 {
        return None;
    }
    Some(Localized3 {
        theta_deg: fit.x[0].rem_euclid(360.0),
        elevation_deg: fit.x[1],
        radius_m: fit.x[2],
        residual_m: residual,
    })
}

/// Fits the four head parameters and localizes every stop.
///
/// Returns `None` when fewer than half the stops localize under the best
/// hypothesis.
pub fn fuse_3d(inputs: &[FusionInput3]) -> Option<FusionResult3> {
    assert!(inputs.len() >= 6, "3-D fusion needs at least 6 stops");

    let objective = |e: &[f64]| -> f64 {
        let bounds = [
            (0.050, 0.110),
            (0.060, 0.150),
            (0.060, 0.140),
            (0.070, 0.160),
        ];
        for (v, (lo, hi)) in e.iter().zip(bounds) {
            if !(lo..=hi).contains(v) {
                return f64::INFINITY;
            }
        }
        let head = Head3::new(HeadParams::new(e[0], e[1], e[2]), e[3]);
        let penalty = 30f64.powi(2);
        inputs
            .iter()
            .map(|inp| match localize_phone_3d(&head, inp) {
                Some(loc) => {
                    angle_diff_deg(loc.theta_deg, inp.alpha_az_deg).powi(2)
                        + (loc.elevation_deg - inp.alpha_el_deg).powi(2)
                }
                None => penalty,
            })
            .sum()
    };

    let avg = HeadParams::average_adult();
    let opts = NelderMeadOptions {
        max_iter: 60,
        initial_step: 0.08,
        f_tol: 1e-4,
        x_tol: 1e-5,
    };
    let fit = nelder_mead(objective, &[avg.a, avg.b, avg.c, 0.11], &opts);
    let fit = match fit {
        Ok(fit) if fit.fx.is_finite() => fit,
        _ => return None,
    };
    let head = Head3::new(HeadParams::new(fit.x[0], fit.x[1], fit.x[2]), fit.x[3]);

    let mut stops = Vec::new();
    let mut residual = 0.0;
    let mut ok = 0usize;
    for inp in inputs {
        match localize_phone_3d(&head, inp) {
            Some(loc) => {
                residual += angle_diff_deg(loc.theta_deg, inp.alpha_az_deg)
                    + (loc.elevation_deg - inp.alpha_el_deg).abs();
                stops.push(loc);
                ok += 1;
            }
            None => stops.push(Localized3 {
                theta_deg: inp.alpha_az_deg,
                elevation_deg: inp.alpha_el_deg,
                radius_m: f64::NAN,
                residual_m: f64::INFINITY,
            }),
        }
    }
    if ok * 2 < inputs.len() {
        return None;
    }
    Some(FusionResult3 {
        head,
        stops,
        mean_residual_deg: residual / ok as f64,
    })
}

/// One spherical measurement stop: inputs plus ground truth for
/// evaluation.
#[derive(Debug, Clone)]
pub struct StopMeasurement3 {
    /// Fusion inputs (what the pipeline may use).
    pub input: FusionInput3,
    /// Estimated channel (kept for future 3-D HRTF assembly).
    pub channel: EstimatedChannel,
    /// Ground-truth azimuth (evaluation only).
    pub truth_theta_deg: f64,
    /// Ground-truth elevation (evaluation only).
    pub truth_elevation_deg: f64,
}

/// Runs a spherical measurement session: serpentine gesture, two-axis IMU
/// integration, probe playback at each stop rendered through the 3-D
/// forward model.
///
/// # Errors
/// Returns [`SessionError::Config`] if `cfg` fails validation, or
/// [`SessionError::Stop`] when a stop's channel has no detectable taps.
pub fn run_session_3d(
    subject: &Subject,
    cfg: &UniqConfig,
    per_ring: usize,
    seed: u64,
) -> Result<Vec<StopMeasurement3>, SessionError> {
    cfg.validate().map_err(SessionError::Config)?;
    let head3 = Head3::new(subject.head, 0.105 + (subject.id % 7) as f64 * 0.002);
    let renderer = Renderer3::new(
        head3,
        subject.pinna_left.clone(),
        subject.pinna_right.clone(),
        cfg.render,
    );
    let setup = MeasurementSetup::anechoic(cfg.render.sample_rate, cfg.snr_db);
    let probe = cfg.probe();
    let system_ir = setup.system.calibrate(&probe, 256);
    let emitted = EmittedProbe::new(&setup, &probe, cfg.render.ir_len);
    let operators = ChannelOperators::new(&probe, &system_ir, emitted.recording_len(), cfg);

    let plan = SphericalPlan::standard(subject.gesture);
    let traj = generate_spherical(&plan, seed);
    let dt = 1.0 / plan.imu_rate_hz;
    let az_rates: Vec<f64> = traj.iter().map(|s| s.rate_az_dps).collect();
    let el_rates: Vec<f64> = traj.iter().map(|s| s.rate_el_dps).collect();
    let az_meas = cfg.gyro.simulate(&az_rates, dt, seed.wrapping_add(1));
    let el_meas = cfg.gyro.simulate(&el_rates, dt, seed.wrapping_add(2));
    // User starts aimed at (0°, first ring elevation): the azimuth starts
    // at 0 by instruction; the first elevation is announced by the app.
    let az_int = integrate_rates(&az_meas, dt, 0.0);
    let el_int = integrate_rates(&el_meas, dt, plan.rings_deg[0]);

    let stops = spherical_stops(&traj, &plan, per_ring);
    let mut out = Vec::with_capacity(stops.len());
    for (i, stop) in stops.iter().enumerate() {
        // Index of this stop in the full trajectory (by time).
        let idx = ((stop.t / dt).round() as usize).min(traj.len() - 1);
        let ir = renderer
            .render_point(stop.pos)
            // uniq-analyzer: allow(panic-safety) — ring stops are generated on a sphere strictly outside the head radius
            .expect("gesture stays outside the head");
        let rec = emitted.record(&ir, setup.snr_db, seed.wrapping_add(100 + i as u64));
        let channel = estimate_channel_with(&rec, &operators, cfg)
            .map_err(|error| SessionError::Stop { stop: i, error })?;
        out.push(StopMeasurement3 {
            input: FusionInput3 {
                alpha_az_deg: az_int[idx],
                alpha_el_deg: el_int[idx],
                d_left_m: EstimatedChannel::tap_to_metres(channel.tap_left, cfg),
                d_right_m: EstimatedChannel::tap_to_metres(channel.tap_right, cfg),
            },
            channel,
            truth_theta_deg: stop.theta_deg,
            truth_elevation_deg: stop.elevation_deg,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> UniqConfig {
        UniqConfig {
            in_room: false,
            snr_db: 45.0,
            ..UniqConfig::fast_test()
        }
    }

    #[test]
    fn nan_path_length_fails_the_3d_localization_without_a_panic() {
        let input = FusionInput3 {
            alpha_az_deg: 40.0,
            alpha_el_deg: 15.0,
            d_left_m: f64::NAN,
            d_right_m: 0.5,
        };
        assert!(localize_phone_3d(&Head3::average_adult(), &input).is_none());
    }

    #[test]
    fn localize_3d_recovers_clean_geometry() {
        let head = Head3::average_adult();
        for (az, el, r) in [(40.0, 15.0, 0.45), (120.0, -20.0, 0.4), (75.0, 45.0, 0.5)] {
            let pos = Vec3::from_angles(az, el).scale(r);
            let dl = path_to_ear_3d_res(&head, pos, Ear::Left, 256)
                .unwrap()
                .length;
            let dr = path_to_ear_3d_res(&head, pos, Ear::Right, 256)
                .unwrap()
                .length;
            let input = FusionInput3 {
                alpha_az_deg: az + 3.0,
                alpha_el_deg: el - 2.0,
                d_left_m: dl,
                d_right_m: dr,
            };
            let loc = localize_phone_3d(&head, &input).expect("localizes");
            assert!(
                angle_diff_deg(loc.theta_deg, az) < 5.0,
                "az {az}: got {}",
                loc.theta_deg
            );
            assert!(
                (loc.elevation_deg - el).abs() < 6.0,
                "el {el}: got {}",
                loc.elevation_deg
            );
            assert!(
                (loc.radius_m - r).abs() < 0.05,
                "r {r}: got {}",
                loc.radius_m
            );
        }
    }

    #[test]
    fn session_3d_produces_all_stops() {
        let subject = Subject::from_seed(120);
        let stops = run_session_3d(&subject, &cfg(), 5, 9).unwrap();
        assert_eq!(stops.len(), 15); // 3 rings × 5
        for s in &stops {
            assert!(s.input.d_left_m > 0.1 && s.input.d_left_m < 1.5);
        }
    }

    #[test]
    fn session_3d_rejects_an_invalid_config() {
        let subject = Subject::from_seed(120);
        let c = UniqConfig {
            grid_step_deg: 0.0,
            ..cfg()
        };
        assert!(matches!(
            run_session_3d(&subject, &c, 5, 9),
            Err(SessionError::Config(_))
        ));
    }

    #[test]
    fn session_3d_records_noise_free_when_the_noise_amplitude_underflows() {
        // 10^(7000/20) overflows, so the noise amplitude is 0: no stop may
        // panic, and two such SNRs must record the same (noise-free) bits.
        let subject = Subject::from_seed(120);
        let session = |snr_db: f64| {
            let c = UniqConfig { snr_db, ..cfg() };
            run_session_3d(&subject, &c, 5, 9).expect("every stop estimates")
        };
        let (a, b) = (session(7000.0), session(9000.0));
        assert_eq!(a.len(), 15);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.channel.ir, y.channel.ir);
            assert_eq!(x.channel.tap_left.to_bits(), y.channel.tap_left.to_bits());
            assert_eq!(x.channel.tap_right.to_bits(), y.channel.tap_right.to_bits());
        }
    }

    #[test]
    fn end_to_end_3d_fusion_tracks_the_sphere() {
        let subject = Subject::from_seed(121);
        let c = cfg();
        let stops = run_session_3d(&subject, &c, 5, 11).unwrap();
        let inputs: Vec<FusionInput3> = stops.iter().map(|s| s.input).collect();
        let fusion = fuse_3d(&inputs).expect("3-D fusion converges");

        let mut az_err = Vec::new();
        let mut el_err = Vec::new();
        for (stop, loc) in stops.iter().zip(&fusion.stops) {
            if !loc.radius_m.is_finite() {
                continue;
            }
            az_err.push(angle_diff_deg(loc.theta_deg, stop.truth_theta_deg));
            el_err.push((loc.elevation_deg - stop.truth_elevation_deg).abs());
        }
        let az_med = uniq_dsp::stats::median(&az_err);
        let el_med = uniq_dsp::stats::median(&el_err);
        assert!(az_med < 8.0, "azimuth median {az_med}°");
        assert!(el_med < 8.0, "elevation median {el_med}°");
        // The fitted planar axes should stay anthropometric.
        assert!((fusion.head.planar.a - subject.head.a).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "at least 6")]
    fn too_few_stops_rejected() {
        let head = Head3::average_adult();
        let pos = Vec3::from_angles(30.0, 0.0).scale(0.4);
        let dl = path_to_ear_3d_res(&head, pos, Ear::Left, 128)
            .unwrap()
            .length;
        let dr = path_to_ear_3d_res(&head, pos, Ear::Right, 128)
            .unwrap()
            .length;
        let input = FusionInput3 {
            alpha_az_deg: 30.0,
            alpha_el_deg: 0.0,
            d_left_m: dl,
            d_right_m: dr,
        };
        fuse_3d(&[input; 3]);
    }
}
