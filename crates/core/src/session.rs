//! The measurement session.
//!
//! Drives one full data-collection pass for a subject: generate the arm
//! gesture, simulate the phone IMU along it, and at each discrete stop
//! play the probe chirp and estimate the binaural channel from the in-ear
//! recordings. The output is exactly the three inputs the paper gives the
//! UNIQ algorithm — earphone recordings (as estimated channels), IMU
//! orientation, and the known probe — plus ground truth kept *only* for
//! evaluation.

use crate::channel::{estimate_channel, stop_quality, ChannelError, EstimatedChannel};
use crate::config::UniqConfig;
use crate::degrade::{
    DegradationPolicy, DegradationReport, FaultHook, InjectionSite, NoFaults, StopDegradation,
};
use crate::fusion::MIN_STOPS;
use uniq_acoustics::measure::{record_point_source, MeasurementSetup};
use uniq_acoustics::render::Renderer;
use uniq_imu::gyro::integrate_rates;
use uniq_imu::trajectory::{generate_trajectory, measurement_stops, GesturePlan, TrajectorySample};
use uniq_subjects::{Subject, FORWARD_RESOLUTION};

/// One measurement stop: what the pipeline may use, plus ground truth for
/// evaluation.
#[derive(Debug, Clone)]
pub struct StopMeasurement {
    /// IMU-integrated phone orientation α at this stop, degrees (input to
    /// fusion; noisy).
    pub alpha_deg: f64,
    /// Estimated binaural channel at this stop (input to fusion).
    pub channel: EstimatedChannel,
    /// Ground-truth polar angle (evaluation only — from the overhead
    /// camera in the paper's rig).
    pub truth_theta_deg: f64,
    /// Ground-truth polar radius (evaluation only).
    pub truth_radius_m: f64,
}

/// A completed measurement session.
#[derive(Debug, Clone)]
pub struct SessionData {
    /// Per-stop measurements, in sweep order.
    pub stops: Vec<StopMeasurement>,
    /// The calibrated speaker–microphone impulse response used for
    /// compensation.
    pub system_ir: Vec<f64>,
}

/// A measurement session failure, carrying the identity of the stop that
/// failed so batch callers can report *which* measurement went wrong
/// rather than a generic error.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The configuration failed validation before any measurement ran.
    Config(crate::config::ConfigError),
    /// Channel estimation failed at one measurement stop.
    Stop {
        /// Zero-based index of the failing stop along the sweep.
        stop: usize,
        /// The underlying channel-estimation failure.
        error: ChannelError,
    },
    /// A stop's estimate scored below the degradation policy's quality
    /// floor and the policy forbids skipping stops.
    QualityFloor {
        /// Zero-based index of the failing stop along the sweep.
        stop: usize,
        /// The stop's quality score.
        score: f64,
        /// The policy's floor it fell under.
        floor: f64,
    },
    /// The degradation policy dropped too many stops for the session to
    /// remain usable.
    InsufficientStops {
        /// Stops that survived the policy.
        survived: usize,
        /// Minimum the policy (and fusion) require.
        needed: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Config(error) => write!(f, "invalid configuration: {error}"),
            SessionError::Stop { stop, error } => {
                write!(f, "measurement stop {stop}: {error}")
            }
            SessionError::QualityFloor { stop, score, floor } => write!(
                f,
                "measurement stop {stop}: quality {score:.3} below floor {floor:.3}"
            ),
            SessionError::InsufficientStops { survived, needed } => write!(
                f,
                "only {survived} of the required {needed} measurement stops survived degradation"
            ),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Config(error) => Some(error),
            SessionError::Stop { error, .. } => Some(error),
            SessionError::QualityFloor { .. } | SessionError::InsufficientStops { .. } => None,
        }
    }
}

/// Runs a measurement session for `subject` with the given config and
/// seed. The seed controls gesture imperfections, IMU noise and microphone
/// noise (all deterministic given the seed).
///
/// This is [`run_session_faulted`] with no faults and
/// [`DegradationPolicy::CLEAN`]: every stop is captured once and kept.
///
/// # Errors
/// Returns [`SessionError::Config`] if `cfg` fails validation, or
/// [`SessionError::Stop`] if any stop's channel has no detectable taps
/// (e.g. hopeless SNR). When several stops fail, the lowest-index stop
/// is reported — the same one a sequential scan would hit first.
pub fn run_session(
    subject: &Subject,
    cfg: &UniqConfig,
    seed: u64,
) -> Result<SessionData, SessionError> {
    run_session_faulted(subject, cfg, seed, &NoFaults, &DegradationPolicy::CLEAN)
        .map(|(session, _)| session)
}

/// Everything the per-stop routine reads: the forward renderer,
/// measurement chain, probe/calibration, and the gesture + IMU streams.
struct PreparedSession {
    renderer: Renderer,
    setup: MeasurementSetup,
    probe: Vec<f64>,
    system_ir: Vec<f64>,
    traj: Vec<TrajectorySample>,
    alphas: Vec<f64>,
    stops: Vec<TrajectorySample>,
    imu_rate_hz: f64,
}

/// Runs a measurement session under a [`FaultHook`], degrading gracefully
/// per `policy`: corrupted stops are retried (`policy.stop_retries` extra
/// captures) and then skipped when `policy.skip_failed_stops` allows it.
/// Returns the surviving session plus a [`DegradationReport`] describing
/// what was kept, dropped and seen.
///
/// The per-stop captures are independent and run on the `cfg.threads`
/// pool. Results are bit-identical to the sequential loop for every
/// thread count: each stop's computation is pure given the seed and the
/// hook, and outputs are reduced in stop order.
///
/// # Errors
/// [`SessionError::Config`] on invalid configuration;
/// [`SessionError::Stop`]/[`SessionError::QualityFloor`] when a stop stays
/// unusable and the policy forbids skipping (the lowest-index such stop);
/// [`SessionError::InsufficientStops`] when fewer than
/// [`MIN_STOPS`] stops survive.
pub fn run_session_faulted(
    subject: &Subject,
    cfg: &UniqConfig,
    seed: u64,
    hook: &dyn FaultHook,
    policy: &DegradationPolicy,
) -> Result<(SessionData, DegradationReport), SessionError> {
    cfg.validate().map_err(SessionError::Config)?;
    let _span = uniq_obs::span(uniq_obs::names::SPAN_SESSION);
    let renderer = subject.renderer(cfg.render, FORWARD_RESOLUTION);
    let setup = if cfg.in_room {
        MeasurementSetup::home(cfg.render.sample_rate, cfg.snr_db)
    } else {
        MeasurementSetup::anechoic(cfg.render.sample_rate, cfg.snr_db)
    };
    let probe = cfg.probe();
    let system_ir = setup.system.calibrate(&probe, 256);

    // Gesture + IMU; gyro faults corrupt the measured rate stream. The
    // rate streams are freed before the per-stop loop.
    let plan = GesturePlan::standard(subject.gesture);
    let traj = generate_trajectory(&plan, seed);
    let (alphas, gyro_faults) = {
        let true_rates: Vec<f64> = traj.iter().map(|s| s.angular_rate_dps).collect();
        let dt = 1.0 / plan.imu_rate_hz;
        let mut measured_rates = cfg.gyro.simulate(&true_rates, dt, seed.wrapping_add(1));
        let gyro_faults = hook.corrupt_rates(&mut measured_rates);
        // The user is instructed to start facing front: initial α = 0.
        (integrate_rates(&measured_rates, dt, 0.0), gyro_faults)
    };
    let stops = measurement_stops(&traj, cfg.stops);
    let prep = PreparedSession {
        renderer,
        setup,
        probe,
        system_ir,
        traj,
        alphas,
        stops,
        imu_rate_hz: plan.imu_rate_hz,
    };

    // Each stop is an independent capture → estimate → score computation,
    // so the sweep fans out across the pool. `try_par_map` evaluates every
    // stop and reports the lowest-index failure, and `ctx.run_indexed`
    // re-installs the caller's observability sink/depth/trace on the
    // workers — keyed by the stop index, so each stop's spans get ids that
    // depend on the stop, never on which worker ran it.
    let indexed: Vec<usize> = (0..prep.stops.len()).collect();
    let pool = uniq_par::pool(cfg.threads);
    let ctx = uniq_obs::capture();
    let outcomes = pool.try_par_map(&indexed, |&i| {
        ctx.run_indexed(i as u64, || degrade_stop(i, &prep, cfg, seed, hook, policy))
    })?;

    let mut stops = Vec::with_capacity(outcomes.len());
    let mut detail = Vec::with_capacity(outcomes.len());
    for (measurement, stop_detail) in outcomes {
        if let Some(m) = measurement {
            stops.push(m);
        }
        detail.push(stop_detail);
    }
    let report = DegradationReport::from_stops(detail, &gyro_faults);

    uniq_obs::metric(uniq_obs::names::SESSION_STOPS, report.stops_used as f64, "");
    uniq_obs::metric(
        uniq_obs::names::SESSION_STOPS_DROPPED,
        report.stops_dropped as f64,
        "",
    );
    uniq_obs::metric(
        uniq_obs::names::SESSION_STOPS_RETRIED,
        report.retries as f64,
        "",
    );
    let injected: usize = report.stops.iter().map(|s| s.faults.len()).sum();
    if injected + gyro_faults.len() > 0 {
        uniq_obs::counter(
            uniq_obs::names::FAULTS_INJECTED,
            (injected + gyro_faults.len()) as u64,
        );
    }

    if report.stops_used < MIN_STOPS {
        return Err(SessionError::InsufficientStops {
            survived: report.stops_used,
            needed: MIN_STOPS,
        });
    }
    Ok((
        SessionData {
            stops,
            system_ir: prep.system_ir,
        },
        report,
    ))
}

/// One stop's capture → corrupt → estimate → score loop under the
/// degradation policy. Pure given its arguments, so the session stays
/// bit-identical at any thread count.
#[allow(clippy::type_complexity)]
fn degrade_stop(
    i: usize,
    prep: &PreparedSession,
    cfg: &UniqConfig,
    seed: u64,
    hook: &dyn FaultHook,
    policy: &DegradationPolicy,
) -> Result<(Option<StopMeasurement>, StopDegradation), SessionError> {
    let n = prep.stops.len();
    let sched = hook.stop_schedule(i, n);
    let src = sched.source.min(n - 1);
    let stop = &prep.stops[src];
    // The IMU angle is read at the *scheduled* stop's timestamp (the
    // pipeline believes it is at stop `i`), shifted by any clock jitter.
    let base_idx = i * (prep.traj.len() - 1) / (cfg.stops - 1);
    let shift = (sched.jitter_s * prep.imu_rate_hz).round() as i64;
    let idx = (base_idx as i64 + shift).clamp(0, prep.alphas.len() as i64 - 1) as usize;

    let mut faults: Vec<&'static str> = sched.faults.clone();
    let mut attempts = 0usize;
    let mut kept: Option<(StopMeasurement, f64)> = None;
    let mut last_err: Option<ChannelError> = None;
    let mut last_score = 0.0;
    for attempt in 0..=policy.stop_retries {
        attempts = attempt + 1;
        // Attempt 0 draws the per-stop noise seed of the *source* stop, so
        // duplicated captures really duplicate; retries draw fresh
        // microphone noise, as a re-capture would.
        let noise_seed = seed
            .wrapping_add(100 + src as u64)
            .wrapping_add(50_000u64.wrapping_mul(attempt as u64));
        let site = InjectionSite { stop: i, attempt };
        let mut rec = record_point_source(
            &prep.renderer,
            &prep.setup,
            stop.pos,
            &prep.probe,
            noise_seed,
        )
        // uniq-analyzer: allow(panic-safety) — stop positions come from the gesture sampler, which clamps every point outside the head boundary
        .expect("gesture trajectory stays outside the head");
        faults.extend(hook.corrupt_recording(site, &mut rec));
        match estimate_channel(&rec, &prep.probe, &prep.system_ir, cfg) {
            Ok(channel) => {
                let quality = stop_quality(&channel, cfg);
                last_score = quality.score;
                last_err = None;
                if quality.score < policy.quality_floor {
                    continue; // treated as corrupted: retry, else drop
                }
                kept = Some((
                    StopMeasurement {
                        alpha_deg: prep.alphas[idx],
                        channel,
                        truth_theta_deg: stop.theta_deg,
                        truth_radius_m: stop.radius_m,
                    },
                    quality.score,
                ));
                break;
            }
            Err(error) => last_err = Some(error),
        }
    }
    faults.sort_unstable();
    faults.dedup();
    match kept {
        Some((measurement, score)) => {
            uniq_obs::metric(uniq_obs::names::SESSION_STOP_QUALITY, score, "");
            Ok((
                Some(measurement),
                StopDegradation {
                    stop: i,
                    source_stop: src,
                    attempts,
                    used: true,
                    quality: score,
                    faults,
                },
            ))
        }
        None if !policy.skip_failed_stops => Err(match last_err {
            Some(error) => SessionError::Stop { stop: i, error },
            None => SessionError::QualityFloor {
                stop: i,
                score: last_score,
                floor: policy.quality_floor,
            },
        }),
        None => Ok((
            None,
            StopDegradation {
                stop: i,
                source_stop: src,
                attempts,
                used: false,
                quality: 0.0,
                faults,
            },
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_imu::trajectory::Imperfections;

    fn quiet_cfg() -> UniqConfig {
        UniqConfig {
            in_room: false,
            snr_db: 60.0,
            ..UniqConfig::fast_test()
        }
    }

    #[test]
    fn session_produces_expected_stop_count() {
        let cfg = quiet_cfg();
        let subject = uniq_subjects::Subject::from_seed(50);
        let data = run_session(&subject, &cfg, 1).unwrap();
        assert_eq!(data.stops.len(), cfg.stops);
    }

    #[test]
    fn imu_angles_track_truth_within_drift() {
        let cfg = quiet_cfg();
        let mut subject = uniq_subjects::Subject::from_seed(51);
        subject.gesture = Imperfections::none();
        let data = run_session(&subject, &cfg, 2).unwrap();
        for stop in &data.stops {
            let err = (stop.alpha_deg - stop.truth_theta_deg).abs();
            assert!(err < 12.0, "IMU error {err}° too large");
        }
        // Angles must increase along the sweep.
        for w in data.stops.windows(2) {
            assert!(w[1].alpha_deg > w[0].alpha_deg - 2.0);
        }
    }

    #[test]
    fn relative_delay_crosses_zero_mid_sweep() {
        // Early stops are frontal (Δt ≈ small positive — source slightly
        // left); at 90° the left ear leads maximally; Δt shrinks again
        // toward 180°. At minimum, Δt at 90° must dominate the endpoints.
        let cfg = quiet_cfg();
        let mut subject = uniq_subjects::Subject::from_seed(52);
        subject.gesture = Imperfections::none();
        let data = run_session(&subject, &cfg, 3).unwrap();
        let delays: Vec<f64> = data
            .stops
            .iter()
            .map(|s| s.channel.relative_delay())
            .collect();
        let mid = delays[delays.len() / 2];
        assert!(mid > delays[0] + 3.0, "mid {mid} first {}", delays[0]);
        assert!(
            mid > *delays.last().unwrap() + 3.0,
            "mid {mid} last {}",
            delays.last().unwrap()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = quiet_cfg();
        let subject = uniq_subjects::Subject::from_seed(53);
        let a = run_session(&subject, &cfg, 9).unwrap();
        let b = run_session(&subject, &cfg, 9).unwrap();
        assert_eq!(a.stops.len(), b.stops.len());
        for (x, y) in a.stops.iter().zip(&b.stops) {
            assert_eq!(x.alpha_deg, y.alpha_deg);
            assert_eq!(x.channel.tap_left, y.channel.tap_left);
        }
    }

    /// Halves the left channel of stop 1's capture, or zeroes the whole
    /// gyro stream.
    #[derive(Debug)]
    enum TestHook {
        HalveLeftAtStop1,
        ZeroRates,
    }

    impl FaultHook for TestHook {
        fn corrupt_recording(
            &self,
            site: InjectionSite,
            rec: &mut uniq_acoustics::measure::BinauralRecording,
        ) -> Vec<&'static str> {
            if !matches!(self, TestHook::HalveLeftAtStop1) || site.stop != 1 {
                return Vec::new();
            }
            for v in rec.left.iter_mut() {
                *v *= 0.5;
            }
            vec!["halve-left"]
        }

        fn corrupt_rates(&self, rates_dps: &mut [f64]) -> Vec<&'static str> {
            if !matches!(self, TestHook::ZeroRates) {
                return Vec::new();
            }
            rates_dps.fill(0.0);
            vec!["zero-rates"]
        }
    }

    #[test]
    fn recording_corruption_touches_only_its_stop() {
        let cfg = quiet_cfg();
        let subject = uniq_subjects::Subject::from_seed(55);
        let clean = run_session(&subject, &cfg, 5).unwrap();
        let (hit, report) = run_session_faulted(
            &subject,
            &cfg,
            5,
            &TestHook::HalveLeftAtStop1,
            &DegradationPolicy::CLEAN,
        )
        .unwrap();
        assert_eq!(report.fault_classes, vec!["halve-left"]);
        assert_eq!(report.stops[1].faults, vec!["halve-left"]);
        for (i, (c, h)) in clean.stops.iter().zip(&hit.stops).enumerate() {
            assert_eq!(c.alpha_deg, h.alpha_deg, "stop {i}: IMU angle moved");
            assert_eq!(c.channel.ir.right, h.channel.ir.right, "stop {i}");
            assert_eq!(
                i != 1,
                c.channel.ir.left == h.channel.ir.left,
                "stop {i}: only stop 1's left ear is corrupted"
            );
        }
    }

    #[test]
    fn rate_corruption_reaches_the_imu_angles_only() {
        let cfg = quiet_cfg();
        let subject = uniq_subjects::Subject::from_seed(56);
        let clean = run_session(&subject, &cfg, 6).unwrap();
        let (hit, report) = run_session_faulted(
            &subject,
            &cfg,
            6,
            &TestHook::ZeroRates,
            &DegradationPolicy::CLEAN,
        )
        .unwrap();
        assert_eq!(report.fault_classes, vec!["zero-rates"]);
        for (c, h) in clean.stops.iter().zip(&hit.stops) {
            assert_eq!(h.alpha_deg, 0.0, "a zero rate stream integrates to 0°");
            assert_eq!(c.channel.ir.left, h.channel.ir.left);
            assert_eq!(c.channel.tap_right, h.channel.tap_right);
        }
    }

    #[test]
    fn room_session_still_finds_taps() {
        let cfg = UniqConfig {
            in_room: true,
            ..quiet_cfg()
        };
        let subject = uniq_subjects::Subject::from_seed(54);
        let data = run_session(&subject, &cfg, 4).unwrap();
        assert_eq!(data.stops.len(), cfg.stops);
        for s in &data.stops {
            assert!(s.channel.tap_left > 0.0);
        }
    }
}
