//! End-to-end orchestration with gesture auto-correction (§4.6).
//!
//! One attempt runs: measurement session → channel estimation → fusion →
//! near-field interpolation → near-far conversion → [`PersonalHrtf`]. The
//! gesture auto-correction of §4.6 rejects sessions whose estimated phone
//! radius collapses toward the head or whose fusion residual explodes,
//! and the retry loop re-runs them (the paper: "this triggers a message
//! to the user to redo the measurement exercise").
//!
//! There is one attempt function and one retry loop. A run may carry a
//! [`FaultHook`] and a [`DegradationPolicy`]; [`personalize`] and
//! [`personalize_with_retry`] are the same path with no hook and
//! [`DegradationPolicy::CLEAN`] (every stop captured once and kept, no
//! quality floor, unweighted fusion).

use crate::config::{ConfigError, UniqConfig};
use crate::degrade::{DegradationPolicy, DegradationReport, FaultHook, NoFaults};
use crate::fusion::{fuse_weighted, session_to_inputs, FusionResult};
use crate::hrtf::PersonalHrtf;
use crate::nearfield::{assemble_discrete, interpolate, mean_radius};
use crate::session::{run_session_faulted, SessionError};
use uniq_subjects::Subject;

/// Why a personalization attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PersonalizationError {
    /// The configuration is inconsistent (see [`ConfigError`]).
    InvalidConfig(ConfigError),
    /// The measurement session failed (carries the failing stop's
    /// identity — see [`SessionError`]).
    Session(SessionError),
    /// Sensor fusion could not localize a majority of stops.
    FusionFailed,
    /// §4.6 gesture auto-correction fired: the user should redo the
    /// gesture.
    GestureRejected {
        /// Mean estimated phone radius, metres.
        radius_m: f64,
        /// Mean fusion residual, degrees.
        residual_deg: f64,
    },
}

impl std::fmt::Display for PersonalizationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersonalizationError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            PersonalizationError::Session(e) => write!(f, "measurement session failed: {e}"),
            PersonalizationError::FusionFailed => write!(f, "sensor fusion failed"),
            PersonalizationError::GestureRejected {
                radius_m,
                residual_deg,
            } => write!(
                f,
                "gesture rejected (radius {radius_m:.2} m, residual {residual_deg:.1}°) — redo the measurement"
            ),
        }
    }
}

impl std::error::Error for PersonalizationError {}

/// A successful personalization.
#[derive(Debug, Clone)]
pub struct PersonalizationResult {
    /// The personalized HRTF table.
    pub hrtf: PersonalHrtf,
    /// The fusion output (head parameters, phone localizations).
    pub fusion: FusionResult,
    /// `(ground-truth θ, estimated θ)` per stop — evaluation data for the
    /// Fig 17 localization plots.
    pub localization: Vec<(f64, f64)>,
    /// Mean estimated trajectory radius, metres.
    pub radius_m: f64,
    /// How many gesture attempts were needed (≥ 1).
    pub attempts: usize,
}

/// A personalization together with the degradation record of its (last)
/// measurement session.
#[derive(Debug, Clone)]
pub struct FaultedPersonalization {
    /// The personalization output.
    pub result: PersonalizationResult,
    /// What the session kept, dropped and saw.
    pub degradation: DegradationReport,
}

/// Runs one personalization attempt.
pub fn personalize(
    subject: &Subject,
    cfg: &UniqConfig,
    seed: u64,
) -> Result<PersonalizationResult, PersonalizationError> {
    attempt(subject, cfg, seed, None, &DegradationPolicy::CLEAN).map(|f| f.result)
}

/// Runs personalization with the §4.6 retry loop: gesture rejections
/// trigger a fresh session (new seed), up to `max_attempts` times.
pub fn personalize_with_retry(
    subject: &Subject,
    cfg: &UniqConfig,
    seed: u64,
    max_attempts: usize,
) -> Result<PersonalizationResult, PersonalizationError> {
    personalize_faulted_with_retry(
        subject,
        cfg,
        seed,
        None,
        &DegradationPolicy::CLEAN,
        max_attempts,
    )
    .map(|f| f.result)
}

/// Runs one personalization attempt under a [`FaultHook`], degrading the
/// session per `policy` and re-weighting fusion by per-stop quality when
/// `policy.reweight_fusion` is set. With a no-op hook and
/// [`DegradationPolicy::CLEAN`] this is [`personalize`].
pub fn personalize_faulted(
    subject: &Subject,
    cfg: &UniqConfig,
    seed: u64,
    hook: &dyn FaultHook,
    policy: &DegradationPolicy,
) -> Result<FaultedPersonalization, PersonalizationError> {
    attempt(subject, cfg, seed, Some(hook), policy)
}

/// The §4.6 retry loop: gesture rejections re-run the whole session with
/// a fresh seed (`seed + 10 000 · attempt`), up to `max_attempts` times.
/// `hook` is the fault source, if any; `None` runs without faults.
pub fn personalize_faulted_with_retry(
    subject: &Subject,
    cfg: &UniqConfig,
    seed: u64,
    hook: Option<&dyn FaultHook>,
    policy: &DegradationPolicy,
    max_attempts: usize,
) -> Result<FaultedPersonalization, PersonalizationError> {
    assert!(max_attempts >= 1, "need at least one attempt");
    let mut last_err = PersonalizationError::FusionFailed;
    for n in 0..max_attempts {
        let attempt_seed = seed.wrapping_add(10_000 * n as u64);
        match attempt(subject, cfg, attempt_seed, hook, policy) {
            Ok(mut r) => {
                r.result.attempts = n + 1;
                uniq_obs::metric(
                    uniq_obs::names::PERSONALIZE_ATTEMPTS,
                    r.result.attempts as f64,
                    "",
                );
                return Ok(r);
            }
            Err(e @ PersonalizationError::GestureRejected { .. }) => {
                if n + 1 < max_attempts {
                    uniq_obs::counter(uniq_obs::names::GESTURE_RETRY, 1);
                }
                last_err = e;
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err)
}

/// One personalization attempt: the degraded session, (optionally
/// quality-weighted) fusion, the §4.6 gate, near-field assembly and
/// interpolation, near-far conversion and result packing. The `faults`
/// span wraps the session only when a hook is given.
fn attempt(
    subject: &Subject,
    cfg: &UniqConfig,
    seed: u64,
    hook: Option<&dyn FaultHook>,
    policy: &DegradationPolicy,
) -> Result<FaultedPersonalization, PersonalizationError> {
    cfg.validate()
        .map_err(PersonalizationError::InvalidConfig)?;
    // Derive the trace from the attempt seed: each retry (seed + 10 000 ·
    // attempt) is its own causal tree, so span ids stay unique across
    // attempts. A no-op under an enclosing trace (e.g. a batch run).
    let _trace = uniq_obs::trace(seed);
    let _span = uniq_obs::span(uniq_obs::names::SPAN_PERSONALIZE);
    let (session, degradation) = {
        let _faults_span = hook.map(|_| uniq_obs::span(uniq_obs::names::SPAN_FAULTS));
        run_session_faulted(subject, cfg, seed, hook.unwrap_or(&NoFaults), policy)
            .map_err(PersonalizationError::Session)?
    };
    let inputs = session_to_inputs(&session, cfg);
    let weights = policy.reweight_fusion.then(|| degradation.fusion_weights());
    let fusion = fuse_weighted(&inputs, weights.as_deref(), cfg)
        .ok_or(PersonalizationError::FusionFailed)?;

    // §4.6 gesture auto-correction.
    let radius = mean_radius(&fusion);
    uniq_obs::metric(uniq_obs::names::PERSONALIZE_RADIUS_M, radius, "m");
    if radius < cfg.min_radius_m || fusion.mean_residual_deg > cfg.max_fusion_residual_deg {
        uniq_obs::counter(uniq_obs::names::GESTURE_REJECTED, 1);
        return Err(PersonalizationError::GestureRejected {
            radius_m: radius,
            residual_deg: fusion.mean_residual_deg,
        });
    }
    let discrete = assemble_discrete(&session, &fusion, cfg);
    let near = interpolate(&discrete, &fusion, cfg, radius);
    let far = crate::nearfar::convert(&near, &fusion, cfg, radius);

    let localization = session
        .stops
        .iter()
        .zip(&fusion.final_thetas_deg)
        .map(|(s, &est)| (s.truth_theta_deg, est))
        .collect();

    let result = PersonalizationResult {
        hrtf: PersonalHrtf::new(near, far, fusion.head),
        fusion,
        localization,
        radius_m: radius,
        attempts: 1,
    };
    uniq_obs::metric(
        uniq_obs::names::DEGRADATION_MEAN_QUALITY,
        degradation.mean_quality,
        "",
    );
    Ok(FaultedPersonalization {
        result,
        degradation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_geometry::vec2::angle_diff_deg;

    fn cfg() -> UniqConfig {
        UniqConfig {
            in_room: false,
            snr_db: 45.0,
            grid_step_deg: 10.0,
            ..UniqConfig::fast_test()
        }
    }

    #[test]
    fn end_to_end_personalization_succeeds() {
        let c = cfg();
        let subject = Subject::from_seed(70);
        let result = personalize(&subject, &c, 42).expect("pipeline should succeed");

        // Head parameters near the subject's truth.
        assert!(
            (result.fusion.head.a - subject.head.a).abs() < 0.012,
            "a: {} vs {}",
            result.fusion.head.a,
            subject.head.a
        );

        // Localization accuracy comparable to the paper's Fig 17.
        let errs: Vec<f64> = result
            .localization
            .iter()
            .map(|(t, e)| angle_diff_deg(*t, *e))
            .collect();
        let median = uniq_dsp::stats::median(&errs);
        assert!(median < 8.0, "median localization error {median}°");

        // Output banks cover the grid.
        assert_eq!(result.hrtf.near().len(), c.output_grid().len());
        assert_eq!(result.hrtf.far().len(), c.output_grid().len());
    }

    #[test]
    fn personalized_beats_global_template() {
        // The headline claim (Figs 18–19) at unit-test scale.
        let c = cfg();
        let subject = Subject::from_seed(71);
        let result = personalize(&subject, &c, 43).unwrap();

        let grid = c.output_grid();
        let truth = subject.ground_truth(c.render, &grid);
        let global = uniq_subjects::global_template(c.render, &grid);

        let mut personal = 0.0;
        let mut generic = 0.0;
        for ((est, glob), gt) in result
            .hrtf
            .far()
            .irs()
            .iter()
            .zip(global.irs())
            .zip(truth.irs())
        {
            let (pl, pr) = est.similarity(gt);
            let (gl, gr) = glob.similarity(gt);
            personal += pl + pr;
            generic += gl + gr;
        }
        assert!(
            personal > generic,
            "personalization below global: {personal} vs {generic}"
        );
    }

    #[test]
    fn gesture_rejection_triggers_on_tight_thresholds() {
        // Force rejection by demanding an impossibly small residual.
        let c = UniqConfig {
            max_fusion_residual_deg: 0.01,
            ..cfg()
        };
        let subject = Subject::from_seed(72);
        match personalize(&subject, &c, 44) {
            Err(PersonalizationError::GestureRejected { residual_deg, .. }) => {
                assert!(residual_deg > 0.01);
            }
            other => panic!("expected gesture rejection, got {other:?}"),
        }
    }

    #[test]
    fn retry_loop_reports_attempts() {
        let c = cfg();
        let subject = Subject::from_seed(73);
        let r = personalize_with_retry(&subject, &c, 45, 3).unwrap();
        assert!(r.attempts >= 1 && r.attempts <= 3);
    }

    #[test]
    fn retry_exhaustion_returns_rejection() {
        let c = UniqConfig {
            max_fusion_residual_deg: 0.001,
            ..cfg()
        };
        let subject = Subject::from_seed(74);
        let err = personalize_with_retry(&subject, &c, 46, 2).unwrap_err();
        assert!(matches!(err, PersonalizationError::GestureRejected { .. }));
    }
}
