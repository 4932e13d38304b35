//! The personalization pipeline as the benchmark drives it: the paper's
//! and the server's configurations, the stage-by-stage composition the
//! traced run uses, and the quality checks on its output.

use uniq_acoustics::types::HrirBank;
use uniq_core::config::UniqConfig;
use uniq_core::fusion::{fuse_weighted, session_to_inputs};
use uniq_core::nearfield::{assemble_discrete, interpolate, mean_radius};
use uniq_core::pipeline::{personalize_with_retry, PersonalizationError, PersonalizationResult};
use uniq_core::session::run_session;
use uniq_core::PersonalHrtf;
use uniq_geometry::vec2::angle_diff_deg;
use uniq_subjects::Subject;

use crate::trace::Scope;

/// The §4.6 retry budget.
pub const MAX_ATTEMPTS: usize = 3;

/// Angles where far-field HRIRs are compared with ground truth.
pub const SIM_ANGLES: [f64; 5] = [0.0, 45.0, 90.0, 135.0, 180.0];

/// The paper's configuration (19 stops, 1024-vertex inverse boundary, 1°
/// grid, in-room, 35 dB SNR) on a 2-thread pool.
pub fn paper_config() -> UniqConfig {
    UniqConfig {
        threads: 2,
        ..UniqConfig::default()
    }
}

/// The server's base configuration: the light pipeline (10 stops,
/// 256-vertex boundary), anechoic at 45 dB, on the full 1° grid. Workers
/// run it single-threaded.
pub fn serve_config() -> UniqConfig {
    UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 1.0,
        threads: 1,
        ..UniqConfig::fast_test()
    }
}

/// Personalizes one subject. Untraced, this is the library's
/// `personalize_with_retry`; traced, the same stages are called one by one
/// inside spans (`pipeline` > `session`, `fusion`, `nearfield`, `nearfar`),
/// with the same §4.6 gate and retry seeds.
pub fn personalize(
    subject: &Subject,
    cfg: &UniqConfig,
    seed: u64,
    scope: Scope<'_>,
    request: u64,
) -> Result<PersonalizationResult, PersonalizationError> {
    if !scope.on() {
        return personalize_with_retry(subject, cfg, seed, MAX_ATTEMPTS);
    }
    scope.span("pipeline", 0, request, |root| {
        let mut last_err = PersonalizationError::FusionFailed;
        for attempt in 0..MAX_ATTEMPTS {
            let attempt_seed = seed.wrapping_add(10_000 * attempt as u64);
            match attempt_stages(subject, cfg, attempt_seed, scope, root, request) {
                Ok(mut result) => {
                    result.attempts = attempt + 1;
                    return Ok(result);
                }
                Err(e @ PersonalizationError::GestureRejected { .. }) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    })
}

fn attempt_stages(
    subject: &Subject,
    cfg: &UniqConfig,
    seed: u64,
    scope: Scope<'_>,
    parent: u64,
    request: u64,
) -> Result<PersonalizationResult, PersonalizationError> {
    cfg.validate()
        .map_err(PersonalizationError::InvalidConfig)?;
    let session = scope
        .span("session", parent, request, |_| {
            run_session(subject, cfg, seed)
        })
        .map_err(PersonalizationError::Session)?;
    let fusion = scope
        .span("fusion", parent, request, |_| {
            fuse_weighted(&session_to_inputs(&session, cfg), None, cfg)
        })
        .ok_or(PersonalizationError::FusionFailed)?;
    let radius = mean_radius(&fusion);
    if radius < cfg.min_radius_m || fusion.mean_residual_deg > cfg.max_fusion_residual_deg {
        return Err(PersonalizationError::GestureRejected {
            radius_m: radius,
            residual_deg: fusion.mean_residual_deg,
        });
    }
    let near = scope.span("nearfield", parent, request, |_| {
        interpolate(
            &assemble_discrete(&session, &fusion, cfg),
            &fusion,
            cfg,
            radius,
        )
    });
    let far = scope.span("nearfar", parent, request, |_| {
        uniq_core::nearfar::convert(&near, &fusion, cfg, radius)
    });
    let localization = session
        .stops
        .iter()
        .zip(&fusion.final_thetas_deg)
        .map(|(s, &est)| (s.truth_theta_deg, est))
        .collect();
    Ok(PersonalizationResult {
        hrtf: PersonalHrtf::new(near, far, fusion.head),
        fusion,
        localization,
        radius_m: radius,
        attempts: 1,
    })
}

/// The result fingerprint the store and the server report.
pub fn fingerprint(seed: u64, result: &PersonalizationResult, cfg: &UniqConfig) -> u64 {
    uniq_store::HrtfArtifact::from_result(seed, result, cfg.content_hash(), None)
        .subject_fingerprint
}

/// Mean peak-normalized correlation of a far-field bank with the subject's
/// ground truth at [`SIM_ANGLES`], both ears averaged.
pub fn hrir_similarity(subject: &Subject, far: &HrirBank, cfg: &UniqConfig) -> f64 {
    let truth = subject.ground_truth(cfg.render, &SIM_ANGLES);
    let sum: f64 = SIM_ANGLES
        .iter()
        .zip(truth.irs())
        .map(|(&angle, gt)| {
            let (l, r) = far.nearest(angle).0.similarity(gt);
            (l + r) / 2.0
        })
        .sum();
    sum / SIM_ANGLES.len() as f64
}

/// Summed far-field similarity to ground truth over the output grid, for
/// the personalized bank and for the global template (Figs 18–19).
pub fn grid_similarity(
    subject: &Subject,
    far: &HrirBank,
    global: &HrirBank,
    cfg: &UniqConfig,
) -> (f64, f64) {
    let truth = subject.ground_truth(cfg.render, &cfg.output_grid());
    let mut personal = 0.0;
    let mut generic = 0.0;
    for ((est, glob), gt) in far.irs().iter().zip(global.irs()).zip(truth.irs()) {
        let (pl, pr) = est.similarity(gt);
        let (gl, gr) = glob.similarity(gt);
        personal += pl + pr;
        generic += gl + gr;
    }
    (personal, generic)
}

/// Per-stop localization errors, degrees.
pub fn localization_errors(localization: &[(f64, f64)]) -> Vec<f64> {
    localization
        .iter()
        .map(|&(t, e)| angle_diff_deg(t, e))
        .collect()
}
