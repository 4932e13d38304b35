//! Diffraction-aware sensor fusion (§4.1 of the paper).
//!
//! Inputs per measurement stop: the IMU-integrated phone orientation `α_i`
//! and the two absolute first-tap path lengths `d_L, d_R` (phone and
//! earphones are clock-synchronized). Neither source alone localizes the
//! phone — the IMU gives only an angle, the acoustics give distances that
//! depend on the unknown head shape `E = (a, b, c)`. UNIQ solves both
//! jointly:
//!
//! 1. For a candidate `E`, each stop's phone position is the intersection
//!    of two iso-delay trajectories (Fig 10b) — found here by damped
//!    Gauss–Newton from two seeds (front/back mirror), keeping the
//!    solution whose polar angle is closer to the IMU angle. The
//!    Jacobian is exact: each wrap-path length comes with its gradient.
//! 2. `E_opt = argmin_E Σ (α_i − θ_i(E))²` (Eq. 2) — minimized with
//!    Nelder–Mead over the anthropometric box.
//! 3. Final phone angles blend both sensors: `θ = (θ_i(E_opt) + α_i)/2`
//!    (Eq. 3).

use crate::config::UniqConfig;
use std::cell::{Cell, RefCell};
use uniq_geometry::diffraction::{ear_paths_and_gradients, WrapWork};
use uniq_geometry::head::BoundaryTable;
use uniq_geometry::vec2::{angle_diff_deg, theta_from_vec, unit_from_theta};
use uniq_geometry::{HeadBoundary, HeadParams, Vec2};
use uniq_optim::{nelder_mead, solve_2d, NelderMeadOptions};
use uniq_par::ThreadPool;

/// One stop's fusion inputs.
#[derive(Debug, Clone, Copy)]
pub struct FusionInput {
    /// IMU-integrated phone orientation, degrees.
    pub alpha_deg: f64,
    /// First-tap path length to the left ear, metres.
    pub d_left_m: f64,
    /// First-tap path length to the right ear, metres.
    pub d_right_m: f64,
}

/// A localized stop under some head-parameter hypothesis.
#[derive(Debug, Clone, Copy)]
pub struct LocalizedStop {
    /// Acoustic polar angle θ(E), degrees.
    pub theta_deg: f64,
    /// Polar radius, metres.
    pub radius_m: f64,
    /// Residual distance mismatch at the solution, metres.
    pub residual_m: f64,
}

/// The fused estimate: head parameters plus per-stop phone locations.
#[derive(Debug, Clone)]
pub struct FusionResult {
    /// Optimal head parameters `E_opt`.
    pub head: HeadParams,
    /// Per-stop localizations at `E_opt` (same order as the inputs).
    pub stops: Vec<LocalizedStop>,
    /// Final fused phone angles `(θ_i + α_i)/2`, degrees (Eq. 3).
    pub final_thetas_deg: Vec<f64>,
    /// Mean `|α_i − θ_i(E_opt)|`, degrees — the §4.6 gesture-quality
    /// signal.
    pub mean_residual_deg: f64,
    /// Final objective value of Eq. 2.
    pub objective: f64,
}

/// Anthropometric feasibility box for `E = (a, b, c)`, metres.
const BOX: [(f64, f64); 3] = [(0.050, 0.110), (0.060, 0.150), (0.060, 0.140)];

/// Iso-delay intersection tolerance: accept localizations whose residual
/// distance error is below this (metres). One 48 kHz sample ≈ 7 mm.
const LOC_TOL_M: f64 = 0.01;

/// Fewest measurement stops fusion accepts: the configuration needs at
/// least this many scheduled, and a session at least this many surviving.
pub const MIN_STOPS: usize = 4;

/// Localizes the phone from the two path lengths under head hypothesis
/// `boundary`, using `alpha_hint_deg` to pick between the front/back
/// intersections. Returns `None` when neither Gauss–Newton seed converges.
pub fn localize_phone(
    boundary: &HeadBoundary,
    d_left_m: f64,
    d_right_m: f64,
    alpha_hint_deg: f64,
) -> Option<LocalizedStop> {
    localize_counted(boundary, d_left_m, d_right_m, alpha_hint_deg).0
}

/// Gauss–Newton work behind one or more localizations.
#[derive(Debug, Clone, Copy, Default)]
struct GnWork {
    /// Residual evaluations (each two wrap-path lengths with gradients).
    residual_evals: u64,
    /// Gauss–Newton steps solved.
    iterations: u64,
    /// The residuals' wrap-path work: tangent searches and the vertex
    /// angles they evaluated.
    wrap: WrapWork,
}

impl std::ops::Add for GnWork {
    type Output = GnWork;
    fn add(self, other: GnWork) -> GnWork {
        GnWork {
            residual_evals: self.residual_evals + other.residual_evals,
            iterations: self.iterations + other.iterations,
            wrap: self.wrap + other.wrap,
        }
    }
}

/// [`localize_phone`], plus the Gauss–Newton work it spent.
fn localize_counted(
    boundary: &HeadBoundary,
    d_left_m: f64,
    d_right_m: f64,
    alpha_hint_deg: f64,
) -> (Option<LocalizedStop>, GnWork) {
    let evals = Cell::new(0u64);
    let wrap = Cell::new(WrapWork::default());
    // Inside the head: a residual far off any achievable scale, and a
    // zero (singular) Jacobian, so no step is taken from there.
    const INSIDE: ([f64; 2], [[f64; 2]; 2]) = ([1.0, 1.0], [[0.0; 2]; 2]);
    let residual = |p: [f64; 2]| -> ([f64; 2], [[f64; 2]; 2]) {
        evals.set(evals.get() + 1);
        let pos = Vec2::new(p[0], p[1]);
        let mut work = wrap.get();
        let paths = ear_paths_and_gradients(boundary, pos, &mut work);
        wrap.set(work);
        let Some([(pl, gl), (pr, gr)]) = paths else {
            return INSIDE;
        };
        (
            [pl - d_left_m, pr - d_right_m],
            [[gl.x, gl.y], [gr.x, gr.y]],
        )
    };

    let r0 = 0.5 * (d_left_m + d_right_m).max(0.25);
    let seeds = [
        unit_from_theta(alpha_hint_deg) * r0,
        // Front/back mirror across the ear axis.
        unit_from_theta(180.0 - alpha_hint_deg) * r0,
    ];

    let mut best: Option<LocalizedStop> = None;
    let mut iterations = 0;
    for seed in seeds {
        let root = solve_2d(residual, [seed.x, seed.y], 60);
        iterations += root.iterations as u64;
        let res = root.residual;
        // A NaN residual or root (a NaN path length or IMU angle) fails
        // the stop like a miss.
        if res.is_nan() || res > LOC_TOL_M {
            continue;
        }
        let pos = Vec2::new(root.x[0], root.x[1]);
        if pos.norm().is_nan() || pos.norm() < 1e-6 {
            continue;
        }
        let cand = LocalizedStop {
            theta_deg: theta_from_vec(pos),
            radius_m: pos.norm(),
            residual_m: res,
        };
        best = match best {
            None => Some(cand),
            Some(b) => {
                // Paper's rule: pick the θ(E) closer to the IMU angle.
                let db = angle_diff_deg(b.theta_deg, alpha_hint_deg);
                let dc = angle_diff_deg(cand.theta_deg, alpha_hint_deg);
                Some(if dc < db { cand } else { b })
            }
        };
    }
    (
        best,
        GnWork {
            residual_evals: evals.get(),
            iterations,
            wrap: wrap.get(),
        },
    )
}

/// Eq. 2 objective: Σ w_i · angle_diff(α_i, θ_i(E))², with a fixed penalty
/// for stops that fail to localize under this hypothesis. Each stop's term
/// (and its penalty) scales by its weight — downweighting degraded stops;
/// `None` weighs every stop 1.0.
///
/// The hypothesis is discretized by reshaping `boundary` from `table`.
/// Stops are localized on `pool`; their terms are then weighted and summed
/// in index order, so the value is bit-identical at any pool size.
/// Returns the objective and the Gauss–Newton work spent.
fn fusion_objective(
    e: &[f64],
    inputs: &[FusionInput],
    weights: Option<&[f64]>,
    boundary: &mut HeadBoundary,
    table: &BoundaryTable,
    pool: &ThreadPool,
) -> (f64, GnWork) {
    for (v, (lo, hi)) in e.iter().zip(BOX) {
        if !(lo..=hi).contains(v) {
            return (f64::INFINITY, GnWork::default());
        }
    }
    boundary.reshape(HeadParams::new(e[0], e[1], e[2]), table);
    let boundary = &*boundary;
    let penalty = 30f64.powi(2);
    let stops = pool.par_map(inputs, |inp| {
        let (loc, work) = localize_counted(boundary, inp.d_left_m, inp.d_right_m, inp.alpha_deg);
        let term = match loc {
            Some(loc) => angle_diff_deg(inp.alpha_deg, loc.theta_deg).powi(2),
            None => penalty,
        };
        (term, work)
    });
    let objective = stops
        .iter()
        .enumerate()
        .map(|(k, &(term, _))| weights.map_or(1.0, |w| w[k]) * term)
        .sum();
    let work = stops
        .iter()
        .fold(GnWork::default(), |total, &(_, work)| total + work);
    (objective, work)
}

/// Runs the full fusion: optimizes `E` (Eq. 2), localizes all stops at
/// `E_opt`, and blends angles (Eq. 3).
///
/// `weights` are optional per-stop quality weights in `[0, 1]` (same
/// order/length as `inputs`), used by degraded sessions to let surviving
/// high-quality stops dominate Eq. 2 and the mean residual. `None` weighs
/// every stop 1.0; since `1.0 · x == x` and a sum of `k` ones is `k`, that
/// is bit-identical to the unweighted equations.
///
/// Returns `None` when fewer than [`MIN_STOPS`] inputs are given, when
/// `weights` is `Some` with a length different from `inputs`, when the
/// Eq. 2 objective is NaN (a NaN weight), when a stop with a non-finite
/// IMU angle fails to localize (no angle to fall back on), or when no
/// hypothesis localizes a majority of stops — a hopeless measurement set.
/// A NaN path length fails its stop.
pub fn fuse_weighted(
    inputs: &[FusionInput],
    weights: Option<&[f64]>,
    cfg: &UniqConfig,
) -> Option<FusionResult> {
    if inputs.len() < MIN_STOPS || weights.is_some_and(|w| w.len() != inputs.len()) {
        return None;
    }
    let _span = uniq_obs::span(uniq_obs::names::SPAN_FUSION);
    let pool = uniq_par::pool(cfg.threads);
    // Every hypothesis is discretized at one resolution, so the cosines
    // and sines are computed once and one boundary is reshaped in place.
    let table = BoundaryTable::new(cfg.inverse_resolution);
    let seed = HeadParams::average_adult();
    let boundary = RefCell::new(HeadBoundary::new(seed, cfg.inverse_resolution));
    let objective_evals = Cell::new(0u64);
    let gn_work = Cell::new(GnWork::default());
    let objective = |e: &[f64]| {
        let (value, work) = fusion_objective(
            e,
            inputs,
            weights,
            &mut boundary.borrow_mut(),
            &table,
            &pool,
        );
        objective_evals.set(objective_evals.get() + 1);
        gn_work.set(gn_work.get() + work);
        value
    };

    let opts = NelderMeadOptions {
        max_iter: 200,
        initial_step: 0.08,
        f_tol: 1e-6,
        x_tol: 1e-6,
    };
    let fit = nelder_mead(objective, &[seed.a, seed.b, seed.c], &opts);
    uniq_obs::counter(
        uniq_obs::names::FUSION_OBJECTIVE_EVALS,
        objective_evals.get(),
    );
    let gn_work = gn_work.get();
    uniq_obs::counter(
        uniq_obs::names::FUSION_RESIDUAL_EVALS,
        gn_work.residual_evals,
    );
    uniq_obs::counter(uniq_obs::names::FUSION_GN_ITERATIONS, gn_work.iterations);
    uniq_obs::counter(
        uniq_obs::names::FUSION_TANGENT_SEARCHES,
        gn_work.wrap.tangent_searches,
    );
    uniq_obs::counter(
        uniq_obs::names::FUSION_ANGLE_EVALS,
        gn_work.wrap.angle_evals,
    );
    // A NaN objective (a NaN weight) fits nothing.
    let fit = match fit {
        Ok(fit) if fit.fx.is_finite() => fit,
        _ => return None,
    };
    let head = HeadParams::new(fit.x[0], fit.x[1], fit.x[2]);
    let mut boundary = boundary.into_inner();
    boundary.reshape(head, &table);

    let mut stops = Vec::with_capacity(inputs.len());
    let mut final_thetas = Vec::with_capacity(inputs.len());
    let mut residual_sum = 0.0;
    let mut weight_sum = 0.0;
    let mut localized = 0usize;
    for (k, inp) in inputs.iter().enumerate() {
        match localize_phone(&boundary, inp.d_left_m, inp.d_right_m, inp.alpha_deg) {
            Some(loc) => {
                let stop_residual = angle_diff_deg(inp.alpha_deg, loc.theta_deg);
                uniq_obs::metric(
                    uniq_obs::names::FUSION_STOP_RESIDUAL_DEG,
                    stop_residual,
                    "deg",
                );
                let w = weights.map_or(1.0, |w| w[k]);
                residual_sum += w * stop_residual;
                weight_sum += w;
                // Eq. 3: average the acoustic and inertial angles — along
                // the shorter arc, so 359° and 1° blend to 0°, not 180°.
                // uniq-analyzer: allow(hot-path-alloc) — every push in this loop lands in a Vec pre-sized with with_capacity(inputs.len()); no reallocation inside the span
                final_thetas.push(circular_blend(inp.alpha_deg, loc.theta_deg, 0.5));
                stops.push(loc);
                localized += 1;
            }
            // A stop that neither localizes nor has a finite IMU angle
            // to fall back on leaves no angle for the output grid.
            None if !inp.alpha_deg.is_finite() => return None,
            None => {
                // Keep index alignment: fall back to the IMU angle with a
                // flagged (infinite) residual radius entry.
                final_thetas.push(inp.alpha_deg);
                stops.push(LocalizedStop {
                    theta_deg: inp.alpha_deg,
                    radius_m: f64::NAN,
                    residual_m: f64::INFINITY,
                });
            }
        }
    }
    uniq_obs::metric(
        uniq_obs::names::FUSION_LOCALIZED_STOPS,
        localized as f64,
        "",
    );
    if localized * 2 < inputs.len() {
        return None;
    }
    // Weighted mean over localized stops; if every localized stop has
    // zero weight nothing is trustworthy — force the §4.6 gate.
    let mean_residual = if weight_sum > 0.0 {
        residual_sum / weight_sum
    } else {
        f64::INFINITY
    };
    uniq_obs::metric(
        uniq_obs::names::FUSION_MEAN_RESIDUAL_DEG,
        mean_residual,
        "deg",
    );
    uniq_obs::metric(uniq_obs::names::FUSION_OBJECTIVE, fit.fx, "deg^2");

    Some(FusionResult {
        head,
        stops,
        final_thetas_deg: final_thetas,
        mean_residual_deg: mean_residual,
        objective: fit.fx,
    })
}

/// Blends two angles (degrees) along the shorter arc:
/// `circular_blend(a, b, 0.5)` is the circular midpoint. Result is in
/// `[0, 360)`.
pub fn circular_blend(a: f64, b: f64, t: f64) -> f64 {
    let mut d = (b - a).rem_euclid(360.0);
    if d > 180.0 {
        d -= 360.0;
    }
    (a + t * d).rem_euclid(360.0)
}

/// Builds fusion inputs from a measurement session.
pub fn session_to_inputs(
    session: &crate::session::SessionData,
    cfg: &UniqConfig,
) -> Vec<FusionInput> {
    session
        .stops
        .iter()
        .map(|s| FusionInput {
            alpha_deg: s.alpha_deg,
            d_left_m: crate::channel::EstimatedChannel::tap_to_metres(s.channel.tap_left, cfg),
            d_right_m: crate::channel::EstimatedChannel::tap_to_metres(s.channel.tap_right, cfg),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_geometry::diffraction::path_to_ear;
    use uniq_geometry::Ear;

    /// Synthesizes noise-free fusion inputs directly from geometry: the
    /// fastest way to test the inverse problem in isolation.
    fn synthetic_inputs(head: HeadParams, radius: f64, n: usize) -> Vec<FusionInput> {
        let boundary = HeadBoundary::new(head, 2048);
        (0..n)
            .map(|k| {
                let theta = k as f64 * 180.0 / (n - 1) as f64;
                let pos = unit_from_theta(theta) * radius;
                let l = path_to_ear(&boundary, pos, Ear::Left).unwrap().length;
                let r = path_to_ear(&boundary, pos, Ear::Right).unwrap().length;
                FusionInput {
                    alpha_deg: theta,
                    d_left_m: l,
                    d_right_m: r,
                }
            })
            .collect()
    }

    fn test_cfg() -> UniqConfig {
        UniqConfig {
            inverse_resolution: 512,
            ..UniqConfig::fast_test()
        }
    }

    #[test]
    fn localize_recovers_known_position() {
        let head = HeadParams::average_adult();
        let boundary = HeadBoundary::new(head, 1024);
        for theta in [15.0, 60.0, 110.0, 165.0] {
            let pos = unit_from_theta(theta) * 0.4;
            let dl = path_to_ear(&boundary, pos, Ear::Left).unwrap().length;
            let dr = path_to_ear(&boundary, pos, Ear::Right).unwrap().length;
            // Hint off by a few degrees, as the IMU would be.
            let loc = localize_phone(&boundary, dl, dr, theta + 4.0).unwrap();
            assert!(
                angle_diff_deg(loc.theta_deg, theta) < 1.0,
                "θ={theta}: got {}",
                loc.theta_deg
            );
            assert!((loc.radius_m - 0.4).abs() < 0.01, "r = {}", loc.radius_m);
        }
    }

    #[test]
    fn localize_picks_front_back_by_hint() {
        let head = HeadParams::average_adult();
        let boundary = HeadBoundary::new(head, 1024);
        let pos = unit_from_theta(70.0) * 0.35;
        let dl = path_to_ear(&boundary, pos, Ear::Left).unwrap().length;
        let dr = path_to_ear(&boundary, pos, Ear::Right).unwrap().length;
        // With a hint near the true (front) angle we get ~70°.
        let front = localize_phone(&boundary, dl, dr, 75.0).unwrap();
        assert!(angle_diff_deg(front.theta_deg, 70.0) < 2.0);
        // With a back hint, the mirror solution (≈110°) is preferred if it
        // exists; it should be near the reflection of 70°.
        if let Some(back) = localize_phone(&boundary, dl, dr, 115.0) {
            assert!(
                back.theta_deg > 90.0,
                "back hint chose the front: {}",
                back.theta_deg
            );
        }
    }

    #[test]
    fn fuse_recovers_head_parameters_noise_free() {
        let truth = HeadParams::new(0.081, 0.094, 0.097);
        let inputs = synthetic_inputs(truth, 0.42, 12);
        let result = fuse_weighted(&inputs, None, &test_cfg()).expect("fusion must converge");
        assert!(
            (result.head.a - truth.a).abs() < 0.006,
            "a: {} vs {}",
            result.head.a,
            truth.a
        );
        assert!(
            (result.head.b - truth.b).abs() < 0.010,
            "b: {} vs {}",
            result.head.b,
            truth.b
        );
        assert!(
            (result.head.c - truth.c).abs() < 0.010,
            "c: {} vs {}",
            result.head.c,
            truth.c
        );
        assert!(result.mean_residual_deg < 2.0);
    }

    #[test]
    fn fuse_angles_accurate_with_imu_noise() {
        // Add IMU-like noise to α only; acoustic delays stay clean. The
        // blended angles should beat the raw IMU.
        let truth = HeadParams::average_adult();
        let mut inputs = synthetic_inputs(truth, 0.45, 12);
        let noise = [
            3.0, -2.0, 4.0, -3.5, 2.5, -1.5, 3.0, -4.0, 1.0, -2.0, 3.5, -1.0,
        ];
        for (inp, n) in inputs.iter_mut().zip(noise) {
            inp.alpha_deg += n;
        }
        let result = fuse_weighted(&inputs, None, &test_cfg()).unwrap();
        let mut imu_err = 0.0;
        let mut fused_err = 0.0;
        for (k, (inp, n)) in inputs.iter().zip(noise).enumerate() {
            let true_theta = inp.alpha_deg - n;
            imu_err += angle_diff_deg(inp.alpha_deg, true_theta);
            fused_err += angle_diff_deg(result.final_thetas_deg[k], true_theta);
        }
        assert!(
            fused_err < imu_err,
            "fusion did not improve on IMU: {fused_err} vs {imu_err}"
        );
    }

    #[test]
    fn fuse_radius_estimates_reasonable() {
        let inputs = synthetic_inputs(HeadParams::average_adult(), 0.38, 10);
        let result = fuse_weighted(&inputs, None, &test_cfg()).unwrap();
        for stop in &result.stops {
            assert!(
                (stop.radius_m - 0.38).abs() < 0.02,
                "radius {}",
                stop.radius_m
            );
        }
    }

    #[test]
    fn weighted_fusion_discounts_a_corrupted_stop() {
        // Corrupt one stop's IMU angle badly. Downweighting that stop must
        // shrink the reported mean residual relative to the unweighted run.
        let truth = HeadParams::average_adult();
        let mut inputs = synthetic_inputs(truth, 0.42, 10);
        inputs[4].alpha_deg += 25.0;
        let cfg = test_cfg();
        let unweighted = fuse_weighted(&inputs, None, &cfg).expect("unweighted fusion converges");
        let mut weights = vec![1.0; inputs.len()];
        weights[4] = 0.05;
        let weighted =
            fuse_weighted(&inputs, Some(&weights), &cfg).expect("weighted fusion converges");
        assert!(
            weighted.mean_residual_deg < unweighted.mean_residual_deg,
            "weighted {} vs unweighted {}",
            weighted.mean_residual_deg,
            unweighted.mean_residual_deg
        );
    }

    #[test]
    fn unit_weights_are_bit_identical_to_no_weights() {
        // `None` weighs every stop 1.0, so passing a slice of ones must
        // reproduce it to the bit.
        let inputs = synthetic_inputs(HeadParams::average_adult(), 0.40, 8);
        let cfg = test_cfg();
        let none = fuse_weighted(&inputs, None, &cfg).unwrap();
        let ones = fuse_weighted(&inputs, Some(&vec![1.0; inputs.len()]), &cfg).unwrap();
        assert_eq!(
            none.mean_residual_deg.to_bits(),
            ones.mean_residual_deg.to_bits()
        );
        assert_eq!(none.objective.to_bits(), ones.objective.to_bits());
        assert_eq!(none.head.a.to_bits(), ones.head.a.to_bits());
        assert_eq!(none.final_thetas_deg, ones.final_thetas_deg);
    }

    #[test]
    fn mismatched_weights_rejected() {
        let inputs = synthetic_inputs(HeadParams::average_adult(), 0.4, 8);
        assert!(fuse_weighted(&inputs, Some(&[1.0; 3]), &test_cfg()).is_none());
        assert!(fuse_weighted(&inputs, Some(&[1.0; 9]), &test_cfg()).is_none());
    }

    #[test]
    fn too_few_stops_rejected() {
        let inputs = synthetic_inputs(HeadParams::average_adult(), 0.4, 10);
        for n in 0..MIN_STOPS {
            assert!(fuse_weighted(&inputs[..n], None, &test_cfg()).is_none());
        }
        assert!(fuse_weighted(&inputs[..MIN_STOPS], None, &test_cfg()).is_some());
    }

    #[test]
    fn nan_weight_fails_the_fit_without_a_panic() {
        // A NaN stop weight makes the Eq. 2 objective NaN under every
        // hypothesis.
        let inputs = synthetic_inputs(HeadParams::average_adult(), 0.4, 8);
        let mut weights = vec![1.0; inputs.len()];
        weights[3] = f64::NAN;
        assert!(fuse_weighted(&inputs, Some(&weights), &test_cfg()).is_none());
    }

    #[test]
    fn nan_imu_angle_fails_the_fit_without_a_panic() {
        // The NaN angle seeds both Gauss–Newton roots with NaN; the stop
        // fails under every hypothesis and has no angle to fall back on.
        let mut inputs = synthetic_inputs(HeadParams::average_adult(), 0.4, 8);
        inputs[3].alpha_deg = f64::NAN;
        let boundary = HeadBoundary::new(HeadParams::average_adult(), 512);
        let stop = &inputs[3];
        assert!(localize_phone(&boundary, stop.d_left_m, stop.d_right_m, stop.alpha_deg).is_none());
        assert!(fuse_weighted(&inputs, None, &test_cfg()).is_none());
    }

    #[test]
    fn nan_path_length_fails_the_stop() {
        // A NaN distance gives a NaN residual, which must not pass the
        // tolerance check: the stop fails and falls back to its IMU angle,
        // while the other stops still fit.
        let mut inputs = synthetic_inputs(HeadParams::average_adult(), 0.4, 8);
        inputs[3].d_left_m = f64::NAN;
        let boundary = HeadBoundary::new(HeadParams::average_adult(), 512);
        let stop = &inputs[3];
        assert!(localize_phone(&boundary, stop.d_left_m, stop.d_right_m, stop.alpha_deg).is_none());
        let fit = fuse_weighted(&inputs, None, &test_cfg()).expect("seven stops still fit");
        assert_eq!(fit.stops[3].residual_m, f64::INFINITY);
        assert_eq!(fit.final_thetas_deg[3], inputs[3].alpha_deg);
        assert!(
            fit.stops
                .iter()
                .filter(|s| s.residual_m.is_finite())
                .count()
                == 7
        );
    }

    #[test]
    fn circular_blend_wraps() {
        assert!((circular_blend(350.0, 10.0, 0.5) - 0.0).abs() < 1e-9);
        assert!((circular_blend(10.0, 350.0, 0.5) - 0.0).abs() < 1e-9);
        assert!((circular_blend(0.0, 360.0, 0.5) - 0.0).abs() < 1e-9);
        assert!((circular_blend(40.0, 60.0, 0.5) - 50.0).abs() < 1e-9);
        assert!((circular_blend(40.0, 60.0, 0.0) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn hopeless_inputs_return_none() {
        // Nonsense distances that no head shape explains.
        let inputs: Vec<FusionInput> = (0..8)
            .map(|k| FusionInput {
                alpha_deg: k as f64 * 25.0,
                d_left_m: 5.0,
                d_right_m: 0.01,
            })
            .collect();
        assert!(fuse_weighted(&inputs, None, &test_cfg()).is_none());
    }
}
