//! Near-to-far HRTF conversion (§4.3 of the paper).
//!
//! Far-field sound arrives as parallel rays; near-field measurements are
//! point sources. The shipping conversion is the paper's critical-ray arc
//! heuristic: rays from far angle `θ` that reach the **left** ear pass
//! through trajectory arc `[C, B]`, those reaching the **right** ear pass
//! through `[C, D]` (Fig 12). The far-field HRIR per ear is the first-tap
//! aligned average of the near-field HRIRs measured on the corresponding
//! arc, then fine-tuned to the plane-wave delays and amplitudes predicted
//! by the fused head parameters.
//!
//! The paper's two deeper decomposition attempts are reproduced in
//! [`attempts`] — including their *negative* results (the ill-conditioned
//! beamforming system and the ambiguous blind decoupling).

use crate::config::{UniqConfig, TAP_THRESHOLD};
use crate::fusion::FusionResult;
use crate::nearfield::shift_first_tap_to;
use uniq_acoustics::types::{BinauralIr, HrirBank};
use uniq_dsp::peaks::first_tap;
use uniq_geometry::critical::critical_angles;
use uniq_geometry::planewave::plane_path_to_ear;
use uniq_geometry::{Ear, HeadBoundary};

/// Converts an interpolated near-field bank into the far-field bank on the
/// same output grid.
///
/// `radius` is the (estimated) trajectory radius the near-field bank was
/// measured at.
pub fn convert(near: &HrirBank, fusion: &FusionResult, cfg: &UniqConfig, radius: f64) -> HrirBank {
    let _span = uniq_obs::span(uniq_obs::names::SPAN_NEARFAR_CONVERT);
    let boundary = HeadBoundary::new(fusion.head, cfg.inverse_resolution);
    let grid = cfg.output_grid();
    let sr = cfg.render.sample_rate;
    // Each entry's per-ear first tap, found once for the whole grid.
    let taps: Vec<[Option<usize>; 2]> = near
        .irs()
        .iter()
        .map(|ir| Ear::BOTH.map(|ear| first_tap(ear_of(ir, ear), TAP_THRESHOLD).map(|p| p.index)))
        .collect();

    // Grid angles are independent; fan them across the pool (bit-identical
    // to the sequential map — same per-angle arithmetic, grid-order
    // reduction).
    let pool = uniq_par::pool(cfg.threads);
    let pairs: Vec<(f64, BinauralIr)> = pool.par_map(&grid, |&theta| {
        let ca = critical_angles(&boundary, theta, radius);
        let far_ear = |ear: Ear, on_arc: &dyn Fn(f64) -> bool| {
            let members = arc_members(near, on_arc, ca.theta_c);
            let mut sig = arc_average(near, &taps, &members, ear);
            // §4.3 fine-tuning: place the first tap at the plane-wave
            // delay predicted by the fused head parameters, and undo the
            // near-field spreading loss (multiply by the trajectory radius)
            // so the far HRIR is normalized to unit incident amplitude.
            let plane = plane_path_to_ear(&boundary, theta, ear);
            shift_first_tap_to(&mut sig, cfg.render.metres_to_samples(plane.excess));
            for v in &mut sig {
                *v *= radius;
            }
            sig
        };
        let left = far_ear(Ear::Left, &|phi| ca.feeds_left(phi));
        let right = far_ear(Ear::Right, &|phi| ca.feeds_right(phi));
        (theta, BinauralIr::new(left, right))
    });
    HrirBank::new(pairs, sr)
}

/// One ear of `ir`. Per-ear tables are indexed `ear as usize`, in
/// [`Ear::BOTH`] order.
fn ear_of(ir: &BinauralIr, ear: Ear) -> &[f64] {
    match ear {
        Ear::Left => &ir.left,
        Ear::Right => &ir.right,
    }
}

/// Indices of the entries measured at angles selected by `on_arc`; the
/// entry nearest `fallback_angle` when the arc covers no measured angle
/// (e.g. the arc lies outside the 0–180° sweep).
fn arc_members(near: &HrirBank, on_arc: &dyn Fn(f64) -> bool, fallback_angle: f64) -> Vec<usize> {
    let mut members: Vec<usize> = (0..near.len())
        .filter(|&k| on_arc(near.angles()[k]))
        .collect();
    if members.is_empty() {
        members.push(near.nearest_index(fallback_angle));
    }
    members
}

/// Averages one ear of the `members` entries after first-tap alignment:
/// each tap is moved to the latest member tap (so no member loses its
/// leading edge), and a member without a tap is added unshifted. `taps`
/// holds every entry's per-ear tap index.
fn arc_average(
    near: &HrirBank,
    taps: &[[Option<usize>; 2]],
    members: &[usize],
    ear: Ear,
) -> Vec<f64> {
    let target = members
        .iter()
        .filter_map(|&k| taps[k][ear as usize])
        .max()
        .unwrap_or(0);
    let n = members.len() as f64;
    let mut avg = vec![0.0; near.irs()[0].len()];
    // The sum starts at +0.0 and so never holds -0.0: skipping the zeros
    // a shift pads in leaves every bit as adding them would.
    for &k in members {
        let shift = taps[k][ear as usize].map_or(0, |tap| target - tap);
        for (a, v) in avg[shift..].iter_mut().zip(ear_of(&near.irs()[k], ear)) {
            *a += v / n;
        }
    }
    avg
}

/// The paper's exploratory decomposition attempts (§4.3 "Additional
/// attempts"), kept as analysis tools that reproduce the reported
/// negative results.
pub mod attempts {
    /// Builds the Eq. 6 beamforming system for an `n_elements`-speaker
    /// array and returns its condition number.
    ///
    /// Rows are time-varying beam patterns `w_t(θ_i)` — steered magnitude
    /// responses of a uniform array with element spacing `spacing_m` at
    /// frequency `freq_hz`; columns are the unknown per-ray components
    /// `H(X_k, θ_i)`. The paper reports that the phone's **two** speakers
    /// "are unable to create a spatially narrow beam pattern", leaving the
    /// system ill-ranked — so the 2-element condition number is large,
    /// while a proper multi-element array is far better conditioned.
    pub fn beamforming_condition(
        n_angles: usize,
        n_patterns: usize,
        n_elements: usize,
        spacing_m: f64,
        freq_hz: f64,
    ) -> f64 {
        assert!(n_elements >= 2, "an array needs at least two elements");
        assert!(
            n_angles >= 2 && n_patterns >= n_angles,
            "need an overdetermined system"
        );
        let k = 2.0 * std::f64::consts::PI * freq_hz / uniq_dsp::SPEED_OF_SOUND;
        // Steered beam magnitude: |Σ_e e^{j·e·(k d sinθ − k d sinφ_t)}|,
        // steering angle φ_t swept over the field of view per pattern.
        let mut a = vec![vec![0.0; n_angles]; n_patterns];
        for (t, row) in a.iter_mut().enumerate() {
            let steer = -std::f64::consts::FRAC_PI_2
                + t as f64 * std::f64::consts::PI / (n_patterns - 1) as f64;
            for (i, cell) in row.iter_mut().enumerate() {
                let theta = -std::f64::consts::FRAC_PI_2
                    + i as f64 * std::f64::consts::PI / (n_angles - 1) as f64;
                let psi = k * spacing_m * (theta.sin() - steer.sin());
                let (mut re, mut im) = (0.0, 0.0);
                for e in 0..n_elements {
                    re += (e as f64 * psi).cos();
                    im += (e as f64 * psi).sin();
                }
                *cell = (re * re + im * im).sqrt() / n_elements as f64;
            }
        }
        condition_number(&a)
    }

    /// Simulates the Eq. 8 blind decoupling ambiguity: two *different*
    /// factorizations `(Σ A_i δ(τ_i)) ∗ h` that produce the same observed
    /// near-field channel. Returns the observation-space distance between
    /// the two models (≈ 0, demonstrating non-identifiability without
    /// further constraints).
    pub fn blind_decoupling_ambiguity() -> f64 {
        // Model 1: rays at delays {0, 2} with gains {1.0, 0.5}, pinna
        // channel h1 = [1, 0, 0.3].
        // Model 2: fold the 2-sample delay into the pinna channel instead.
        let rays1 = [(0usize, 1.0), (2usize, 0.5)];
        let h1 = [1.0, 0.0, 0.3];
        let rays2 = [(0usize, 1.0)];
        let mut h2 = vec![0.0; 8];
        // h2 = h1 + 0.5·h1 delayed by 2 → identical observation.
        for (i, &v) in h1.iter().enumerate() {
            h2[i] += v;
            h2[i + 2] += 0.5 * v;
        }
        let obs = |rays: &[(usize, f64)], h: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; 16];
            for &(d, g) in rays {
                for (i, &v) in h.iter().enumerate() {
                    out[d + i] += g * v;
                }
            }
            out
        };
        let o1 = obs(&rays1, &h1);
        let o2 = obs(&rays2, &h2);
        o1.iter()
            .zip(&o2)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Condition number of a real matrix via the symmetric Gram matrix:
    /// `cond(A) = sqrt(λ_max / λ_min)` of `AᵀA`, with eigenvalues from
    /// cyclic Jacobi iteration. Adequate for the small systems analyzed
    /// here.
    pub fn condition_number(a: &[Vec<f64>]) -> f64 {
        let rows = a.len();
        let cols = a[0].len();
        // Gram matrix G = AᵀA (cols × cols).
        let mut g = vec![vec![0.0; cols]; cols];
        for i in 0..cols {
            for j in 0..cols {
                g[i][j] = (0..rows).map(|r| a[r][i] * a[r][j]).sum();
            }
        }
        let eig = symmetric_eigenvalues(&mut g);
        let max = eig.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = eig.iter().copied().fold(f64::INFINITY, f64::min).max(0.0);
        if min <= 1e-300 {
            f64::INFINITY
        } else {
            (max / min).sqrt()
        }
    }

    /// Eigenvalues of a symmetric matrix by cyclic Jacobi rotations
    /// (destroys the input).
    // Index-based loops mirror the textbook Jacobi formulation; the p/q/k
    // row-column symmetry would be lost in iterator form.
    #[allow(clippy::needless_range_loop)]
    fn symmetric_eigenvalues(g: &mut [Vec<f64>]) -> Vec<f64> {
        let n = g.len();
        for _sweep in 0..60 {
            let mut off = 0.0;
            for i in 0..n {
                for j in i + 1..n {
                    off += g[i][j] * g[i][j];
                }
            }
            if off < 1e-24 {
                break;
            }
            for p in 0..n {
                for q in p + 1..n {
                    if g[p][q].abs() < 1e-300 {
                        continue;
                    }
                    let tau = (g[q][q] - g[p][p]) / (2.0 * g[p][q]);
                    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let gpk = g[p][k];
                        let gqk = g[q][k];
                        g[p][k] = c * gpk - s * gqk;
                        g[q][k] = s * gpk + c * gqk;
                    }
                    for k in 0..n {
                        let gkp = g[k][p];
                        let gkq = g[k][q];
                        g[k][p] = c * gkp - s * gkq;
                        g[k][q] = s * gkp + c * gkq;
                    }
                }
            }
        }
        (0..n).map(|i| g[i][i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::LocalizedStop;
    use uniq_acoustics::pinna::PinnaModel;
    use uniq_acoustics::render::Renderer;
    use uniq_dsp::align::shift_signal;
    use uniq_geometry::HeadParams;

    fn cfg() -> UniqConfig {
        UniqConfig {
            grid_step_deg: 10.0,
            ..UniqConfig::fast_test()
        }
    }

    fn perfect_fusion(head: HeadParams) -> FusionResult {
        FusionResult {
            head,
            stops: vec![LocalizedStop {
                theta_deg: 0.0,
                radius_m: 0.4,
                residual_m: 0.0,
            }],
            final_thetas_deg: vec![0.0],
            mean_residual_deg: 0.0,
            objective: 0.0,
        }
    }

    fn subject_renderer(head: HeadParams, c: &UniqConfig) -> Renderer {
        Renderer::new(
            HeadBoundary::new(head, 2048),
            PinnaModel::from_seed(71),
            PinnaModel::from_seed(72),
            c.render,
        )
    }

    #[test]
    fn converted_far_field_tracks_ground_truth() {
        let c = cfg();
        let head = HeadParams::average_adult();
        let r = subject_renderer(head, &c);
        // Dense near-field measurements on the output grid.
        let grid = c.output_grid();
        let near = r
            .near_field_bank(&grid, 0.4)
            .expect("test radius clears the head");
        let fusion = perfect_fusion(head);
        let far = convert(&near, &fusion, &c, 0.4);
        let truth = r.ground_truth_bank(&grid);

        let mut sims = Vec::new();
        for (est, gt) in far.irs().iter().zip(truth.irs()) {
            let (l, r) = est.similarity(gt);
            sims.push(0.5 * (l + r));
        }
        let mean: f64 = sims.iter().sum::<f64>() / sims.len() as f64;
        assert!(mean > 0.6, "far-field conversion quality {mean}");
    }

    #[test]
    fn conversion_beats_raw_near_field() {
        // The §4.3 motivation: using the near-field HRIR directly for far
        // sources is worse than converting.
        let c = cfg();
        let head = HeadParams::average_adult();
        let r = subject_renderer(head, &c);
        let grid = c.output_grid();
        let near = r
            .near_field_bank(&grid, 0.4)
            .expect("test radius clears the head");
        let fusion = perfect_fusion(head);
        let far = convert(&near, &fusion, &c, 0.4);
        let truth = r.ground_truth_bank(&grid);

        let mut conv_total = 0.0;
        let mut raw_total = 0.0;
        for ((est, raw), gt) in far.irs().iter().zip(near.irs()).zip(truth.irs()) {
            let (cl, cr) = est.similarity(gt);
            let (rl, rr) = raw.similarity(gt);
            conv_total += cl + cr;
            raw_total += rl + rr;
        }
        assert!(
            conv_total > raw_total,
            "conversion did not help: {conv_total} vs {raw_total}"
        );
    }

    #[test]
    fn far_bank_covers_grid() {
        let c = cfg();
        let head = HeadParams::average_adult();
        let r = subject_renderer(head, &c);
        let near = r
            .near_field_bank(&c.output_grid(), 0.4)
            .expect("test radius clears the head");
        let far = convert(&near, &perfect_fusion(head), &c, 0.4);
        assert_eq!(far.len(), c.output_grid().len());
    }

    /// The reference for [`arc_average`]: aligns a set of impulse
    /// responses so all first taps coincide at the maximum of their
    /// individual first-tap indices, passing responses without a tap
    /// through unshifted. Returns the aligned set and the common index.
    fn co_align(irs: &[Vec<f64>], threshold: f64) -> (Vec<Vec<f64>>, usize) {
        let taps: Vec<Option<usize>> = irs
            .iter()
            .map(|ir| first_tap(ir, threshold).map(|p| p.index))
            .collect();
        let target = taps.iter().flatten().copied().max().unwrap_or(0);
        let aligned = irs
            .iter()
            .zip(&taps)
            .map(|(ir, tap)| match tap {
                Some(idx) => shift_signal(ir, target as isize - *idx as isize),
                None => ir.clone(),
            })
            .collect();
        (aligned, target)
    }

    /// The arc average as a clone of each member, [`co_align`] and a mean.
    fn reference_arc_average(
        near: &HrirBank,
        on_arc: &dyn Fn(f64) -> bool,
        fallback_angle: f64,
        ear: Ear,
    ) -> Vec<f64> {
        let mut members: Vec<Vec<f64>> = near
            .angles()
            .iter()
            .zip(near.irs())
            .filter(|(a, _)| on_arc(**a))
            .map(|(_, ir)| ear_of(ir, ear).to_vec())
            .collect();
        if members.is_empty() {
            members.push(ear_of(near.nearest(fallback_angle).0, ear).to_vec());
        }
        let (aligned, _) = co_align(&members, TAP_THRESHOLD);
        let n = aligned.len() as f64;
        let mut avg = vec![0.0; aligned[0].len()];
        for ir in &aligned {
            for (a, v) in avg.iter_mut().zip(ir) {
                *a += v / n;
            }
        }
        avg
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_matches_reference(near: &HrirBank, on_arc: &dyn Fn(f64) -> bool, fallback: f64) {
        let taps: Vec<[Option<usize>; 2]> = near
            .irs()
            .iter()
            .map(|ir| Ear::BOTH.map(|e| first_tap(ear_of(ir, e), TAP_THRESHOLD).map(|p| p.index)))
            .collect();
        let members = arc_members(near, on_arc, fallback);
        for ear in Ear::BOTH {
            assert_eq!(
                bits(&arc_average(near, &taps, &members, ear)),
                bits(&reference_arc_average(near, on_arc, fallback, ear)),
                "{ear:?} ear of members {members:?}"
            );
        }
    }

    fn delta(len: usize, at: usize, amp: f64) -> Vec<f64> {
        let mut v = vec![0.0; len];
        v[at] = amp;
        v
    }

    #[test]
    fn co_align_uses_latest_tap() {
        let a = delta(64, 10, 1.0);
        let b = delta(64, 25, 0.8);
        let (aligned, target) = co_align(&[a, b], 0.3);
        assert_eq!(target, 25);
        assert_eq!(aligned[0][25], 1.0);
        assert_eq!(aligned[1][25], 0.8);
    }

    #[test]
    fn co_align_preserves_relative_structure() {
        // IR with a first tap and an echo 7 samples later.
        let mut a = delta(64, 10, 1.0);
        a[17] = 0.5;
        let (aligned, target) = co_align(std::slice::from_ref(&a), 0.3);
        assert_eq!(aligned[0][target], 1.0);
        assert_eq!(aligned[0][target + 7], 0.5);
    }

    #[test]
    fn arc_average_matches_co_align_reference_on_edge_cases() {
        // 32-sample entries: taps early and late (the early ones lose
        // their tails past the end when moved to the late tap), a silent
        // entry with no tap, and signed zeros and a NaN in the tails.
        let mut early = delta(32, 2, 1.0);
        early[30] = -0.25;
        early[31] = f64::NAN;
        early[5] = -0.0;
        let mut late = delta(32, 27, -0.9);
        late[31] = 0.125;
        late[0] = -0.0;
        let mut echo = delta(32, 12, 0.7);
        echo[19] = 0.35;
        echo[29] = -0.1;
        let silent = vec![0.0; 32];
        let bank = HrirBank::new(
            vec![
                (0.0, BinauralIr::new(early.clone(), late.clone())),
                (20.0, BinauralIr::new(late.clone(), silent.clone())),
                (40.0, BinauralIr::new(silent.clone(), echo.clone())),
                (60.0, BinauralIr::new(echo.clone(), early.clone())),
                (80.0, BinauralIr::new(silent.clone(), silent.clone())),
            ],
            48_000.0,
        );
        let arcs: [(&dyn Fn(f64) -> bool, f64); 6] = [
            (&|_| true, 0.0),
            (&|phi| phi < 30.0, 0.0),
            (&|phi| phi > 30.0, 0.0),
            (&|phi| phi == 80.0, 0.0),
            (&|phi| phi == 20.0 || phi == 60.0, 0.0),
            // An empty arc falls back to the entry nearest 55°.
            (&|_| false, 55.0),
        ];
        for (on_arc, fallback) in arcs {
            assert_matches_reference(&bank, on_arc, fallback);
        }
    }

    #[test]
    fn arc_average_matches_co_align_reference_on_critical_arcs() {
        // A rendered 10°-grid near-field bank and every critical-ray arc
        // of the 10° output grid, as `convert` forms them.
        let c = cfg();
        let head = HeadParams::average_adult();
        let near = subject_renderer(head, &c)
            .near_field_bank(&c.output_grid(), 0.4)
            .expect("test radius clears the head");
        let boundary = HeadBoundary::new(head, c.inverse_resolution);
        for theta in c.output_grid() {
            let ca = critical_angles(&boundary, theta, 0.4);
            assert_matches_reference(&near, &|phi| ca.feeds_left(phi), ca.theta_c);
            assert_matches_reference(&near, &|phi| ca.feeds_right(phi), ca.theta_c);
        }
    }

    #[test]
    fn beamforming_system_is_ill_conditioned() {
        // Phone speakers: 2 elements ~7 cm apart at 2 kHz — the paper's
        // negative result. A condition number in the hundreds means noise
        // is amplified hundreds-fold when inverting Eq. 6.
        let cond = attempts::beamforming_condition(19, 30, 2, 0.07, 2000.0);
        assert!(
            cond > 100.0,
            "two-speaker system unexpectedly well conditioned: {cond}"
        );
        // More patterns cannot fix a rank problem rooted in the aperture.
        let more = attempts::beamforming_condition(19, 120, 2, 0.07, 2000.0);
        assert!(more > 100.0, "extra patterns fixed the rank?! {more}");
    }

    #[test]
    fn many_element_array_would_be_better() {
        // Sanity check of the analysis itself: an 8-element array forms
        // narrow steerable beams and is much better conditioned than the
        // phone's two speakers.
        let phone = attempts::beamforming_condition(12, 24, 2, 0.07, 2000.0);
        let array = attempts::beamforming_condition(12, 24, 8, 0.07, 2000.0);
        assert!(
            array < phone / 2.0,
            "8-element array {array} not clearly better than phone {phone}"
        );
    }

    #[test]
    fn blind_decoupling_is_ambiguous() {
        let gap = attempts::blind_decoupling_ambiguity();
        assert!(
            gap < 1e-12,
            "two factorizations should be observationally identical: {gap}"
        );
    }

    #[test]
    fn condition_number_of_identity_is_one() {
        let eye = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let c = attempts::condition_number(&eye);
        assert!((c - 1.0).abs() < 1e-9, "cond(I) = {c}");
    }
}
