//! Near-field HRTF assembly and interpolation (§4.2 of the paper).
//!
//! After fusion assigns an angle to every measured channel, this module
//! turns the discrete measurements into a continuous near-field HRTF:
//!
//! 1. index the gated channels by their fused angles (a discrete
//!    [`HrirBank`]);
//! 2. first-tap-align adjacent HRIRs ("otherwise spurious echoes will get
//!    injected"), linearly interpolate to the output grid, and
//! 3. model-correct each interpolated HRIR: shift per-ear first taps to
//!    the delays predicted by the fused head parameters at that angle, and
//!    rescale amplitude by the spreading-loss ratio.

use crate::config::{UniqConfig, TAP_THRESHOLD};
use crate::fusion::FusionResult;
use crate::session::SessionData;
use uniq_acoustics::types::{BinauralIr, HrirBank};
use uniq_dsp::align::shift_signal_in_place;
use uniq_dsp::interp::{bracket_angle, lerp};
use uniq_dsp::peaks::first_tap;
use uniq_geometry::diffraction::path_length;
use uniq_geometry::vec2::unit_from_theta;
use uniq_geometry::{Ear, HeadBoundary};

/// The discrete near-field bank: each measured channel indexed by its
/// fused angle. Stops that failed to localize (NaN radius) are dropped.
pub fn assemble_discrete(
    session: &SessionData,
    fusion: &FusionResult,
    cfg: &UniqConfig,
) -> HrirBank {
    let _span = uniq_obs::span(uniq_obs::names::SPAN_NEARFIELD_ASSEMBLE);
    let mut pairs: Vec<(f64, BinauralIr)> = Vec::new();
    for (stop, (&theta, loc)) in session
        .stops
        .iter()
        .zip(fusion.final_thetas_deg.iter().zip(&fusion.stops))
    {
        if !loc.radius_m.is_finite() {
            continue;
        }
        let theta = theta.rem_euclid(360.0);
        // Degenerate duplicate angles (stalled gesture) keep the first.
        if pairs.iter().any(|(a, _)| (a - theta).abs() < 1e-6) {
            continue;
        }
        pairs.push((theta, stop.channel.ir.clone()));
    }
    HrirBank::new(pairs, cfg.render.sample_rate)
}

/// Mean estimated trajectory radius (metres) over localized stops.
pub fn mean_radius(fusion: &FusionResult) -> f64 {
    let rs: Vec<f64> = fusion
        .stops
        .iter()
        .map(|s| s.radius_m)
        .filter(|r| r.is_finite())
        .collect();
    rs.iter().sum::<f64>() / rs.len().max(1) as f64
}

/// Interpolates the discrete bank onto the output grid with first-tap
/// alignment and diffraction-model correction.
///
/// `fusion` provides the head parameters for the correction model;
/// `radius` is the nominal trajectory radius the grid is rendered at.
pub fn interpolate(
    discrete: &HrirBank,
    fusion: &FusionResult,
    cfg: &UniqConfig,
    radius: f64,
) -> HrirBank {
    let _span = uniq_obs::span(uniq_obs::names::SPAN_NEARFIELD_INTERPOLATE);
    let boundary = HeadBoundary::new(fusion.head, cfg.inverse_resolution);
    let angles = discrete.angles();
    let grid = cfg.output_grid();
    let sr = cfg.render.sample_rate;

    // Each entry's per-ear first tap, found once for the whole grid.
    let taps: Vec<[Option<f64>; 2]> = discrete
        .irs()
        .iter()
        .map(|ir| [&ir.left, &ir.right].map(|e| first_tap(e, TAP_THRESHOLD).map(|p| p.position)))
        .collect();

    // Grid angles are independent; fan them across the pool. Per-angle
    // arithmetic is unchanged and outputs are reduced in grid order, so
    // the bank is bit-identical at any thread count.
    let pool = uniq_par::pool(cfg.threads);
    let pairs: Vec<(f64, BinauralIr)> = pool.par_map(&grid, |&theta| {
        let (i0, i1, t) = bracket_angle(angles, theta);
        let (a, b) = (&discrete.irs()[i0], &discrete.irs()[i1]);
        let blend = |e: usize, ea, eb| blend_aligned(ea, eb, (taps[i0][e], taps[i1][e]), t);
        let mut ir = BinauralIr::new(blend(0, &a.left, &b.left), blend(1, &a.right, &b.right));
        model_correct(&mut ir, &boundary, theta, radius, cfg);
        (theta, ir)
    });
    HrirBank::new(pairs, sr)
}

/// Blends one ear of two HRIRs whose first taps sit at `taps`: `eb` is
/// shifted so its tap lands on `ea`'s, the two are blended, and the blend
/// is shifted so its tap lands at the linear interpolation of the two tap
/// times. Without both taps it is the plain blend. Samples shifted in from
/// outside the buffer are zero.
fn blend_aligned(ea: &[f64], eb: &[f64], taps: (Option<f64>, Option<f64>), t: f64) -> Vec<f64> {
    let (shift_b, shift) = match taps {
        (Some(ta), Some(tb)) => {
            let target = ta + t * (tb - ta);
            ((ta - tb).round() as isize, (target - ta).round() as isize)
        }
        _ => (0, 0),
    };
    let at = |sig: &[f64], i: isize| usize::try_from(i).ok().and_then(|i| sig.get(i).copied());
    (0..ea.len() as isize)
        .map(|i| match at(ea, i - shift) {
            Some(x) => lerp(x, at(eb, i - shift - shift_b).unwrap_or(0.0), t),
            None => 0.0,
        })
        .collect()
}

/// §4.2 model correction: if the interpolated HRIR's first taps deviate
/// from the diffraction model's prediction for (E_opt, θ, r), shift the
/// channel taps to the expected time and rescale to the expected
/// spreading amplitude.
///
/// The deviation it corrects is the paper's interpolation-quality check
/// ("modeling the diffraction from the known head parameters E and the
/// location L"): each ear's `|offset|` is emitted as
/// `nearfield.interp_tap_dev`, so large values flag angles whose
/// bracketing measurements disagree with the fused geometry.
fn model_correct(
    ir: &mut BinauralIr,
    boundary: &HeadBoundary,
    theta_deg: f64,
    radius: f64,
    cfg: &UniqConfig,
) {
    let pos = unit_from_theta(theta_deg) * radius;
    for (sig, ear) in [(&mut ir.left, Ear::Left), (&mut ir.right, Ear::Right)] {
        let offset = path_length(boundary, pos, ear)
            .and_then(|length| shift_first_tap_to(sig, cfg.render.metres_to_samples(length)));
        if let Some(offset) = offset {
            uniq_obs::metric(
                uniq_obs::names::NEARFIELD_INTERP_TAP_DEV,
                offset.abs(),
                "samples",
            );
        }
    }
}

/// Shifts `sig` in place by whole samples so its [`TAP_THRESHOLD`] first
/// tap lands at sample `expect` (rounded to the nearest shift), and
/// returns the offset `expect − tap` it found before the shift; leaves
/// `sig` as it is and returns `None` when it has no tap.
pub(crate) fn shift_first_tap_to(sig: &mut [f64], expect: f64) -> Option<f64> {
    let offset = expect - first_tap(sig, TAP_THRESHOLD)?.position;
    shift_signal_in_place(sig, offset.round() as isize);
    Some(offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_acoustics::pinna::PinnaModel;
    use uniq_acoustics::render::Renderer;
    use uniq_dsp::align::shift_signal;
    use uniq_dsp::interp::lerp_vec;
    use uniq_geometry::diffraction::path_to_ear;
    use uniq_geometry::HeadParams;

    fn cfg() -> UniqConfig {
        UniqConfig {
            grid_step_deg: 5.0,
            ..UniqConfig::fast_test()
        }
    }

    /// A fusion result that matches the renderer's geometry exactly.
    fn perfect_fusion(head: HeadParams, angles: &[f64], radius: f64) -> FusionResult {
        FusionResult {
            head,
            stops: angles
                .iter()
                .map(|&a| crate::fusion::LocalizedStop {
                    theta_deg: a,
                    radius_m: radius,
                    residual_m: 0.0,
                })
                .collect(),
            final_thetas_deg: angles.to_vec(),
            mean_residual_deg: 0.0,
            objective: 0.0,
        }
    }

    fn measured_bank(head: HeadParams, angles: &[f64], radius: f64, c: &UniqConfig) -> HrirBank {
        let r = Renderer::new(
            HeadBoundary::new(head, 2048),
            PinnaModel::from_seed(61),
            PinnaModel::from_seed(62),
            c.render,
        );
        r.near_field_bank(angles, radius)
            .expect("test radius clears the head")
    }

    #[test]
    fn interpolation_grid_is_complete() {
        let c = cfg();
        let head = HeadParams::average_adult();
        let angles: Vec<f64> = (0..=9).map(|k| k as f64 * 20.0).collect();
        let bank = measured_bank(head, &angles, 0.4, &c);
        let fusion = perfect_fusion(head, &angles, 0.4);
        let interp = interpolate(&bank, &fusion, &c, 0.4);
        assert_eq!(interp.len(), c.output_grid().len());
    }

    #[test]
    fn interpolation_exact_at_measured_angles() {
        let c = cfg();
        let head = HeadParams::average_adult();
        let angles: Vec<f64> = (0..=9).map(|k| k as f64 * 20.0).collect();
        let bank = measured_bank(head, &angles, 0.4, &c);
        let fusion = perfect_fusion(head, &angles, 0.4);
        let interp = interpolate(&bank, &fusion, &c, 0.4);
        // At a measured angle, the interpolated HRIR should correlate ≈1
        // with the measurement (up to an integer alignment shift).
        let idx = interp.index_of(40.0).unwrap();
        let (sim, _) = interp.irs()[idx].similarity(&bank.irs()[2]);
        assert!(sim > 0.99, "similarity at measured angle: {sim}");
    }

    #[test]
    fn interpolated_angle_close_to_true_render() {
        // HRIR interpolated at an unmeasured angle should resemble the
        // true render at that angle. 10°-spaced measurements bracket the
        // query at ±5°, where the pinna is still well correlated.
        let c = cfg();
        let head = HeadParams::average_adult();
        let angles: Vec<f64> = (0..=18).map(|k| k as f64 * 10.0).collect();
        let bank = measured_bank(head, &angles, 0.4, &c);
        let fusion = perfect_fusion(head, &angles, 0.4);
        let interp = interpolate(&bank, &fusion, &c, 0.4);

        let truth = measured_bank(head, &[45.0], 0.4, &c);
        let idx = interp.index_of(45.0).unwrap();
        let (sim_interp, _) = interp.irs()[idx].similarity(&truth.irs()[0]);
        assert!(sim_interp > 0.75, "interp quality {sim_interp}");
        // It must also beat the *average* similarity of distant angles —
        // the shift-invariant metric has a high floor, so compare to the
        // mean over several.
        let mut distant = 0.0;
        for far_angle in [110.0, 135.0, 160.0] {
            let far_idx = interp.index_of(far_angle).unwrap();
            distant += interp.irs()[far_idx].similarity(&truth.irs()[0]).0;
        }
        distant /= 3.0;
        assert!(
            sim_interp > distant + 0.05,
            "interp {sim_interp} vs distant mean {distant}"
        );
    }

    #[test]
    fn first_taps_follow_model_after_correction() {
        let c = cfg();
        let head = HeadParams::average_adult();
        let angles: Vec<f64> = (0..=9).map(|k| k as f64 * 20.0).collect();
        let bank = measured_bank(head, &angles, 0.4, &c);
        let fusion = perfect_fusion(head, &angles, 0.4);
        let interp = interpolate(&bank, &fusion, &c, 0.4);

        let boundary = HeadBoundary::new(head, 1024);
        for &theta in &[25.0, 75.0, 125.0] {
            let idx = interp.index_of(theta).unwrap();
            let pos = unit_from_theta(theta) * 0.4;
            let expect = c
                .render
                .metres_to_samples(path_to_ear(&boundary, pos, Ear::Left).unwrap().length);
            let tap = first_tap(&interp.irs()[idx].left, TAP_THRESHOLD).unwrap();
            assert!(
                (tap.position - expect).abs() < 2.0,
                "θ={theta}: tap {} vs model {expect}",
                tap.position
            );
        }
    }

    /// The reference for [`blend_aligned`]: shift `eb` by the tap
    /// difference, blend, and shift the blend, one buffer per step.
    fn reference_blend(
        ea: &[f64],
        eb: &[f64],
        taps: (Option<f64>, Option<f64>),
        t: f64,
    ) -> Vec<f64> {
        match taps {
            (Some(ta), Some(tb)) => {
                let b_aligned = shift_signal(eb, (ta - tb).round() as isize);
                let blended = lerp_vec(ea, &b_aligned, t);
                let target = ta + t * (tb - ta);
                shift_signal(&blended, (target - ta).round() as isize)
            }
            _ => lerp_vec(ea, eb, t),
        }
    }

    #[test]
    fn blend_aligned_matches_shift_lerp_shift_chain() {
        let tap = |sig: &[f64]| first_tap(sig, TAP_THRESHOLD).map(|p| p.position);
        let mut a = vec![0.0; 24];
        a[3] = 1.0;
        a[4] = 0.6;
        a[10] = -0.4;
        a[23] = -0.0;
        let mut b = vec![0.0; 24];
        b[17] = -0.8;
        b[18] = 0.3;
        b[22] = 0.2;
        b[1] = -0.0;
        let silent = vec![0.0; 24];
        let cases = [
            // Both taps found, in either order.
            (&a, &b, (tap(&a), tap(&b))),
            (&b, &a, (tap(&b), tap(&a))),
            // One or neither tap: the plain blend.
            (&a, &silent, (tap(&a), tap(&silent))),
            (&silent, &b, (tap(&silent), tap(&b))),
            (&silent, &silent, (None, None)),
            // Shifts of the whole length or more.
            (&a, &b, (Some(0.0), Some(30.0))),
            (&b, &a, (Some(40.0), Some(-2.0))),
        ];
        for (ea, eb, taps) in cases {
            for t in [0.0, 0.25, 0.5, 0.8, 1.0] {
                let got: Vec<u64> = blend_aligned(ea, eb, taps, t)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let want: Vec<u64> = reference_blend(ea, eb, taps, t)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "taps {taps:?}, t = {t}");
            }
        }
    }

    /// The `nearfield.interp_tap_dev` series `interpolate` emits for
    /// `bank` at a 1-thread pool, so the series is in grid order: left
    /// then right ear at each grid angle.
    fn tap_devs(bank: &HrirBank, head: HeadParams, grid_step_deg: f64) -> (Vec<f64>, usize) {
        let c = UniqConfig {
            grid_step_deg,
            threads: 1,
            ..UniqConfig::fast_test()
        };
        let fusion = perfect_fusion(head, &[], 0.4);
        let sink = std::sync::Arc::new(uniq_obs::sink::MemorySink::new());
        uniq_obs::with_sink(sink.clone(), || interpolate(bank, &fusion, &c, 0.4));
        (
            sink.metric_values(uniq_obs::names::NEARFIELD_INTERP_TAP_DEV),
            c.output_grid().len(),
        )
    }

    #[test]
    fn interpolated_bank_scores_tight_deviations() {
        let c = cfg();
        let head = HeadParams::average_adult();
        let angles: Vec<f64> = (0..=12).map(|k| k as f64 * 15.0).collect();
        let bank = measured_bank(head, &angles, 0.4, &c);
        let (devs, grid_len) = tap_devs(&bank, head, 15.0);
        assert_eq!(devs.len(), 2 * grid_len, "one deviation per ear per angle");
        for (k, d) in devs.iter().enumerate() {
            assert!(*d < 2.5, "θ={}: deviation {d}", 15 * (k / 2));
        }
    }

    #[test]
    fn corrupted_bank_flagged() {
        let c = cfg();
        let head = HeadParams::average_adult();
        let angles: Vec<f64> = (0..=6).map(|k| k as f64 * 30.0).collect();
        let bank = measured_bank(head, &angles, 0.4, &c);
        // Misalign the 90° HRIR by 20 samples: the check must notice.
        let mut pairs: Vec<(f64, BinauralIr)> = bank
            .angles()
            .iter()
            .zip(bank.irs())
            .map(|(&a, ir)| (a, ir.clone()))
            .collect();
        pairs[3].1 = BinauralIr::new(
            shift_signal(&pairs[3].1.left, 20),
            shift_signal(&pairs[3].1.right, 20),
        );
        let corrupted = HrirBank::new(pairs, c.render.sample_rate);
        let (devs, grid_len) = tap_devs(&corrupted, head, 30.0);
        assert_eq!(devs.len(), 2 * grid_len);
        // Grid index 3 is 90°: its left ear is series entry 6.
        assert!(devs[6] > 15.0, "misalignment not flagged: {devs:?}");
        assert!(devs[0] < 3.0, "clean 0° flagged: {devs:?}");
    }

    #[test]
    fn assemble_skips_failed_stops() {
        let c = cfg();
        let head = HeadParams::average_adult();
        let angles = [0.0, 45.0, 90.0];
        let bank = measured_bank(head, &angles, 0.4, &c);
        // Fake a session out of the bank.
        let session = SessionData {
            stops: bank
                .irs()
                .iter()
                .zip(bank.angles())
                .map(|(ir, &a)| crate::session::StopMeasurement {
                    alpha_deg: a,
                    channel: crate::channel::EstimatedChannel {
                        ir: ir.clone(),
                        tap_left: 50.0,
                        tap_right: 60.0,
                    },
                    truth_theta_deg: a,
                    truth_radius_m: 0.4,
                })
                .collect(),
            system_ir: vec![1.0],
        };
        let mut fusion = perfect_fusion(head, &angles, 0.4);
        fusion.stops[1].radius_m = f64::NAN; // failed stop
        let discrete = assemble_discrete(&session, &fusion, &c);
        assert_eq!(discrete.len(), 2);
        assert_eq!(discrete.angles(), &[0.0, 90.0]);
    }

    #[test]
    fn mean_radius_ignores_nan() {
        let head = HeadParams::average_adult();
        let mut fusion = perfect_fusion(head, &[0.0, 90.0, 180.0], 0.4);
        fusion.stops[2].radius_m = f64::NAN;
        assert!((mean_radius(&fusion) - 0.4).abs() < 1e-12);
    }
}
