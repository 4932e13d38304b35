//! Ablations for the design choices called out in DESIGN.md.

use crate::cohort::eval_config;
use crate::csv::write_csv;
use uniq_core::config::UniqConfig;
use uniq_core::fusion::{fuse_weighted, localize_phone, session_to_inputs};
use uniq_core::pipeline::personalize;
use uniq_core::session::run_session;
use uniq_dsp::stats::{mean, median};
use uniq_geometry::vec2::angle_diff_deg;
use uniq_geometry::{HeadBoundary, HeadParams};
use uniq_subjects::Subject;

/// Sensor-fusion ablation: fused vs IMU-only vs acoustic-only phone
/// angles, on careful and on sloppy gestures. Returns the medians for the
/// sloppy (severe-gesture) regime as `(fused, imu_only, acoustic_only)` —
/// the regime that motivates fusion.
///
/// "Acoustic-only" removes both things fusion provides: the per-user head
/// fit (an average head is assumed) and the IMU front/back hint (a nominal
/// uniform-sweep schedule stands in). With careful gestures the nominal
/// schedule is accurate, so acoustics alone look strong; sloppy gestures
/// (uneven speed, drooping arm) break the schedule and acoustic-only
/// degrades with front/back flips, while fusion stays put.
pub fn fusion_ablation() -> (f64, f64, f64) {
    println!("\n== ablation: is joint (IMU + acoustic) fusion needed? ==");
    let cfg = eval_config();
    let mut out = (0.0, 0.0, 0.0);

    for (label, gesture) in [
        (
            "careful gesture",
            uniq_imu::trajectory::Imperfections::typical(),
        ),
        (
            "sloppy gesture",
            uniq_imu::trajectory::Imperfections::severe(),
        ),
    ] {
        let mut fused_err = Vec::new();
        let mut imu_err = Vec::new();
        let mut acoustic_err = Vec::new();

        for v in 0..3u64 {
            let mut subject = Subject::from_seed(1000 + v);
            subject.gesture = gesture;
            let session = run_session(&subject, &cfg, 31_000 + v).expect("session");
            let inputs = session_to_inputs(&session, &cfg);
            let fusion = fuse_weighted(&inputs, None, &cfg).expect("fusion");

            // Acoustic-only: average-adult head (no per-user fit) and NO
            // orientation information. Without the IMU, the two iso-delay
            // intersections (front/back mirror, Fig 10b) cannot be told
            // apart; the baseline must commit to a fixed policy — here
            // "assume the front solution" (hint 45°), the paper's
            // ambiguity made concrete.
            let avg_boundary =
                HeadBoundary::new(HeadParams::average_adult(), cfg.inverse_resolution);
            for (k, (stop, inp)) in session.stops.iter().zip(&inputs).enumerate() {
                let truth = stop.truth_theta_deg;
                fused_err.push(angle_diff_deg(fusion.final_thetas_deg[k], truth));
                imu_err.push(angle_diff_deg(stop.alpha_deg, truth));
                let acoustic = localize_phone(&avg_boundary, inp.d_left_m, inp.d_right_m, 45.0)
                    .map(|l| l.theta_deg)
                    .unwrap_or(45.0);
                acoustic_err.push(angle_diff_deg(acoustic, truth));
            }
        }

        let (f, i, a) = (median(&fused_err), median(&imu_err), median(&acoustic_err));
        let (f90, i90, a90) = (
            uniq_dsp::stats::percentile(&fused_err, 90.0),
            uniq_dsp::stats::percentile(&imu_err, 90.0),
            uniq_dsp::stats::percentile(&acoustic_err, 90.0),
        );
        println!(
            "  {label}: median fused {f:.2}° / IMU {i:.2}° / acoustic {a:.2}°   (90th pct {f90:.1}° / {i90:.1}° / {a90:.1}°)"
        );
        write_csv(
            &format!(
                "ablation_fusion_{}",
                label.split_whitespace().next().unwrap()
            ),
            &[
                "fused_med_deg",
                "imu_med_deg",
                "acoustic_med_deg",
                "fused_p90_deg",
                "imu_p90_deg",
                "acoustic_p90_deg",
            ],
            &[vec![f, i, a, f90, i90, a90]],
        );
        out = (f, i, a);
    }
    out
}

/// Head-model ablation: spherical (1-parameter) vs the paper's
/// two-half-ellipse (3-parameter) model. Returns `(ellipse, sphere)`
/// median localization errors.
pub fn head_model_ablation() -> (f64, f64) {
    println!("\n== ablation: spherical vs two-half-ellipse head model ==");
    let cfg = eval_config();
    let mut ellipse_err = Vec::new();
    let mut sphere_err = Vec::new();

    for v in 0..3u64 {
        let subject = Subject::from_seed(1000 + v);
        let session = run_session(&subject, &cfg, 32_000 + v).expect("session");
        let inputs = session_to_inputs(&session, &cfg);

        let fusion = fuse_weighted(&inputs, None, &cfg).expect("ellipse fusion");
        for (k, stop) in session.stops.iter().enumerate() {
            ellipse_err.push(angle_diff_deg(
                fusion.final_thetas_deg[k],
                stop.truth_theta_deg,
            ));
        }

        // Sphere: optimize a single radius r with E = (r, r, r).
        let objective = |r: f64| -> f64 {
            if !(0.05..=0.14).contains(&r) {
                return 1e9;
            }
            let b = HeadBoundary::new(HeadParams::new(r, r, r), cfg.inverse_resolution);
            inputs
                .iter()
                .map(|inp| {
                    localize_phone(&b, inp.d_left_m, inp.d_right_m, inp.alpha_deg)
                        .map(|l| angle_diff_deg(inp.alpha_deg, l.theta_deg).powi(2))
                        .unwrap_or(900.0)
                })
                .sum()
        };
        let (r_opt, _) = uniq_optim::golden_section(objective, 0.06, 0.13, 1e-4);
        let b = HeadBoundary::new(HeadParams::new(r_opt, r_opt, r_opt), cfg.inverse_resolution);
        for (stop, inp) in session.stops.iter().zip(&inputs) {
            let est = localize_phone(&b, inp.d_left_m, inp.d_right_m, inp.alpha_deg)
                .map(|l| uniq_core::fusion::circular_blend(inp.alpha_deg, l.theta_deg, 0.5))
                .unwrap_or(inp.alpha_deg);
            sphere_err.push(angle_diff_deg(est, stop.truth_theta_deg));
        }
    }

    let (e, s) = (median(&ellipse_err), median(&sphere_err));
    println!("  median localization error: ellipse {e:.2}° vs sphere {s:.2}°");
    write_csv(
        "ablation_head_model",
        &["ellipse_med_deg", "sphere_med_deg"],
        &[vec![e, s]],
    );
    (e, s)
}

/// Room-gating ablation (§4.6): far-field HRIR quality with the echo gate
/// on vs off, measuring in a reverberant room. Returns `(gated, ungated)`
/// mean similarities.
pub fn room_gating_ablation() -> (f64, f64) {
    println!("\n== ablation: room-echo time gating ==");
    let base = UniqConfig {
        in_room: true,
        grid_step_deg: 10.0,
        ..eval_config()
    };
    // "Off": the gate window exceeds the estimated channel length, so
    // nothing is truncated and room taps leak into the HRTF.
    let ungated_cfg = UniqConfig {
        room_gate_s: 10.0,
        channel_len: 2048,
        ..base.clone()
    };

    let mut gated_sims = Vec::new();
    let mut ungated_sims = Vec::new();
    for v in 0..2u64 {
        let subject = Subject::from_seed(1000 + v);
        let truth = subject.ground_truth(base.render, &base.output_grid());
        for (cfg, sims) in [(&base, &mut gated_sims), (&ungated_cfg, &mut ungated_sims)] {
            if let Ok(result) = personalize(&subject, cfg, 33_000 + v) {
                for (est, gt) in result.hrtf.far().irs().iter().zip(truth.irs()) {
                    let (l, r) = est.similarity(gt);
                    sims.push((l + r) / 2.0);
                }
            }
        }
    }

    let (g, u) = (mean(&gated_sims), mean(&ungated_sims));
    println!("  mean far-field HRIR similarity: gated {g:.3} vs ungated {u:.3}");
    write_csv(
        "ablation_room_gating",
        &["gated_mean_sim", "ungated_mean_sim"],
        &[vec![g, u]],
    );
    (g, u)
}

/// Interpolation ablation (§4.2): first-tap-aligned interpolation vs a
/// naive sample-wise blend. Returns `(aligned, naive)` mean similarities
/// at unmeasured angles.
pub fn interpolation_ablation() -> (f64, f64) {
    println!("\n== ablation: first-tap alignment in near-field interpolation ==");
    let cfg = UniqConfig {
        grid_step_deg: 10.0,
        ..eval_config()
    };
    let subject = Subject::from_seed(1002);
    let renderer = subject.renderer(cfg.render, uniq_subjects::FORWARD_RESOLUTION);

    // Measure every 20°, query the 10°-offset midpoints.
    let measured: Vec<f64> = (0..=9).map(|k| k as f64 * 20.0).collect();
    let bank = renderer
        .near_field_bank(&measured, 0.45)
        .expect("0.45 m clears the head");
    let queries: Vec<f64> = (0..9).map(|k| 10.0 + k as f64 * 20.0).collect();
    let truth = renderer
        .near_field_bank(&queries, 0.45)
        .expect("0.45 m clears the head");

    let fusion = uniq_core::fusion::FusionResult {
        head: subject.head,
        stops: vec![],
        final_thetas_deg: vec![],
        mean_residual_deg: 0.0,
        objective: 0.0,
    };
    let interp = uniq_core::nearfield::interpolate(&bank, &fusion, &cfg, 0.45);

    let mut aligned_sims = Vec::new();
    let mut naive_sims = Vec::new();
    for (q, gt) in queries.iter().zip(truth.irs()) {
        let est = interp.nearest(*q).0;
        let (l, r) = est.similarity(gt);
        aligned_sims.push((l + r) / 2.0);

        // Naive: plain sample-wise average of the bracketing measurements
        // (no alignment) — the "spurious echoes" failure mode.
        let lo = bank.nearest(q - 10.0).0;
        let hi = bank.nearest(q + 10.0).0;
        let naive = uniq_acoustics::types::BinauralIr::new(
            uniq_dsp::interp::lerp_vec(&lo.left, &hi.left, 0.5),
            uniq_dsp::interp::lerp_vec(&lo.right, &hi.right, 0.5),
        );
        let (l, r) = naive.similarity(gt);
        naive_sims.push((l + r) / 2.0);
    }

    let (a, n) = (mean(&aligned_sims), mean(&naive_sims));
    println!("  mean similarity at unmeasured angles: aligned {a:.3} vs naive {n:.3}");
    write_csv(
        "ablation_interpolation",
        &["aligned_mean_sim", "naive_mean_sim"],
        &[vec![a, n]],
    );
    (a, n)
}

/// Near-far ablation (§4.3): converted far-field bank vs using the
/// near-field HRIR directly for far sources. Returns `(converted, raw)`
/// mean similarities.
pub fn nearfar_ablation() -> (f64, f64) {
    println!("\n== ablation: near-far conversion vs raw near-field HRTF ==");
    let cfg = UniqConfig {
        grid_step_deg: 10.0,
        ..eval_config()
    };
    let subject = Subject::from_seed(1003);
    let renderer = subject.renderer(cfg.render, uniq_subjects::FORWARD_RESOLUTION);
    let grid = cfg.output_grid();
    let near = renderer
        .near_field_bank(&grid, 0.45)
        .expect("0.45 m clears the head");
    let truth = renderer.ground_truth_bank(&grid);

    let fusion = uniq_core::fusion::FusionResult {
        head: subject.head,
        stops: vec![],
        final_thetas_deg: vec![],
        mean_residual_deg: 0.0,
        objective: 0.0,
    };
    let far = uniq_core::nearfar::convert(&near, &fusion, &cfg, 0.45);

    let mut conv_sims = Vec::new();
    let mut raw_sims = Vec::new();
    for ((est, raw), gt) in far.irs().iter().zip(near.irs()).zip(truth.irs()) {
        let (cl, cr) = est.similarity(gt);
        conv_sims.push((cl + cr) / 2.0);
        let (rl, rr) = raw.similarity(gt);
        raw_sims.push((rl + rr) / 2.0);
    }
    let (c, r) = (mean(&conv_sims), mean(&raw_sims));
    println!("  mean far-field similarity: converted {c:.3} vs raw near-field {r:.3}");
    write_csv(
        "ablation_nearfar",
        &["converted_mean_sim", "raw_near_mean_sim"],
        &[vec![c, r]],
    );
    (c, r)
}

/// Measurement-count sweep (Eq. 2 convergence): head-parameter error and
/// localization error vs the number of stops N. Returns rows of
/// `(n, head_err_m, loc_med_deg)`.
pub fn stops_sweep() -> Vec<(usize, f64, f64)> {
    println!("\n== ablation: measurement count N (Eq. 2 convergence) ==");
    let mut rows = Vec::new();
    for &n in &[5usize, 9, 19, 37] {
        let cfg = UniqConfig {
            stops: n,
            ..eval_config()
        };
        let subject = Subject::from_seed(1004);
        let session = run_session(&subject, &cfg, 34_000 + n as u64).expect("session");
        let inputs = session_to_inputs(&session, &cfg);
        let fusion = fuse_weighted(&inputs, None, &cfg).expect("fusion");
        let head_err = ((fusion.head.a - subject.head.a).powi(2)
            + (fusion.head.b - subject.head.b).powi(2)
            + (fusion.head.c - subject.head.c).powi(2))
        .sqrt();
        let errs: Vec<f64> = session
            .stops
            .iter()
            .zip(&fusion.final_thetas_deg)
            .map(|(s, &e)| angle_diff_deg(s.truth_theta_deg, e))
            .collect();
        let med = median(&errs);
        println!(
            "  N = {n:>3}: head error {:.1} mm, localization median {med:.2}°",
            head_err * 1000.0
        );
        rows.push((n, head_err, med));
    }
    write_csv(
        "ablation_stops_sweep",
        &["n_stops", "head_err_m", "loc_median_deg"],
        &rows
            .iter()
            .map(|(n, h, m)| vec![*n as f64, *h, *m])
            .collect::<Vec<_>>(),
    );
    rows
}

/// One SNR-sweep row: `(snr_db, loc_median_deg, hrir_mean_sim)`.
pub type SnrRow = (f64, f64, f64);
/// One gyro-sweep row: `(grade, loc_median_deg, hrir_mean_sim)`.
pub type GyroRow = (usize, f64, f64);

/// Robustness sweep: localization and HRIR quality vs microphone SNR and
/// gyroscope grade. Returns `(snr_rows, gyro_rows)`.
pub fn robustness_sweep() -> (Vec<SnrRow>, Vec<GyroRow>) {
    println!("\n== robustness: SNR and gyroscope-grade sweeps ==");
    let subject = Subject::from_seed(1005);
    let grid_cfg = UniqConfig {
        grid_step_deg: 10.0,
        ..eval_config()
    };
    let truth_bank = subject.ground_truth(grid_cfg.render, &grid_cfg.output_grid());

    let score = |cfg: &UniqConfig, seed: u64| -> Option<(f64, f64)> {
        let result = personalize(&subject, cfg, seed).ok()?;
        let errs: Vec<f64> = result
            .localization
            .iter()
            .map(|(t, e)| angle_diff_deg(*t, *e))
            .collect();
        let sims: Vec<f64> = result
            .hrtf
            .far()
            .irs()
            .iter()
            .zip(truth_bank.irs())
            .map(|(est, gt)| {
                let (l, r) = est.similarity(gt);
                (l + r) / 2.0
            })
            .collect();
        Some((median(&errs), mean(&sims)))
    };

    let mut snr_rows = Vec::new();
    println!("  SNR sweep (consumer gyro):");
    for &snr in &[5.0, 15.0, 25.0, 35.0] {
        let cfg = UniqConfig {
            snr_db: snr,
            ..grid_cfg.clone()
        };
        match score(&cfg, 35_000) {
            Some((loc, sim)) => {
                println!("    {snr:>4.0} dB: localization median {loc:.2}°, HRIR sim {sim:.3}");
                snr_rows.push((snr, loc, sim));
            }
            None => {
                println!("    {snr:>4.0} dB: pipeline failed (gesture rejected / fusion failed)");
                snr_rows.push((snr, f64::NAN, f64::NAN));
            }
        }
    }
    write_csv(
        "robustness_snr",
        &["snr_db", "loc_median_deg", "hrir_mean_sim"],
        &snr_rows
            .iter()
            .map(|(a, b, c)| vec![*a, *b, *c])
            .collect::<Vec<_>>(),
    );

    let mut gyro_rows = Vec::new();
    println!("  gyroscope-grade sweep (35 dB SNR):");
    let grades = [
        ("ideal", uniq_imu::GyroModel::ideal()),
        ("consumer", uniq_imu::GyroModel::consumer_phone()),
        ("poor", uniq_imu::GyroModel::poor()),
    ];
    for (k, (label, gyro)) in grades.iter().enumerate() {
        let cfg = UniqConfig {
            gyro: *gyro,
            ..grid_cfg.clone()
        };
        match score(&cfg, 36_000) {
            Some((loc, sim)) => {
                println!("    {label:<9}: localization median {loc:.2}°, HRIR sim {sim:.3}");
                gyro_rows.push((k, loc, sim));
            }
            None => {
                println!("    {label:<9}: pipeline failed");
                gyro_rows.push((k, f64::NAN, f64::NAN));
            }
        }
    }
    write_csv(
        "robustness_gyro",
        &["grade", "loc_median_deg", "hrir_mean_sim"],
        &gyro_rows
            .iter()
            .map(|(a, b, c)| vec![*a as f64, *b, *c])
            .collect::<Vec<_>>(),
    );
    (snr_rows, gyro_rows)
}

/// Beamforming attempt analysis (§4.3, Attempt 1): condition numbers of
/// the Eq. 6 system for the phone's 2 speakers vs hypothetical arrays.
pub fn beamforming_analysis() {
    println!("\n== analysis: Attempt 1 (speaker beamforming) conditioning ==");
    use uniq_core::nearfar::attempts::beamforming_condition;
    let mut rows = Vec::new();
    for &(elements, label) in &[
        (2usize, "phone (2 speakers)"),
        (4, "4-element"),
        (8, "8-element"),
    ] {
        let cond = beamforming_condition(19, 38, elements, 0.07, 2000.0);
        println!("  {label:<20} condition number {cond:.1e}");
        rows.push(vec![elements as f64, cond]);
    }
    write_csv("ablation_beamforming", &["elements", "condition"], &rows);
    println!(
        "  blind decoupling ambiguity (Attempt 2): observation gap {:.2e} (identical observations)",
        uniq_core::nearfar::attempts::blind_decoupling_ambiguity()
    );
}
