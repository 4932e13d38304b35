//! Fig 22 — unknown-source AoA across signal categories (white noise,
//! music, speech) plus front-back identification accuracy.
//!
//! Paper: 80th-percentile error within 20° for noise/music; front-back
//! accuracy 82.8% avg for UNIQ (87.2% noise, 72.8% speech) vs 59.8%
//! global.

use crate::cohort::VolunteerRun;
use crate::csv::write_csv;
use uniq_acoustics::measure::{record_plane_wave, MeasurementSetup};
use uniq_acoustics::signals::{generate, SignalKind};
use uniq_core::aoa::{estimate_unknown_source, front_back_accuracy};
use uniq_core::config::UniqConfig;
use uniq_dsp::stats::{median, percentile, Ecdf};
use uniq_geometry::vec2::angle_diff_deg;

/// Per-category result.
#[derive(Debug)]
pub struct CategoryResult {
    /// Which signal category.
    pub kind: SignalKind,
    /// Personalized errors, degrees.
    pub personal_errors: Vec<f64>,
    /// Global errors, degrees.
    pub global_errors: Vec<f64>,
    /// Front-back accuracy with the personalized template.
    pub personal_fb: f64,
    /// Front-back accuracy with the global template.
    pub global_fb: f64,
}

/// Runs the unknown-source trials (8 far-field angles per volunteer and
/// signal category) with each volunteer's personalized far-field HRTF and
/// with the global template; one entry per signal kind.
pub fn category_results(cohort: &[VolunteerRun], cfg: &UniqConfig) -> Vec<CategoryResult> {
    let global = uniq_subjects::global_template(cfg.render, &cfg.output_grid());
    let setup = MeasurementSetup::anechoic(cfg.render.sample_rate, 35.0);

    let mut out = Vec::new();
    for kind in SignalKind::ALL {
        let mut personal_errors = Vec::new();
        let mut global_errors = Vec::new();
        let mut p_pairs = Vec::new();
        let mut g_pairs = Vec::new();
        for (v, run) in cohort.iter().enumerate() {
            let renderer = run
                .subject
                .renderer(cfg.render, uniq_subjects::FORWARD_RESOLUTION);
            for k in 0..8 {
                let truth = 11.25 + k as f64 * 22.5;
                let seed = 20_000 + (v * 1000 + k) as u64;
                let sig = generate(kind, 0.4, cfg.render.sample_rate, seed);
                let rec = record_plane_wave(&renderer, &setup, truth, &sig, seed + 1);
                let p = estimate_unknown_source(&rec, run.result.hrtf.far(), cfg);
                let g = estimate_unknown_source(&rec, &global, cfg);
                personal_errors.push(angle_diff_deg(p, truth));
                global_errors.push(angle_diff_deg(g, truth));
                p_pairs.push((p, truth));
                g_pairs.push((g, truth));
            }
        }
        out.push(CategoryResult {
            kind,
            personal_fb: front_back_accuracy(&p_pairs),
            global_fb: front_back_accuracy(&g_pairs),
            personal_errors,
            global_errors,
        });
    }
    out
}

/// Mean front-back accuracy over categories, `(personalized, global)`.
pub fn average_front_back(results: &[CategoryResult]) -> (f64, f64) {
    let n = results.len() as f64;
    (
        results.iter().map(|r| r.personal_fb).sum::<f64>() / n,
        results.iter().map(|r| r.global_fb).sum::<f64>() / n,
    )
}

/// Runs the experiment; one entry per signal kind.
pub fn run() -> Vec<CategoryResult> {
    println!("\n== Fig 22: unknown-source AoA by signal category ==");
    let out = category_results(super::cohort(), &crate::cohort::eval_config());
    for result in &out {
        let tag = match result.kind {
            SignalKind::WhiteNoise => "noise",
            SignalKind::Music => "music",
            SignalKind::Speech => "speech",
        };
        for (name, errs) in [
            (format!("fig22_{tag}_personal"), &result.personal_errors),
            (format!("fig22_{tag}_global"), &result.global_errors),
        ] {
            let rows: Vec<Vec<f64>> = Ecdf::new(errs)
                .curve()
                .iter()
                .map(|(x, p)| vec![*x, *p])
                .collect();
            write_csv(&name, &["error_deg", "cdf"], &rows);
        }
        println!(
            "  {:<11}: personal median {:>5.1}° (80th {:>5.1}°) fb {:>4.0}% | global median {:>5.1}° fb {:>4.0}%",
            result.kind.label(),
            median(&result.personal_errors),
            percentile(&result.personal_errors, 80.0),
            result.personal_fb * 100.0,
            median(&result.global_errors),
            result.global_fb * 100.0,
        );
    }

    let (avg_fb, avg_fb_g) = average_front_back(&out);
    println!(
        "  front-back accuracy average: UNIQ {:.1}% vs global {:.1}% (paper: 82.8% vs 59.8%)",
        avg_fb * 100.0,
        avg_fb_g * 100.0
    );
    write_csv(
        "fig22d_front_back",
        &["category", "uniq_fb", "global_fb"],
        &out.iter()
            .enumerate()
            .map(|(i, r)| vec![i as f64, r.personal_fb, r.global_fb])
            .collect::<Vec<_>>(),
    );
    out
}
