//! Fig 21 — far-field AoA with a known source: personalized vs global
//! HRTF (paper: medians 7.8° vs 45.3°; global suffers front-back
//! confusion in 29% of trials).

use crate::cohort::VolunteerRun;
use crate::csv::write_csv;
use uniq_acoustics::measure::{record_plane_wave, MeasurementSetup};
use uniq_core::aoa::{estimate_known_source, is_front};
use uniq_dsp::stats::{median, Ecdf};
use uniq_geometry::vec2::angle_diff_deg;

/// Result summary for assertions.
#[derive(Debug)]
pub struct Fig21Summary {
    /// Personalized-template errors, degrees.
    pub personal_errors: Vec<f64>,
    /// Global-template errors, degrees.
    pub global_errors: Vec<f64>,
    /// Fraction of global trials with a front-back flip.
    pub global_front_back_confusion: f64,
}

/// Runs the known-source AoA trials (12 far-field angles per volunteer)
/// with each volunteer's personalized far-field HRTF and with the global
/// template.
pub fn aoa_errors(cohort: &[VolunteerRun]) -> Fig21Summary {
    let cfg = crate::cohort::eval_config();
    let global = uniq_subjects::global_template(cfg.render, &cfg.output_grid());
    let setup = MeasurementSetup::anechoic(cfg.render.sample_rate, 35.0);
    let probe = cfg.probe();

    let mut personal_errors = Vec::new();
    let mut global_errors = Vec::new();
    let mut global_fb_flips = 0usize;
    for (v, run) in cohort.iter().enumerate() {
        let renderer = run
            .subject
            .renderer(cfg.render, uniq_subjects::FORWARD_RESOLUTION);
        for k in 0..12 {
            let truth = 7.5 + k as f64 * 15.0; // 7.5°..172.5°
            let rec = record_plane_wave(
                &renderer,
                &setup,
                truth,
                &probe,
                9000 + (v * 100 + k) as u64,
            );
            let p = estimate_known_source(&rec, &probe, run.result.hrtf.far(), &cfg);
            let g = estimate_known_source(&rec, &probe, &global, &cfg);
            personal_errors.push(angle_diff_deg(p, truth));
            global_errors.push(angle_diff_deg(g, truth));
            if is_front(g) != is_front(truth) {
                global_fb_flips += 1;
            }
        }
    }
    let global_front_back_confusion = global_fb_flips as f64 / global_errors.len() as f64;
    Fig21Summary {
        personal_errors,
        global_errors,
        global_front_back_confusion,
    }
}

/// Runs the experiment.
pub fn run() -> Fig21Summary {
    println!("\n== Fig 21: known-source AoA, personalized vs global HRTF ==");
    let summary = aoa_errors(super::cohort());
    let Fig21Summary {
        personal_errors,
        global_errors,
        global_front_back_confusion: confusion,
    } = &summary;

    let dump = |name: &str, errs: &[f64]| {
        let rows: Vec<Vec<f64>> = Ecdf::new(errs)
            .curve()
            .iter()
            .map(|(x, p)| vec![*x, *p])
            .collect();
        write_csv(name, &["error_deg", "cdf"], &rows);
    };
    dump("fig21_aoa_cdf_personal", personal_errors);
    dump("fig21_aoa_cdf_global", global_errors);

    println!(
        "  personalized: median {:.1}°, max {:.1}°   (paper: 7.8°, max 60°)",
        median(personal_errors),
        uniq_dsp::stats::max(personal_errors)
    );
    println!(
        "  global:       median {:.1}°, max {:.1}°   (paper: 45.3°, max >150°)",
        median(global_errors),
        uniq_dsp::stats::max(global_errors)
    );
    println!(
        "  global front-back confusion: {:.0}% (paper: 29%)",
        confusion * 100.0
    );

    summary
}
