//! Fig 17 — phone localization accuracy: estimated vs ground-truth polar
//! angle and the error CDF (paper: median 4.8°, rare tails to ~15–20°).

use crate::cohort::VolunteerRun;
use crate::csv::write_csv;
use uniq_dsp::stats::{max, median, Ecdf};
use uniq_geometry::vec2::angle_diff_deg;

/// Angular localization error (degrees) of every measurement stop of every
/// volunteer, in cohort order.
pub fn localization_errors(cohort: &[VolunteerRun]) -> Vec<f64> {
    cohort
        .iter()
        .flat_map(|run| &run.result.localization)
        .map(|(truth, est)| angle_diff_deg(*truth, *est))
        .collect()
}

/// Runs the experiment; returns all angular errors (degrees).
pub fn run() -> Vec<f64> {
    println!("\n== Fig 17: phone localization accuracy ==");
    let cohort = super::cohort();

    let scatter_rows: Vec<Vec<f64>> = cohort
        .iter()
        .enumerate()
        .flat_map(|(v, run)| {
            run.result
                .localization
                .iter()
                .map(move |(truth, est)| vec![v as f64 + 1.0, *truth, *est])
        })
        .collect();
    write_csv(
        "fig17a_localization_scatter",
        &["volunteer", "truth_deg", "estimated_deg"],
        &scatter_rows,
    );

    let errors = localization_errors(cohort);
    let ecdf = Ecdf::new(&errors);
    let cdf_rows: Vec<Vec<f64>> = ecdf.curve().iter().map(|(x, p)| vec![*x, *p]).collect();
    write_csv("fig17b_localization_cdf", &["error_deg", "cdf"], &cdf_rows);

    println!(
        "  {} measurements: median {:.1}°, 90th pct {:.1}°, max {:.1}° (paper: median 4.8°)",
        errors.len(),
        median(&errors),
        uniq_dsp::stats::percentile(&errors, 90.0),
        max(&errors)
    );
    errors
}
