//! Claims gate: the paper's headline results must hold on the evaluation
//! cohort (five volunteers, in-room, 1° grid), with the paper's numbers as
//! directional bounds.
//!
//! The figures are computed by the same functions the `experiments`
//! binary prints them from; this file only states the bounds.

use std::sync::OnceLock;
use uniq_bench::cohort::{eval_config, run_cohort, VolunteerRun};
use uniq_bench::experiments::{fig17, fig18_20, fig21};
use uniq_dsp::stats::{max, median};

fn cohort() -> &'static [VolunteerRun] {
    static COHORT: OnceLock<Vec<VolunteerRun>> = OnceLock::new();
    COHORT.get_or_init(|| run_cohort(&eval_config()))
}

#[test]
fn fig17_phone_localization_within_paper_error() {
    let errors = fig17::localization_errors(cohort());
    assert!(!errors.is_empty());
    let (med, worst) = (median(&errors), max(&errors));
    assert!(med <= 4.8, "median localization error {med:.2}° > 4.8°");
    assert!(worst <= 20.0, "max localization error {worst:.2}° > 20°");
}

#[test]
fn fig18_personalization_gain_at_least_1_4x_on_both_ears() {
    let (left, right) = fig18_20::similarity_summary(cohort()).gain();
    assert!(left >= 1.4, "left-ear gain {left:.3}x < 1.4x");
    assert!(right >= 1.4, "right-ear gain {right:.3}x < 1.4x");
}

#[test]
fn fig19_uniq_beats_the_global_template_for_every_volunteer() {
    let cohort = cohort();
    let summary = fig18_20::similarity_summary(cohort);
    for (v, m) in summary.per_volunteer(cohort.len()).iter().enumerate() {
        assert!(
            m.uniq.0 > m.global.0 && m.uniq.1 > m.global.1,
            "volunteer {}: UNIQ {:.3}/{:.3} vs global {:.3}/{:.3}",
            v + 1,
            m.uniq.0,
            m.uniq.1,
            m.global.0,
            m.global.1
        );
    }
}

#[test]
fn fig21_personalized_aoa_within_paper_error_and_below_global() {
    let s = fig21::aoa_errors(cohort());
    let personal = median(&s.personal_errors);
    let global = median(&s.global_errors);
    assert!(
        personal <= 7.8,
        "personalized median AoA {personal:.2}° > 7.8°"
    );
    assert!(
        personal < global,
        "personalized median {personal:.2}° not below global {global:.2}°"
    );
}
