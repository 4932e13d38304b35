//! Claims gate: the paper's headline results must hold on the evaluation
//! cohort (five volunteers, in-room, 1° grid), with the paper's numbers as
//! directional bounds.
//!
//! The figures are computed by the same functions the `experiments`
//! binary prints them from; this file only states the bounds.

use std::sync::{Arc, OnceLock};
use uniq_acoustics::signals::SignalKind;
use uniq_bench::cohort::{eval_config, run_cohort, VolunteerRun};
use uniq_bench::experiments::fig22::{self, CategoryResult};
use uniq_bench::experiments::{fig17, fig18_20, fig21};
use uniq_core::config::UniqConfig;
use uniq_dsp::stats::{max, median, percentile};
use uniq_obs::names::{AOA_CANDIDATES, AOA_CANDIDATE_FALLBACKS};
use uniq_obs::sink::MemorySink;

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

/// Fig 22 on the cohort at `threads`, with the unknown-source work
/// counters it emitted: `(results, candidates scored, fallback calls)`.
fn fig22_at(threads: usize) -> (Vec<CategoryResult>, u64, u64) {
    let cfg = UniqConfig {
        threads,
        ..eval_config()
    };
    let sink = Arc::new(MemorySink::new());
    let results = uniq_obs::with_sink(sink.clone(), || fig22::category_results(cohort(), &cfg));
    (
        results,
        sink.counter_total(AOA_CANDIDATES),
        sink.counter_total(AOA_CANDIDATE_FALLBACKS),
    )
}

fn fig22_t4() -> &'static (Vec<CategoryResult>, u64, u64) {
    static RUN: OnceLock<(Vec<CategoryResult>, u64, u64)> = OnceLock::new();
    RUN.get_or_init(|| fig22_at(4))
}

#[test]
fn fig22_personalized_front_back_and_tails_within_paper_bounds() {
    let results = &fig22_t4().0;
    let (personal, global) = fig22::average_front_back(results);
    assert!(
        personal >= 0.828,
        "average personalized front-back accuracy {:.1}% < 82.8%",
        personal * 100.0
    );
    assert!(personal > global);
    for r in results {
        let label = r.kind.label();
        assert!(
            r.personal_fb > r.global_fb,
            "{label}: personalized front-back {:.1}% not above global {:.1}%",
            r.personal_fb * 100.0,
            r.global_fb * 100.0
        );
        match r.kind {
            SignalKind::Speech => assert!(
                r.personal_fb >= 0.728,
                "speech front-back accuracy {:.1}% < 72.8%",
                r.personal_fb * 100.0
            ),
            SignalKind::WhiteNoise | SignalKind::Music => {
                let p80 = percentile(&r.personal_errors, 80.0);
                assert!(
                    p80 <= 20.0,
                    "{label}: personalized 80th percentile {p80:.1}° > 20°"
                );
            }
        }
    }
}

/// The Eq. 10 work counters are a function of the inputs alone, and the
/// fallback count is pinned: a numeric change to candidate selection must
/// move it knowingly.
#[test]
fn fig22_candidate_counters_equal_across_thread_counts() {
    let (results_t1, candidates_t1, fallbacks_t1) = fig22_at(1);
    let (results_t4, candidates_t4, fallbacks_t4) = fig22_t4();
    assert_eq!(candidates_t1, *candidates_t4);
    assert_eq!(fallbacks_t1, *fallbacks_t4);
    assert_eq!(fallbacks_t1, 122, "fallback calls (of 240)");
    for (a, b) in results_t1.iter().zip(results_t4) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.personal_errors), bits(&b.personal_errors));
        assert_eq!(bits(&a.global_errors), bits(&b.global_errors));
    }
}
