//! Integration tests for the uniq-profile layer: profiling observes the
//! real pipeline without changing a single output bit, and its report
//! covers every documented stage.

use std::sync::Arc;

use uniq_core::config::UniqConfig;
use uniq_core::pipeline::{personalize, PersonalizationResult};
use uniq_profile::ProfileSink;
use uniq_subjects::Subject;

// threads is pinned to 1: the path/self-time assertions below rely on
// every span sharing one stack. On pool workers spans root at the
// worker's own (empty) stack — cross-thread parentage is intentionally
// not stitched (see uniq-profile docs); worker attribution has its own
// coverage in the uniq-profile unit tests.
fn profile_cfg() -> UniqConfig {
    UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 10.0,
        threads: 1,
        ..UniqConfig::fast_test()
    }
}

fn assert_results_identical(a: &PersonalizationResult, b: &PersonalizationResult) {
    assert_eq!(a.radius_m, b.radius_m);
    assert_eq!(a.attempts, b.attempts);
    assert_eq!(a.localization, b.localization);
    assert_eq!(a.fusion.head.a, b.fusion.head.a);
    for (x, y) in a.hrtf.far().irs().iter().zip(b.hrtf.far().irs()) {
        assert_eq!(x.left, y.left);
        assert_eq!(x.right, y.right);
    }
    for (x, y) in a.hrtf.near().irs().iter().zip(b.hrtf.near().irs()) {
        assert_eq!(x.left, y.left);
        assert_eq!(x.right, y.right);
    }
}

#[test]
fn profiling_never_changes_the_output() {
    let cfg = profile_cfg();
    let subject = Subject::from_seed(90);

    let bare = personalize(&subject, &cfg, 46).expect("bare run succeeds");
    let profile = Arc::new(ProfileSink::new());
    let profiled = uniq_obs::with_sink(profile.clone(), || {
        personalize(&subject, &cfg, 46).expect("profiled run succeeds")
    });

    assert_results_identical(&bare, &profiled);
}

#[test]
fn profile_report_covers_the_pipeline() {
    let cfg = profile_cfg();
    let subject = Subject::from_seed(91);
    let profile = Arc::new(ProfileSink::new());
    uniq_obs::with_sink(profile.clone(), || {
        personalize(&subject, &cfg, 47).expect("pipeline succeeds")
    });
    let report = profile.report();

    // Every documented pipeline stage shows up with coherent statistics.
    for stage in uniq_obs::names::PIPELINE_STAGES {
        let s = report
            .stage(stage)
            .unwrap_or_else(|| panic!("stage {stage} missing"));
        assert!(s.count >= 1);
        assert!(s.total_nanos > 0, "{stage} total is zero");
        assert!(
            u128::from(s.min_nanos) <= s.total_nanos
                && s.p50_nanos <= s.p90_nanos
                && s.p90_nanos <= s.p99_nanos
                && s.p99_nanos <= s.max_nanos,
            "{stage} percentiles disordered: {s:?}"
        );
    }
    let root = report.stage("personalize").unwrap();
    assert_eq!(root.count, 1);
    assert_eq!(root.depth, 0);
    // One channel estimation per stop.
    assert_eq!(
        report.stage("channel.estimate").unwrap().count,
        cfg.stops as u64
    );

    // Call paths root at the personalize span, and its self time plus
    // every descendant's adds back up to its total.
    assert!(!report.paths.is_empty());
    for p in &report.paths {
        assert!(
            p.path == "personalize" || p.path.starts_with("personalize;"),
            "path {} escaped the root span",
            p.path
        );
    }
    let self_sum: u128 = report.paths.iter().map(|p| p.self_nanos).sum();
    assert_eq!(
        self_sum, root.total_nanos,
        "self times must sum to the root total"
    );

    // The exporters agree with the report.
    let table = report.render_table();
    assert!(table.contains("personalize") && table.contains("p99"));
    let json = uniq_obs::json::Json::parse(&report.to_json()).expect("profile JSON parses");
    assert_eq!(
        json.get("stages").unwrap().as_array().unwrap().len(),
        report.stages.len()
    );
    let collapsed = report.collapsed_stacks();
    assert_eq!(collapsed.lines().count(), report.paths.len());
}
