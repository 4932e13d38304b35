//! Integration tests for the uniq-profile layer: profiling observes the
//! real pipeline without changing a single output bit, and its report
//! covers every documented stage.

use std::collections::HashMap;
use std::sync::Arc;

use uniq_core::config::UniqConfig;
use uniq_core::pipeline::{personalize, personalize_with_retry, PersonalizationResult};
use uniq_profile::ProfileSink;
use uniq_subjects::Subject;

fn profile_cfg(threads: usize) -> UniqConfig {
    UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 10.0,
        threads,
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
    let cfg = profile_cfg(1);
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
    let subject = Subject::from_seed(91);
    let mut path_counts = Vec::new();
    for threads in [1, 2, 4] {
        let cfg = profile_cfg(threads);
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

        // Call paths root at the personalize span, whichever thread ran
        // each span.
        assert!(!report.paths.is_empty());
        for p in &report.paths {
            assert!(
                p.path == "personalize" || p.path.starts_with("personalize;"),
                "path {} escaped the root span at pool size {threads}",
                p.path
            );
        }
        // On one thread every span closes on the root's thread, so its
        // self time plus every descendant's adds back up to its total.
        if threads == 1 {
            let self_sum: u128 = report.paths.iter().map(|p| p.self_nanos).sum();
            assert_eq!(
                self_sum, root.total_nanos,
                "self times must sum to the root total"
            );
        }

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

        let mut counts: Vec<(String, u64)> = report
            .paths
            .iter()
            .map(|p| (p.path.clone(), p.count))
            .collect();
        counts.sort();
        path_counts.push((threads, counts));
    }
    // The same call paths, each closed as often, at every pool size.
    let (_, one) = &path_counts[0];
    for (threads, counts) in &path_counts[1..] {
        assert_eq!(counts, one, "call paths at pool size {threads} vs 1");
    }
}

/// At pool size 2 a parent span's children run on at most two threads at
/// once (the waiting caller and the one worker), one at a time on each,
/// and each inside the parent's lifetime; so every call path's summed
/// wall time is at most twice its parent path's. This is structural, not
/// a timing bound: it breaks only when a thread nests spans of one stage
/// inside each other, as a waiting caller running another map's jobs
/// does. The paper's configuration has one such map per stop.
#[test]
fn call_paths_fit_inside_their_parents_at_pool_size_two() {
    let cfg = UniqConfig {
        threads: 2,
        ..UniqConfig::default()
    };
    let profile = Arc::new(ProfileSink::new());
    uniq_obs::with_sink(profile.clone(), || {
        personalize_with_retry(&Subject::from_seed(801), &cfg, 801, 3).expect("pipeline succeeds")
    });
    let report = profile.report();
    let totals: HashMap<&str, u128> = report
        .paths
        .iter()
        .map(|p| (p.path.as_str(), p.total_nanos))
        .collect();
    for p in &report.paths {
        let Some((parent, _)) = p.path.rsplit_once(';') else {
            continue;
        };
        let parent_total = totals[parent];
        assert!(
            p.total_nanos <= 2 * parent_total,
            "{} totals {} ns, over twice its parent's {parent_total} ns ({:.2}x)",
            p.path,
            p.total_nanos,
            p.total_nanos as f64 / parent_total as f64
        );
    }
}
