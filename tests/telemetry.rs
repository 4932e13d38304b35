//! Integration tests for the telemetry plane: the registry's
//! (`uniq_profile::ProfileSink`) sharded aggregate is
//! thread-count-invariant, its self-overhead stays bounded, and causal
//! traces round-trip through the JSONL sink into a complete tree. The
//! run ledger's gate is tested in `tests/regression_gate.rs`.

use std::sync::{Arc, Mutex, MutexGuard};

use uniq_core::batch::personalize_batch;
use uniq_core::config::UniqConfig;
use uniq_core::pipeline::personalize;
use uniq_obs::names::OBS_TELEMETRY_OVERHEAD_NS;
use uniq_obs::sink::MultiSink;
use uniq_profile::trace::parse_trace;
use uniq_profile::ProfileSink;
use uniq_subjects::Subject;

/// Runs this file's tests one at a time: `cargo test` runs them
/// concurrently, and the overhead bound compares wall-clock spans that
/// siblings running at 4 and 8 threads would slow unevenly.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a failed sibling's poison does not fail the rest.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn cfg_with(threads: usize) -> UniqConfig {
    UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 15.0,
        threads,
        ..UniqConfig::fast_test()
    }
}

#[test]
fn registry_deterministic_across_thread_counts() {
    let _serial = serial();
    // The sharded sink assigns events to per-worker shards, so shard
    // contents differ between thread counts — but the aggregated
    // registry's determinism key (counter totals, span counts, metric
    // counts and extremes) must not.
    let record = |threads: usize| {
        let sink = Arc::new(ProfileSink::new());
        uniq_obs::with_sink(sink.clone(), || {
            personalize_batch(&[70u64, 71, 72, 73], &cfg_with(threads), threads, 2);
        });
        sink.report()
    };
    let snap1 = record(1);
    let snap8 = record(8);
    assert_eq!(
        snap1.determinism_key(),
        snap8.determinism_key(),
        "aggregated registry diverged between 1 and 8 threads"
    );
    assert_eq!(snap1.dropped, 0, "registered-only workload dropped events");
}

#[test]
fn overhead_metric_emitted_and_bounded() {
    let _serial = serial();
    let subject = Subject::from_seed(6);
    let sink = Arc::new(ProfileSink::new());
    uniq_obs::with_sink(sink.clone(), || {
        personalize(&subject, &cfg_with(1), 6).expect("pipeline succeeds")
    });
    let report = sink.report();

    let overhead = report
        .metric(OBS_TELEMETRY_OVERHEAD_NS)
        .expect("overhead metric present in the report");
    assert_eq!(overhead.count, 1);
    assert_eq!(report.overhead_ns as f64, overhead.sum);

    // The acceptance bound: recording overhead — aggregation and call-path
    // reconstruction together — under 5% of the seed-6 personalize wall
    // time (the root span's recorded duration).
    let personalize_ns = report
        .stage("personalize")
        .expect("personalize span recorded")
        .total_nanos;
    assert!(personalize_ns > 0);
    assert!(!report.paths.is_empty(), "no call paths reconstructed");
    assert!(
        u128::from(report.overhead_ns) < personalize_ns / 20,
        "registry overhead {} ns exceeds 5% of personalize {} ns",
        report.overhead_ns,
        personalize_ns
    );
}

#[test]
fn trace_round_trips_through_jsonl_sink() {
    let _serial = serial();
    let path =
        std::env::temp_dir().join(format!("uniq_telemetry_trace_{}.jsonl", std::process::id()));
    let profile = Arc::new(ProfileSink::new());
    {
        let trace_file =
            Arc::new(uniq_obs::sink::JsonLinesSink::create(&path).expect("create trace file"));
        let both = Arc::new(MultiSink::new(vec![trace_file, profile.clone()]));
        uniq_obs::with_sink(both, || {
            let subject = Subject::from_seed(6);
            personalize(&subject, &cfg_with(4), 6).expect("pipeline succeeds")
        });
    } // buffered sink flushes on drop

    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let tree = parse_trace(&text).expect("trace parses");
    std::fs::remove_file(&path).ok();

    // Complete reconstruction: every span links into the tree.
    assert!(
        tree.orphans.is_empty(),
        "orphaned spans: {:?}",
        tree.orphans
    );
    assert_eq!(tree.trace_ids.len(), 1, "one run, one trace id");
    let root_names: Vec<&str> = tree
        .roots
        .iter()
        .map(|&i| tree.nodes[i].name.as_str())
        .collect();
    assert_eq!(root_names, ["personalize"]);

    // The critical path starts at the root and descends.
    let path_names: Vec<String> = tree
        .critical_path()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(path_names.first().map(String::as_str), Some("personalize"));
    assert!(path_names.len() >= 2, "critical path has no children");

    // Every pipeline stage shows up in the self-time table and report.
    let self_times = tree.self_times();
    let report = tree.render_report();
    for stage in uniq_obs::names::PIPELINE_STAGES {
        assert!(self_times.contains_key(*stage), "stage {stage} missing");
        assert!(report.contains(stage), "report lacks stage {stage}");
    }
    assert!(report.contains("critical path:"), "{report}");
    assert!(!report.contains("orphaned"), "{report}");

    // Self time comes from the file, measured once per span: a span's
    // time counts under its own name, not again inside its parent's,
    // whichever thread ran either. So the file's self times are
    // exactly the registry's per-thread busy times, and each thread's sum
    // to at most the root total: exactly to it on the root's thread.
    let root_total = self_times["personalize"].1;
    let file_self: u128 = self_times.values().map(|&(_, _, self_ns)| self_ns).sum();
    let registry = profile.report();
    assert_eq!(registry.dropped, 0);
    let busy: u128 = registry.threads.iter().map(|t| t.busy_nanos).sum();
    assert_eq!(
        file_self, busy,
        "trace self times {self_times:?} vs registry threads {:?}",
        registry.threads
    );
    for t in &registry.threads {
        if t.thread == "main" {
            assert_eq!(t.busy_nanos, root_total, "main busy vs the root total");
        } else {
            assert!(
                t.busy_nanos <= root_total,
                "{} busy {} ns exceeds the root total {root_total} ns",
                t.thread,
                t.busy_nanos
            );
        }
    }
}

#[test]
fn prometheus_exposition_covers_the_pipeline() {
    let _serial = serial();
    let sink = Arc::new(ProfileSink::new());
    uniq_obs::with_sink(sink.clone(), || {
        let subject = Subject::from_seed(6);
        personalize(&subject, &cfg_with(1), 6).expect("pipeline succeeds")
    });
    let text = sink.report().prometheus();
    assert!(text.contains("uniq_personalize_ns_count 1"), "{text}");
    assert!(
        text.contains("uniq_fusion_objective{quantile=\"0\"}"),
        "{text}"
    );
    assert!(text.contains("uniq_fusion_ns"), "{text}");
    assert!(text.contains("uniq_obs_telemetry_overhead_ns"), "{text}");
    assert!(text.contains("uniq_telemetry_dropped_events 0"), "{text}");
}
