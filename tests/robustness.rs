//! Robustness conformance: the graceful-degradation contract.
//!
//! 1. The empty fault plan is a guaranteed no-op — `personalize_faulted`
//!    must produce bit-identical output to `personalize`, which is the
//!    same path with no hook and the clean policy.
//! 2. Every fault class at its default (preset) intensity must degrade
//!    gracefully: `personalize` completes `Ok` and the degradation report
//!    records what happened.
//! 3. Faulted runs are deterministic: re-running the same plan yields the
//!    same bits and the same report.
//! 4. A faulted run emits only registered observability names.

use std::sync::Arc;
use uniq_core::config::UniqConfig;
use uniq_core::degrade::DegradationPolicy;
use uniq_core::pipeline::{personalize, personalize_faulted, FaultedPersonalization};
use uniq_core::PersonalHrtf;
use uniq_faults::{class, FaultPlan};
use uniq_obs::sink::MemorySink;
use uniq_obs::Event;
use uniq_subjects::Subject;

fn cfg() -> UniqConfig {
    UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 15.0,
        ..UniqConfig::fast_test()
    }
}

fn assert_hrtfs_bit_identical(a: &PersonalHrtf, b: &PersonalHrtf, what: &str) {
    for (x, y) in a.far().irs().iter().zip(b.far().irs()) {
        assert_eq!(x.left, y.left, "{what}: far-field left IRs differ");
        assert_eq!(x.right, y.right, "{what}: far-field right IRs differ");
    }
    for (x, y) in a.near().irs().iter().zip(b.near().irs()) {
        assert_eq!(x.left, y.left, "{what}: near-field left IRs differ");
        assert_eq!(x.right, y.right, "{what}: near-field right IRs differ");
    }
}

fn run_faulted(plan: &FaultPlan, seed: u64) -> FaultedPersonalization {
    personalize_faulted(
        &Subject::from_seed(seed),
        &cfg(),
        seed,
        plan,
        &DegradationPolicy::default(),
    )
    .expect("faulted personalization completes")
}

#[test]
fn empty_plan_is_bit_identical_to_the_clean_pipeline() {
    // The fast anechoic config and the paper's (in-room, 35 dB, 19 stops),
    // the latter on a 2-thread pool.
    let paper = UniqConfig {
        threads: 2,
        ..UniqConfig::default()
    };
    for (what, cfg) in [("fast config", cfg()), ("paper config", paper)] {
        let seed = 6u64;
        let subject = Subject::from_seed(seed);
        let clean = personalize(&subject, &cfg, seed).expect("clean run");
        let faulted = personalize_faulted(
            &subject,
            &cfg,
            seed,
            &FaultPlan::empty(),
            &DegradationPolicy::default(),
        )
        .expect("faulted personalization completes");

        assert!(
            faulted.degradation.is_clean(),
            "{what}: empty plan must read clean"
        );
        assert_eq!(faulted.degradation.stops_dropped, 0, "{what}");
        assert_eq!(faulted.degradation.retries, 0, "{what}");
        assert!(faulted.degradation.fault_classes.is_empty(), "{what}");

        assert_eq!(
            clean.fusion.head.a.to_bits(),
            faulted.result.fusion.head.a.to_bits(),
            "{what}: fitted head diverged under an empty plan"
        );
        assert_eq!(clean.localization, faulted.result.localization, "{what}");
        assert_eq!(
            clean.radius_m.to_bits(),
            faulted.result.radius_m.to_bits(),
            "{what}"
        );
        assert_hrtfs_bit_identical(&clean.hrtf, &faulted.result.hrtf, what);
    }
}

#[test]
fn vanishing_snr_collapse_completes() {
    // 10^(7000/20) overflows: the burst's noise amplitude is zero, so the
    // stop is untouched rather than a panic in the noise draw.
    let plan = FaultPlan::parse("snr:7000@2", 6).expect("plan parses");
    let report = run_faulted(&plan, 6).degradation;
    assert_eq!(report.stops_dropped, 0);
    assert_eq!(report.fault_classes, vec![class::SNR]);
}

#[test]
fn every_fault_class_degrades_gracefully() {
    let seed = 6u64;
    let stops = cfg().stops;
    for &label in class::ALL {
        let plan = FaultPlan::preset(label, seed).expect("every class has a preset");
        let faulted = run_faulted(&plan, seed);
        let report = &faulted.degradation;
        assert!(
            !report.fault_classes.is_empty(),
            "{label}: report must record the injected fault"
        );
        assert!(
            report.fault_classes.contains(&label),
            "{label}: missing from recorded classes {:?}",
            report.fault_classes
        );
        assert!(
            report.stops_used >= 4,
            "{label}: only {} stops survived",
            report.stops_used
        );
        assert_eq!(
            report.stops_used + report.stops_dropped,
            stops,
            "{label}: stop accounting broken"
        );
        assert!(
            !faulted.result.hrtf.far().is_empty(),
            "{label}: empty far-field bank"
        );
    }
}

#[test]
fn dropped_chirp_costs_exactly_one_stop() {
    let seed = 6u64;
    let plan = FaultPlan::preset(class::DROP, seed).expect("drop preset");
    let report = run_faulted(&plan, seed).degradation;
    assert_eq!(report.stops_dropped, 1, "one dropped chirp, one lost stop");
    assert_eq!(report.stops_used, cfg().stops - 1);
    // The retry policy spent its extra capture on the dead stop before
    // giving up (persistent faults survive retries).
    assert!(report.retries >= 1, "retry should have been attempted");
    let dropped: Vec<_> = report.stops.iter().filter(|s| !s.used).collect();
    assert_eq!(dropped.len(), 1);
    assert_eq!(dropped[0].stop, 2, "preset targets stop 2");
    assert_eq!(dropped[0].faults, vec![class::DROP]);
}

#[test]
fn transient_faults_heal_through_retry() {
    let seed = 6u64;
    // Same drop, but transient: the retry capture is clean, so no stop is
    // lost and the report shows the heal.
    let plan = FaultPlan::parse("drop@2~", seed).expect("plan parses");
    let report = run_faulted(&plan, seed).degradation;
    assert_eq!(report.stops_dropped, 0, "transient fault must heal");
    assert_eq!(report.stops_used, cfg().stops);
    assert!(report.retries >= 1, "healing takes a retry");
    let healed = report.stops.iter().find(|s| s.stop == 2).expect("stop 2");
    assert!(healed.used);
    assert_eq!(healed.attempts, 2);
}

#[test]
fn faulted_runs_are_deterministic() {
    let seed = 6u64;
    let plan = FaultPlan::parse("snr:-9@4,clip:0.5,jitter:0.03", 17).expect("plan parses");
    let a = run_faulted(&plan, seed);
    let b = run_faulted(&plan, seed);
    assert_eq!(a.degradation, b.degradation, "reports diverged across runs");
    assert_hrtfs_bit_identical(&a.result.hrtf, &b.result.hrtf, "repeat run");

    // A different session seed still completes, with its own bits.
    let other = personalize_faulted(
        &Subject::from_seed(seed + 1),
        &cfg(),
        seed + 1,
        &plan,
        &DegradationPolicy::default(),
    )
    .expect("other subject completes");
    assert!(other.degradation.stops_used >= 4);
}

#[test]
fn faulted_run_emits_only_registered_names() {
    let seed = 6u64;
    let plan = FaultPlan::preset(class::SNR, seed).expect("snr preset");
    let sink = Arc::new(MemorySink::new());
    uniq_obs::with_sink(sink.clone(), || run_faulted(&plan, seed));
    let events = sink.events();
    assert!(!events.is_empty(), "faulted run emitted nothing");
    let mut saw_faults_span = false;
    for e in &events {
        match e {
            Event::Metric { name, .. } | Event::Counter { name, .. } => {
                assert!(
                    uniq_obs::names::ALL_METRICS.contains(name),
                    "unregistered metric/counter {name:?}"
                );
            }
            Event::SpanStart { name, .. } => {
                assert!(
                    uniq_obs::names::ALL_SPANS.contains(name),
                    "unregistered span {name:?}"
                );
                saw_faults_span |= *name == uniq_obs::names::SPAN_FAULTS;
            }
            Event::SpanEnd { .. } => {}
        }
    }
    assert!(saw_faults_span, "faulted run must open the faults span");
}
