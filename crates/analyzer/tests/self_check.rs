//! The analyzer's own acceptance gate, as a test: the workspace it ships
//! in must analyze clean. This is the same check `scripts/ci.sh` runs
//! via the binary; having it as a test means `cargo test` alone catches
//! a regression (a new unwrap, a missing forbid attribute, a drive-by
//! inline metric name) without needing the CI script.

use uniq_analyzer::{analyze_workspace_with, to_json_report, ReportSummary, Severity};

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = analyze_workspace_with(&root, false, 0).expect("analysis runs");
    assert!(
        report.files_analyzed > 50,
        "walk found too few files — did the layout change?"
    );
    let errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "workspace must analyze clean; found:\n{}",
        errors
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn diagnostics_are_bit_identical_at_one_and_eight_threads() {
    // The analyzer holds itself to the determinism bar it enforces: the
    // whole report — findings, traces, counts — must not depend on the
    // pool width used to produce it.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let json_of = |threads: usize| {
        let report = analyze_workspace_with(&root, true, threads).expect("analysis runs");
        to_json_report(
            &report.diagnostics,
            &ReportSummary {
                files: report.files_analyzed,
                suppressions: report.suppressions,
                stale_suppressions: report.stale_suppressions,
                strict: true,
            },
        )
    };
    assert_eq!(json_of(1), json_of(8));
}

#[test]
fn scope_job_erasure_is_audited() {
    // Satellite of the analyzer PR: the raw-pointer job erasure in the
    // pool's scope must keep its SAFETY audit. The safety-comment rule
    // enforces the comment's presence; this pins the specific site so a
    // refactor cannot silently move the unsafe out from under its audit.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let scope =
        std::fs::read_to_string(root.join("crates/par/src/scope.rs")).expect("scope.rs exists");
    let safety_idx = scope.find("// SAFETY: the job is erased to 'static");
    let unsafe_idx = scope.find("let job: Job = unsafe {");
    match (safety_idx, unsafe_idx) {
        (Some(s), Some(u)) => assert!(s < u, "SAFETY comment must precede the transmute"),
        _ => panic!("scope.rs job-erasure SAFETY audit went missing"),
    }
}
