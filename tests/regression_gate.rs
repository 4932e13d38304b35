//! The regression gate's test set: `uniq_bench::baseline::compare`
//! judging a fresh run document against references — the blessed
//! document, same-label run-ledger history, or both — plus the ledger
//! that stores that history (`uniq_bench::ledger`).

use uniq_bench::baseline::{compare, quality_identical, CompareReport, Reference, RunDoc};
use uniq_bench::ledger::{self, LedgerError};
use uniq_obs::json::Json;

/// The values a test varies; everything else in [`run_doc`] is fixed.
#[derive(Clone, Copy)]
struct Knobs {
    localization: f64,
    fingerprint: &'static str,
    /// Multiplies every timing.
    slowdown: f64,
    objective_evals: u64,
    counters_invariant: bool,
    alloc_bytes: u64,
    peak_live_bytes: u64,
    alloc_invariant: bool,
    serve_fingerprint: &'static str,
    cache_hits: u64,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            localization: 4.8,
            fingerprint: "0x24d4a1f1f6f69122",
            slowdown: 1.0,
            objective_evals: 108,
            counters_invariant: true,
            alloc_bytes: 4096,
            peak_live_bytes: 2048,
            alloc_invariant: true,
            serve_fingerprint: "0x78756a17d65687ea",
            cache_hits: 2,
        }
    }
}

/// A run document with every gated section, built through the one
/// schema builder.
fn run_doc(edit: impl FnOnce(&mut Knobs)) -> Json {
    let mut k = Knobs::default();
    edit(&mut k);
    let stage_ns = 1e6 * k.slowdown;
    let mut doc = RunDoc::default();
    doc.raw("meta", "seed", "6")
        .text("quality", "personalize_fingerprint", k.fingerprint)
        .raw("quality", "personalize_thread_invariant", "true")
        .num("quality", "localization_median_deg", k.localization)
        .raw("quality", "attempts", "1")
        .num("perf", "personalize_seconds_t1", k.slowdown)
        .raw(
            "perf",
            "stages",
            format!(
                r#"[{{"name": "personalize", "count": 1, "p50_ns": {stage_ns}, "p99_ns": {stage_ns}}}]"#
            ),
        )
        .raw("counters", "thread_invariant", k.counters_invariant.to_string())
        .raw(
            "counters",
            "fusion.objective_evals",
            k.objective_evals.to_string(),
        )
        .raw("alloc", "thread_invariant", k.alloc_invariant.to_string())
        .raw("alloc", "total_bytes", k.alloc_bytes.to_string())
        .raw("alloc", "peak_live_bytes", k.peak_live_bytes.to_string())
        .raw(
            "alloc",
            "stages",
            format!(
                r#"[{{"name": "personalize", "allocs": 10, "bytes": {}, "peak_live_bytes": 0}}]"#,
                k.alloc_bytes
            ),
        )
        .text("serve", "fingerprint", k.serve_fingerprint)
        .raw("serve", "cache_hits", k.cache_hits.to_string())
        .num("serve", "miss_p50_ms", 100.0 * k.slowdown);
    Json::parse(&doc.render()).expect("RunDoc renders valid JSON")
}

fn references(docs: &[Json]) -> Vec<Reference> {
    docs.iter()
        .enumerate()
        .map(|(i, doc)| Reference {
            name: format!("reference {i}"),
            doc: doc.clone(),
        })
        .collect()
}

fn judge(fresh: &Json, refs: &[Json]) -> CompareReport {
    compare(fresh, &references(refs)).expect("structurally sound documents")
}

fn stable_history(n: usize) -> Vec<Json> {
    (0..n).map(|_| run_doc(|_| {})).collect()
}

/// `doc` without `section.key`, or without the whole section when `key`
/// is `None`.
fn without(doc: &Json, section: &str, key: Option<&str>) -> Json {
    let Json::Obj(mut members) = doc.clone() else {
        unreachable!("run documents are objects")
    };
    match key {
        None => members.retain(|(name, _)| name != section),
        Some(key) => {
            for (name, body) in members.iter_mut() {
                if let (true, Json::Obj(inner)) = (name == section, body) {
                    inner.retain(|(k, _)| k != key);
                }
            }
        }
    }
    Json::Obj(members)
}

fn any(findings: &[String], needle: &str) -> bool {
    findings.iter().any(|f| f.contains(needle))
}

#[test]
fn identical_history_judges_clean_and_a_flipped_fingerprint_fails() {
    let report = judge(&run_doc(|_| {}), &stable_history(2));
    assert_eq!(report, CompareReport::default());
    assert!(report.passes(true));
    assert!(quality_identical(&run_doc(|_| {}), &run_doc(|_| {})));

    // One hex digit flipped is a determinism break, whatever else agrees.
    let flipped = run_doc(|k| k.fingerprint = "0x24d4a1f1f6f69123");
    let report = judge(&flipped, &stable_history(2));
    assert!(
        any(&report.quality_failures, "quality.personalize_fingerprint"),
        "{report:?}"
    );
    assert!(!report.passes(false));
    assert!(!quality_identical(&run_doc(|_| {}), &flipped));
}

#[test]
fn quality_drift_past_two_percent_fails_hard() {
    let history = stable_history(4);
    let drifted = run_doc(|k| k.localization = 4.8 * 1.05);
    let report = judge(&drifted, &history);
    assert!(
        any(&report.quality_failures, "quality.localization_median_deg"),
        "{report:?}"
    );
    assert!(!quality_identical(&history[0], &drifted));

    // Within-tolerance drift passes (and timing never enters the verdict).
    let report = judge(&run_doc(|k| k.localization = 4.8 * 1.01), &history);
    assert!(report.quality_failures.is_empty(), "{report:?}");
}

#[test]
fn three_times_slower_run_warns() {
    let slow = run_doc(|k| k.slowdown = 3.0);
    let report = judge(&slow, &stable_history(4));
    assert!(report.quality_failures.is_empty(), "{report:?}");
    // Wall seconds, stage p50 and p99, serve miss p50.
    assert_eq!(report.perf_warnings.len(), 4, "{report:?}");
    assert!(any(&report.perf_warnings, "perf.stages.personalize.p50_ns"));
    assert!(report.passes(false));
    assert!(!report.passes(true), "--strict promotes timing warnings");
    // Timing never breaks quality identity.
    assert!(quality_identical(&run_doc(|_| {}), &slow));
    // Against a single reference the band is PERF_TOL of that sample.
    let report = judge(&slow, &stable_history(1));
    assert_eq!(report.perf_warnings.len(), 4, "{report:?}");
}

#[test]
fn a_1_6x_run_over_stable_history_warns_never_fails() {
    // The whole-run VM slowdown that made the single-sample latency bound
    // flaky: over five stable samples it is a warning, nothing more.
    let report = judge(&run_doc(|k| k.slowdown = 1.6), &stable_history(5));
    assert!(report.quality_failures.is_empty(), "{report:?}");
    assert!(
        any(&report.perf_warnings, "perf.personalize_seconds_t1"),
        "{report:?}"
    );
    assert!(report.passes(false));
}

#[test]
fn noisy_history_widens_the_timing_band_by_its_mad() {
    // Median 1.0, MAD 0.2: the band is 4·MAD = 0.8, wider than 50%.
    let history: Vec<Json> = [1.0, 1.4, 0.7, 1.2, 0.9]
        .iter()
        .map(|&s| run_doc(|k| k.slowdown = s))
        .collect();
    let report = judge(&run_doc(|k| k.slowdown = 1.7), &history);
    assert_eq!(report, CompareReport::default());
    let report = judge(&run_doc(|k| k.slowdown = 2.0), &history);
    assert!(
        any(&report.perf_warnings, "perf.personalize_seconds_t1"),
        "{report:?}"
    );
}

#[test]
fn hard_tier_judges_every_reference() {
    // One reference that disagrees is enough, and the finding names it.
    let refs = [
        run_doc(|_| {}),
        run_doc(|_| {}),
        run_doc(|k| k.localization = 6.0),
    ];
    let report = judge(&run_doc(|_| {}), &refs);
    assert_eq!(report.quality_failures.len(), 1, "{report:?}");
    assert!(
        report.quality_failures[0].contains("reference 2"),
        "{report:?}"
    );
}

#[test]
fn missing_key_stage_and_section_fail_hard() {
    let base = run_doc(|_| {});
    let report = judge(
        &without(&base, "quality", Some("attempts")),
        std::slice::from_ref(&base),
    );
    assert!(
        any(&report.quality_failures, "quality.attempts: missing"),
        "{report:?}"
    );
    // A stage that vanished is an instrumentation regression, not a
    // timing swing.
    let report = judge(
        &without(&base, "perf", Some("stages")),
        std::slice::from_ref(&base),
    );
    assert!(
        any(&report.quality_failures, "perf.stages.personalize"),
        "{report:?}"
    );
    // A whole section is reported once.
    for section in ["alloc", "serve", "counters"] {
        let report = judge(&without(&base, section, None), std::slice::from_ref(&base));
        assert_eq!(
            report.quality_failures,
            [format!("{section}: section missing from fresh run")],
        );
    }
    // A reference without a section does not gate it.
    let report = judge(&base, &[without(&base, "alloc", None)]);
    assert_eq!(report, CompareReport::default());
}

#[test]
fn alloc_counts_are_exact_and_peak_growth_warns() {
    let base = run_doc(|_| {});
    // One byte of drift fails: the columns are bit-identical by contract.
    let report = judge(
        &run_doc(|k| k.alloc_bytes = 4097),
        std::slice::from_ref(&base),
    );
    assert!(any(&report.quality_failures, "alloc.total_bytes"));
    assert!(any(
        &report.quality_failures,
        "alloc.stages.personalize.bytes"
    ));
    // Peak growth warns; shrinking is never a finding.
    let report = judge(
        &run_doc(|k| k.peak_live_bytes = 4000),
        std::slice::from_ref(&base),
    );
    assert!(report.quality_failures.is_empty(), "{report:?}");
    assert!(any(&report.perf_warnings, "alloc.peak_live_bytes"));
    let report = judge(
        &run_doc(|k| k.peak_live_bytes = 100),
        std::slice::from_ref(&base),
    );
    assert_eq!(report, CompareReport::default());
    // A fresh run whose allocations vary with the pool size fails.
    let report = judge(&run_doc(|k| k.alloc_invariant = false), &[base]);
    assert!(any(&report.quality_failures, "alloc.thread_invariant"));
}

#[test]
fn serve_counts_are_exact_and_latency_warns() {
    let base = run_doc(|_| {});
    let report = judge(
        &run_doc(|k| k.serve_fingerprint = "0x78756a17d65687eb"),
        std::slice::from_ref(&base),
    );
    assert!(any(&report.quality_failures, "serve.fingerprint"));
    // A cache that stopped hitting is behavior drift, not a perf swing —
    // though it leaves the fingerprint identity intact.
    let cold = run_doc(|k| k.cache_hits = 0);
    assert!(any(
        &judge(&cold, std::slice::from_ref(&base)).quality_failures,
        "serve.cache_hits"
    ));
    assert!(quality_identical(&base, &cold));
}

#[test]
fn work_counters_are_exact_and_thread_invariant() {
    let base = run_doc(|_| {});
    let more = run_doc(|k| k.objective_evals = 109);
    let report = judge(&more, std::slice::from_ref(&base));
    assert!(
        any(&report.quality_failures, "counters.fusion.objective_evals"),
        "{report:?}"
    );
    assert!(!quality_identical(&base, &more));
    let varying = run_doc(|k| k.counters_invariant = false);
    let report = judge(&varying, &[base]);
    assert!(any(&report.quality_failures, "counters.thread_invariant"));
}

#[test]
fn structural_problems_are_errors() {
    let doc = run_doc(|_| {});
    assert!(compare(&doc, &[]).is_err());
    let old = Json::parse(r#"{"schema_version": 3, "quality": {}}"#).unwrap();
    let err = compare(&doc, &references(&[old])).unwrap_err();
    assert!(err.contains("reference 0"), "{err}");
}

#[test]
fn ledger_round_trips_run_documents_by_label() {
    let path = std::env::temp_dir().join(format!("uniq_gate_ledger_{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mut doc = RunDoc::default();
    doc.raw("meta", "seed", "6")
        .text("quality", "personalize_fingerprint", "0x00deadbeef")
        .num("quality", "localization_median_deg", 4.5);
    for label in ["baseline", "batch", "baseline"] {
        ledger::append(&path, label, &doc.render()).unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let entries = ledger::read(&text).unwrap();
    assert_eq!(entries.len(), 3);
    assert_eq!(
        entries.iter().map(|e| e.line).collect::<Vec<_>>(),
        [1, 2, 3]
    );
    assert_eq!(entries[1].label, "batch");
    assert_eq!(entries[0].run, Json::parse(&doc.render()).unwrap());
    let refs = ledger::references(&text, "baseline").unwrap();
    assert_eq!(refs.len(), 2);
    assert!(
        refs[1].name.starts_with("history line 3"),
        "{}",
        refs[1].name
    );
    let fresh = Json::parse(&doc.render()).unwrap();
    assert_eq!(compare(&fresh, &refs).unwrap(), CompareReport::default());
}

#[test]
fn garbled_or_unknown_schema_line_is_a_typed_error_naming_it() {
    let good = r#"{"schema":2,"label":"baseline","git_rev":"unknown","run":{"schema_version":4}}"#;
    // Blank lines are skipped; line numbers stay those of the file.
    assert_eq!(
        ledger::read(&format!("{good}\n\n{good}\n")).unwrap()[1].line,
        3
    );

    let garbled = ledger::read(&format!("{good}\nnot json at all\n")).unwrap_err();
    assert!(
        matches!(garbled, LedgerError::Garbled { line: 2, .. }),
        "{garbled:?}"
    );
    assert!(garbled.to_string().starts_with("line 2:"), "{garbled}");

    let old = r#"{"schema":1,"label":"baseline","seed":6,"quality":{}}"#;
    assert_eq!(
        ledger::read(&format!("{good}\n{good}\n{old}")).unwrap_err(),
        LedgerError::UnknownSchema { line: 3, schema: 1 }
    );

    // A record missing its run document never reads as zeros.
    for partial in [
        r#"{"schema":2,"label":"baseline","git_rev":"unknown"}"#,
        r#"{"schema":2,"label":"baseline","git_rev":"unknown","run":{}}"#,
        r#"{"label":"baseline","git_rev":"unknown","run":{"schema_version":4}}"#,
        r#"{"schema":2,"git_rev":"unknown","run":{"schema_version":4}}"#,
    ] {
        assert!(
            matches!(
                ledger::read(partial),
                Err(LedgerError::Garbled { line: 1, .. })
            ),
            "{partial}"
        );
    }
}
