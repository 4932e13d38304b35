//! Golden fixtures for the four interprocedural rule families. Each
//! family gets a known-bad multi-file fixture that must produce exactly
//! the expected findings (with their call traces) and a clean or
//! negative counterpart that must stay silent. The fixtures live under
//! `fixtures/flow/` and are assembled into in-memory workspaces here —
//! no manifests, so call resolution is unrestricted by dependency
//! closure, which is what a self-contained fixture wants.

use uniq_analyzer::{analyze_sources, Severity, SourceSpec, WorkspaceReport};

fn spec(path: &str, crate_name: &str, text: &str) -> SourceSpec {
    SourceSpec {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        is_crate_root: false,
        text: text.to_string(),
    }
}

fn run(specs: &[SourceSpec], strict: bool) -> WorkspaceReport {
    analyze_sources(specs, strict, 1)
}

const TAINT_ENTRY: &str = include_str!("../fixtures/flow/taint_entry.rs");
const TAINT_HELPER: &str = include_str!("../fixtures/flow/taint_helper.rs");
const TAINT_BENCH: &str = include_str!("../fixtures/flow/taint_bench_entry.rs");
const PANIC_ENTRY: &str = include_str!("../fixtures/flow/panic_entry.rs");
const PANIC_HELPER: &str = include_str!("../fixtures/flow/panic_helper.rs");
const LOCK_CYCLE: &str = include_str!("../fixtures/flow/lock_cycle.rs");
const LOCK_CLEAN: &str = include_str!("../fixtures/flow/lock_clean.rs");
const HOT_ALLOC: &str = include_str!("../fixtures/flow/hot_alloc.rs");
const HOT_CLEAN: &str = include_str!("../fixtures/flow/hot_clean.rs");

#[test]
fn taint_laundered_through_utility_crate_is_flagged_at_the_entry() {
    let report = run(
        &[
            spec("crates/core/src/entry.rs", "core", TAINT_ENTRY),
            spec("crates/par/src/timing.rs", "par", TAINT_HELPER),
        ],
        false,
    );
    let diags = &report.diagnostics;
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.rule, "determinism-taint");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.file, "crates/core/src/entry.rs");
    assert_eq!(d.line, 8, "reported at the public fn definition");
    assert!(d.message.contains("estimate_with_budget"), "{}", d.message);
    // Source→sink trace: entry definition, the call hop, the clock read.
    assert_eq!(d.trace.len(), 3, "{:#?}", d.trace);
    assert!(d.trace[0].symbol.contains("estimate_with_budget"));
    assert!(d.trace[1].symbol.contains("elapsed_budget_ms"));
    assert_eq!(d.trace[2].file, "crates/par/src/timing.rs");
    assert_eq!(d.trace[2].line, 7);
    assert!(
        d.trace[2].symbol.contains("wall-clock"),
        "{}",
        d.trace[2].symbol
    );
}

#[test]
fn taint_helper_called_only_from_bench_stays_silent() {
    let report = run(
        &[
            spec("crates/bench/src/run.rs", "bench", TAINT_BENCH),
            spec("crates/par/src/timing.rs", "par", TAINT_HELPER),
        ],
        false,
    );
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn panic_site_reachable_from_result_entry_is_flagged_at_the_site() {
    let report = run(
        &[
            spec("crates/core/src/stats.rs", "core", PANIC_ENTRY),
            spec("crates/par/src/qhelper.rs", "par", PANIC_HELPER),
        ],
        false,
    );
    let diags = &report.diagnostics;
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.rule, "panic-reachability");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.file, "crates/par/src/qhelper.rs");
    assert_eq!(d.line, 8, "reported at the unwrap, not the entry");
    assert!(d.message.contains("first_or_die"), "{}", d.message);
    assert!(d.message.contains("summarize"), "{}", d.message);
    // `orphan_unwrap` has a panic site too; no entry reaches it, so the
    // single finding above is the whole report.
    assert!(d.trace.iter().any(|s| s.symbol.contains("summarize")));
}

#[test]
fn lock_cycle_and_pool_boundary_are_flagged() {
    let report = run(
        &[spec("crates/profile/src/locks.rs", "profile", LOCK_CYCLE)],
        false,
    );
    let diags = &report.diagnostics;
    assert_eq!(diags.len(), 3, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == "lock-order"));
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    let cycle_lines: Vec<u32> = diags
        .iter()
        .filter(|d| d.message.contains("cycle"))
        .map(|d| d.line)
        .collect();
    assert_eq!(cycle_lines, vec![15, 23], "one witness per direction");
    let pool = diags
        .iter()
        .find(|d| d.message.contains("pool boundary"))
        .expect("pool-boundary finding");
    assert_eq!(pool.line, 31);
    assert!(pool.message.contains("profile.alpha"), "{}", pool.message);
}

#[test]
fn consistent_lock_order_with_early_release_is_quiet() {
    let report = run(
        &[spec("crates/profile/src/locks.rs", "profile", LOCK_CLEAN)],
        false,
    );
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn hot_span_allocations_flag_seed_and_reachable_leaf() {
    let report = run(&[spec("crates/core/src/hot.rs", "core", HOT_ALLOC)], false);
    let diags = &report.diagnostics;
    assert_eq!(diags.len(), 2, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == "hot-path-alloc"));
    // The seed: its pre-span Vec::new is setup, the in-span push is not.
    assert_eq!(diags[0].line, 10, "{:#?}", diags[0]);
    assert!(diags[0].message.contains("fuse"), "{}", diags[0].message);
    assert!(diags[0]
        .trace
        .iter()
        .any(|s| s.symbol.contains("SPAN_FUSION")));
    // The leaf, two hops down; `shape` between them allocates nothing
    // and is not reported.
    assert_eq!(diags[1].line, 22, "{:#?}", diags[1]);
    assert!(
        diags[1].message.contains("scratch_mean"),
        "{}",
        diags[1].message
    );
}

#[test]
fn pre_sized_buffers_outside_the_span_are_quiet() {
    let report = run(&[spec("crates/core/src/hot.rs", "core", HOT_CLEAN)], false);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn unmatched_suppression_is_stale_warning_then_strict_error() {
    let src = "\
//! A justified, well-formed allow that silences nothing.

/// Adds one.
pub fn add_one(x: u32) -> u32 {
    // uniq-analyzer: allow(wall-clock) — left over from a removed timing probe
    x + 1
}
";
    let specs = [spec("crates/core/src/tidy.rs", "core", src)];
    let report = run(&specs, false);
    assert_eq!(report.suppressions, 1);
    assert_eq!(report.stale_suppressions, 1);
    assert_eq!(report.diagnostics.len(), 1, "{:#?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, "stale-suppression");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.line, 5);

    let strict = run(&specs, true);
    assert_eq!(strict.diagnostics[0].severity, Severity::Error);
}

#[test]
fn suppression_at_the_taint_source_clears_the_whole_path() {
    let helper_suppressed = TAINT_HELPER.replace(
        "    let t0 = std::time::Instant::now();",
        "    // uniq-analyzer: allow(determinism-taint) — budget probe; callers treat it as advisory\n    let t0 = std::time::Instant::now();",
    );
    let report = run(
        &[
            spec("crates/core/src/entry.rs", "core", TAINT_ENTRY),
            spec("crates/par/src/timing.rs", "par", &helper_suppressed),
        ],
        false,
    );
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.suppressions, 1);
    assert_eq!(report.stale_suppressions, 0, "the allow is consumed");
}
