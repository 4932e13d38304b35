//! Golden fixtures for the four interprocedural rule families and
//! `dead-pub`. Each family gets a known-bad multi-file fixture that must
//! produce exactly the expected findings (with their call traces) and a
//! clean or negative counterpart that must stay silent. The flow
//! fixtures live under `fixtures/flow/` and are assembled into in-memory
//! workspaces here — no manifests, so call resolution is unrestricted by
//! dependency closure, which is what a self-contained fixture wants.
//! They model workspace fragments whose callers live elsewhere, so
//! [`run`] leaves out `dead-pub`; the `dead-pub` fixtures use
//! [`dead_pub_findings`].

use uniq_analyzer::{analyze_sources_with_deps, Severity, SourceSpec, WorkspaceReport};

fn spec(path: &str, crate_name: &str, text: &str) -> SourceSpec {
    SourceSpec {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        is_crate_root: false,
        text: text.to_string(),
    }
}

/// Analyzes `specs`, dropping `dead-pub` findings: the flow fixtures'
/// entry points have their callers outside the fixture.
fn run(specs: &[SourceSpec], strict: bool) -> WorkspaceReport {
    let mut report = analyze_sources_with_deps(specs, strict, 1, None);
    report.diagnostics.retain(|d| d.rule != "dead-pub");
    report
}

/// The `dead-pub` findings of `specs` as `(file, line, message)`.
fn dead_pub_findings(specs: &[SourceSpec]) -> Vec<(String, u32, String)> {
    analyze_sources_with_deps(specs, false, 1, None)
        .diagnostics
        .into_iter()
        .filter(|d| d.rule == "dead-pub")
        .inspect(|d| assert_eq!(d.severity, Severity::Warning))
        .map(|d| (d.file, d.line, d.message))
        .collect()
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

/// A `;` inside an array return type is not the end of a signature: the
/// entry's body, and the call edge in it, are still seen.
#[test]
fn entry_returning_an_array_still_reaches_its_callee() {
    let entry = "/// Two ears.\npub fn both_ears(xs: &[f64]) -> [Vec<f64>; 2] {\n    [vec![first_or_die(xs)], Vec::new()]\n}\n";
    let report = run(
        &[
            spec("crates/core/src/ears.rs", "core", entry),
            spec("crates/par/src/qhelper.rs", "par", PANIC_HELPER),
        ],
        false,
    );
    let diags = &report.diagnostics;
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, "panic-reachability");
    assert_eq!(diags[0].line, 8);
    assert!(
        diags[0].message.contains("both_ears"),
        "{}",
        diags[0].message
    );
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

#[test]
fn dead_pub_reports_a_fn_only_its_own_tests_use() {
    let src = "\
//! Statistics.

/// Used only by this file's tests.
pub fn std_dev(xs: &[f64]) -> f64 {
    xs.len() as f64
}

/// Used by a private caller.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>()
}

fn summary(xs: &[f64]) -> f64 {
    mean(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_dev_counts() {
        assert_eq!(std_dev(&[1.0]), summary(&[1.0]));
    }
}
";
    let found = dead_pub_findings(&[spec("crates/dsp/src/stats.rs", "dsp", src)]);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(found[0].0, "crates/dsp/src/stats.rs");
    assert_eq!(found[0].1, 4);
    assert!(found[0].2.contains("dsp::stats::std_dev"), "{}", found[0].2);
}

#[test]
fn dead_pub_reads_integration_tests_and_the_benchmark_without_linting_them() {
    let lib = "\
/// Called from tests/.
pub fn from_tests() {}

/// Called from the benchmark package.
pub fn from_bench() {}

/// Called from another file's unit tests.
pub fn from_unit_tests() {}
";
    let other = "\
fn private() {}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        super::private();
        uniq_core::api::from_unit_tests();
    }
}
";
    let specs = [
        spec("crates/core/src/api.rs", "core", lib),
        spec("crates/core/src/other.rs", "core", other),
        spec(
            "tests/flow.rs",
            "",
            "pub fn helper() {}\n#[test]\nfn t() { uniq_core::api::from_tests(); }\n",
        ),
        spec(
            "examples/benchmark/src/main.rs",
            "",
            "fn main() { uniq_core::api::from_bench(); let x: Option<u8> = None; x.unwrap(); }\n",
        ),
    ];
    let report = analyze_sources_with_deps(&specs, false, 1, None);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.files_analyzed, 2, "reference files are not linted");
}

#[test]
fn dead_pub_does_not_count_a_crates_own_integration_tests() {
    let lib = "\
/// Used only by this crate's integration tests.
pub fn grid_search() {}

/// Used by another crate's integration tests.
pub fn nelder_mead() {}
";
    let specs = [
        spec("crates/optim/src/lib.rs", "optim", lib),
        spec(
            "crates/optim/tests/proptests.rs",
            "",
            "#[test]\nfn t() { uniq_optim::grid_search(); }\n",
        ),
        spec(
            "crates/core/tests/fit.rs",
            "",
            "#[test]\nfn t() { uniq_optim::nelder_mead(); }\n",
        ),
    ];
    let found = dead_pub_findings(&specs);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(found[0].0, "crates/optim/src/lib.rs");
    assert_eq!(found[0].1, 2);
    assert!(found[0].2.contains("optim::grid_search"), "{}", found[0].2);
}

#[test]
fn dead_pub_counts_fn_pointer_paths_and_format_captures() {
    let report = "\
/// A report.
pub struct Report;

impl Report {
    /// Renders it.
    pub fn to_json(&self) -> String {
        String::new()
    }
}

/// Named by an inline format capture.
pub const SCHEMA_VERSION: u32 = 4;

/// Only inside an escaped brace pair, which is not a capture.
pub const NOT_A_CAPTURE: u32 = 5;
";
    let commands = "\
fn render(r: Option<&Report>) -> Option<String> {
    r.map(Report::to_json)
}

fn header() -> String {
    format!(\"{{\\\"schema\\\":{SCHEMA_VERSION}}} {{NOT_A_CAPTURE}}\")
}
";
    let found = dead_pub_findings(&[
        spec("crates/cli/src/report.rs", "cli", report),
        spec("crates/cli/src/commands.rs", "cli", commands),
    ]);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(found[0].1, 15);
    assert!(found[0].2.contains("NOT_A_CAPTURE"), "{}", found[0].2);
}

#[test]
fn dead_pub_follows_references_from_dead_items_to_a_fixpoint() {
    let src = "\
/// Used only by `scaled`, which nothing uses.
pub const SCALE: f64 = 2.0;

/// Dead.
pub fn scaled(x: f64) -> f64 {
    x * SCALE
}

/// Used only by `shifted`, which a private fn uses.
pub const OFFSET: f64 = 1.0;

/// Live.
pub fn shifted(x: f64) -> f64 {
    x + OFFSET
}

fn private(x: f64) -> f64 {
    shifted(x)
}
";
    let found = dead_pub_findings(&[spec("crates/core/src/scale.rs", "core", src)]);
    let lines: Vec<u32> = found.iter().map(|f| f.1).collect();
    assert_eq!(lines, vec![2, 5], "{found:#?}");
}

#[test]
fn dead_pub_ignores_own_impl_blocks_re_exports_and_mod_declarations() {
    let lib = "\
pub mod window;
pub use window::{hann, Histogram};

fn private() {
    Grid::with_bins(3);
}

struct Grid;

impl Grid {
    fn with_bins(_bins: usize) {}
}
";
    let window = "\
/// Named only in a `pub use`.
pub fn hann() {}

/// Named only inside its own impl block; `with_bins` itself is live by
/// name (the private `Grid::with_bins` call).
pub struct Histogram {
    bins: usize,
}

impl Histogram {
    /// Builds one.
    pub fn with_bins(bins: usize) -> Histogram {
        Histogram { bins }
    }
}
";
    let found = dead_pub_findings(&[
        spec("crates/core/src/lib.rs", "core", lib),
        spec("crates/core/src/window.rs", "core", window),
    ]);
    let names: Vec<&str> = found
        .iter()
        .map(|f| f.2.split('`').nth(1).unwrap_or(""))
        .collect();
    assert_eq!(
        names,
        vec!["core::window::hann", "core::window::Histogram"],
        "{found:#?}"
    );
}

#[test]
fn dead_pub_allow_is_honoured_and_stale_when_it_silences_nothing() {
    let src = "\
// uniq-analyzer: allow(dead-pub) — an external tool reads this list by name
pub const TOOL_LIST: &[&str] = &[];

// uniq-analyzer: allow(dead-pub) — left over; the const below has a user
pub const USED: u32 = 1;

fn reader() -> u32 {
    USED
}
";
    let report = analyze_sources_with_deps(
        &[spec("crates/obs/src/names.rs", "obs", src)],
        false,
        1,
        None,
    );
    assert_eq!(report.suppressions, 2);
    assert_eq!(report.stale_suppressions, 1);
    assert_eq!(report.diagnostics.len(), 1, "{:#?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, "stale-suppression");
    assert_eq!(d.line, 4);
}
