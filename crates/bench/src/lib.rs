//! # uniq-bench
//!
//! Experiment harness for the UNIQ reproduction: regenerates every figure
//! of the paper's evaluation (Figs 2, 5, 9, 16–22) plus the ablations
//! called out in DESIGN.md.
//!
//! Run everything:
//!
//! ```sh
//! cargo run -p uniq-bench --release --bin experiments -- all
//! ```
//!
//! Each experiment prints the paper-shaped table/series to stdout and
//! writes CSV into `bench_results/`. Criterion micro-benchmarks live in
//! `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cohort;
pub mod csv;
pub mod experiments;
pub mod ledger;

/// Output directory for CSV artifacts (relative to the workspace root).
pub const RESULTS_DIR: &str = "bench_results";

/// Build identifier stamped into result files: crate version plus the
/// debug/release flavor. Derived entirely from the binary — no git
/// invocation — so results generated from a tarball carry it too.
pub fn build_id() -> String {
    format!(
        "{}-{}",
        env!("CARGO_PKG_VERSION"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
}
