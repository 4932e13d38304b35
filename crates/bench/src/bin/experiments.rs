//! Regenerates every figure of the paper's evaluation plus the ablations.
//!
//! ```sh
//! cargo run -p uniq-bench --release --bin experiments -- all
//! cargo run -p uniq-bench --release --bin experiments -- fig17 fig18
//! ```
//!
//! Each run also writes `bench_results/timings.json` with the wall time of
//! every executed target.

use uniq_bench::experiments::*;
use uniq_bench::timings::{TimingLog, TimingMeta};

/// Installed so the `alloc-profile` experiment can attribute allocations;
/// recording stays off for every other target.
#[global_allocator]
static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "fig2",
            "fig5",
            "fig9",
            "fig16",
            "fig17",
            "fig18",
            "fig21",
            "fig22",
            "ablations",
            "extensions",
            "batch",
            "robustness",
            "alloc-profile",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };

    println!("UNIQ evaluation reproduction — results land in bench_results/");
    // Cohort seeds start at 5000 (see cohort::run_cohort).
    let mut timings = TimingLog::new(TimingMeta::current(5000));
    for t in targets {
        match t {
            "fig2" => {
                timings.time("fig2", fig2::run);
            }
            "fig5" => {
                timings.time("fig5", fig5::run);
            }
            "fig9" => {
                timings.time("fig9", fig9::run);
            }
            "fig16" => {
                timings.time("fig16", fig16::run);
            }
            "fig17" => {
                timings.time("fig17", fig17::run);
            }
            // Figs 18, 19 and 20 share one computation.
            "fig18" | "fig19" | "fig20" => {
                timings.time(t, fig18_20::run);
            }
            "fig21" => {
                timings.time("fig21", fig21::run);
            }
            "fig22" => {
                timings.time("fig22", fig22::run);
            }
            "batch" => {
                timings.time("batch", batch_scaling::run);
            }
            "alloc-profile" => {
                timings.time("alloc-profile", || {
                    alloc_profile::run();
                });
            }
            "store" => {
                timings.time("store", store_scaling::run);
            }
            "serve" => {
                timings.time("serve", || {
                    serve_scaling::run();
                });
            }
            "robustness" => {
                timings.time("robustness", || {
                    robustness::run();
                });
            }
            "extensions" => {
                timings.time("extensions", || {
                    extensions::elevation_itd();
                    extensions::spherical_localization();
                    extensions::externalization_proxy();
                });
            }
            "ablations" => {
                timings.time("ablations", || {
                    ablations::fusion_ablation();
                    ablations::head_model_ablation();
                    ablations::room_gating_ablation();
                    ablations::interpolation_ablation();
                    ablations::nearfar_ablation();
                    ablations::stops_sweep();
                    ablations::robustness_sweep();
                    ablations::beamforming_analysis();
                });
            }
            other => eprintln!("unknown experiment '{other}' — see DESIGN.md for the list"),
        }
    }
    timings.write();

    println!("\ntimings:");
    for (name, secs) in timings.entries() {
        println!("  {name:<12} {secs:.2}s");
    }
    println!("\ndone.");
}
