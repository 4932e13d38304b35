//! Regenerates every figure of the paper's evaluation plus the ablations.
//!
//! ```sh
//! cargo run -p uniq-bench --release --bin experiments -- all
//! cargo run -p uniq-bench --release --bin experiments -- fig17 fig18
//! ```
//!
//! Each run ends by printing the wall time of every executed target.

use std::time::Instant;
use uniq_bench::experiments::*;

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
    let mut timings: Vec<(&str, f64)> = Vec::new();
    for t in targets {
        let start = Instant::now();
        match t {
            "fig2" => {
                fig2::run();
            }
            "fig5" => {
                fig5::run();
            }
            "fig9" => {
                fig9::run();
            }
            "fig16" => {
                fig16::run();
            }
            "fig17" => {
                fig17::run();
            }
            // Figs 18, 19 and 20 share one computation.
            "fig18" | "fig19" | "fig20" => {
                fig18_20::run();
            }
            "fig21" => {
                fig21::run();
            }
            "fig22" => {
                fig22::run();
            }
            "batch" => {
                batch_scaling::run();
            }
            "alloc-profile" => {
                alloc_profile::run();
            }
            "store" => {
                store_scaling::run();
            }
            "serve" => {
                serve_scaling::run();
            }
            "robustness" => {
                robustness::run();
            }
            "extensions" => {
                extensions::elevation_itd();
                extensions::spherical_localization();
                extensions::externalization_proxy();
            }
            "ablations" => {
                ablations::fusion_ablation();
                ablations::head_model_ablation();
                ablations::room_gating_ablation();
                ablations::interpolation_ablation();
                ablations::nearfar_ablation();
                ablations::stops_sweep();
                ablations::robustness_sweep();
                ablations::beamforming_analysis();
            }
            other => {
                eprintln!("unknown experiment '{other}' — see DESIGN.md for the list");
                continue;
            }
        }
        timings.push((t, start.elapsed().as_secs_f64()));
    }

    println!("\ntimings:");
    for (name, secs) in timings {
        println!("  {name:<12} {secs:.2}s");
    }
    println!("\ndone.");
}
