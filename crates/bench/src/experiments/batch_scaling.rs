//! Batch thread-scaling: throughput of concurrent multi-subject
//! personalization at pool sizes 1/2/4/8, with the bit-identity check.
//!
//! Writes `bench_results/batch_scaling.json` (the same format the
//! `uniq batch --scaling` CLI command emits) plus a CSV for plotting.

use crate::csv::write_csv;
use std::path::Path;
use uniq_core::batch::{scaling_sweep, ScalingReport};
use uniq_core::UniqConfig;

/// Pool sizes measured by the sweep.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// First subject seed of the swept batch.
const SEED_BASE: u64 = 42;

/// Runs the sweep and returns the report for assertions in tests.
pub fn run() -> ScalingReport {
    println!("\n== Batch scaling: concurrent personalization throughput ==");
    let cfg = UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 15.0,
        threads: 1,
        ..UniqConfig::fast_test()
    };
    let seeds: Vec<u64> = (0..8).map(|i| SEED_BASE + i).collect();
    let report = scaling_sweep(&seeds, &cfg, &THREAD_COUNTS, 3);

    let baseline = report.points[0].seconds;
    for p in &report.points {
        println!(
            "  threads {:>2}: {:>7.2}s  {:.2} subj/s  speedup {:.2}x",
            p.threads,
            p.seconds,
            p.subjects_per_second,
            baseline / p.seconds.max(1e-12),
        );
    }
    println!(
        "  outputs bit-identical across pool sizes: {}",
        if report.deterministic { "yes" } else { "NO" }
    );

    let json = report.to_json(SEED_BASE);
    std::fs::create_dir_all(crate::RESULTS_DIR).expect("create bench_results");
    let json_path = Path::new(crate::RESULTS_DIR).join("batch_scaling.json");
    std::fs::write(&json_path, json).expect("write batch_scaling.json");
    println!("  → wrote {}", json_path.display());

    let rows: Vec<Vec<f64>> = report
        .points
        .iter()
        .map(|p| {
            vec![
                p.threads as f64,
                p.seconds,
                p.subjects_per_second,
                baseline / p.seconds.max(1e-12),
            ]
        })
        .collect();
    write_csv(
        "batch_scaling",
        &["threads", "seconds", "subjects_per_second", "speedup"],
        &rows,
    );
    report
}
