//! Serve scaling: throughput and tail latency of the sharded
//! personalization server as the shard count grows.
//!
//! Each point starts an in-process [`uniq_serve::Server`] on an
//! ephemeral port with a scratch result store, drives it with the
//! deterministic closed-loop load generator (same seeded population at
//! every shard count), and records throughput, p50/p99 request latency,
//! and the population fingerprint. The fingerprint must be identical at
//! every shard count — sharding is a performance axis, never a results
//! axis. Writes `bench_results/serve_scaling.{json,csv}` and appends a
//! `"serve-scaling"` ledger record.

use crate::csv::write_csv;
use std::path::Path;
use uniq_core::config::UniqConfig;
use uniq_serve::{LoadgenConfig, ServeConfig, Server};

/// Shard counts the headline run measures.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Subjects in the headline population.
pub const SUBJECTS: u64 = 8;

/// First subject seed (matches the CLI default population).
pub const SEED_BASE: u64 = 42;

/// One measured shard count.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Shard workers.
    pub shards: usize,
    /// Requests completed (first pass + cache-exercising repeats).
    pub requests: u64,
    /// Responses served from the result store.
    pub cache_hits: u64,
    /// Requests shed by full queues (zero at these depths).
    pub shed: u64,
    /// Wall-clock seconds of the whole run.
    pub seconds: f64,
    /// Unique subjects personalized per second.
    pub subjects_per_second: f64,
    /// Requests completed per second.
    pub requests_per_second: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Fold of the per-subject response fingerprints.
    pub fingerprint: u64,
}

/// The full scaling report, returned for assertions in tests.
#[derive(Debug, Clone)]
pub struct ServeScalingReport {
    /// Population size.
    pub subjects: u64,
    /// Whether every shard count produced the same population
    /// fingerprint (the determinism gate).
    pub deterministic: bool,
    /// One point per shard count.
    pub points: Vec<ServePoint>,
}

/// The pipeline configuration behind the scaling workload: the fast test
/// preset, anechoic, coarse grid — the measurement targets the server's
/// sharding and queueing, not HRTF synthesis depth.
pub fn workload_config() -> UniqConfig {
    UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 15.0,
        threads: 1,
        ..UniqConfig::fast_test()
    }
}

/// Measures one shard count: fresh server, fresh scratch store, the same
/// seeded load at `clients = 2 × shards`.
pub fn run_point(shards: usize, subjects: u64, store_root: &Path) -> ServePoint {
    let _ = std::fs::remove_dir_all(store_root);
    let cfg = ServeConfig {
        shards,
        base: workload_config(),
        store_dir: Some(store_root.to_path_buf()),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("start scaling server");
    let lg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        subjects,
        seed_base: SEED_BASE,
        clients: shards * 2,
        repeat: 0.25,
        ..LoadgenConfig::default()
    };
    let report = uniq_serve::loadgen::run(&lg).expect("scaling loadgen failed");
    let drain = server.shutdown();
    let _ = std::fs::remove_dir_all(store_root);

    assert_eq!(report.fingerprint_conflicts, 0, "non-deterministic server");
    let fingerprint = uniq_serve::fold_fingerprints(&report.fingerprints);
    assert_eq!(
        fingerprint,
        uniq_serve::fold_fingerprints(&drain.fingerprints),
        "server and load generator disagree on the population fingerprint"
    );
    ServePoint {
        shards,
        requests: report.requests,
        cache_hits: report.cache_hits,
        shed: drain.stats.shed,
        seconds: report.wall_seconds,
        subjects_per_second: report.subjects_per_second,
        requests_per_second: report.requests_per_second,
        p50_ms: report.p50_ms,
        p99_ms: report.p99_ms,
        fingerprint,
    }
}

/// Runs the sweep over `shard_counts` with `subjects` subjects.
pub fn run_sweep(shard_counts: &[usize], subjects: u64) -> ServeScalingReport {
    let points: Vec<ServePoint> = shard_counts
        .iter()
        .map(|&shards| {
            let root = std::env::temp_dir().join(format!(
                "uniq_serve_scaling_{}_{shards}",
                std::process::id()
            ));
            run_point(shards, subjects, &root)
        })
        .collect();
    let deterministic = points
        .iter()
        .all(|p| p.fingerprint == points[0].fingerprint);
    ServeScalingReport {
        subjects,
        deterministic,
        points,
    }
}

/// The headline experiment: the shard sweep into
/// `bench_results/serve_scaling.{json,csv}` plus a ledger record.
pub fn run() -> ServeScalingReport {
    println!("\n== Serve scaling: sharded server throughput and tail latency ==");
    let report = run_sweep(&SHARD_COUNTS, SUBJECTS);

    for p in &report.points {
        println!(
            "  {} shard(s)  {:>3} req  {:>7.3}s  {:>6.2} subj/s  {:>6.2} req/s  \
             p50 {:>7.1}ms  p99 {:>7.1}ms  {} cached",
            p.shards,
            p.requests,
            p.seconds,
            p.subjects_per_second,
            p.requests_per_second,
            p.p50_ms,
            p.p99_ms,
            p.cache_hits,
        );
    }
    println!(
        "  {} subjects, deterministic across shard counts: {} (fingerprint {:#018x})",
        report.subjects, report.deterministic, report.points[0].fingerprint,
    );
    assert!(
        report.deterministic,
        "population fingerprint drifted across shard counts"
    );

    let json = {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"subjects\": {},\n", report.subjects));
        out.push_str(&format!("  \"seed_base\": {SEED_BASE},\n"));
        out.push_str(&format!("  \"deterministic\": {},\n", report.deterministic));
        out.push_str(&format!(
            "  \"fingerprint\": \"{:#018x}\",\n",
            report.points[0].fingerprint
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in report.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"shards\": {}, \"requests\": {}, \"cache_hits\": {}, \"shed\": {}, \
                 \"seconds\": {:.6}, \"subjects_per_second\": {:.6}, \
                 \"requests_per_second\": {:.6}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
                p.shards,
                p.requests,
                p.cache_hits,
                p.shed,
                p.seconds,
                p.subjects_per_second,
                p.requests_per_second,
                p.p50_ms,
                p.p99_ms,
                if i + 1 < report.points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    };
    std::fs::create_dir_all(crate::RESULTS_DIR).expect("create bench_results");
    let json_path = Path::new(crate::RESULTS_DIR).join("serve_scaling.json");
    std::fs::write(&json_path, json).expect("write serve_scaling.json");
    println!("  → wrote {}", json_path.display());

    let rows: Vec<Vec<f64>> = report
        .points
        .iter()
        .map(|p| {
            vec![
                p.shards as f64,
                p.requests as f64,
                p.cache_hits as f64,
                p.seconds,
                p.subjects_per_second,
                p.requests_per_second,
                p.p50_ms,
                p.p99_ms,
            ]
        })
        .collect();
    write_csv(
        "serve_scaling",
        &[
            "shards",
            "requests",
            "cache_hits",
            "seconds",
            "subjects_per_second",
            "requests_per_second",
            "p50_ms",
            "p99_ms",
        ],
        &rows,
    );

    let mut doc = crate::baseline::RunDoc::default();
    doc.raw("meta", "seed", SEED_BASE.to_string())
        .text(
            "serve",
            "fingerprint",
            &format!("{:#018x}", report.points[0].fingerprint),
        )
        .num(
            "perf",
            "seconds",
            report.points.iter().map(|p| p.seconds).sum(),
        );
    for p in &report.points {
        doc.num(
            "perf",
            format!("subjects_per_second_s{}", p.shards),
            p.subjects_per_second,
        )
        .num("perf", format!("p99_ms_s{}", p.shards), p.p99_ms);
    }
    let history = Path::new(crate::RESULTS_DIR).join("history.jsonl");
    crate::ledger::append(&history, "serve-scaling", &doc.render())
        .expect("append serve-scaling ledger record");
    println!("  → ledger record appended to {}", history.display());

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_point_sweep_is_deterministic_and_cached() {
        let report = run_sweep(&[1, 2], 4);
        assert!(report.deterministic, "{report:?}");
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            // 4 subjects + ceil-per-client repeats at 0.25; every repeat
            // must come back from the store.
            assert!(p.requests > 4, "{p:?}");
            assert_eq!(p.cache_hits, p.requests - 4, "{p:?}");
            assert_eq!(p.shed, 0, "{p:?}");
        }
    }
}
