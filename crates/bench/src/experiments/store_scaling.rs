//! Store scale: put/get/scan throughput of the content-addressed
//! artifact store at 100k entries.
//!
//! Each entry is a tiny synthetic `.uhrtf` artifact (2 angles × 4 taps,
//! unique per index), so the measurement isolates the store's own cost —
//! hashing, blob I/O, index append — rather than HRTF synthesis. Writes
//! `bench_results/store_scaling.{json,csv}` and appends a
//! `"store-scaling"` ledger record whose `store` section summarizes the
//! run.

use crate::csv::write_csv;
use std::path::Path;
use std::time::Instant;
use uniq_store::{Grid, HrtfArtifact, Store};

/// Entries written by the headline run.
pub const ENTRIES: usize = 100_000;

/// Entries re-put (dedup) and fetched back in the secondary phases.
pub const SAMPLE: usize = 10_000;

/// Config-hash stamp for synthetic scaling artifacts (not a real config).
const SYNTHETIC_CONFIG_HASH: u64 = 0x5354_4f52_4553_434c; // "STORESCL"

/// One measured operation.
#[derive(Debug, Clone)]
pub struct StorePoint {
    /// Operation name (`put`, `dedup_put`, `get`, `scan`).
    pub op: &'static str,
    /// Operations performed.
    pub ops: usize,
    /// Wall-clock seconds for the whole phase.
    pub seconds: f64,
    /// Throughput, operations per second.
    pub ops_per_second: f64,
}

/// The full scaling report, returned for assertions in tests.
#[derive(Debug, Clone)]
pub struct StoreScalingReport {
    /// Distinct artifacts written.
    pub entries: usize,
    /// Total blob bytes written.
    pub total_bytes: u64,
    /// Dedup hits counted by the store.
    pub dedup_hits: u64,
    /// Per-operation throughput.
    pub points: Vec<StorePoint>,
    /// The store's order-independent fingerprint after the run.
    pub fingerprint: u64,
}

/// A tiny artifact whose every sample is a pure function of `i`, so all
/// `ENTRIES` artifacts are distinct, deterministic, and cheap.
pub fn synthetic_artifact(i: u64) -> HrtfArtifact {
    let sample = |j: u64| {
        // Cheap integer mix → a fraction in [0, 1); pure and distinct
        // per (i, j) without any RNG state.
        let mixed = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(j << 7) >> 11;
        (mixed & 0xFFFF) as f64 / 65536.0
    };
    let grid = |base: u64| Grid {
        angles_deg: vec![0.0, 90.0],
        ir_len: 4,
        irs: (0..2)
            .map(|a| {
                let left = (0..4).map(|j| sample(base + a * 8 + j)).collect();
                let right = (0..4).map(|j| sample(base + a * 8 + j + 4)).collect();
                (left, right)
            })
            .collect(),
    };
    let mut artifact = HrtfArtifact {
        seed: i,
        subject_fingerprint: 0,
        config_hash: SYNTHETIC_CONFIG_HASH,
        sample_rate: 48_000.0,
        head: [0.07 + sample(1) * 0.02, 0.09, 0.08],
        radius_m: 0.3 + sample(2) * 0.2,
        attempts: 1,
        localization: vec![(30.0, 30.0 + sample(3)), (120.0, 120.0 - sample(4))],
        near: grid(100),
        far: grid(200),
        degradation_json: None,
    };
    artifact.subject_fingerprint = artifact.fingerprint();
    artifact
}

/// Runs the scale measurement with `entries` artifacts in a scratch
/// store at `root` (removed afterwards).
pub fn run_at(root: &Path, entries: usize, sample: usize) -> StoreScalingReport {
    let _ = std::fs::remove_dir_all(root);
    let store = Store::open(root).expect("open scratch store");

    let start = Instant::now();
    let mut keys = Vec::with_capacity(entries);
    let mut total_bytes = 0u64;
    for i in 0..entries {
        let outcome = store
            .put(&synthetic_artifact(i as u64))
            .expect("put synthetic artifact");
        assert!(!outcome.deduped, "synthetic artifacts must be distinct");
        total_bytes += outcome.bytes;
        keys.push(outcome.key);
    }
    let put_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for i in 0..sample.min(entries) {
        let outcome = store
            .put(&synthetic_artifact(i as u64))
            .expect("re-put synthetic artifact");
        assert!(outcome.deduped, "re-put of identical content must dedup");
    }
    let dedup_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let stride = (entries / sample.min(entries)).max(1);
    let mut gets = 0usize;
    for key in keys.iter().step_by(stride) {
        let artifact = store.get(key).expect("get stored artifact");
        assert_eq!(artifact.fingerprint(), artifact.subject_fingerprint);
        gets += 1;
    }
    let get_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let scans = 10usize;
    for _ in 0..scans {
        assert_eq!(store.scan().len(), entries);
    }
    let scan_seconds = start.elapsed().as_secs_f64();

    let point = |op: &'static str, ops: usize, seconds: f64| StorePoint {
        op,
        ops,
        seconds,
        ops_per_second: ops as f64 / seconds.max(1e-12),
    };
    let report = StoreScalingReport {
        entries: store.len(),
        total_bytes,
        dedup_hits: store.dedup_hits(),
        points: vec![
            point("put", entries, put_seconds),
            point("dedup_put", sample.min(entries), dedup_seconds),
            point("get", gets, get_seconds),
            point("scan", scans, scan_seconds),
        ],
        fingerprint: store.fingerprint(),
    };
    drop(store);
    let _ = std::fs::remove_dir_all(root);
    report
}

/// The headline experiment: 100k entries in a temp-dir store, results
/// into `bench_results/store_scaling.{json,csv}` plus a ledger record.
pub fn run() -> StoreScalingReport {
    println!("\n== Store scaling: content-addressed put/get/scan throughput ==");
    let root = std::env::temp_dir().join(format!("uniq_store_scaling_{}", std::process::id()));
    let report = run_at(&root, ENTRIES, SAMPLE);

    for p in &report.points {
        println!(
            "  {:<10} {:>7} ops  {:>8.3}s  {:>12.0} ops/s",
            p.op, p.ops, p.seconds, p.ops_per_second,
        );
    }
    println!(
        "  {} entries, {:.1} MiB of blobs, {} dedup hits, store fingerprint {:#018x}",
        report.entries,
        report.total_bytes as f64 / (1024.0 * 1024.0),
        report.dedup_hits,
        report.fingerprint,
    );

    let json = {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"entries\": {},\n", report.entries));
        out.push_str(&format!("  \"total_bytes\": {},\n", report.total_bytes));
        out.push_str(&format!("  \"dedup_hits\": {},\n", report.dedup_hits));
        out.push_str(&format!(
            "  \"store_fingerprint\": \"{:#018x}\",\n",
            report.fingerprint
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in report.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"op\": \"{}\", \"ops\": {}, \"seconds\": {:.6}, \"ops_per_second\": {:.3}}}{}\n",
                p.op,
                p.ops,
                p.seconds,
                p.ops_per_second,
                if i + 1 < report.points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    };
    std::fs::create_dir_all(crate::RESULTS_DIR).expect("create bench_results");
    let json_path = Path::new(crate::RESULTS_DIR).join("store_scaling.json");
    std::fs::write(&json_path, json).expect("write store_scaling.json");
    println!("  → wrote {}", json_path.display());

    let rows: Vec<Vec<f64>> = report
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| vec![i as f64, p.ops as f64, p.seconds, p.ops_per_second])
        .collect();
    write_csv(
        "store_scaling",
        &["op_index", "ops", "seconds", "ops_per_second"],
        &rows,
    );

    let mut doc = crate::baseline::RunDoc::default();
    doc.text(
        "quality",
        "store_fingerprint",
        &format!("{:#018x}", report.fingerprint),
    )
    .raw("quality", "store_entries", report.entries.to_string())
    .raw("quality", "store_bytes", report.total_bytes.to_string())
    .raw("quality", "store_dedup_hits", report.dedup_hits.to_string())
    .num(
        "perf",
        "seconds",
        report.points.iter().map(|p| p.seconds).sum(),
    );
    for p in &report.points {
        doc.num("perf", format!("{}_ops_per_second", p.op), p.ops_per_second);
    }
    let history = Path::new(crate::RESULTS_DIR).join("history.jsonl");
    crate::ledger::append(&history, "store-scaling", &doc.render())
        .expect("append store-scaling ledger record");
    println!("  → ledger record appended to {}", history.display());

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_artifacts_are_distinct_and_valid() {
        let a = synthetic_artifact(0);
        let b = synthetic_artifact(1);
        assert_ne!(a, b);
        let bytes_a = uniq_store::encode(&a).unwrap();
        let bytes_b = uniq_store::encode(&b).unwrap();
        assert_ne!(
            uniq_store::content_key(&bytes_a),
            uniq_store::content_key(&bytes_b)
        );
        assert_eq!(uniq_store::decode(&bytes_a).unwrap(), a);
    }

    #[test]
    fn scaled_down_run_measures_all_phases() {
        let root =
            std::env::temp_dir().join(format!("uniq_store_scaling_test_{}", std::process::id()));
        let report = run_at(&root, 200, 50);
        assert_eq!(report.entries, 200);
        assert_eq!(report.dedup_hits, 50);
        assert_eq!(report.points.len(), 4);
        assert!(report.points.iter().all(|p| p.ops > 0));
        assert!(!root.exists(), "scratch store must be cleaned up");
    }
}
