//! The metric catalogue (names and units, as listed in `BENCHMARK.json`)
//! and the per-layer metrics computed from a traced run's spans.

use crate::stats::{mean, median};
use crate::trace::{Span, SpanIndex};
use crate::Report;

/// What a user of the system sees, measured untraced on every workload.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("hrir_similarity", "ratio"),
];

/// Single layers, measured in the traced run.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("session.busy_ms", "ms"),
    ("fusion.busy_ms", "ms"),
    ("nearfield.busy_ms", "ms"),
    ("nearfar.busy_ms", "ms"),
    ("pipeline.self_ms", "ms"),
    ("fusion.share", "ratio"),
    ("pipeline.attempts_per_subject", "count"),
    ("par.session_speedup_t2", "ratio"),
    ("acoustics.record_ms", "ms"),
    ("channel.estimate_ms", "ms"),
    ("geometry.boundary_new_us", "us"),
    ("geometry.path_to_ear_us", "us"),
    ("fusion.localize_phone_us", "us"),
    ("store.put_ms", "ms"),
    ("store.lookup_us", "us"),
    ("store.get_ms", "ms"),
    ("store.blob_mb", "MB"),
    ("aoa.templates_ms", "ms"),
    ("aoa.known_ms", "ms"),
    ("aoa.unknown_ms", "ms"),
    ("render.motion_ms", "ms"),
    ("serve.latency_miss_p50_ms", "ms"),
    ("serve.latency_hit_p50_ms", "ms"),
    ("serve.service_miss_p50_ms", "ms"),
    ("serve.service_hit_p50_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.shard_skew", "ratio"),
    ("serve.shed", "count"),
    ("loadgen.send_lag_max_ms", "ms"),
    ("memory.peak_rss_mb", "MiB"),
    ("trace.overhead_ratio", "ratio"),
];

const NS_PER_MS: f64 = 1e6;
const NS_PER_US: f64 = 1e3;

/// Per-layer metrics from the span file plus the counts the run kept.
/// `overhead_ratio` is the recording cost of the timed phase's spans over
/// its wall time.
pub fn per_layer(spans: &[Span], report: &Report, overhead_ratio: f64) -> Vec<(&'static str, f64)> {
    let ix = SpanIndex::new(spans);
    let med = |name: &str, per_ns: f64| -> f64 {
        median(
            &ix.pick(name)
                .iter()
                .map(|s| s.dur_ns() as f64 / per_ns)
                .collect::<Vec<_>>(),
        )
    };

    // The pipeline stage breakdown, one sample per personalization.
    let stages = ["session", "fusion", "nearfield", "nearfar"];
    let mut busy: Vec<Vec<f64>> = vec![Vec::new(); stages.len()];
    let (mut self_ms, mut share, mut attempts) = (Vec::new(), Vec::new(), Vec::new());
    for p in ix.pick("pipeline") {
        let children = ix.children(p.id);
        for (k, stage) in stages.iter().enumerate() {
            let ns: u64 = children
                .iter()
                .filter(|c| c.name == *stage)
                .map(|c| c.dur_ns())
                .sum();
            busy[k].push(ns as f64 / NS_PER_MS);
        }
        self_ms.push(ix.self_ns(p) as f64 / NS_PER_MS);
        share.push(busy[1].last().copied().unwrap_or(f64::NAN) / (p.dur_ns() as f64 / NS_PER_MS));
        attempts.push(children.iter().filter(|c| c.name == "session").count() as f64);
    }
    let wait: Vec<f64> = ix
        .pick("serve.request")
        .iter()
        .map(|s| ix.self_ns(s) as f64 / NS_PER_MS)
        .collect();
    // Request latency of one class: the parents of its service spans.
    let latency = |service: &str| -> f64 {
        let ms: Vec<f64> = ix
            .pick(service)
            .iter()
            .filter_map(|s| ix.get(s.parent))
            .map(|r| r.dur_ns() as f64 / NS_PER_MS)
            .collect();
        median(&ms)
    };
    let lag_max = ix
        .pick("loadgen.send")
        .iter()
        .map(|s| s.dur_ns() as f64 / NS_PER_MS)
        .fold(f64::NAN, f64::max);
    let serve = report.serve;
    let serve_count = |f: fn(&crate::serve::ServeCounts) -> f64| serve.as_ref().map_or(f64::NAN, f);

    vec![
        ("session.busy_ms", median(&busy[0])),
        ("fusion.busy_ms", median(&busy[1])),
        ("nearfield.busy_ms", median(&busy[2])),
        ("nearfar.busy_ms", median(&busy[3])),
        ("pipeline.self_ms", median(&self_ms)),
        ("fusion.share", median(&share)),
        ("pipeline.attempts_per_subject", mean(&attempts)),
        (
            "par.session_speedup_t2",
            med("session.t1", NS_PER_MS) / med("session.t2", NS_PER_MS),
        ),
        ("acoustics.record_ms", med("record", NS_PER_MS)),
        ("channel.estimate_ms", med("estimate_channel", NS_PER_MS)),
        ("geometry.boundary_new_us", med("boundary_new", NS_PER_US)),
        ("geometry.path_to_ear_us", med("path_to_ear", NS_PER_US)),
        ("fusion.localize_phone_us", med("localize_phone", NS_PER_US)),
        ("store.put_ms", med("store.put", NS_PER_MS)),
        ("store.lookup_us", med("store.lookup", NS_PER_US)),
        ("store.get_ms", med("store.get", NS_PER_MS)),
        ("store.blob_mb", report.blob_mb.unwrap_or(f64::NAN)),
        ("aoa.templates_ms", med("aoa.templates", NS_PER_MS)),
        ("aoa.known_ms", med("aoa.known", NS_PER_MS)),
        ("aoa.unknown_ms", med("aoa.unknown", NS_PER_MS)),
        ("render.motion_ms", med("render.motion", NS_PER_MS)),
        ("serve.latency_miss_p50_ms", latency("serve.service.miss")),
        ("serve.latency_hit_p50_ms", latency("serve.service.hit")),
        (
            "serve.service_miss_p50_ms",
            med("serve.service.miss", NS_PER_MS),
        ),
        (
            "serve.service_hit_p50_ms",
            med("serve.service.hit", NS_PER_MS),
        ),
        ("serve.wait_p50_ms", median(&wait)),
        ("serve.hit_ratio", serve_count(|c| c.hit_ratio)),
        ("serve.shard_skew", serve_count(|c| c.shard_skew)),
        ("serve.shed", serve_count(|c| c.shed as f64)),
        ("loadgen.send_lag_max_ms", lag_max),
        (
            "memory.peak_rss_mb",
            report.peak_rss_mib.unwrap_or(f64::NAN),
        ),
        ("trace.overhead_ratio", overhead_ratio),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(s: &str, extra: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        for (name, unit) in &all {
            assert!(
                valid(name, "") && name.len() <= 64,
                "bad metric name {name:?}"
            );
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(valid(unit, "/%") && unit.len() <= 16, "bad unit {unit:?}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(
                compact.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            compact.matches("{\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + crate::inputs::Workload::ALL.len()
        );
    }

    #[test]
    fn per_layer_metrics_cover_the_catalogue() {
        let report = Report::default();
        let names: Vec<&str> = per_layer(&[], &report, 0.0)
            .iter()
            .map(|(n, _)| *n)
            .collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
    }
}
