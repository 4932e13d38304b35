//! The [`Sink`] trait and its four shipped implementations, plus
//! [`MultiSink`] for fan-out.

use crate::Event;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Receives observability events.
///
/// Sinks must be cheap and side-effect free with respect to the observed
/// computation: the pipeline's numeric results must not depend on which
/// sink (if any) is installed.
pub trait Sink: Send + Sync {
    /// Delivers one event.
    fn on_event(&self, event: &Event);

    /// Pushes any buffered output to its destination. Called by the CLI
    /// after a run completes (successfully or not) and by
    /// [`crate::flush_global_sink`] at process teardown; sinks that write
    /// eagerly need not override the default no-op.
    fn flush(&self) {}
}

/// Discards every event. Installing it is not the same as installing
/// nothing: any installed sink turns span dispatch on, so spans still
/// open and close and `uniq-memprof` can attribute allocations to the
/// enclosing stage. Use it for a memory profile with no other sink, and
/// as the named baseline of the overhead benches.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn on_event(&self, _event: &Event) {}
}

/// Human-readable live span tree on stderr, two spaces per nesting level:
///
/// ```text
/// > personalize
///   > session
///   < session 812.4ms
///   fusion.residual_deg = 3.42 deg
/// < personalize 2.31s
/// ```
#[derive(Debug, Default)]
pub struct StderrSink;

impl StderrSink {
    /// Creates the sink.
    pub fn new() -> Self {
        StderrSink
    }
}

/// `1_234_567_890ns` → `"1.23s"`, `"12.3ms"`, …
pub fn human_duration(nanos: u128) -> String {
    let secs = nanos as f64 / 1e9;
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.1}ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.1}µs", secs * 1e6)
    } else {
        format!("{nanos}ns")
    }
}

impl Sink for StderrSink {
    fn on_event(&self, event: &Event) {
        // Metric/counter events sit one level inside their enclosing span,
        // which on this sink's thread is the current depth.
        let pad = |depth: usize| "  ".repeat(depth);
        match event {
            Event::SpanStart { name, depth, .. } => eprintln!("{}> {name}", pad(*depth)),
            Event::SpanEnd {
                name, depth, nanos, ..
            } => {
                eprintln!("{}< {name} {}", pad(*depth), human_duration(*nanos))
            }
            Event::Counter { name, delta } => {
                eprintln!("{}{name} += {delta}", pad(crate::current_depth()))
            }
            Event::Metric { name, value, unit } => {
                let unit = if unit.is_empty() {
                    String::new()
                } else {
                    format!(" {unit}")
                };
                eprintln!("{}{name} = {value:.4}{unit}", pad(crate::current_depth()))
            }
        }
    }
}

/// Machine-readable JSON-lines events, one object per line, preceded by a
/// one-line schema header:
///
/// ```json
/// {"event":"header","schema":2,"format":"uniq-obs-jsonl"}
/// {"event":"span_end","name":"fusion","depth":1,"nanos":41233000,"self_ns":40118000,"trace":"4be9…","span":"91c2…","parent":"07aa…"}
/// {"event":"metric","name":"fusion.residual_deg","value":3.42,"unit":"deg"}
/// ```
///
/// Span ids are fixed-width lowercase hex strings (not JSON numbers: a
/// 64-bit id does not survive an f64 round-trip). `self_ns` is the
/// event's [`Event::SpanEnd`] `self_nanos`. The trace reporter
/// (`uniq_profile::trace`) rebuilds the span tree from these ids and reads
/// self time from `self_ns`; a span line without an id, or a `span_end`
/// without `self_ns`, is an error.
///
/// Writes are buffered (a per-event flush would syscall on every span of
/// a hot pipeline) and pushed to disk on [`Sink::flush`] and on drop, so
/// a `--metrics-out` file is complete — whole lines only, no truncated
/// tail — even when the observed run ends in an error.
#[derive(Debug)]
pub struct JsonLinesSink {
    out: Mutex<BufWriter<File>>,
}

/// Schema stamp on the [`JsonLinesSink`] header line; bump on any
/// incompatible line-shape change so readers can refuse early.
/// Schema 2 added `self_ns` to `span_end` lines.
pub const JSONL_SCHEMA_VERSION: u64 = 2;

impl JsonLinesSink {
    /// Creates (truncating) the output file and buffers the schema header
    /// line.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(
            out,
            "{{\"event\":\"header\",\"schema\":{JSONL_SCHEMA_VERSION},\"format\":\"uniq-obs-jsonl\"}}"
        )?;
        Ok(JsonLinesSink {
            out: Mutex::new(out),
        })
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        // Last-chance durability: deliver whatever is still buffered.
        // I/O errors on a diagnostics channel are still non-fatal.
        if let Ok(mut out) = self.out.lock() {
            // uniq-analyzer: allow(lock-order) — `out` is the guard itself; this is io::Write::flush on the writer, not Sink::flush, so no re-entry
            let _ = out.flush();
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal. Span names are
/// static identifiers today, but the writer stays correct for any input.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/∞ — encode as null).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Sink for JsonLinesSink {
    fn on_event(&self, event: &Event) {
        let line = match event {
            Event::SpanStart { name, depth, ids } => format!(
                "{{\"event\":\"span_start\",\"name\":\"{}\",\"depth\":{depth},\
                 \"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"}}",
                json_escape(name),
                ids.trace,
                ids.span,
                ids.parent
            ),
            Event::SpanEnd {
                name,
                depth,
                nanos,
                self_nanos,
                ids,
            } => format!(
                "{{\"event\":\"span_end\",\"name\":\"{}\",\"depth\":{depth},\"nanos\":{nanos},\
                 \"self_ns\":{self_nanos},\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"}}",
                json_escape(name),
                ids.trace,
                ids.span,
                ids.parent
            ),
            Event::Counter { name, delta } => format!(
                "{{\"event\":\"counter\",\"name\":\"{}\",\"delta\":{delta}}}",
                json_escape(name)
            ),
            Event::Metric { name, value, unit } => format!(
                "{{\"event\":\"metric\",\"name\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
                json_escape(name),
                json_number(*value),
                json_escape(unit)
            ),
        };
        let mut out = self.out.lock().expect("jsonl writer poisoned");
        // I/O errors on a diagnostics channel must not kill the pipeline.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let mut out = self.out.lock().expect("jsonl writer poisoned");
        let _ = out.flush();
    }
}

/// In-process collector of every event, for tests and assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// All events, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// `(name, depth)` of every [`Event::SpanStart`], in order — the span
    /// hierarchy as a preorder walk.
    pub fn span_tree(&self) -> Vec<(String, usize)> {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, depth, .. } => Some((name.to_string(), depth)),
                _ => None,
            })
            .collect()
    }

    /// Every recorded value of the named metric, in order.
    pub fn metric_values(&self, name: &str) -> Vec<f64> {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Metric { name: n, value, .. } if n == name => Some(value),
                _ => None,
            })
            .collect()
    }

    /// Sum of deltas of the named counter.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Counter { name: n, delta } if n == name => Some(delta),
                _ => None,
            })
            .sum()
    }

    /// Total nanoseconds spent in the named span (summed over entries).
    pub fn span_nanos(&self, name: &str) -> u128 {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanEnd { name: n, nanos, .. } if n == name => Some(nanos),
                _ => None,
            })
            .sum()
    }
}

impl Sink for MemorySink {
    fn on_event(&self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// Fans every event out to several sinks, in order.
pub struct MultiSink {
    sinks: Vec<std::sync::Arc<dyn Sink>>,
}

impl std::fmt::Debug for MultiSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl MultiSink {
    /// Combines `sinks` (empty is allowed and acts like [`NoopSink`]).
    pub fn new(sinks: Vec<std::sync::Arc<dyn Sink>>) -> Self {
        MultiSink { sinks }
    }
}

impl Sink for MultiSink {
    fn on_event(&self, event: &Event) {
        for sink in &self.sinks {
            sink.on_event(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanIds;
    use std::sync::Arc;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn human_durations() {
        assert_eq!(human_duration(2_340_000_000), "2.34s");
        assert_eq!(human_duration(12_300_000), "12.3ms");
        assert_eq!(human_duration(45_600), "45.6µs");
        assert_eq!(human_duration(320), "320ns");
    }

    #[test]
    fn jsonl_sink_writes_valid_lines() {
        let dir = std::env::temp_dir().join("uniq_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let sink = JsonLinesSink::create(&path).unwrap();
            sink.on_event(&Event::SpanStart {
                name: "s",
                depth: 0,
                ids: SpanIds {
                    trace: 0xabc,
                    span: 0x1,
                    parent: 0,
                },
            });
            sink.on_event(&Event::Metric {
                name: "m",
                value: 2.5,
                unit: "deg",
            });
            sink.on_event(&Event::SpanEnd {
                name: "s",
                depth: 0,
                nanos: 1000,
                self_nanos: 1000,
                ids: SpanIds {
                    trace: 0xabc,
                    span: 0x1,
                    parent: 0,
                },
            });
        }
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"event\":\"header\",\"schema\":2,\"format\":\"uniq-obs-jsonl\"}"
        );
        assert_eq!(
            lines[1],
            "{\"event\":\"span_start\",\"name\":\"s\",\"depth\":0,\
             \"trace\":\"0000000000000abc\",\"span\":\"0000000000000001\",\
             \"parent\":\"0000000000000000\"}"
        );
        assert!(lines[2].contains("\"value\":2.5"));
        assert!(lines[3].contains("\"nanos\":1000,\"self_ns\":1000,"));
        // Every line parses back through the shared JSON reader.
        for line in lines {
            crate::json::Json::parse(line).expect("self-emitted JSONL line parses");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_buffers_until_flush() {
        let dir = std::env::temp_dir().join("uniq_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("buffered.jsonl");
        let sink = JsonLinesSink::create(&path).unwrap();
        sink.on_event(&Event::Counter {
            name: "c",
            delta: 1,
        });
        // Still buffered: nothing on disk yet (BufWriter default capacity
        // far exceeds one short line).
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        sink.flush();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(
            content.ends_with("}\n"),
            "flushed line truncated: {content:?}"
        );
        drop(sink);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_sink_fans_out() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let multi = MultiSink::new(vec![a.clone(), b.clone()]);
        multi.on_event(&Event::Counter {
            name: "c",
            delta: 2,
        });
        assert_eq!(a.counter_total("c"), 2);
        assert_eq!(b.counter_total("c"), 2);
    }

    #[test]
    fn memory_sink_span_accounting() {
        let m = MemorySink::new();
        m.on_event(&Event::SpanEnd {
            name: "s",
            depth: 0,
            nanos: 10,
            self_nanos: 10,
            ids: SpanIds::default(),
        });
        m.on_event(&Event::SpanEnd {
            name: "s",
            depth: 0,
            nanos: 32,
            self_nanos: 32,
            ids: SpanIds::default(),
        });
        assert_eq!(m.span_nanos("s"), 42);
        assert_eq!(m.span_nanos("other"), 0);
    }
}
