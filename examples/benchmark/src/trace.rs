//! The benchmark's own span recorder. Spans are recorded around calls into
//! the layer crates from the benchmark's files, kept in memory, and written
//! as JSON when the run ends. The program under test is never asked for
//! its own telemetry.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a span was recorded. Per-layer metrics come from the timed phase
/// when it exercised the layer, and from the probes run after it otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Timed,
    Probe,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub phase: Phase,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Groups the spans of one request, subject or op.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn scope(&self, phase: Phase) -> Scope<'_> {
        Scope {
            tracer: self,
            phase,
        }
    }

    /// Every recorded span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// A tracer bound to one phase. With tracing off every method is a no-op
/// that still runs the wrapped call.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    tracer: &'a Tracer,
    phase: Phase,
}

impl Scope<'_> {
    pub fn on(&self) -> bool {
        self.tracer.on
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.tracer.on {
            return f(0);
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let start = Instant::now();
        let out = f(id);
        self.push(name, id, parent, request, start, Instant::now());
        out
    }

    /// Records a span whose bounds were measured elsewhere; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.tracer.on {
            return 0;
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.push(name, id, parent, request, start, end);
        id
    }

    fn push(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = self.tracer.ns(start);
        let span = Span {
            name,
            phase: self.phase,
            id,
            parent,
            request,
            start_ns,
            end_ns: self.tracer.ns(end).max(start_ns),
        };
        self.tracer
            .spans
            .lock()
            .expect("span buffer poisoned")
            .push(span);
    }
}

/// Parent → children lookup over a span list.
#[derive(Debug)]
pub struct SpanIndex<'a> {
    spans: &'a [Span],
    children: BTreeMap<u64, Vec<usize>>,
}

impl<'a> SpanIndex<'a> {
    pub fn new(spans: &'a [Span]) -> SpanIndex<'a> {
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(i);
            }
        }
        SpanIndex { spans, children }
    }

    pub fn get(&self, id: u64) -> Option<&'a Span> {
        self.spans.iter().find(|s| s.id == id)
    }

    pub fn children(&self, id: u64) -> Vec<&'a Span> {
        self.children
            .get(&id)
            .map(|ix| ix.iter().map(|&i| &self.spans[i]).collect())
            .unwrap_or_default()
    }

    /// Spans called `name` from the timed phase, or from the probes when
    /// the timed phase recorded none.
    pub fn pick(&self, name: &str) -> Vec<&'a Span> {
        let of = |phase| -> Vec<&'a Span> {
            self.spans
                .iter()
                .filter(|s| s.name == name && s.phase == phase)
                .collect()
        };
        let timed = of(Phase::Timed);
        if timed.is_empty() {
            of(Phase::Probe)
        } else {
            timed
        }
    }

    pub fn self_ns(&self, span: &Span) -> u64 {
        self_ns(span, &self.children(span.id))
    }
}

/// A span's self time: its duration minus the union of its children's
/// intervals, each clipped to the span. Children that ran in parallel on
/// several workers overlap; the union counts their shared time once.
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    span.dur_ns() - covered
}

/// Wall time to record one span, nanoseconds, measured on a scratch
/// recorder: the cost the traced run adds per span.
pub fn span_cost_ns() -> f64 {
    let tracer = Tracer::new(true);
    let scope = tracer.scope(Phase::Probe);
    let n = 20_000u64;
    let start = Instant::now();
    for i in 0..n {
        scope.span("cost", 0, i, |_| ());
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

/// Writes the span file: every span plus the per-layer metrics computed
/// from it.
pub fn write_json(
    path: &Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
    metrics: &[(&str, f64, &str)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let phase = match s.phase {
            Phase::Timed => "timed",
            Phase::Probe => "probe",
        };
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"phase\":\"{phase}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                crate::json_number(*value)
            )
        })
        .collect();
    writeln!(out, "],\"metrics\":{{{}}}}}", metrics.join(","))?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            phase: Phase::Timed,
            id,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_clips_overlapping_children_to_their_union() {
        let parent = span(1, 0, 100, 200);
        // Two workers overlap on [120, 150]; a third child starts before
        // the parent and is clipped to it; one lies outside entirely.
        let a = span(2, 1, 120, 150);
        let b = span(3, 1, 130, 160);
        let c = span(4, 1, 90, 110);
        let d = span(5, 1, 250, 300);
        assert_eq!(self_ns(&parent, &[&a, &b, &c, &d]), 100 - 40 - 10);
        assert_eq!(self_ns(&parent, &[]), 100);
        assert_eq!(self_ns(&parent, &[&span(6, 1, 100, 200), &a]), 0);
    }

    #[test]
    fn recorder_links_children_and_prefers_timed_spans() {
        let tracer = Tracer::new(true);
        let timed = tracer.scope(Phase::Timed);
        let probe = tracer.scope(Phase::Probe);
        timed.span("outer", 0, 7, |id| timed.span("inner", id, 7, |_| ()));
        probe.span("inner", 0, 8, |_| ());
        probe.span("only-probe", 0, 8, |_| ());
        let spans = tracer.spans();
        let index = SpanIndex::new(&spans);
        let outer = index.pick("outer")[0];
        assert_eq!(index.children(outer.id).len(), 1);
        assert_eq!(index.get(index.children(outer.id)[0].parent), Some(outer));
        assert_eq!(index.pick("inner").len(), 1);
        assert_eq!(index.pick("inner")[0].phase, Phase::Timed);
        assert_eq!(index.pick("only-probe")[0].phase, Phase::Probe);

        let off = Tracer::new(false);
        assert_eq!(off.scope(Phase::Timed).span("x", 0, 0, |id| id), 0);
        assert!(off.spans().is_empty());
    }
}
