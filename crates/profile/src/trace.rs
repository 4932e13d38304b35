//! Causal trace reconstruction: turns a `--metrics-out` JSONL file back
//! into the span tree and reports where the time went.
//!
//! `JsonLinesSink` stamps deterministic `(trace, span, parent)` ids on
//! every span event, so the tree is rebuilt purely from parentage —
//! scheduling and interleaving are irrelevant, and the same seeded run
//! reconstructs identically at any thread count. A span event without a
//! span id is an error.

use std::collections::BTreeMap;
use std::fmt;
use uniq_obs::json::Json;
use uniq_obs::sink::{human_duration, JSONL_SCHEMA_VERSION};

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// Span name.
    pub name: String,
    /// Span id.
    pub span: u64,
    /// Parent span id (0 = trace root).
    pub parent: u64,
    /// Enclosing trace id (0 for untraced spans).
    pub trace: u64,
    /// Wall-clock duration, nanoseconds (0 if the span never closed).
    pub nanos: u128,
    /// Indices of child nodes, sorted by span id.
    pub children: Vec<usize>,
}

/// The reconstructed forest plus bookkeeping about its health.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// Every reconstructed span.
    pub nodes: Vec<TraceNode>,
    /// Indices of root nodes (parent id 0), sorted by span id.
    pub roots: Vec<usize>,
    /// Indices of orphans: spans naming a parent id that never appeared.
    pub orphans: Vec<usize>,
    /// Distinct non-zero trace ids seen.
    pub trace_ids: Vec<u64>,
}

/// Why a trace file does not reconstruct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Line `line` (1-based) is not a well-formed trace event.
    Garbled {
        /// 1-based line number.
        line: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// Line `line` is a span event without a `span` id.
    MissingSpanId {
        /// 1-based line number.
        line: usize,
    },
    /// The header declares a schema newer than this reader.
    UnsupportedSchema(u64),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Garbled { line, reason } => write!(f, "line {line}: {reason}"),
            TraceError::MissingSpanId { line } => {
                write!(f, "line {line}: span event without a span id")
            }
            TraceError::UnsupportedSchema(v) => write!(
                f,
                "unsupported trace schema v{v} (reader supports up to v{JSONL_SCHEMA_VERSION})"
            ),
        }
    }
}

fn hex_id(doc: &Json, key: &str) -> Option<u64> {
    u64::from_str_radix(doc.get(key)?.as_str()?, 16).ok()
}

/// Parses a JSONL trace file; counter/metric lines are skipped. Errors on
/// a malformed line, a span event without a span id, or an unknown
/// schema version.
pub fn parse_trace(text: &str) -> Result<TraceTree, TraceError> {
    let mut nodes: Vec<TraceNode> = Vec::new();
    // span id → node index.
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let garbled = |reason: String| TraceError::Garbled {
            line: lineno + 1,
            reason,
        };
        let doc = Json::parse(line).map_err(|e| garbled(e.to_string()))?;
        let event = doc
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| garbled("no \"event\" field".to_string()))?;
        let span = || hex_id(&doc, "span").ok_or(TraceError::MissingSpanId { line: lineno + 1 });
        match event {
            "header" => {
                let schema = doc.get("schema").and_then(Json::as_u64).unwrap_or(0);
                if schema > JSONL_SCHEMA_VERSION {
                    return Err(TraceError::UnsupportedSchema(schema));
                }
            }
            "span_start" => {
                let name = doc
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| garbled("span_start without name".to_string()))?
                    .to_string();
                let span = span()?;
                by_id.insert(span, nodes.len());
                nodes.push(TraceNode {
                    name,
                    span,
                    parent: hex_id(&doc, "parent").unwrap_or(0),
                    trace: hex_id(&doc, "trace").unwrap_or(0),
                    nanos: 0,
                    children: Vec::new(),
                });
            }
            "span_end" => {
                let nanos = doc
                    .get("nanos")
                    .and_then(Json::as_u64)
                    .map(u128::from)
                    .unwrap_or(0);
                let span = span()?;
                if let Some(&idx) = by_id.get(&span) {
                    nodes[idx].nanos = nanos;
                }
                // An end without a start is tolerated: a sink may attach
                // mid-span. Synthesize the node so its time still shows up.
                else {
                    by_id.insert(span, nodes.len());
                    nodes.push(TraceNode {
                        name: doc
                            .get("name")
                            .and_then(Json::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        span,
                        parent: hex_id(&doc, "parent").unwrap_or(0),
                        trace: hex_id(&doc, "trace").unwrap_or(0),
                        nanos,
                        children: Vec::new(),
                    });
                }
            }
            // Counters, metrics, and any future event kinds are not part
            // of the tree.
            _ => {}
        }
    }

    // Link children and classify roots/orphans by parent id.
    let mut tree = TraceTree {
        roots: Vec::new(),
        orphans: Vec::new(),
        trace_ids: Vec::new(),
        nodes,
    };
    for idx in 0..tree.nodes.len() {
        let parent = tree.nodes[idx].parent;
        if parent == 0 {
            tree.roots.push(idx);
        } else if let Some(&p) = by_id.get(&parent) {
            tree.nodes[p].children.push(idx);
        } else {
            tree.orphans.push(idx);
        }
        let t = tree.nodes[idx].trace;
        if t != 0 && !tree.trace_ids.contains(&t) {
            tree.trace_ids.push(t);
        }
    }
    // Sort everything by span id so the report is independent of file
    // order (which varies with scheduling).
    let span_of = |nodes: &[TraceNode], i: usize| nodes[i].span;
    tree.roots.sort_by_key(|&i| span_of(&tree.nodes, i));
    tree.orphans.sort_by_key(|&i| span_of(&tree.nodes, i));
    tree.trace_ids.sort_unstable();
    for idx in 0..tree.nodes.len() {
        let mut children = std::mem::take(&mut tree.nodes[idx].children);
        children.sort_by_key(|&i| span_of(&tree.nodes, i));
        tree.nodes[idx].children = children;
    }
    Ok(tree)
}

impl TraceTree {
    /// The critical path: starting from the slowest root, repeatedly
    /// descend into the slowest child. Returns `(name, nanos)` pairs from
    /// root to leaf.
    pub fn critical_path(&self) -> Vec<(String, u128)> {
        let mut path = Vec::new();
        let slowest = |candidates: &[usize]| {
            candidates
                .iter()
                .copied()
                .max_by_key(|&i| (self.nodes[i].nanos, std::cmp::Reverse(self.nodes[i].span)))
        };
        let mut cursor = slowest(&self.roots);
        while let Some(idx) = cursor {
            let node = &self.nodes[idx];
            path.push((node.name.clone(), node.nanos));
            cursor = slowest(&node.children);
        }
        path
    }

    /// Per-stage aggregate: `name → (count, total nanos, self nanos)`,
    /// where self time is the span's duration minus its children's
    /// (clamped at zero — parallel children can sum past the parent).
    pub fn self_times(&self) -> BTreeMap<String, (u64, u128, u128)> {
        let mut out: BTreeMap<String, (u64, u128, u128)> = BTreeMap::new();
        for node in &self.nodes {
            let child_total: u128 = node.children.iter().map(|&c| self.nodes[c].nanos).sum();
            let self_ns = node.nanos.saturating_sub(child_total);
            let entry = out.entry(node.name.clone()).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += node.nanos;
            entry.2 += self_ns;
        }
        out
    }

    /// Human-readable report: tree health, the critical path, and the
    /// per-stage self-time table.
    pub fn render_report(&self) -> String {
        let mut out = format!(
            "trace report: {} span(s), {} root(s), {} trace context(s), {} orphan(s)\n",
            self.nodes.len(),
            self.roots.len(),
            self.trace_ids.len(),
            self.orphans.len(),
        );
        let path = self.critical_path();
        let path_total: u128 = path.first().map(|(_, n)| *n).unwrap_or(0).max(1);
        out.push_str("\ncritical path:\n");
        for (depth, (name, nanos)) in path.iter().enumerate() {
            out.push_str(&format!(
                "  {:indent$}{name}  {}  ({:.0}%)\n",
                "",
                human_duration(*nanos),
                100.0 * *nanos as f64 / path_total as f64,
                indent = depth * 2,
            ));
        }
        out.push_str("\nper-stage self time:\n");
        let mut rows: Vec<(String, (u64, u128, u128))> = self.self_times().into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then_with(|| a.0.cmp(&b.0)));
        out.push_str(&format!(
            "  {:<24} {:>7} {:>12} {:>12}\n",
            "stage", "count", "total", "self"
        ));
        for (name, (count, total, self_ns)) in rows {
            out.push_str(&format!(
                "  {name:<24} {count:>7} {:>12} {:>12}\n",
                human_duration(total),
                human_duration(self_ns),
            ));
        }
        if !self.orphans.is_empty() {
            out.push_str("\norphaned spans (parent id never seen):\n");
            for &idx in &self.orphans {
                let n = &self.nodes[idx];
                out.push_str(&format!(
                    "  {} (span {:016x}, parent {:016x})\n",
                    n.name, n.span, n.parent
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = r#"{"event":"header","schema":1,"format":"uniq-obs-jsonl"}"#;

    fn start(name: &str, trace: u64, span: u64, parent: u64) -> String {
        format!(
            r#"{{"event":"span_start","name":"{name}","depth":0,"trace":"{trace:016x}","span":"{span:016x}","parent":"{parent:016x}"}}"#
        )
    }

    fn end(name: &str, nanos: u64, trace: u64, span: u64, parent: u64) -> String {
        format!(
            r#"{{"event":"span_end","name":"{name}","depth":0,"nanos":{nanos},"trace":"{trace:016x}","span":"{span:016x}","parent":"{parent:016x}"}}"#
        )
    }

    #[test]
    fn rebuilds_tree_from_ids_regardless_of_line_order() {
        // Parent-before-child and child-before-parent must agree: only
        // parentage matters.
        let ordered = [
            HEADER.to_string(),
            start("root", 9, 1, 0),
            start("a", 9, 2, 1),
            end("a", 100, 9, 2, 1),
            start("b", 9, 3, 1),
            end("b", 300, 9, 3, 1),
            end("root", 500, 9, 1, 0),
        ]
        .join("\n");
        let shuffled = [
            HEADER.to_string(),
            start("b", 9, 3, 1),
            start("root", 9, 1, 0),
            end("b", 300, 9, 3, 1),
            start("a", 9, 2, 1),
            end("root", 500, 9, 1, 0),
            end("a", 100, 9, 2, 1),
        ]
        .join("\n");
        let a = parse_trace(&ordered).unwrap();
        let b = parse_trace(&shuffled).unwrap();
        assert_eq!(a.roots.len(), 1);
        assert_eq!(a.orphans.len(), 0);
        assert_eq!(a.trace_ids, vec![9]);
        let shape = |t: &TraceTree| {
            let mut v: Vec<(String, u64, u64, u128)> = t
                .nodes
                .iter()
                .map(|n| (n.name.clone(), n.span, n.parent, n.nanos))
                .collect();
            v.sort();
            v
        };
        assert_eq!(shape(&a), shape(&b));
        assert_eq!(
            a.critical_path(),
            vec![("root".to_string(), 500), ("b".to_string(), 300)]
        );
    }

    #[test]
    fn self_time_subtracts_children() {
        let text = [
            HEADER.to_string(),
            start("root", 9, 1, 0),
            end("a", 100, 9, 2, 1),
            end("b", 300, 9, 3, 1),
            end("root", 500, 9, 1, 0),
        ]
        .join("\n");
        let tree = parse_trace(&text).unwrap();
        let times = tree.self_times();
        assert_eq!(times["root"], (1, 500, 100));
        assert_eq!(times["a"], (1, 100, 100));
    }

    #[test]
    fn orphans_are_detected() {
        let text = [HEADER.to_string(), end("lost", 10, 9, 7, 999)].join("\n");
        let tree = parse_trace(&text).unwrap();
        assert_eq!(tree.orphans.len(), 1);
        assert!(tree.render_report().contains("orphaned spans"));
    }

    #[test]
    fn span_line_without_an_id_is_an_error_naming_the_line() {
        // The pre-id format: no header, no id fields.
        let text = r#"{"event":"metric","name":"x.y","value":1.0,"unit":""}
{"event":"span_start","name":"root","depth":0}"#;
        let err = parse_trace(text).unwrap_err();
        assert_eq!(err, TraceError::MissingSpanId { line: 2 });
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        let end = [
            HEADER.to_string(),
            r#"{"event":"span_end","nanos":5}"#.to_string(),
        ]
        .join("\n");
        assert_eq!(
            parse_trace(&end).unwrap_err(),
            TraceError::MissingSpanId { line: 2 }
        );
    }

    #[test]
    fn future_schema_is_refused_and_garbage_errors() {
        let future = r#"{"event":"header","schema":99,"format":"uniq-obs-jsonl"}"#;
        assert_eq!(
            parse_trace(future).unwrap_err(),
            TraceError::UnsupportedSchema(99)
        );
        assert!(matches!(
            parse_trace("not json at all"),
            Err(TraceError::Garbled { line: 1, .. })
        ));
    }

    #[test]
    fn report_contains_critical_path_and_stages() {
        let text = [
            HEADER.to_string(),
            start("root", 9, 1, 0),
            end("a", 100, 9, 2, 1),
            end("root", 500, 9, 1, 0),
        ]
        .join("\n");
        let report = parse_trace(&text).unwrap().render_report();
        assert!(report.contains("critical path"), "{report}");
        assert!(report.contains("per-stage self time"), "{report}");
        assert!(report.contains("root"), "{report}");
    }
}
