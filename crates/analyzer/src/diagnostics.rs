//! Diagnostics: severity, call-path traces, rendering, and
//! machine-readable JSON output.

use std::collections::BTreeMap;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but only fails the run under `--strict`.
    Warning,
    /// Fails the run unless suppressed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One hop of an interprocedural finding's call path. The first step is
/// the path's origin (for taint: the result-crate entry point; for
/// hot-path allocation: the span site) and the last step is the site the
/// diagnostic anchors on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Workspace-relative path of the hop.
    pub file: String,
    /// 1-based line of the call site (or source/sink site).
    pub line: u32,
    /// Human-readable symbol at this hop (e.g. `core::fusion::fuse`).
    pub symbol: String,
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.symbol)
    }
}

/// One finding at a file:line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (stable identifier, used in `allow(...)`).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Call path for interprocedural findings (empty for line-local
    /// rules). Ordered source→sink or seed→site; see [`TraceStep`].
    pub trace: Vec<TraceStep>,
}

impl Diagnostic {
    /// A line-local diagnostic with no call path.
    pub fn new(
        file: String,
        line: u32,
        rule: &'static str,
        severity: Severity,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            file,
            line,
            rule,
            severity,
            message,
            trace: Vec::new(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: {}",
            self.file, self.line, self.severity, self.rule, self.message
        )
    }
}

/// Renders diagnostics as a JSON array (hand-rolled: the workspace has
/// no serde). Output is stable: the caller sorts before rendering.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str("  ");
        push_diag_json(&mut out, d);
        if i + 1 < diags.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

fn push_diag_json(out: &mut String, d: &Diagnostic) {
    out.push('{');
    out.push_str(&format!("\"file\":{},", json_str(&d.file)));
    out.push_str(&format!("\"line\":{},", d.line));
    out.push_str(&format!("\"rule\":{},", json_str(d.rule)));
    out.push_str(&format!(
        "\"severity\":{},",
        json_str(&d.severity.to_string())
    ));
    out.push_str(&format!("\"message\":{}", json_str(&d.message)));
    if !d.trace.is_empty() {
        out.push_str(",\"trace\":[");
        for (i, step) in d.trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"symbol\":{}}}",
                json_str(&step.file),
                step.line,
                json_str(&step.symbol)
            ));
        }
        out.push(']');
    }
    out.push('}');
}

/// Summary counters for a whole analysis run, embedded in the findings
/// report so CI and the run ledger can track finding counts over time.
#[derive(Debug, Clone)]
pub struct ReportSummary {
    /// Files analyzed.
    pub files: usize,
    /// Total suppressions encountered.
    pub suppressions: usize,
    /// Suppressions that matched no finding (stale).
    pub stale_suppressions: usize,
    /// Whether strict (audit-level) rules ran.
    pub strict: bool,
}

/// Renders the versioned machine-readable findings report: schema tag,
/// summary counters, per-rule finding counts, and the findings
/// themselves (traces included). Deliberately carries no timestamps so
/// back-to-back runs on the same tree are byte-identical.
pub fn to_json_report(diags: &[Diagnostic], summary: &ReportSummary) -> String {
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for d in diags {
        *by_rule.entry(d.rule).or_insert(0) += 1;
    }
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"files\": {},\n", summary.files));
    out.push_str(&format!("  \"suppressions\": {},\n", summary.suppressions));
    out.push_str(&format!(
        "  \"stale_suppressions\": {},\n",
        summary.stale_suppressions
    ));
    out.push_str(&format!("  \"strict\": {},\n", summary.strict));
    out.push_str(&format!("  \"errors\": {},\n", errors));
    out.push_str(&format!("  \"warnings\": {},\n", diags.len() - errors));
    out.push_str("  \"counts\": {");
    for (i, (rule, n)) in by_rule.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json_str(rule), n));
    }
    out.push_str("},\n");
    out.push_str("  \"findings\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str("    ");
        push_diag_json(&mut out, d);
        if i + 1 < diags.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}");
    out
}

/// `s` as a quoted JSON string.
fn json_str(s: &str) -> String {
    format!("\"{}\"", uniq_obs::sink::json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_file_line_rule_message() {
        let d = Diagnostic::new(
            "crates/core/src/x.rs".into(),
            7,
            "wall-clock",
            Severity::Error,
            "no".into(),
        );
        assert_eq!(
            d.to_string(),
            "crates/core/src/x.rs:7: error[wall-clock]: no"
        );
    }

    #[test]
    fn json_escapes_and_shapes() {
        let d = Diagnostic::new(
            "a\"b.rs".into(),
            1,
            "panic-safety",
            Severity::Warning,
            "line1\nline2".into(),
        );
        let j = to_json(&[d]);
        assert!(j.contains("\"file\":\"a\\\"b.rs\""));
        assert!(j.contains("\\nline2"));
        assert!(j.starts_with('[') && j.ends_with(']'));
    }

    #[test]
    fn empty_json_is_empty_array() {
        assert_eq!(to_json(&[]), "[\n]");
    }

    #[test]
    fn trace_round_trips_into_json() {
        let mut d = Diagnostic::new(
            "crates/core/src/fusion.rs".into(),
            9,
            "determinism-taint",
            Severity::Error,
            "tainted".into(),
        );
        d.trace.push(TraceStep {
            file: "crates/obs/src/lib.rs".into(),
            line: 3,
            symbol: "obs::clock".into(),
        });
        let j = to_json(&[d]);
        assert!(j.contains("\"trace\":[{\"file\":\"crates/obs/src/lib.rs\""));
        assert!(j.contains("\"symbol\":\"obs::clock\""));
    }

    #[test]
    fn report_carries_schema_and_counts() {
        let d = Diagnostic::new("x.rs".into(), 1, "lock-order", Severity::Error, "m".into());
        let r = to_json_report(
            &[d],
            &ReportSummary {
                files: 3,
                suppressions: 2,
                stale_suppressions: 1,
                strict: false,
            },
        );
        assert!(r.contains("\"schema\": 1"));
        assert!(r.contains("\"counts\": {\"lock-order\":1}"));
        assert!(r.contains("\"errors\": 1"));
        assert!(r.contains("\"stale_suppressions\": 1"));
    }
}
