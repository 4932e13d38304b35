//! # uniq-analyzer
//!
//! A self-contained static-analysis pass over the UNIQ workspace,
//! enforcing the domain invariants the paper reproduction silently
//! depends on: **determinism** (no unordered iteration, wall-clock
//! reads, or environment reads in result-producing crates),
//! **unsafe-audit** (`unsafe` confined to `uniq-par`, every block
//! carrying a `// SAFETY:` comment, every other crate root declaring
//! `#![forbid(unsafe_code)]`), **panic-safety** (no
//! `unwrap`/`expect`/`panic!` in result-crate library paths), and
//! **observability hygiene** (span guards bound, metric names shared
//! constants).
//!
//! Since v2 the analyzer also reasons *across* function calls: a
//! workspace-wide symbol table ([`symbols`]), a conservative name/arity
//! call graph ([`callgraph`]), and a fixed-point dataflow engine
//! ([`dataflow`]) drive four interprocedural rule families
//! ([`flow_rules`]): determinism taint (nondeterminism sources may not
//! reach result-crate public fns, however many helpers launder them),
//! panic reachability (panic sites in support crates reachable from
//! result entry points), lock order (Mutex acquisition cycles and
//! guards held across pool boundaries), and hot-path allocation
//! (functions reachable from hot spans must not allocate per call).
//! A name-based liveness pass ([`dead_pub`]) reports public items that
//! nothing outside their own file's tests uses, reading integration
//! tests, benches and examples as references only.
//! A stale-suppression audit closes the loop: an `allow(...)` that
//! silences nothing is itself a finding.
//!
//! Why a bespoke tool instead of clippy lints: the invariants are
//! *domain* rules — "crate X may not read the clock", "metric names
//! must come from `uniq_obs::names`" — that no general-purpose lint
//! expresses, and the offline build environment has no `syn`/`dylint`
//! to build on. The analyzer therefore hand-rolls a lossless-enough
//! tokenizer ([`lexer`]), a per-file context with test-region and
//! suppression tracking ([`source`]), and a small rule engine
//! ([`rules`]) with `file:line` diagnostics and machine-readable JSON
//! output ([`diagnostics`]).
//!
//! Run it over the workspace:
//!
//! ```text
//! cargo run -p uniq-analyzer -- check             # human-readable
//! cargo run -p uniq-analyzer -- check --format json
//! cargo run -p uniq-analyzer -- check --strict    # + audit-level rules
//! ```
//!
//! Exit status is nonzero iff any unsuppressed **error**-severity
//! diagnostic remains. Individual sites are silenced with an inline
//! comment naming the rule and the reason:
//!
//! ```text
//! // uniq-analyzer: allow(wall-clock) — timing feeds obs metrics only
//! ```
//!
//! A suppression without a justification (or naming an unknown rule) is
//! itself an error, so the audit trail stays honest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod cli;
pub mod dataflow;
pub mod dead_pub;
pub mod diagnostics;
pub mod facts;
pub mod flow_rules;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod workspace;

pub use diagnostics::{to_json_report, Diagnostic, ReportSummary, Severity, TraceStep};
pub use source::SourceFile;
pub use workspace::{
    analyze_sources, analyze_workspace, analyze_workspace_with, find_root, SourceSpec,
    WorkspaceReport,
};

/// Analyzes a single source text as if it were at `path` in crate
/// `crate_name`. The entry point the golden-fixture tests use.
pub fn analyze_str(
    path: &str,
    crate_name: &str,
    is_crate_root: bool,
    text: &str,
    strict: bool,
) -> Vec<Diagnostic> {
    let file = SourceFile::parse(path, crate_name, is_crate_root, text);
    rules::analyze_file(&file, strict)
}
