//! The rule set: domain invariants the UNIQ reproduction depends on.
//!
//! Every rule is a token-pattern check over a [`SourceFile`]. Rules are
//! deliberately narrow and explainable — each diagnostic names the
//! invariant it protects, and every rule can be silenced at one site
//! with `// uniq-analyzer: allow(<rule>) — <one-line justification>`
//! (the justification is mandatory; an empty one is itself a finding).
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `hash-iteration` | result crates | no `HashMap`/`HashSet` (iteration order nondeterminism) |
//! | `wall-clock` | result crates | no `Instant`/`SystemTime` (results must not depend on time) |
//! | `env-read` | result crates | no `env::` reads (results must not depend on ambient state) |
//! | `forbid-unsafe` | all crate roots except `par` | `#![forbid(unsafe_code)]` present |
//! | `safety-comment` | everywhere | every `unsafe` has a `// SAFETY:` audit comment |
//! | `panic-safety` | result crates | no `unwrap`/`expect`/`panic!` in library paths |
//! | `slice-index` | result crates, `--strict` | direct indexing audited (warning) |
//! | `obs-span-guard` | everywhere | span guards bound, not dropped on the spot |
//! | `obs-metric-name` | everywhere but `obs` | metric/counter names are shared constants |
//! | `bad-suppression` | everywhere | suppressions carry a justification and name real rules |
//!
//! The interprocedural rule families live in [`crate::flow_rules`] and
//! run at workspace scope (they need the whole call graph):
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `determinism-taint` | workspace | no call path from a result-crate public fn to a nondeterminism source |
//! | `panic-reachability` | workspace | no panic site in support crates reachable from result-crate entry points |
//! | `lock-order` | `store`/`profile`/`obs`/`serve` | Mutex acquisition graph is acyclic; no guard held across a pool boundary |
//! | `hot-path-alloc` | workspace | fns reachable from hot spans do not allocate per call |
//! | `dead-pub` | `crates/*/src` | every public item has a user outside its own file's tests (warning) |
//! | `stale-suppression` | workspace | every `allow(...)` still matches a finding |
//!
//! "Result crates" are the crates whose output feeds the paper's
//! evaluation numbers: a nondeterministic iteration or wall-clock read
//! there silently breaks run-to-run bit-identity of per-subject HRTF
//! error and AoA accuracy.

use crate::diagnostics::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Crates whose numeric output lands in the paper's evaluation; the
/// determinism and panic-safety rules apply to their library code.
pub const RESULT_CRATES: &[&str] = &[
    "core",
    "dsp",
    "geometry",
    "acoustics",
    "imu",
    "optim",
    "render",
    "subjects",
    "faults",
    "store",
];

/// The only crates allowed to contain `unsafe` code: the pool's job
/// erasure (`par`) and the counting global allocator (`memprof`, whose
/// `GlobalAlloc` impl is unsafe by trait contract). Both are audited by
/// `safety-comment`.
pub const UNSAFE_ALLOWED_CRATES: &[&str] = &["par", "memprof"];

/// All rule names the suppression parser accepts.
pub const RULE_NAMES: &[&str] = &[
    "hash-iteration",
    "wall-clock",
    "env-read",
    "forbid-unsafe",
    "safety-comment",
    "panic-safety",
    "slice-index",
    "obs-span-guard",
    "obs-metric-name",
    "bad-suppression",
    "determinism-taint",
    "panic-reachability",
    "lock-order",
    "hot-path-alloc",
    "dead-pub",
    "stale-suppression",
];

/// Runs every line-local rule over `file` WITHOUT applying suppressions
/// or validating them, so the workspace driver can track which
/// suppressions actually silence something (the stale-suppression
/// audit). `strict` enables the warning-level audit rules (currently
/// `slice-index`).
pub(crate) fn raw_findings(file: &SourceFile, strict: bool) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    hash_iteration(file, &mut raw);
    wall_clock(file, &mut raw);
    env_read(file, &mut raw);
    forbid_unsafe(file, &mut raw);
    safety_comment(file, &mut raw);
    panic_safety(file, &mut raw);
    if strict {
        slice_index(file, &mut raw);
    }
    obs_span_guard(file, &mut raw);
    obs_metric_name(file, &mut raw);
    raw
}

fn is_result_crate(file: &SourceFile) -> bool {
    RESULT_CRATES.contains(&file.crate_name.as_str())
}

fn diag(
    file: &SourceFile,
    line: u32,
    rule: &'static str,
    severity: Severity,
    message: String,
) -> Diagnostic {
    Diagnostic::new(file.path.clone(), line, rule, severity, message)
}

/// `hash-iteration`: `HashMap`/`HashSet` banned in result crates. Their
/// iteration order varies run to run (`RandomState`), so any fold, sum,
/// or output assembled from one is nondeterministic; use `BTreeMap`,
/// `Vec`, or an index keyed by position instead. The ban is on the type
/// rather than just `.iter()` calls: every unordered map eventually gets
/// iterated, and the type name is the reviewable chokepoint.
fn hash_iteration(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_result_crate(file) {
        return;
    }
    for i in 0..file.sig.len() {
        let Some(t) = file.sig_token(i) else { continue };
        if t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !file.in_test_code(t.line)
        {
            out.push(diag(
                file,
                t.line,
                "hash-iteration",
                Severity::Error,
                format!(
                    "`{}` in result-producing crate `{}`: iteration order is \
                     nondeterministic and breaks run-to-run bit-identity; use \
                     `BTreeMap`/`BTreeSet`/`Vec` instead",
                    t.text, file.crate_name
                ),
            ));
        }
    }
}

/// `wall-clock`: `Instant`/`SystemTime` banned in result crates. Paper
/// numbers must be a pure function of the input dataset; a time read in
/// a compute path (e.g. a time-seeded perturbation or a timeout that
/// truncates an optimizer) silently varies results across machines.
fn wall_clock(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_result_crate(file) {
        return;
    }
    for i in 0..file.sig.len() {
        let Some(t) = file.sig_token(i) else { continue };
        if t.kind == TokenKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
            && !file.in_test_code(t.line)
        {
            out.push(diag(
                file,
                t.line,
                "wall-clock",
                Severity::Error,
                format!(
                    "wall-clock type `{}` in result-producing crate `{}`: \
                     results must not depend on time; if this only feeds \
                     observability, suppress with a justification",
                    t.text, file.crate_name
                ),
            ));
        }
    }
}

/// `env-read`: `env::…` reads banned in result crates. Ambient process
/// state (env vars, argv, temp dirs) reaching a compute path makes two
/// runs with the same dataset incomparable. Thread configuration
/// belongs in `par`; I/O paths belong to the CLI.
fn env_read(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_result_crate(file) {
        return;
    }
    for i in 0..file.sig.len() {
        if file.sig_matches(
            i,
            &[
                (TokenKind::Ident, Some("env")),
                (TokenKind::Punct, Some(":")),
                (TokenKind::Punct, Some(":")),
            ],
        ) {
            let t = match file.sig_token(i) {
                Some(t) => t,
                None => continue,
            };
            if file.in_test_code(t.line) {
                continue;
            }
            out.push(diag(
                file,
                t.line,
                "env-read",
                Severity::Error,
                format!(
                    "`env::` access in result-producing crate `{}`: ambient \
                     process state must not reach compute paths; take the \
                     value as a parameter instead",
                    file.crate_name
                ),
            ));
        }
    }
}

/// `forbid-unsafe`: every crate root outside [`UNSAFE_ALLOWED_CRATES`]
/// must declare `#![forbid(unsafe_code)]`, so the unsafe surface stays
/// confined to the crates whose job demands it and is audited by
/// `safety-comment`.
fn forbid_unsafe(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.is_crate_root || UNSAFE_ALLOWED_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    for i in 0..file.sig.len() {
        if file.sig_matches(
            i,
            &[
                (TokenKind::Punct, Some("#")),
                (TokenKind::Punct, Some("!")),
                (TokenKind::Punct, Some("[")),
                (TokenKind::Ident, Some("forbid")),
                (TokenKind::Punct, Some("(")),
                (TokenKind::Ident, Some("unsafe_code")),
                (TokenKind::Punct, Some(")")),
                (TokenKind::Punct, Some("]")),
            ],
        ) {
            return;
        }
    }
    out.push(diag(
        file,
        1,
        "forbid-unsafe",
        Severity::Error,
        format!(
            "crate root of `{}` lacks `#![forbid(unsafe_code)]`: unsafe code \
             is confined to {:?} by design",
            file.crate_name, UNSAFE_ALLOWED_CRATES
        ),
    ));
}

/// `safety-comment`: every `unsafe` keyword must be preceded (within a
/// short window) by a `// SAFETY:` comment stating the invariant that
/// makes it sound. Applies everywhere; in practice only `par` can
/// contain `unsafe` at all.
fn safety_comment(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (idx, t) in file.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "unsafe" || file.in_test_code(t.line) {
            continue;
        }
        let window_start = t.line.saturating_sub(14);
        let documented = file.tokens[..idx]
            .iter()
            .rev()
            .any(|c| c.is_comment() && c.line >= window_start && c.text.contains("SAFETY:"));
        if !documented {
            out.push(diag(
                file,
                t.line,
                "safety-comment",
                Severity::Error,
                "`unsafe` without a `// SAFETY:` comment: state the invariant \
                 that makes this sound and why it cannot be violated"
                    .to_string(),
            ));
        }
    }
}

/// `panic-safety`: `unwrap()`, `expect(...)`, and the panicking macros
/// are banned in result-crate library code. A panic in a batch worker
/// kills the whole batch (the pool propagates it by design); library
/// paths must return `Result` and let the session layer decide.
/// `assert!`/`debug_assert!` remain allowed: they document impossible
/// states rather than handle fallible ones.
fn panic_safety(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_result_crate(file) {
        return;
    }
    for i in 0..file.sig.len() {
        let Some(t) = file.sig_token(i) else { continue };
        if t.kind != TokenKind::Ident || file.in_test_code(t.line) {
            continue;
        }
        let name = t.text.as_str();
        let finding = match name {
            "unwrap" | "expect" => {
                // Method call: `.unwrap()` / `.expect(`. Requiring the dot
                // keeps `fn unwrap…` definitions and paths out.
                let prev_dot = i > 0
                    && file
                        .sig_token(i - 1)
                        .is_some_and(|p| p.kind == TokenKind::Punct && p.text == ".");
                let next_paren = file
                    .sig_token(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(");
                prev_dot && next_paren
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                // Macro invocation `name!(…)`; `core::panic!` included.
                file.sig_token(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "!")
            }
            _ => false,
        };
        if finding {
            out.push(diag(
                file,
                t.line,
                "panic-safety",
                Severity::Error,
                format!(
                    "`{}` in library code of result crate `{}`: a panic here \
                     kills the whole batch; return `Result` (or suppress with \
                     the invariant that rules the panic out)",
                    name, file.crate_name
                ),
            ));
        }
    }
}

/// `slice-index` (strict only, warning): direct `x[i]` indexing in
/// result crates. Indexing is pervasive and usually bounds-safe in the
/// DSP inner loops, so this is an audit lens rather than a gate — run
/// `check --strict` to enumerate sites when hunting a panic.
fn slice_index(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_result_crate(file) {
        return;
    }
    for i in 1..file.sig.len() {
        let Some(t) = file.sig_token(i) else { continue };
        if t.kind != TokenKind::Punct || t.text != "[" || file.in_test_code(t.line) {
            continue;
        }
        // `[` is an index expression iff it directly follows a value:
        // an identifier, `)`, or `]`. (`#[attr]`, `vec![…]`, `: [f64; 3]`
        // all follow punctuation.)
        let is_index = file.sig_token(i - 1).is_some_and(|p| {
            p.kind == TokenKind::Ident
                || (p.kind == TokenKind::Punct && (p.text == ")" || p.text == "]"))
        });
        // Exclude macro brackets: ident `!` `[`.
        let after_bang = i >= 2
            && file
                .sig_token(i - 1)
                .is_some_and(|p| p.kind == TokenKind::Punct && p.text == "!");
        if is_index && !after_bang {
            out.push(diag(
                file,
                t.line,
                "slice-index",
                Severity::Warning,
                "direct slice indexing: audit that the bound is established \
                 on every path, or use `get`"
                    .to_string(),
            ));
        }
    }
}

/// `obs-span-guard`: a span is a RAII guard; `let _ = span(...)` or a
/// bare `span(...);` statement drops it immediately, recording a
/// zero-length span and unbalancing the enter/exit tree that the
/// stderr/jsonl sinks and the report builder rely on.
fn obs_span_guard(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for i in 0..file.sig.len() {
        let Some(t) = file.sig_token(i) else { continue };
        if t.kind != TokenKind::Ident || t.text != "span" || file.in_test_code(t.line) {
            continue;
        }
        // Only the call form `span(` (optionally `uniq_obs::span(`).
        if !file
            .sig_token(i + 1)
            .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(")
        {
            continue;
        }
        // Walk back over a `uniq_obs ::` / `obs ::` qualifier.
        let mut head = i;
        if head >= 2
            && file.sig_matches(
                head - 2,
                &[(TokenKind::Punct, Some(":")), (TokenKind::Punct, Some(":"))],
            )
            && head >= 3
            && file
                .sig_token(head - 3)
                .is_some_and(|q| q.kind == TokenKind::Ident)
        {
            head -= 3;
        }
        // Case 1: `let _ = [qualifier::]span(…)` — guard dropped at once.
        let underscore_bind = head >= 3
            && file.sig_matches(
                head - 3,
                &[
                    (TokenKind::Ident, Some("let")),
                    (TokenKind::Ident, Some("_")),
                    (TokenKind::Punct, Some("=")),
                ],
            );
        // Case 2: statement-position call `span(…);` — previous
        // significant token ends a statement or opens a block.
        let statement_position = head == 0
            || file.sig_token(head - 1).is_some_and(|p| {
                p.kind == TokenKind::Punct && (p.text == ";" || p.text == "{" || p.text == "}")
            });
        if underscore_bind || statement_position {
            out.push(diag(
                file,
                t.line,
                "obs-span-guard",
                Severity::Error,
                "span guard dropped immediately (`let _ = …` or bare \
                 statement): bind it — `let _span = span(…);` — so the span \
                 covers the scope it names"
                    .to_string(),
            ));
        }
    }
}

/// `obs-metric-name`: `metric(…)`/`counter(…)` called with an inline
/// string literal outside `uniq-obs`. Names must come from
/// `uniq_obs::names` so producers and the consumers that aggregate or
/// assert on them (reports, experiments, CI checks) cannot drift apart.
fn obs_metric_name(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.crate_name == "obs" {
        return;
    }
    for i in 0..file.sig.len() {
        let Some(t) = file.sig_token(i) else { continue };
        if t.kind != TokenKind::Ident
            || (t.text != "metric" && t.text != "counter")
            || file.in_test_code(t.line)
        {
            continue;
        }
        let literal_first_arg = file
            .sig_token(i + 1)
            .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(")
            && file
                .sig_token(i + 2)
                .is_some_and(|a| a.kind == TokenKind::Str);
        if literal_first_arg {
            out.push(diag(
                file,
                t.line,
                "obs-metric-name",
                Severity::Error,
                format!(
                    "inline string name in `{}(…)`: use a constant from \
                     `uniq_obs::names` so metric names cannot drift between \
                     the crate that emits and the code that aggregates",
                    t.text
                ),
            ));
        }
    }
}

/// `bad-suppression`: validates the suppressions themselves — a
/// suppression must name known rules and carry a non-empty one-line
/// justification, otherwise the audit trail the suppressions exist to
/// provide is worthless.
pub(crate) fn check_suppressions(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for s in &file.suppressions {
        if s.justification.trim().is_empty() {
            out.push(diag(
                file,
                s.line,
                "bad-suppression",
                Severity::Error,
                "suppression without a justification: append `— <why this \
                 site is sound>` after `allow(…)`"
                    .to_string(),
            ));
        }
        for rule in &s.rules {
            if !RULE_NAMES.contains(&rule.as_str()) {
                out.push(diag(
                    file,
                    s.line,
                    "bad-suppression",
                    Severity::Error,
                    format!("suppression names unknown rule `{rule}`"),
                ));
            }
        }
    }
}

/// Golden-fixture tests: every rule has at least one known-bad fixture
/// that must produce exactly the expected findings, and a clean
/// counterpart that must produce none. The fixtures live outside `src/`
/// so the workspace walk (and rustc) never touch them.
#[cfg(test)]
mod fixture_tests {
    use super::*;
    use crate::diagnostics::Severity;

    /// Every line-local rule over one fixture, suppressions applied and
    /// audited, sorted by line.
    fn check(
        fixture: &str,
        crate_name: &str,
        is_crate_root: bool,
        strict: bool,
    ) -> Vec<Diagnostic> {
        let file = SourceFile::parse("fixture.rs", crate_name, is_crate_root, fixture);
        let mut out: Vec<Diagnostic> = raw_findings(&file, strict)
            .into_iter()
            .filter(|d| !file.is_suppressed(d.rule, d.line))
            .collect();
        check_suppressions(&file, &mut out);
        out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        out
    }

    #[test]
    fn hash_iteration_bad() {
        let diags = check(
            include_str!("../fixtures/bad_hash_iteration.rs"),
            "dsp",
            false,
            false,
        );
        assert_eq!(diags.len(), 6, "{diags:#?}");
        assert!(diags.iter().all(|d| d.rule == "hash-iteration"));
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
        // The `#[cfg(test)]` module's HashMap uses are exempt.
        assert!(diags.iter().all(|d| d.line < 15), "{diags:#?}");
    }

    #[test]
    fn hash_iteration_clean() {
        let diags = check(
            include_str!("../fixtures/clean_hash_iteration.rs"),
            "dsp",
            false,
            false,
        );
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn hash_iteration_ignored_outside_result_crates() {
        let diags = check(
            include_str!("../fixtures/bad_hash_iteration.rs"),
            "cli",
            false,
            false,
        );
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn wall_clock_bad() {
        let diags = check(
            include_str!("../fixtures/bad_wall_clock.rs"),
            "core",
            false,
            false,
        );
        assert_eq!(diags.len(), 4, "{diags:#?}");
        assert!(diags.iter().all(|d| d.rule == "wall-clock"));
        let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 2, 5, 6]);
    }

    #[test]
    fn env_read_bad() {
        let diags = check(
            include_str!("../fixtures/bad_env_read.rs"),
            "optim",
            false,
            false,
        );
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].rule, "env-read");
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn forbid_unsafe_bad() {
        let diags = check(
            include_str!("../fixtures/bad_forbid_unsafe.rs"),
            "geometry",
            true,
            false,
        );
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].rule, "forbid-unsafe");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn forbid_unsafe_clean() {
        let diags = check(
            include_str!("../fixtures/clean_forbid_unsafe.rs"),
            "geometry",
            true,
            false,
        );
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn forbid_unsafe_only_applies_to_crate_roots() {
        let diags = check(
            include_str!("../fixtures/bad_forbid_unsafe.rs"),
            "geometry",
            false,
            false,
        );
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn forbid_unsafe_exempts_par() {
        let diags = check(
            include_str!("../fixtures/bad_forbid_unsafe.rs"),
            "par",
            true,
            false,
        );
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn safety_comment_bad() {
        let diags = check(
            include_str!("../fixtures/bad_safety_comment.rs"),
            "par",
            false,
            false,
        );
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].rule, "safety-comment");
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn safety_comment_clean() {
        let diags = check(
            include_str!("../fixtures/clean_safety_comment.rs"),
            "par",
            false,
            false,
        );
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn panic_safety_bad() {
        let diags = check(
            include_str!("../fixtures/bad_panic_safety.rs"),
            "acoustics",
            false,
            false,
        );
        assert_eq!(diags.len(), 4, "{diags:#?}");
        assert!(diags.iter().all(|d| d.rule == "panic-safety"));
        let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![5, 7, 13, 17]);
    }

    #[test]
    fn panic_safety_clean() {
        let diags = check(
            include_str!("../fixtures/clean_panic_safety.rs"),
            "acoustics",
            false,
            false,
        );
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn slice_index_requires_strict() {
        let fixture = include_str!("../fixtures/bad_slice_index.rs");
        let relaxed = check(fixture, "dsp", false, false);
        assert!(relaxed.is_empty(), "{relaxed:#?}");
        let strict = check(fixture, "dsp", false, true);
        assert_eq!(strict.len(), 1, "{strict:#?}");
        assert_eq!(strict[0].rule, "slice-index");
        assert_eq!(strict[0].severity, Severity::Warning);
        assert_eq!(strict[0].line, 4);
    }

    #[test]
    fn span_guard_bad() {
        let diags = check(
            include_str!("../fixtures/bad_span_guard.rs"),
            "core",
            false,
            false,
        );
        assert_eq!(diags.len(), 2, "{diags:#?}");
        assert!(diags.iter().all(|d| d.rule == "obs-span-guard"));
        let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![4, 6]);
    }

    #[test]
    fn span_guard_clean() {
        let diags = check(
            include_str!("../fixtures/clean_span_guard.rs"),
            "core",
            false,
            false,
        );
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn metric_name_bad() {
        let diags = check(
            include_str!("../fixtures/bad_metric_name.rs"),
            "render",
            false,
            false,
        );
        assert_eq!(diags.len(), 2, "{diags:#?}");
        assert!(diags.iter().all(|d| d.rule == "obs-metric-name"));
    }

    #[test]
    fn metric_name_clean() {
        let diags = check(
            include_str!("../fixtures/clean_metric_name.rs"),
            "render",
            false,
            false,
        );
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn metric_name_exempts_obs_itself() {
        let diags = check(
            include_str!("../fixtures/bad_metric_name.rs"),
            "obs",
            false,
            false,
        );
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn bad_suppressions_are_themselves_findings() {
        let diags = check(
            include_str!("../fixtures/bad_suppression.rs"),
            "imu",
            false,
            false,
        );
        assert_eq!(diags.len(), 3, "{diags:#?}");
        // Line 4: allow(panic-safety) with no justification. It still
        // suppresses the unwrap on line 5, but is itself flagged.
        assert_eq!((diags[0].rule, diags[0].line), ("bad-suppression", 4));
        // Line 6: names a rule that does not exist …
        assert_eq!((diags[1].rule, diags[1].line), ("bad-suppression", 6));
        // … and therefore does not cover the unwrap on line 7.
        assert_eq!((diags[2].rule, diags[2].line), ("panic-safety", 7));
    }

    #[test]
    fn json_output_shape() {
        let diags = check(
            include_str!("../fixtures/bad_env_read.rs"),
            "optim",
            false,
            false,
        );
        let json = crate::diagnostics::to_json(&diags);
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains("\"rule\":\"env-read\""), "{json}");
        assert!(json.contains("\"line\":5"), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
    }
}
