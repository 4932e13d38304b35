//! Per-function local facts: the leaf observations the dataflow rules
//! propagate through the call graph.
//!
//! Facts are extracted once per file from the significant-token stream
//! and attributed to the innermost enclosing function. Test regions
//! contribute nothing. Each fact class records the source line and a
//! short human-readable description that ends up verbatim in traces.

use crate::callgraph::{CallGraph, POOL_ENTRY_POINTS};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// The observability plane (`obs`, its sink consumers
/// `profile`/`telemetry`, and the allocation profiler `memprof`),
/// audited by design and one-directional —
/// events flow in, reports flow out-of-band — so two interprocedural
/// rules treat it specially: its clock/env/hash-order reads do not seed
/// determinism taint (its nondeterminism cannot steer result values),
/// and its functions are exempt from the hot-path allocation budget
/// (formatting an event is the accepted cost of having a sink
/// installed, paid per *event*, not per sample). The line-local rules
/// still bar result crates from touching these APIs directly, and the
/// observability crates carry their own bit-identity tests.
pub const OBSERVABILITY_CRATES: &[&str] = &["obs", "profile", "telemetry", "memprof"];

/// Crates whose mutexes participate in the lock-order analysis. The
/// pool's own synchronization (`par`) is the audited domain of the one
/// unsafe crate and is excluded.
pub const LOCK_SCOPE_CRATES: &[&str] = &["store", "profile", "obs", "serve"];

/// One located fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// 1-based line.
    pub line: u32,
    /// What was observed (e.g. "wall-clock read (`Instant::now`)").
    pub what: String,
    /// Only reportable under `--strict` (slice-indexing panics).
    pub strict_only: bool,
}

/// One `.lock()` acquisition site.
#[derive(Debug, Clone)]
pub struct LockFact {
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Lock identity: `crate.receiver` (e.g. `store.inner`).
    pub id: String,
    /// Significant-token index of the `lock` identifier.
    pub sig_idx: usize,
    /// `Some(end)` when the guard is bound with `let` and plausibly held
    /// to that significant-token index (end of the enclosing body or an
    /// explicit `drop(guard)`); `None` for a statement-scoped temporary.
    pub held_until: Option<usize>,
    /// End of the statement the acquisition sits in (for temporaries).
    pub stmt_end: usize,
}

/// All facts for one function.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Determinism-taint sources.
    pub taint: Vec<Fact>,
    /// Panic sites (unwrap/expect/panicking macros; indexing is
    /// `strict_only`).
    pub panics: Vec<Fact>,
    /// Per-call allocation sites (`Vec::new`/`push`/`to_vec`/`format!`).
    pub allocs: Vec<Fact>,
    /// Mutex acquisitions (lock-order scope crates only).
    pub locks: Vec<LockFact>,
    /// Pool-boundary call sites (`par_map`/`scope`…): (line, sig index).
    pub pool_calls: Vec<(u32, usize)>,
    /// Hot-path span seed sites: (line, span constant name).
    pub hot_spans: Vec<(u32, String)>,
}

/// Extracts facts for every function in the graph. Returned map is
/// keyed by function index; functions without facts are absent.
pub fn extract(
    files: &[SourceFile],
    graph: &CallGraph,
    hot_spans: &[String],
) -> BTreeMap<usize, FnFacts> {
    let mut out: BTreeMap<usize, FnFacts> = BTreeMap::new();
    for (file_idx, file) in files.iter().enumerate() {
        scan_file(file, file_idx, graph, hot_spans, &mut out);
    }
    out
}

fn scan_file(
    file: &SourceFile,
    file_idx: usize,
    graph: &CallGraph,
    hot_spans: &[String],
    out: &mut BTreeMap<usize, FnFacts>,
) {
    let lock_scope = LOCK_SCOPE_CRATES.contains(&file.crate_name.as_str());
    let n = file.sig.len();
    for i in 0..n {
        let Some(t) = file.sig_token(i) else { continue };
        if file.in_test_code(t.line) {
            continue;
        }
        let Some(fn_idx) = graph.enclosing_fn(file_idx, i) else {
            continue;
        };
        let push = |out: &mut BTreeMap<usize, FnFacts>, f: &dyn Fn(&mut FnFacts)| {
            f(out.entry(fn_idx).or_default());
        };
        match (t.kind, t.text.as_str()) {
            // ---- determinism-taint sources ----
            (TokenKind::Ident, "Instant" | "SystemTime")
                if file.sig_matches(
                    i + 1,
                    &[
                        (TokenKind::Punct, Some(":")),
                        (TokenKind::Punct, Some(":")),
                        (TokenKind::Ident, Some("now")),
                    ],
                ) =>
            {
                let what = format!("wall-clock read (`{}::now`)", t.text);
                push(out, &|f| {
                    f.taint.push(Fact {
                        line: t.line,
                        what: what.clone(),
                        strict_only: false,
                    })
                });
            }
            (TokenKind::Ident, "env")
                if file.sig_matches(
                    i + 1,
                    &[(TokenKind::Punct, Some(":")), (TokenKind::Punct, Some(":"))],
                ) && file
                    .sig_token(i + 3)
                    .is_some_and(|v| v.kind == TokenKind::Ident) =>
            {
                let var = file
                    .sig_token(i + 3)
                    .map(|v| v.text.clone())
                    .unwrap_or_default();
                let what = format!("environment read (`env::{var}`)");
                push(out, &|f| {
                    f.taint.push(Fact {
                        line: t.line,
                        what: what.clone(),
                        strict_only: false,
                    })
                });
            }
            (TokenKind::Ident, "available_parallelism") => {
                push(out, &|f| {
                    f.taint.push(Fact {
                        line: t.line,
                        what: "machine-state read (`available_parallelism`)".into(),
                        strict_only: false,
                    })
                });
            }
            (TokenKind::Ident, "RandomState" | "HashMap" | "HashSet") => {
                let what = format!("hash-order nondeterminism (`{}`)", t.text);
                push(out, &|f| {
                    f.taint.push(Fact {
                        line: t.line,
                        what: what.clone(),
                        strict_only: false,
                    })
                });
            }
            (TokenKind::Ident, "thread")
                if file.sig_matches(
                    i + 1,
                    &[
                        (TokenKind::Punct, Some(":")),
                        (TokenKind::Punct, Some(":")),
                        (TokenKind::Ident, Some("current")),
                    ],
                ) =>
            {
                push(out, &|f| {
                    f.taint.push(Fact {
                        line: t.line,
                        what: "thread-identity read (`thread::current`)".into(),
                        strict_only: false,
                    })
                });
            }
            (TokenKind::Ident, "as")
                if file
                    .sig_token(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Ident && n.text == "usize")
                    && looks_like_pointer_cast(file, i) =>
            {
                push(out, &|f| {
                    f.taint.push(Fact {
                        line: t.line,
                        what: "pointer-as-value cast (`as usize` on a pointer)".into(),
                        strict_only: false,
                    })
                });
            }
            // ---- panic sites ----
            (TokenKind::Ident, "unwrap" | "expect")
                if is_method_call(file, i) && !is_lock_poison_chain(file, i) =>
            {
                let what = format!("`.{}()` panic site", t.text);
                push(out, &|f| {
                    f.panics.push(Fact {
                        line: t.line,
                        what: what.clone(),
                        strict_only: false,
                    })
                });
            }
            (TokenKind::Ident, "panic" | "unreachable" | "todo" | "unimplemented")
                if file
                    .sig_token(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "!") =>
            {
                let what = format!("`{}!` panic site", t.text);
                push(out, &|f| {
                    f.panics.push(Fact {
                        line: t.line,
                        what: what.clone(),
                        strict_only: false,
                    })
                });
            }
            (TokenKind::Punct, "[") if is_index_expr(file, i) => {
                push(out, &|f| {
                    f.panics.push(Fact {
                        line: t.line,
                        what: "slice-indexing panic site".into(),
                        strict_only: true,
                    })
                });
            }
            // ---- per-call allocation sites ----
            (TokenKind::Ident, "Vec")
                if file.sig_matches(
                    i + 1,
                    &[
                        (TokenKind::Punct, Some(":")),
                        (TokenKind::Punct, Some(":")),
                        (TokenKind::Ident, Some("new")),
                    ],
                ) =>
            {
                push(out, &|f| {
                    f.allocs.push(Fact {
                        line: t.line,
                        what: "`Vec::new`".into(),
                        strict_only: false,
                    })
                });
            }
            (TokenKind::Ident, "push" | "to_vec") if is_method_call(file, i) => {
                let what = format!("`.{}(…)`", t.text);
                push(out, &|f| {
                    f.allocs.push(Fact {
                        line: t.line,
                        what: what.clone(),
                        strict_only: false,
                    })
                });
            }
            (TokenKind::Ident, "format")
                if file
                    .sig_token(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "!") =>
            {
                push(out, &|f| {
                    f.allocs.push(Fact {
                        line: t.line,
                        what: "`format!`".into(),
                        strict_only: false,
                    })
                });
            }
            // ---- lock and pool-boundary sites ----
            (TokenKind::Ident, "lock")
                if lock_scope
                    && is_method_call(file, i)
                    && file
                        .sig_token(i + 2)
                        .is_some_and(|n| n.kind == TokenKind::Punct && n.text == ")") =>
            {
                let receiver = lock_receiver(file, i).unwrap_or_else(|| "<unknown>".into());
                let id = format!("{}.{}", file.crate_name, receiver);
                let held_until = bound_guard_extent(file, i, graph, file_idx);
                let stmt_end = statement_end(file, i);
                push(out, &|f| {
                    f.locks.push(LockFact {
                        line: t.line,
                        id: id.clone(),
                        sig_idx: i,
                        held_until,
                        stmt_end,
                    })
                });
            }
            (TokenKind::Ident, name)
                if POOL_ENTRY_POINTS.contains(&name)
                    && file
                        .sig_token(i + 1)
                        .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(") =>
            {
                push(out, &|f| f.pool_calls.push((t.line, i)));
            }
            // ---- hot-path span seeds ----
            (TokenKind::Ident, "span")
                if file
                    .sig_token(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(") =>
            {
                // Scan the argument tokens for a hot-path span constant.
                let mut depth = 1usize;
                let mut j = i + 2;
                let mut hit: Option<String> = None;
                while depth > 0 {
                    let Some(tok) = file.sig_token(j) else { break };
                    match (tok.kind, tok.text.as_str()) {
                        (TokenKind::Punct, "(") => depth += 1,
                        (TokenKind::Punct, ")") => depth -= 1,
                        (TokenKind::Ident, name) if hot_spans.iter().any(|h| h == name) => {
                            hit = Some(name.to_string());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(name) = hit {
                    push(out, &|f| f.hot_spans.push((t.line, name.clone())));
                }
            }
            _ => {}
        }
    }
}

/// `ident` at `i` is in method-call position: `.ident(`.
fn is_method_call(file: &SourceFile, i: usize) -> bool {
    i > 0
        && file
            .sig_token(i - 1)
            .is_some_and(|p| p.kind == TokenKind::Punct && p.text == ".")
        && file
            .sig_token(i + 1)
            .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(")
}

/// `.unwrap()`/`.expect(…)` directly chained on a `lock()` result, or an
/// `expect` whose message names poisoning. Lock poisoning only occurs
/// after another thread has already panicked — these sites amplify an
/// existing panic rather than originate one, so panic-reachability
/// exempts them (the originating site is the finding).
fn is_lock_poison_chain(file: &SourceFile, i: usize) -> bool {
    let chained_on_lock = i >= 4
        && file.sig_matches(
            i - 4,
            &[
                (TokenKind::Ident, Some("lock")),
                (TokenKind::Punct, Some("(")),
                (TokenKind::Punct, Some(")")),
                (TokenKind::Punct, Some(".")),
            ],
        );
    let poison_message = file
        .sig_token(i + 2)
        .is_some_and(|a| a.kind == TokenKind::Str && a.text.contains("poison"));
    chained_on_lock || poison_message
}

/// The slice-index heuristic shared with the line-local rule: `[` that
/// directly follows a value (identifier, `)`, or `]`), excluding macro
/// brackets.
fn is_index_expr(file: &SourceFile, i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let is_index = file.sig_token(i - 1).is_some_and(|p| {
        p.kind == TokenKind::Ident
            || (p.kind == TokenKind::Punct && (p.text == ")" || p.text == "]"))
    });
    let after_bang = i >= 2
        && file
            .sig_token(i - 1)
            .is_some_and(|p| p.kind == TokenKind::Punct && p.text == "!");
    is_index && !after_bang
}

/// `as usize` applied to something pointer-shaped: an `as_ptr()` call or
/// a `ptr`-named value within the preceding few tokens.
fn looks_like_pointer_cast(file: &SourceFile, as_idx: usize) -> bool {
    let start = as_idx.saturating_sub(6);
    (start..as_idx).any(|j| {
        file.sig_token(j).is_some_and(|t| {
            t.kind == TokenKind::Ident
                && (t.text == "as_ptr" || t.text == "ptr" || t.text.ends_with("_ptr"))
        })
    })
}

/// The receiver identity of `.lock()` at significant index `lock_idx`:
/// the nearest identifier before the `.`, skipping one matched call
/// group (`self.shard().lock()` → `shard`).
fn lock_receiver(file: &SourceFile, lock_idx: usize) -> Option<String> {
    let mut j = lock_idx.checked_sub(2)?; // skip the `.`
    let t = file.sig_token(j)?;
    if t.kind == TokenKind::Punct && t.text == ")" {
        // Walk back over the matched paren group.
        let mut depth = 1usize;
        while depth > 0 {
            j = j.checked_sub(1)?;
            let t = file.sig_token(j)?;
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    ")" => depth += 1,
                    "(" => depth -= 1,
                    _ => {}
                }
            }
        }
        j = j.checked_sub(1)?;
    }
    let t = file.sig_token(j)?;
    (t.kind == TokenKind::Ident).then(|| t.text.clone())
}

/// If the lock chain is bound with `let`, the extent the guard is
/// plausibly held for: up to an explicit `drop(<name>)` or the end of
/// the enclosing function body. `None` for statement-scoped temporaries.
fn bound_guard_extent(
    file: &SourceFile,
    lock_idx: usize,
    graph: &CallGraph,
    file_idx: usize,
) -> Option<usize> {
    // Walk back to the statement head looking for `let [mut] name =`.
    let mut j = lock_idx;
    let mut name: Option<String> = None;
    let mut hops = 0;
    while j > 0 && hops < 16 {
        j -= 1;
        hops += 1;
        let t = file.sig_token(j)?;
        if t.kind == TokenKind::Punct && (t.text == ";" || t.text == "{" || t.text == "}") {
            break;
        }
        if t.kind == TokenKind::Ident && t.text == "let" {
            let mut k = j + 1;
            if file
                .sig_token(k)
                .is_some_and(|m| m.kind == TokenKind::Ident && m.text == "mut")
            {
                k += 1;
            }
            let n = file.sig_token(k)?;
            let eq = file
                .sig_token(k + 1)
                .is_some_and(|e| e.kind == TokenKind::Punct && e.text == "=");
            if n.kind == TokenKind::Ident && eq {
                name = Some(n.text.clone());
            }
            break;
        }
    }
    let name = name?;
    let body_end = graph
        .enclosing_fn(file_idx, lock_idx)
        .map(|f| graph.fns[f].body.end)?;
    // An explicit `drop(name)` releases early.
    let mut k = lock_idx;
    while k < body_end {
        let Some(t) = file.sig_token(k) else { break };
        if t.kind == TokenKind::Ident
            && t.text == "drop"
            && file
                .sig_token(k + 1)
                .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(")
            && file
                .sig_token(k + 2)
                .is_some_and(|n| n.kind == TokenKind::Ident && n.text == name)
        {
            return Some(k);
        }
        k += 1;
    }
    Some(body_end)
}

/// The significant-token index just past the statement containing
/// `idx` (the next `;` at the current nesting level).
fn statement_end(file: &SourceFile, idx: usize) -> usize {
    let mut depth = 0i32;
    let mut j = idx;
    while let Some(t) = file.sig_token(j) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return j;
                    }
                }
                ";" if depth == 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::symbols::extract_fns;

    fn facts_for(crate_name: &str, src: &str) -> BTreeMap<usize, FnFacts> {
        let file = SourceFile::parse("crates/x/src/a.rs", crate_name, false, src);
        let fns = extract_fns(&file, 0);
        let files = vec![file];
        let graph = callgraph::build(&files, fns, None);
        extract(&files, &graph, &["SPAN_FUSION".to_string()])
    }

    #[test]
    fn clock_env_and_hash_sources() {
        let f = facts_for(
            "cli",
            "fn f() {\n    let t = Instant::now();\n    let v = env::var(\"X\");\n    let m: HashMap<u8, u8> = Default::default();\n}\n",
        );
        let taint = &f[&0].taint;
        assert_eq!(taint.len(), 3, "{taint:#?}");
        assert!(taint[0].what.contains("Instant::now"));
        assert!(taint[1].what.contains("env::var"));
        assert!(taint[2].what.contains("HashMap"));
    }

    #[test]
    fn lock_poison_chains_are_not_panic_sites() {
        let f = facts_for(
            "par",
            "fn f(m: &Mutex<u8>, o: Option<u8>) {\n    let a = m.lock().unwrap();\n    let b = m.lock().expect(\"state poisoned\");\n    let c = o.unwrap();\n}\n",
        );
        let panics = &f[&0].panics;
        assert_eq!(panics.len(), 1, "{panics:#?}");
        assert_eq!(panics[0].line, 4);
    }

    #[test]
    fn alloc_sites() {
        let f = facts_for(
            "core",
            "fn f(xs: &[f64]) -> Vec<f64> {\n    let mut v = Vec::new();\n    v.push(1.0);\n    let w = xs.to_vec();\n    let s = format!(\"{}\", 1);\n    v\n}\n",
        );
        let allocs = &f[&0].allocs;
        assert_eq!(allocs.len(), 4, "{allocs:#?}");
    }

    #[test]
    fn lock_receiver_identity() {
        let f = facts_for(
            "store",
            "impl S {\n    fn a(&self) { let g = self.inner.lock().unwrap(); }\n    fn b(&self) { self.shard().lock().expect(\"poisoned\"); }\n}\n",
        );
        let ids: Vec<&str> = f
            .values()
            .flat_map(|ff| ff.locks.iter().map(|l| l.id.as_str()))
            .collect();
        assert!(ids.contains(&"store.inner"), "{ids:?}");
        assert!(ids.contains(&"store.shard"), "{ids:?}");
    }

    #[test]
    fn bound_guard_held_to_fn_end_temporary_is_not() {
        let f = facts_for(
            "store",
            "impl S {\n    fn a(&self) {\n        let g = self.inner.lock().unwrap();\n        use_it(&g);\n    }\n    fn b(&self) { self.inner.lock().unwrap().len(); }\n}\n",
        );
        let locks: Vec<&LockFact> = f.values().flat_map(|ff| ff.locks.iter()).collect();
        assert_eq!(locks.len(), 2);
        assert!(locks[0].held_until.is_some());
        assert!(locks[1].held_until.is_none());
    }

    #[test]
    fn hot_span_seeds_by_constant_name() {
        let f = facts_for(
            "core",
            "fn fuse() {\n    let _span = uniq_obs::span(uniq_obs::names::SPAN_FUSION);\n}\nfn other() {\n    let _span = uniq_obs::span(uniq_obs::names::SPAN_BATCH);\n}\n",
        );
        assert_eq!(f[&0].hot_spans.len(), 1);
        assert_eq!(f[&0].hot_spans[0].1, "SPAN_FUSION");
        assert!(f.get(&1).map(|x| x.hot_spans.is_empty()).unwrap_or(true));
    }

    #[test]
    fn pointer_as_value_cast() {
        let f = facts_for(
            "par",
            "fn f(xs: &[u8]) -> usize {\n    xs.as_ptr() as usize\n}\nfn g(n: u32) -> usize { n as usize }\n",
        );
        assert_eq!(f[&0].taint.len(), 1);
        assert!(f[&0].taint[0].what.contains("pointer-as-value"));
        assert!(f.get(&1).map(|x| x.taint.is_empty()).unwrap_or(true));
    }
}
