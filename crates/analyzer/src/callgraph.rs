//! A conservative whole-workspace call graph.
//!
//! Resolution is name- and arity-based, deliberately over-approximate
//! (an edge too many widens a reachability set; an edge too few hides a
//! real path, so ties break toward adding the edge):
//!
//! - **Free calls** `foo(…)` resolve to every first-party free function
//!   named `foo` whose parameter count matches the argument count, in
//!   any crate (cross-crate laundering through a helper is exactly what
//!   the dataflow rules exist to catch).
//! - **Method calls** `x.foo(…)` resolve to every first-party method
//!   named `foo` with a `self` receiver and `args + 1` parameters —
//!   receiver types are unknown, and trait objects (`dyn Sink`) make
//!   even known types insufficient, so all impls stay candidates.
//! - **Qualified calls** `Qual::foo(…)` narrow by the qualifier: a
//!   first-party type name keeps only that type's associated functions
//!   and methods; a first-party crate or module name keeps only that
//!   scope's free functions; an unknown qualifier (`Vec`, `String`,
//!   `std`, …) resolves to nothing — calls into the standard library
//!   are facts about the caller, not edges.
//! - **Closures** need no special casing for reachability: a closure's
//!   body lies inside its defining function's token range, so calls made
//!   from a closure handed to `uniq-par` attribute to the submitting
//!   function, which is the causal truth the rules want. The pool
//!   *boundary* (what is live across `par_map`) is tracked separately by
//!   the lock-order facts.
//!
//! Call sites inside test regions are skipped, matching the rule
//! engine's test exemption.

use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::symbols::{FnDef, FnKind};
use std::collections::{BTreeMap, BTreeSet};

/// Which crates each crate can name: the transitive dependency closure
/// (itself included). Resolution filters candidate callees through this
/// — a call in `geometry` cannot land in `obs` if `geometry` does not
/// depend on `obs`, which kills the worst name-collision edges
/// (`.expect(…)` resolving into a JSON parser three crates away).
pub type DepClosure = BTreeMap<String, BTreeSet<String>>;

/// Calls that hand work to other threads (`uniq-par`'s maps, and any
/// `scope(…)`, `std::thread::scope` too) mark a parallel boundary.
pub const POOL_ENTRY_POINTS: &[&str] = &["par_map", "par_map_chunked", "try_par_map", "scope"];

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Calling function (index into the graph's `fns`).
    pub caller: usize,
    /// Called function (index into the graph's `fns`).
    pub callee: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
}

/// The workspace call graph over all extracted [`FnDef`]s.
#[derive(Debug)]
pub struct CallGraph {
    /// All function definitions, workspace-wide, in file order.
    pub fns: Vec<FnDef>,
    /// All resolved edges, sorted.
    pub edges: Vec<Edge>,
    /// Forward adjacency: `fns` index → callee edge indices.
    pub out_edges: Vec<Vec<usize>>,
    /// Reverse adjacency: `fns` index → caller edge indices.
    pub in_edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Index of the innermost function in `file_index` whose body
    /// contains significant-token index `sig_idx`, if any.
    pub fn enclosing_fn(&self, file_index: usize, sig_idx: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_len = usize::MAX;
        for (i, f) in self.fns.iter().enumerate() {
            if f.file == file_index && f.body.contains(&sig_idx) {
                let len = f.body.end - f.body.start;
                if len < best_len {
                    best_len = len;
                    best = Some(i);
                }
            }
        }
        best
    }
}

/// How a call site names its target.
#[derive(Debug, PartialEq, Eq)]
enum CallStyle {
    Free,
    Method,
    Qualified(String),
}

/// Builds the call graph for a set of parsed files and their extracted
/// functions. `fns` must hold the concatenated output of
/// [`crate::symbols::extract_fns`] over `files`, in file order.
/// `deps`, when given, restricts resolution to each caller crate's
/// dependency closure; `None` (fixture analyses without manifests)
/// allows every crate pair.
pub fn build(files: &[SourceFile], fns: Vec<FnDef>, deps: Option<&DepClosure>) -> CallGraph {
    let allowed = |caller: &str, callee: &str| -> bool {
        caller == callee
            || deps.is_none_or(|m| m.get(caller).is_some_and(|set| set.contains(callee)))
    };
    // Name indices for resolution.
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut owners: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut crate_names: BTreeMap<&str, ()> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        crate_names.entry(f.crate_name.as_str()).or_insert(());
        match &f.kind {
            FnKind::Free => free_by_name.entry(f.name.as_str()).or_default().push(i),
            FnKind::Method { owner, .. } => {
                methods_by_name.entry(f.name.as_str()).or_default().push(i);
                owners.entry(owner.as_str()).or_default().push(i);
            }
        }
    }

    let mut edges: Vec<Edge> = Vec::new();
    for (caller_idx, caller) in fns.iter().enumerate() {
        let file = &files[caller.file];
        let body = caller.body.clone();
        let mut i = body.start;
        while i < body.end {
            let Some(t) = file.sig_token(i) else { break };
            if t.kind != TokenKind::Ident || file.in_test_code(t.line) {
                i += 1;
                continue;
            }
            // Call form: ident followed by `(`; skip definitions
            // (`fn name(`) and macros (`name!(`).
            let open = file
                .sig_token(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(");
            if !open {
                i += 1;
                continue;
            }
            let prev = i.checked_sub(1).and_then(|p| file.sig_token(p));
            if prev.is_some_and(|p| p.kind == TokenKind::Ident && p.text == "fn") {
                i += 1;
                continue;
            }
            let style = match prev {
                Some(p) if p.kind == TokenKind::Punct && p.text == "." => CallStyle::Method,
                Some(p) if p.kind == TokenKind::Punct && p.text == ":" => {
                    // `Qual::name(` — the qualifier ident sits before the
                    // double colon.
                    match i
                        .checked_sub(3)
                        .and_then(|q| file.sig_token(q))
                        .filter(|q| q.kind == TokenKind::Ident)
                    {
                        Some(q) => CallStyle::Qualified(q.text.clone()),
                        None => CallStyle::Free,
                    }
                }
                Some(p) if p.kind == TokenKind::Punct && p.text == "!" => {
                    i += 1;
                    continue;
                }
                _ => CallStyle::Free,
            };
            // Attribute the call to the innermost fn only: outer bodies
            // contain inner fns' tokens.
            if !is_innermost(&fns, caller_idx, caller.file, i) {
                i += 1;
                continue;
            }
            let argc = count_args(file, i + 1, body.end);
            let name = t.text.as_str();
            let mut targets: Vec<usize> = Vec::new();
            let in_scope =
                |c: usize| allowed(caller.crate_name.as_str(), fns[c].crate_name.as_str());
            match &style {
                CallStyle::Free => {
                    if let Some(cands) = free_by_name.get(name) {
                        targets.extend(
                            cands
                                .iter()
                                .filter(|&&c| fns[c].params == argc && in_scope(c)),
                        );
                    }
                }
                CallStyle::Method => {
                    if let Some(cands) = methods_by_name.get(name) {
                        targets.extend(cands.iter().filter(|&&c| {
                            matches!(&fns[c].kind, FnKind::Method { has_self: true, .. })
                                && fns[c].params == argc + 1
                                && in_scope(c)
                        }));
                    }
                }
                CallStyle::Qualified(q) => {
                    let crate_q = q.strip_prefix("uniq_").unwrap_or(q);
                    if let Some(members) = owners.get(q.as_str()) {
                        // Type-qualified: that type's associated fns and
                        // methods (UFCS passes self positionally).
                        targets.extend(members.iter().filter(|&&c| {
                            fns[c].name == name && fns[c].params == argc && in_scope(c)
                        }));
                    } else if crate_names.contains_key(crate_q) || q == "crate" {
                        if let Some(cands) = free_by_name.get(name) {
                            targets.extend(cands.iter().filter(|&&c| {
                                fns[c].params == argc
                                    && (q == "crate" && fns[c].crate_name == caller.crate_name
                                        || fns[c].crate_name == crate_q)
                                    && in_scope(c)
                            }));
                        }
                    } else if is_module_qualifier(&fns, q) {
                        if let Some(cands) = free_by_name.get(name) {
                            targets.extend(cands.iter().filter(|&&c| {
                                fns[c].params == argc
                                    && fns[c].symbol.contains(&format!("::{q}::"))
                                    && in_scope(c)
                            }));
                        }
                    }
                    // Unknown qualifier (std, Vec, String, …): no edge.
                }
            }
            for callee in targets {
                if callee != caller_idx {
                    edges.push(Edge {
                        caller: caller_idx,
                        callee,
                        line: t.line,
                    });
                }
            }
            i += 1;
        }
    }
    edges.sort();
    edges.dedup();

    let mut out_edges = vec![Vec::new(); fns.len()];
    let mut in_edges = vec![Vec::new(); fns.len()];
    for (ei, e) in edges.iter().enumerate() {
        out_edges[e.caller].push(ei);
        in_edges[e.callee].push(ei);
    }
    CallGraph {
        fns,
        edges,
        out_edges,
        in_edges,
    }
}

/// Is `fn_idx` the innermost function whose body contains `sig_idx`?
fn is_innermost(fns: &[FnDef], fn_idx: usize, file: usize, sig_idx: usize) -> bool {
    let own = &fns[fn_idx].body;
    let own_len = own.end - own.start;
    !fns.iter().any(|other| {
        other.file == file
            && other.body.contains(&sig_idx)
            && (other.body.end - other.body.start) < own_len
    })
}

/// Counts the arguments of the call whose `(` sits at significant index
/// `open_idx`: top-level commas + 1 for a non-empty list. Commas inside
/// nested brackets or closure parameter pipes are not separators.
fn count_args(file: &SourceFile, open_idx: usize, limit: usize) -> usize {
    let mut depth = 1usize;
    let mut i = open_idx + 1;
    let mut commas = 0usize;
    let mut any = false;
    let mut pipes = 0u8; // inside |…| closure params when odd
    while depth > 0 && i < limit + 64 {
        let Some(t) = file.sig_token(i) else { break };
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "(" | "[" | "{") => {
                depth += 1;
                any = true;
            }
            (TokenKind::Punct, ")" | "]" | "}") => depth -= 1,
            (TokenKind::Punct, "|") if depth == 1 => {
                pipes ^= 1;
                any = true;
            }
            (TokenKind::Punct, ",") if depth == 1 && pipes == 0 => {
                let trailing = file
                    .sig_token(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == ")");
                if !trailing {
                    commas += 1;
                }
            }
            _ => any = true,
        }
        i += 1;
    }
    if any || commas > 0 {
        commas + 1
    } else {
        0
    }
}

/// Does any function's symbol path contain `q` as a module segment?
fn is_module_qualifier(fns: &[FnDef], q: &str) -> bool {
    let needle = format!("::{q}::");
    fns.iter().any(|f| f.symbol.contains(&needle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::extract_fns;

    fn graph(sources: &[(&str, &str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(path, krate, text)| SourceFile::parse(path, krate, false, text))
            .collect();
        let mut fns = Vec::new();
        for (i, f) in files.iter().enumerate() {
            fns.extend(extract_fns(f, i));
        }
        build(&files, fns, None)
    }

    fn has_edge(g: &CallGraph, caller: &str, callee: &str) -> bool {
        g.edges
            .iter()
            .any(|e| g.fns[e.caller].name == caller && g.fns[e.callee].name == callee)
    }

    #[test]
    fn free_calls_resolve_cross_crate_by_name_and_arity() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "core",
                "pub fn entry(x: f64) -> f64 { helper(x) }",
            ),
            (
                "crates/obs/src/b.rs",
                "obs",
                "pub fn helper(x: f64) -> f64 { x }\npub fn helper(x: f64, y: f64) -> f64 { x + y }",
            ),
        ]);
        let callees: Vec<_> = g
            .edges
            .iter()
            .filter(|e| g.fns[e.caller].name == "entry")
            .map(|e| g.fns[e.callee].params)
            .collect();
        assert_eq!(callees, vec![1], "only the arity-1 helper matches");
    }

    #[test]
    fn method_calls_resolve_to_all_impls() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "core",
                "pub fn go(s: &S) { s.handle(1); }",
            ),
            (
                "crates/obs/src/b.rs",
                "obs",
                "impl A { pub fn handle(&self, x: u8) {} }\nimpl B { pub fn handle(&self, x: u8) {} }\nimpl C { pub fn handle(&self) {} }",
            ),
        ]);
        let n = g
            .edges
            .iter()
            .filter(|e| g.fns[e.caller].name == "go")
            .count();
        assert_eq!(n, 2, "both arity-matching impls are candidates");
    }

    #[test]
    fn unknown_qualifiers_produce_no_edges() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "core",
                "pub fn go() { let v = Vec::new(); }",
            ),
            (
                "crates/obs/src/b.rs",
                "obs",
                "impl Thing { pub fn new() -> Thing { Thing } }",
            ),
        ]);
        assert!(!has_edge(&g, "go", "new"), "Vec is not a first-party type");
    }

    #[test]
    fn type_qualified_calls_narrow_to_the_owner() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "core",
                "pub fn go() { let t = Thing::new(); }",
            ),
            (
                "crates/obs/src/b.rs",
                "obs",
                "impl Thing { pub fn new() -> Thing { Thing } }\nimpl Other { pub fn new() -> Other { Other } }",
            ),
        ]);
        let callees: Vec<_> = g
            .edges
            .iter()
            .filter(|e| g.fns[e.caller].name == "go")
            .map(|e| g.fns[e.callee].symbol.clone())
            .collect();
        assert_eq!(callees, vec!["obs::b::Thing::new".to_string()]);
    }

    #[test]
    fn crate_qualified_calls_narrow_to_the_crate() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "core",
                "pub fn go() { uniq_obs::flush(); }",
            ),
            ("crates/obs/src/b.rs", "obs", "pub fn flush() {}"),
            ("crates/par/src/c.rs", "par", "pub fn flush() {}"),
        ]);
        let callees: Vec<_> = g
            .edges
            .iter()
            .filter(|e| g.fns[e.caller].name == "go")
            .map(|e| g.fns[e.callee].crate_name.clone())
            .collect();
        assert_eq!(callees, vec!["obs".to_string()]);
    }

    #[test]
    fn closure_calls_attribute_to_the_enclosing_fn() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "core",
                "pub fn submit(xs: &[f64]) { run(xs, |x| crunch(x)); }\nfn crunch(x: &f64) -> f64 { *x }\nfn run(xs: &[f64], f: impl Fn(&f64) -> f64) {}",
            ),
        ]);
        assert!(has_edge(&g, "submit", "crunch"));
        assert!(!has_edge(&g, "crunch", "crunch"));
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn go() { helper!(); }\nfn helper() {}",
        )]);
        assert!(!has_edge(&g, "go", "helper"));
    }

    #[test]
    fn test_region_calls_are_skipped() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "core",
            "fn helper() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::helper(); }\n}\n",
        )]);
        assert!(g.edges.is_empty());
    }
}
