//! Symbol table: every function definition in the workspace, with
//! enough identity for conservative name/arity call resolution.
//!
//! The extractor walks a file's significant-token stream tracking brace
//! depth, inline `mod` nesting, and `impl`/`trait` blocks, and records
//! each `fn` it meets: name, visibility, parameter count, receiver
//! (`self`) presence, the body's token range, and the module path the
//! file's location implies (`crates/core/src/fusion.rs` → `core::fusion`,
//! `mod inner {}` appends). Bodies of functions in test regions are
//! skipped entirely — test code is exempt from every rule, so it must
//! neither seed nor carry dataflow.

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// How a function is defined, which constrains how calls resolve to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FnKind {
    /// A free function at module scope.
    Free,
    /// A function inside an `impl` or `trait` block, tagged with the
    /// (last path segment of the) self type or trait name.
    Method {
        /// Type or trait the function is attached to.
        owner: String,
        /// Whether the first parameter is a `self` receiver.
        has_self: bool,
    },
}

/// One function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the defining file in the analysis file list.
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Crate short name (`core`, `obs`, ...).
    pub crate_name: String,
    /// Fully qualified display symbol, e.g. `core::fusion::fuse`.
    pub symbol: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Number of declared parameters, `self` included.
    pub params: usize,
    /// `pub` without a restriction like `pub(crate)`.
    pub is_pub: bool,
    /// Free function or method, see [`FnKind`].
    pub kind: FnKind,
    /// Significant-token index range of the body (exclusive end).
    /// Empty for bodyless trait-method declarations.
    pub body: std::ops::Range<usize>,
}

/// The module path a file's location implies: `src/lib.rs` and
/// `src/main.rs` are the crate root (empty path); any other file under
/// `src/` contributes its relative path segments (`mod.rs` folds into
/// its directory).
pub fn file_module_path(rel_path: &str) -> Vec<String> {
    let Some(idx) = rel_path.find("src/") else {
        return Vec::new();
    };
    let under_src = &rel_path[idx + 4..];
    let mut parts: Vec<String> = under_src.split('/').map(str::to_string).collect();
    let Some(last) = parts.pop() else {
        return Vec::new();
    };
    let stem = last.trim_end_matches(".rs");
    if stem != "lib" && stem != "main" && stem != "mod" {
        parts.push(stem.to_string());
    }
    parts
}

/// Extracts every function defined in `file`. `file_index` is stamped
/// into each [`FnDef`] so call resolution can find the defining file.
pub fn extract_fns(file: &SourceFile, file_index: usize) -> Vec<FnDef> {
    let base_path = file_module_path(&file.path);
    let mut out = Vec::new();
    // Scope stack entries: (brace depth at open, kind).
    enum Ctx {
        Mod(String),
        Impl(String),
    }
    let mut ctx: Vec<(usize, Ctx)> = Vec::new();
    let mut depth = 0usize;
    let n = file.sig.len();
    let mut i = 0usize;
    while i < n {
        let Some(t) = file.sig_token(i) else { break };
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "{") => {
                depth += 1;
                i += 1;
            }
            (TokenKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                while ctx.last().is_some_and(|(d, _)| *d > depth) {
                    ctx.pop();
                }
                i += 1;
            }
            (TokenKind::Ident, "mod") => {
                // `mod name {` opens an inline module; `mod name;` is an
                // out-of-line declaration handled by file paths.
                let name = file
                    .sig_token(i + 1)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone());
                if let (Some(name), Some(open)) = (name, file.sig_token(i + 2)) {
                    if open.kind == TokenKind::Punct && open.text == "{" {
                        ctx.push((depth + 1, Ctx::Mod(name)));
                    }
                }
                i += 1;
            }
            (TokenKind::Ident, "impl" | "trait") => {
                let (owner, j) = block_owner(file, i);
                if file
                    .sig_token(j)
                    .is_some_and(|t| t.kind == TokenKind::Punct && t.text == "{")
                {
                    ctx.push((depth + 1, Ctx::Impl(owner)));
                }
                i = j;
            }
            (TokenKind::Ident, "fn") => {
                let Some(name_tok) = file.sig_token(i + 1) else {
                    i += 1;
                    continue;
                };
                if name_tok.kind != TokenKind::Ident {
                    i += 1;
                    continue;
                }
                let fn_line = t.line;
                let name = name_tok.text.clone();
                let is_pub = is_pub_before(file, i);
                // Parameter list: skip generics, then bracket-match the
                // paren group counting top-level commas.
                let mut j = i + 2;
                let mut angle = 0i32;
                while let Some(tok) = file.sig_token(j) {
                    match (tok.kind, tok.text.as_str()) {
                        (TokenKind::Punct, "<") => angle += 1,
                        (TokenKind::Punct, ">") => angle -= 1,
                        (TokenKind::Punct, "(") if angle <= 0 => break,
                        (TokenKind::Punct, "{" | ";") => break,
                        _ => {}
                    }
                    j += 1;
                }
                let mut params = 0usize;
                let mut has_self = false;
                if file
                    .sig_token(j)
                    .is_some_and(|t| t.kind == TokenKind::Punct && t.text == "(")
                {
                    let mut pd = 1usize;
                    let mut k = j + 1;
                    let mut any = false;
                    let mut first = true;
                    while pd > 0 {
                        let Some(tok) = file.sig_token(k) else { break };
                        match (tok.kind, tok.text.as_str()) {
                            (TokenKind::Punct, "(" | "[") => pd += 1,
                            (TokenKind::Punct, ")" | "]") => pd -= 1,
                            (TokenKind::Punct, ",") if pd == 1 => {
                                // A trailing comma right before `)` (the
                                // rustfmt vertical-list style) separates
                                // nothing.
                                let trailing = file
                                    .sig_token(k + 1)
                                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == ")");
                                if !trailing {
                                    params += 1;
                                }
                                first = false;
                            }
                            (TokenKind::Ident, "self") if pd == 1 && first => has_self = true,
                            _ => any = true,
                        }
                        k += 1;
                    }
                    if any || params > 0 || has_self {
                        params += 1;
                    }
                    j = k;
                }
                // Body: next `{` before a `;` at this nesting level. A
                // `;` inside brackets or parens (`-> [T; N]`) is not one.
                let mut body = 0..0;
                let mut k = j;
                let mut angle2 = 0i32;
                let mut bracket = 0i32;
                while let Some(tok) = file.sig_token(k) {
                    match (tok.kind, tok.text.as_str()) {
                        (TokenKind::Punct, "<") => angle2 += 1,
                        (TokenKind::Punct, ">") => angle2 -= 1,
                        (TokenKind::Punct, "[" | "(") => bracket += 1,
                        (TokenKind::Punct, "]" | ")") => bracket -= 1,
                        (TokenKind::Punct, ";") if angle2 <= 0 && bracket <= 0 => break,
                        (TokenKind::Punct, "{") => {
                            let mut bd = 1usize;
                            let mut e = k + 1;
                            while bd > 0 {
                                let Some(b) = file.sig_token(e) else { break };
                                if b.kind == TokenKind::Punct {
                                    match b.text.as_str() {
                                        "{" => bd += 1,
                                        "}" => bd -= 1,
                                        _ => {}
                                    }
                                }
                                e += 1;
                            }
                            body = (k + 1)..(e.saturating_sub(1));
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if !file.in_test_code(fn_line) {
                    let kind = match ctx.iter().rev().find_map(|(_, c)| match c {
                        Ctx::Impl(owner) => Some(owner.clone()),
                        Ctx::Mod(_) => None,
                    }) {
                        Some(owner) => FnKind::Method { owner, has_self },
                        None => FnKind::Free,
                    };
                    let mut path: Vec<String> = vec![file.crate_name.clone()];
                    path.extend(base_path.iter().cloned());
                    for (_, c) in &ctx {
                        if let Ctx::Mod(m) = c {
                            path.push(m.clone());
                        }
                    }
                    if let FnKind::Method { owner, .. } = &kind {
                        if !owner.is_empty() {
                            path.push(owner.clone());
                        }
                    }
                    path.push(name.clone());
                    out.push(FnDef {
                        file: file_index,
                        name,
                        crate_name: file.crate_name.clone(),
                        symbol: path.join("::"),
                        line: fn_line,
                        params,
                        is_pub,
                        kind,
                        body: body.clone(),
                    });
                }
                // Continue scanning *inside* the body too: nested fns and
                // closures contain calls attributed by innermost-range
                // lookup later. Jumping to just past the body's `{` skips
                // that brace token, so account for it in `depth` by hand
                // (the body's closing `}` will rebalance it).
                if body.is_empty() {
                    i = k + 1;
                } else {
                    i = body.start;
                    depth += 1;
                }
            }
            _ => {
                i += 1;
            }
        }
    }
    out
}

/// The owner of the `impl` or `trait` header at significant index `i`
/// and the index where the header ends (its `{`, `;` or `where`): for
/// `impl Trait for Type {` the last path segment before `{`; for
/// `impl Type {` and `trait Name {` likewise. Generic arguments are
/// skipped by taking the last plain identifier at angle depth 0.
pub(crate) fn block_owner(file: &SourceFile, i: usize) -> (String, usize) {
    let mut owner = String::new();
    let mut angle = 0i32;
    let mut j = i + 1;
    while let Some(tok) = file.sig_token(j) {
        match (tok.kind, tok.text.as_str()) {
            (TokenKind::Punct, "{") if angle <= 0 => break,
            (TokenKind::Punct, ";") => break,
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => angle -= 1,
            (TokenKind::Ident, "where") if angle <= 0 => break,
            (TokenKind::Ident, name) if angle <= 0 && name != "for" && name != "dyn" => {
                owner = name.to_string();
            }
            _ => {}
        }
        j += 1;
    }
    (owner, j)
}

/// Does an unrestricted `pub` precede the `fn` at significant index
/// `fn_idx` (allowing the qualifiers `const`/`unsafe`/`async`/`extern`
/// and an ABI string in between)? `pub(crate)`/`pub(super)` are treated
/// as non-public: they are not library entry points.
fn is_pub_before(file: &SourceFile, fn_idx: usize) -> bool {
    let mut i = fn_idx;
    let mut hops = 0;
    while i > 0 && hops < 6 {
        i -= 1;
        hops += 1;
        let Some(t) = file.sig_token(i) else {
            return false;
        };
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "const" | "unsafe" | "async" | "extern") => continue,
            (TokenKind::Str, _) => continue, // extern "C"
            (TokenKind::Ident, "pub") => {
                // `pub(...)` restricts visibility below public.
                return !file
                    .sig_token(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(");
            }
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/core/src/fusion.rs", "core", false, src)
    }

    #[test]
    fn free_fn_extraction() {
        let f = parse("pub fn fuse(a: f64, b: &[f64]) -> f64 { a }\nfn helper() {}\n");
        let fns = extract_fns(&f, 0);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "fuse");
        assert_eq!(fns[0].params, 2);
        assert!(fns[0].is_pub);
        assert_eq!(fns[0].symbol, "core::fusion::fuse");
        assert!(!fns[1].is_pub);
        assert_eq!(fns[1].params, 0);
    }

    #[test]
    fn methods_record_owner_and_self() {
        let f = parse("impl Grid {\n    pub fn len(&self) -> usize { 0 }\n    fn new(n: usize) -> Grid { Grid }\n}\n");
        let fns = extract_fns(&f, 0);
        assert_eq!(fns.len(), 2);
        assert_eq!(
            fns[0].kind,
            FnKind::Method {
                owner: "Grid".into(),
                has_self: true
            }
        );
        assert_eq!(fns[0].params, 1);
        assert_eq!(
            fns[1].kind,
            FnKind::Method {
                owner: "Grid".into(),
                has_self: false
            }
        );
        assert_eq!(fns[1].symbol, "core::fusion::Grid::new");
    }

    #[test]
    fn trait_impl_owner_is_the_type() {
        let f = parse("impl Sink for StderrSink {\n    fn handle(&self, e: &Event) {}\n}\n");
        let fns = extract_fns(&f, 0);
        assert_eq!(
            fns[0].kind,
            FnKind::Method {
                owner: "StderrSink".into(),
                has_self: true
            }
        );
        assert_eq!(fns[0].params, 2);
    }

    #[test]
    fn inline_mod_extends_the_path() {
        let f = parse("mod inner {\n    pub fn helper() {}\n}\n");
        let fns = extract_fns(&f, 0);
        assert_eq!(fns[0].symbol, "core::fusion::inner::helper");
    }

    #[test]
    fn test_region_fns_are_skipped() {
        let f = parse("fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n");
        let fns = extract_fns(&f, 0);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn pub_crate_is_not_public() {
        let f = parse("pub(crate) fn internal() {}\npub const fn speedy() {}\n");
        let fns = extract_fns(&f, 0);
        assert!(!fns[0].is_pub);
        assert!(fns[1].is_pub);
    }

    #[test]
    fn trailing_comma_params_count_once() {
        let f = parse("pub fn fuse_weighted(\n    inputs: &[f64],\n    weights: Option<&[f64]>,\n    cfg: &str,\n) -> f64 {\n    0.0\n}\n");
        let fns = extract_fns(&f, 0);
        assert_eq!(fns[0].params, 3);
    }

    #[test]
    fn array_return_type_keeps_the_body() {
        let f = parse("fn pair() -> [Vec<f64>; 2] {\n    [one(), one()]\n}\nfn f(x: [u8; 4]) -> (u8, [u8; 1]) { x[0] }\n");
        let fns = extract_fns(&f, 0);
        assert_eq!(fns.len(), 2);
        assert!(
            !fns[0].body.is_empty(),
            "`;` inside `[T; N]` ended the signature"
        );
        assert_eq!(fns[1].params, 1);
        assert!(!fns[1].body.is_empty());
    }

    #[test]
    fn module_paths_from_files() {
        assert!(file_module_path("crates/core/src/lib.rs").is_empty());
        assert_eq!(
            file_module_path("crates/core/src/fusion.rs"),
            vec!["fusion".to_string()]
        );
        assert_eq!(
            file_module_path("crates/dsp/src/fft/plan.rs"),
            vec!["fft".to_string(), "plan".to_string()]
        );
        assert_eq!(
            file_module_path("crates/dsp/src/fft/mod.rs"),
            vec!["fft".to_string()]
        );
    }
}
