//! `dead-pub`: public items nothing needs.
//!
//! Subjects are the unrestricted `pub` fns (free and inherent methods),
//! structs, enums, traits, consts, statics and type aliases under
//! `crates/*/src`, outside test regions. Liveness is by name and runs to
//! a fixpoint: an item is live when its identifier appears in
//!
//! * code outside every public item (private fns, `pub(crate)` items,
//!   impls of private types, macro bodies) anywhere in the workspace;
//! * the body of a live item, or an `impl` block of a live type;
//! * the test region of *another* file;
//! * a reference-only file ([`is_reference_path`]): `tests/`,
//!   `crates/*/tests`, `crates/*/benches` and `examples/`.
//!
//! An item's own body and its own `impl Name` blocks never keep it
//! alive, nor does its own file's test region, its own crate's
//! `crates/<c>/tests`, a `mod` declaration or a `pub use` re-export.
//! Fn-pointer paths (`Report::to_json`) are plain identifiers and count;
//! so do inline format captures (`"{VERSION}"`).

use crate::diagnostics::{Diagnostic, Severity};
use crate::flow_rules::FlowOutput;
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use crate::symbols::{block_owner, file_module_path};
use std::collections::{BTreeMap, BTreeSet};

/// The item keywords whose `pub` items are subjects.
const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// Is `path` a file that only *references* items: an integration test,
/// bench or example? Such files are read for identifiers, never linted.
pub fn is_reference_path(path: &str) -> bool {
    let mut parts = path.split('/');
    match parts.next() {
        Some("tests" | "examples") => true,
        Some("crates") => matches!(parts.nth(1), Some("tests" | "benches")),
        _ => false,
    }
}

/// The crate name `c` of a path `crates/<c>/<dir>/…`; `None` for a path
/// anywhere else.
fn crate_dir<'a>(path: &'a str, dir: &str) -> Option<&'a str> {
    let mut parts = path.split('/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some(c), Some(d)) if d == dir => Some(c),
        _ => None,
    }
}

/// One public item under analysis.
struct PubItem {
    name: String,
    kind: &'static str,
    /// Index into the lint file list.
    file: usize,
    line: u32,
    /// Display symbol, e.g. `dsp::stats::median`.
    symbol: String,
}

/// Who a significant token's identifiers count for.
#[derive(Clone, Copy, PartialEq)]
enum Owner {
    /// Code outside every public item: always live.
    Root,
    /// The body (or an `impl` block) of a public item.
    Item(usize),
    /// Its file's test code.
    Test,
    /// Not a reference: a definition's own name, a `mod` name, a
    /// `pub use` re-export, a type's name inside its own `impl`.
    Skip,
}

/// Runs the rule over the lint `files`, with `refs` as extra
/// reference-only sources.
pub fn dead_pub(files: &[SourceFile], refs: &[SourceFile]) -> FlowOutput {
    let mut items: Vec<PubItem> = Vec::new();
    let owners: Vec<Vec<Owner>> = files
        .iter()
        .enumerate()
        .map(|(fi, file)| scan(file, fi, &mut items))
        .collect();

    let mut root: BTreeSet<String> = BTreeSet::new();
    // name → lint files whose test regions mention it.
    let mut tests: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    // item → names its body mentions.
    let mut uses: Vec<BTreeSet<String>> = vec![BTreeSet::new(); items.len()];
    for (fi, file) in files.iter().enumerate() {
        for (&ti, &owner) in file.sig.iter().zip(&owners[fi]) {
            for name in idents(&file.tokens[ti]) {
                match owner {
                    Owner::Root => {
                        root.insert(name);
                    }
                    Owner::Item(k) => {
                        uses[k].insert(name);
                    }
                    Owner::Test => {
                        tests.entry(name).or_default().insert(fi);
                    }
                    Owner::Skip => {}
                }
            }
        }
    }
    // name → crates whose own integration tests mention it: those keep
    // every crate's items live but their own.
    let mut crate_tests: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    for file in refs {
        let own = crate_dir(&file.path, "tests");
        for &ti in &file.sig {
            let names = idents(&file.tokens[ti]);
            match own {
                None => root.extend(names),
                Some(c) => {
                    for name in names {
                        crate_tests.entry(name).or_default().insert(c);
                    }
                }
            }
        }
    }

    // Fixpoint: a live item's mentions make every other item of that
    // name live.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (k, it) in items.iter().enumerate() {
        by_name.entry(it.name.as_str()).or_default().push(k);
    }
    let mut live: Vec<bool> = items
        .iter()
        .map(|it| {
            let own = crate_dir(&files[it.file].path, "src");
            root.contains(&it.name)
                || tests
                    .get(&it.name)
                    .is_some_and(|fs| fs.iter().any(|&f| f != it.file))
                || crate_tests
                    .get(&it.name)
                    .is_some_and(|cs| cs.iter().any(|&c| Some(c) != own))
        })
        .collect();
    let mut work: Vec<usize> = (0..items.len()).filter(|&k| live[k]).collect();
    while let Some(k) = work.pop() {
        for name in &uses[k] {
            for &j in by_name.get(name.as_str()).into_iter().flatten() {
                if j != k && !live[j] {
                    live[j] = true;
                    work.push(j);
                }
            }
        }
    }

    let mut out = FlowOutput::default();
    for (it, _) in items.iter().zip(&live).filter(|(_, &l)| !l) {
        let file = &files[it.file];
        if file.is_suppressed("dead-pub", it.line) {
            out.used.push((it.file, it.line, "dead-pub"));
            continue;
        }
        out.diags.push(Diagnostic::new(
            file.path.clone(),
            it.line,
            "dead-pub",
            Severity::Warning,
            format!(
                "public {} `{}` has no user outside its own file's tests; delete it \
                 (or make it `#[cfg(test)]` if it is a test oracle)",
                it.kind, it.symbol
            ),
        ));
    }
    out
}

/// The identifiers a token mentions: its own text for an identifier,
/// the inline format captures (`{name}`, `{name:>8}`) for a string.
fn idents(t: &Token) -> Vec<String> {
    match t.kind {
        TokenKind::Ident => vec![t.text.clone()],
        TokenKind::Str => t
            .text
            .replace("{{", "")
            .split('{')
            .skip(1)
            .filter_map(|rest| {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                let is_ident = name.starts_with(|c: char| c.is_alphabetic() || c == '_');
                let closes = matches!(rest[name.len()..].chars().next(), Some('}' | ':'));
                (is_ident && closes).then_some(name)
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Finds `file`'s public items (appending them to `items`, stamped with
/// `fi`) and assigns every significant token an [`Owner`]. Items nest
/// innermost-wins: a method inside `impl Name` owns its own body, the
/// rest of the block belongs to `Name` when this file defines it.
fn scan(file: &SourceFile, fi: usize, items: &mut Vec<PubItem>) -> Vec<Owner> {
    let n = file.sig.len();
    let text = |i: usize| file.sig_token(i).map_or("", |t| t.text.as_str());
    let is_ident = |i: usize| {
        file.sig_token(i)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    };
    let mut owners = vec![Owner::Root; n];
    // (start, end, self type) and (start, end, item) significant ranges.
    let mut impls: Vec<(usize, usize, String)> = Vec::new();
    let mut regions: Vec<(usize, usize, usize)> = Vec::new();
    let first = items.len();
    let module = file_module_path(&file.path);

    for i in 0..n {
        let t = text(i);
        let definer = matches!(t, "mod" | "union") || ITEM_KINDS.contains(&t);
        if definer && is_ident(i) && is_ident(i + 1) {
            owners[i + 1] = Owner::Skip;
        }
        if t == "impl" && (i == 0 || matches!(text(i - 1), "}" | ";" | "{" | "]" | "unsafe")) {
            impls.push((i, item_end(file, i, true), block_owner(file, i).0));
            continue;
        }
        if t != "pub" || text(i + 1) == "(" {
            continue;
        }
        let mut k = i + 1;
        while matches!(text(k), "unsafe" | "async" | "extern")
            || (text(k) == "const" && matches!(text(k + 1), "fn" | "unsafe"))
            || file.sig_token(k).is_some_and(|t| t.kind == TokenKind::Str)
        {
            k += 1;
        }
        if text(k) == "use" {
            let end = (k..n).find(|&e| text(e) == ";").unwrap_or(n - 1);
            owners[i..=end].fill(Owner::Skip);
            continue;
        }
        let Some(&kind) = ITEM_KINDS.iter().find(|&&kw| kw == text(k)) else {
            continue;
        };
        let line = file.sig_token(i).map_or(0, |t| t.line);
        let subject = file.path.starts_with("crates/") && !file.in_test_code(line);
        if !subject || !is_ident(k + 1) || text(k + 1) == "_" {
            continue;
        }
        let name = text(k + 1).to_string();
        let mut path = vec![file.crate_name.clone()];
        path.extend(module.iter().cloned());
        let within = impls.iter().rev().find(|(s, e, _)| (*s..=*e).contains(&i));
        path.extend(within.map(|(_, _, owner)| owner.clone()));
        path.push(name.clone());
        let braced = !matches!(kind, "const" | "static" | "type");
        regions.push((i, item_end(file, k, braced), items.len()));
        items.push(PubItem {
            name,
            kind,
            file: fi,
            line,
            symbol: path.join("::"),
        });
    }

    // `impl Name` blocks first, then items in start order, so the
    // innermost owner wins; skipped tokens stay skipped.
    let is_type = |it: &PubItem| matches!(it.kind, "struct" | "enum" | "trait" | "type");
    for (start, end, owner) in &impls {
        let ty = (first..items.len()).find(|&k| is_type(&items[k]) && items[k].name == *owner);
        for (si, o) in owners.iter_mut().enumerate().take(end + 1).skip(*start) {
            if text(si) == owner {
                *o = Owner::Skip;
            } else if let (Some(k), Owner::Root) = (ty, *o) {
                *o = Owner::Item(k);
            }
        }
    }
    for (start, end, k) in regions {
        for o in &mut owners[start..=end] {
            if *o != Owner::Skip {
                *o = Owner::Item(k);
            }
        }
    }
    for (si, o) in owners.iter_mut().enumerate() {
        if file
            .sig_token(si)
            .is_some_and(|t| file.in_test_code(t.line))
        {
            *o = Owner::Test;
        }
    }
    owners
}

/// The last significant index of the item starting at `k`: its
/// terminating `;` at bracket depth 0 or, when `braced`, the brace that
/// closes its first top-level `{` (a body, a field list, an `impl`).
fn item_end(file: &SourceFile, k: usize, braced: bool) -> usize {
    let mut depth = 0usize;
    for e in k..file.sig.len() {
        match file.sig_token(e).map_or("", |t| t.text.as_str()) {
            "(" | "[" | "{" => depth += 1,
            ";" if depth == 0 => return e,
            close @ (")" | "]" | "}") => {
                depth = depth.saturating_sub(1);
                if braced && depth == 0 && close == "}" {
                    return e;
                }
            }
            _ => {}
        }
    }
    file.sig.len().saturating_sub(1)
}
