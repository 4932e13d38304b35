//! Workspace discovery and the whole-workspace analysis driver.
//!
//! Discovery is manifest-driven: members come from the root
//! `Cargo.toml` `[workspace] members` list (so a new crate can never
//! silently escape analysis), each member's crate name from its own
//! manifest (`uniq-core` → short name `core`), and the umbrella
//! `[package]` at the root contributes its `src/` as well. `vendor/*`
//! members are skipped by design — offline stand-ins for third-party
//! crates are not ours to lint. Test trees (`tests/`, `benches/`,
//! `examples/`) and the analyzer's own `fixtures/` are outside the
//! `src/` directories the walk visits; `dead-pub` reads the test
//! trees and examples as references only.
//!
//! The driver runs in deterministic parallel phases over `uniq-par`:
//! file parsing is a `par_map` over the sorted file list, the four
//! interprocedural rule families fan out as another `par_map`, and all
//! outputs are index-ordered and then globally sorted — diagnostics are
//! bit-identical at any thread count (the analyzer holds itself to the
//! determinism bar it enforces, and a test pins 1 vs 8 threads).

use crate::callgraph::{self, DepClosure};
use crate::dead_pub;
use crate::diagnostics::{Diagnostic, Severity};
use crate::facts;
use crate::flow_rules::{self, FlowOutput, UsedSuppression};
use crate::rules;
use crate::source::SourceFile;
use crate::symbols;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Span-registry constants that seed the hot-path allocation rule when
/// `crates/obs/src/names.rs` does not declare `HOT_PATH_SPANS` (or when
/// analyzing virtual sources that do not include the registry).
pub const DEFAULT_HOT_PATH_SPANS: &[&str] = &["SPAN_FUSION", "SPAN_CHANNEL_ESTIMATE"];

/// The result of analyzing a whole workspace.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// All unsuppressed diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files analyzed.
    pub files_analyzed: usize,
    /// Total suppressions encountered (for the audit summary).
    pub suppressions: usize,
    /// Suppressions that silenced nothing (each also reported as a
    /// `stale-suppression` finding).
    pub stale_suppressions: usize,
}

/// One source file to analyze, by content rather than by path — the
/// unit the multi-file fixture tests feed in.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Workspace-relative display path.
    pub path: String,
    /// Crate short name (`core`, `obs`, ...).
    pub crate_name: String,
    /// Whether this is the crate root (`lib.rs`/`main.rs`).
    pub is_crate_root: bool,
    /// File contents.
    pub text: String,
}

/// Locates the workspace root at or above `start`: the nearest ancestor
/// containing both `Cargo.toml` and a `crates/` directory.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Reads the `[workspace] members` globs out of the root manifest and
/// expands them to `(crate short name, src dir)` units, plus the
/// umbrella `[package]` if the root manifest declares one. `vendor/*`
/// members are excluded.
pub fn discover_units(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut units: Vec<(String, PathBuf)> = Vec::new();
    for dir in expand_member_dirs(root, &manifest)? {
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let name = fs::read_to_string(dir.join("Cargo.toml"))
            .ok()
            .and_then(|m| manifest_package_name(&m))
            .unwrap_or_else(|| {
                dir.file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default()
            });
        units.push((short_crate_name(&name), src));
    }
    // The umbrella package at the workspace root.
    if let Some(name) = manifest_package_name(&manifest) {
        let root_src = root.join("src");
        if root_src.is_dir() {
            units.push((short_crate_name(&name), root_src));
        }
    }
    units.sort();
    Ok(units)
}

/// Expands the `[workspace] members` globs of the root manifest into
/// member directories, skipping `vendor/*`.
fn expand_member_dirs(root: &Path, manifest: &str) -> io::Result<Vec<PathBuf>> {
    let mut member_dirs: Vec<PathBuf> = Vec::new();
    for member in manifest_members(manifest) {
        if member.starts_with("vendor") {
            continue;
        }
        if let Some(prefix) = member.strip_suffix("/*") {
            let base = root.join(prefix);
            if !base.is_dir() {
                continue;
            }
            let mut dirs: Vec<PathBuf> = fs::read_dir(&base)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            member_dirs.extend(dirs);
        } else {
            member_dirs.push(root.join(&member));
        }
    }
    Ok(member_dirs)
}

/// The transitive dependency closure of every first-party crate, keyed
/// and valued by short name, each crate's set including itself. Direct
/// dependencies are read straight from each member's manifest: any line
/// whose key starts with `uniq-` (dev-dependencies included — an extra
/// edge only widens reachability, which is the conservative direction).
pub fn workspace_dep_closure(root: &Path) -> io::Result<DepClosure> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut closure: DepClosure = BTreeMap::new();
    for dir in expand_member_dirs(root, &manifest)? {
        let Ok(m) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let Some(pkg) = manifest_package_name(&m) else {
            continue;
        };
        closure.insert(short_crate_name(&pkg), manifest_uniq_deps(&m));
    }
    // The umbrella package: its manifest names every workspace crate
    // (via `[workspace.dependencies]`), which matches reality — the
    // root `src/` may call anything.
    if let Some(name) = manifest_package_name(&manifest) {
        closure.insert(short_crate_name(&name), manifest_uniq_deps(&manifest));
    }
    for (name, set) in closure.iter_mut() {
        set.insert(name.clone());
    }
    // Transitive fixpoint: union each crate's deps' deps until stable.
    loop {
        let mut changed = false;
        let names: Vec<String> = closure.keys().cloned().collect();
        for name in names {
            let direct = closure[&name].clone();
            let mut merged = direct.clone();
            for dep in &direct {
                if let Some(dd) = closure.get(dep) {
                    merged.extend(dd.iter().cloned());
                }
            }
            if merged.len() > closure[&name].len() {
                closure.insert(name, merged);
                changed = true;
            }
        }
        if !changed {
            return Ok(closure);
        }
    }
}

/// Dependency short names mentioned in a manifest: every line whose key
/// starts with `uniq-` (`uniq-par.workspace = true`, `uniq-obs = { … }`).
fn manifest_uniq_deps(manifest: &str) -> BTreeSet<String> {
    let mut deps = BTreeSet::new();
    for line in manifest.lines() {
        if let Some(rest) = line.trim().strip_prefix("uniq-") {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if !name.is_empty() {
                deps.insert(name);
            }
        }
    }
    deps
}

/// `uniq-core` → `core`; anything else passes through.
fn short_crate_name(package: &str) -> String {
    package.strip_prefix("uniq-").unwrap_or(package).to_string()
}

/// The quoted entries of the `[workspace] members = [...]` array.
fn manifest_members(manifest: &str) -> Vec<String> {
    let Some(ws) = manifest.find("[workspace]") else {
        return Vec::new();
    };
    let after = &manifest[ws..];
    let Some(m) = after.find("members") else {
        return Vec::new();
    };
    let Some(open) = after[m..].find('[') else {
        return Vec::new();
    };
    let list_start = m + open + 1;
    let Some(close) = after[list_start..].find(']') else {
        return Vec::new();
    };
    let list = &after[list_start..list_start + close];
    list.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The `[package] name = "..."` of a manifest, if any.
fn manifest_package_name(manifest: &str) -> Option<String> {
    let pkg = manifest.find("[package]")?;
    for line in manifest[pkg..].lines().skip(1) {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            return None; // next section, no name seen
        }
        if let Some(rest) = trimmed.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let rest = rest.trim();
                let mut parts = rest.split('"');
                parts.next();
                return parts.next().map(str::to_string);
            }
        }
    }
    None
}

/// Analyzes every lintable file under `root` on a pool of `threads`
/// workers (`0` = `UNIQ_THREADS` / machine default). The report is
/// bit-identical for any `threads` value.
pub fn analyze_workspace_with(
    root: &Path,
    strict: bool,
    threads: usize,
) -> io::Result<WorkspaceReport> {
    let mut specs: Vec<SourceSpec> = Vec::new();
    for (crate_name, src_dir) in discover_units(root)? {
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let text = fs::read_to_string(&path)?;
            let rel = rel_path(root, &path);
            let is_crate_root = path
                .file_name()
                .is_some_and(|n| n == "lib.rs" || n == "main.rs")
                && path.parent() == Some(src_dir.as_path());
            specs.push(SourceSpec {
                path: rel,
                crate_name: crate_name.clone(),
                is_crate_root,
                text,
            });
        }
    }
    for path in reference_files(root)? {
        let text = fs::read_to_string(&path)?;
        specs.push(SourceSpec {
            path: rel_path(root, &path),
            crate_name: String::new(),
            is_crate_root: false,
            text,
        });
    }
    specs.sort_by(|a, b| a.path.cmp(&b.path));
    let deps = workspace_dep_closure(root)?;
    Ok(analyze_sources_with_deps(
        &specs,
        strict,
        threads,
        Some(&deps),
    ))
}

/// `path` relative to `root`, with `/` separators.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The files `dead-pub` reads as references only: everything under
/// `tests/`, each member's `tests/` and `benches/`, the top-level
/// `examples/*.rs` and `examples/benchmark/src`.
fn reference_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut dirs = vec![root.join("tests"), root.join("examples/benchmark/src")];
    for member in expand_member_dirs(root, &manifest)? {
        dirs.push(member.join("tests"));
        dirs.push(member.join("benches"));
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rs_files(dir, &mut files)?;
    }
    if let Ok(entries) = fs::read_dir(root.join("examples")) {
        for entry in entries {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    Ok(files)
}

/// The whole-workspace analysis over in-memory sources: line-local
/// rules, the call-graph dataflow families, `dead-pub`, and the
/// stale-suppression audit. Specs at reference-only paths
/// ([`dead_pub::is_reference_path`]: integration tests, benches,
/// examples) are not linted; they only keep public items alive.
/// Deterministic for any `threads` value. `deps`, when given, restricts
/// call resolution to each caller crate's dependency closure; `None`
/// lets every crate pair resolve (the mode the in-memory fixture tests
/// use — they carry no manifests).
pub fn analyze_sources_with_deps(
    specs: &[SourceSpec],
    strict: bool,
    threads: usize,
    deps: Option<&DepClosure>,
) -> WorkspaceReport {
    let pool = uniq_par::pool(threads);

    // Phase 1: parse (parallel, index-ordered).
    let (ref_specs, lint_specs): (Vec<&SourceSpec>, Vec<&SourceSpec>) = specs
        .iter()
        .partition(|s| dead_pub::is_reference_path(&s.path));
    let parse =
        |s: &&SourceSpec| SourceFile::parse(&s.path, &s.crate_name, s.is_crate_root, &s.text);
    let files: Vec<SourceFile> = pool.par_map(&lint_specs, parse);
    let refs: Vec<SourceFile> = pool.par_map(&ref_specs, parse);

    // Phase 2: line-local rules (parallel per file). Strict-only rules
    // are always *generated* so their suppressions register as used;
    // emission is filtered afterwards.
    let per_file: Vec<(Vec<Diagnostic>, Vec<UsedSuppression>)> = {
        let files_ref = &files;
        pool.par_map(&(0..files.len()).collect::<Vec<_>>(), move |&i| {
            let file = &files_ref[i];
            let mut kept = Vec::new();
            let mut used = Vec::new();
            for d in rules::raw_findings(file, true) {
                if file.is_suppressed(d.rule, d.line) {
                    used.push((i, d.line, d.rule));
                } else if strict || d.rule != "slice-index" {
                    kept.push(d);
                }
            }
            rules::check_suppressions(file, &mut kept);
            (kept, used)
        })
    };

    // Phase 3: symbols → call graph → facts (cheap, serial).
    let mut fns = Vec::new();
    for (i, f) in files.iter().enumerate() {
        fns.extend(symbols::extract_fns(f, i));
    }
    let graph = callgraph::build(&files, fns, deps);
    let hot_spans = hot_span_consts(&files);
    let fn_facts = facts::extract(&files, &graph, &hot_spans);

    // Phase 4: the four dataflow families and `dead-pub` (parallel,
    // index-ordered).
    let flow_outputs: Vec<FlowOutput> = {
        let files_ref = &files;
        let refs_ref = &refs;
        let graph_ref = &graph;
        let facts_ref = &fn_facts;
        pool.par_map(&[0usize, 1, 2, 3, 4], move |&family| match family {
            0 => flow_rules::determinism_taint(files_ref, graph_ref, facts_ref),
            1 => flow_rules::panic_reachability(files_ref, graph_ref, facts_ref, strict),
            2 => flow_rules::lock_order(files_ref, graph_ref, facts_ref),
            3 => flow_rules::hot_path_alloc(files_ref, graph_ref, facts_ref),
            _ => dead_pub::dead_pub(files_ref, refs_ref),
        })
    };

    // Phase 5: merge, then the stale-suppression audit.
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut used: Vec<UsedSuppression> = Vec::new();
    for (kept, u) in per_file {
        diagnostics.extend(kept);
        used.extend(u);
    }
    for out in flow_outputs {
        diagnostics.extend(out.diags);
        used.extend(out.used);
    }
    let used: BTreeSet<UsedSuppression> = used.into_iter().collect();

    let mut suppressions = 0usize;
    let mut stale = 0usize;
    for (i, file) in files.iter().enumerate() {
        suppressions += file.suppressions.len();
        for s in &file.suppressions {
            // Malformed suppressions are already `bad-suppression`
            // findings; the stale audit covers only well-formed ones.
            let well_formed = !s.justification.trim().is_empty()
                && s.rules
                    .iter()
                    .all(|r| rules::RULE_NAMES.contains(&r.as_str()));
            if !well_formed {
                continue;
            }
            let is_used = s.rules.iter().any(|r| {
                rules::RULE_NAMES
                    .iter()
                    .find(|known| *known == r)
                    .is_some_and(|&known| {
                        used.contains(&(i, s.line, known)) || used.contains(&(i, s.line + 1, known))
                    })
            });
            if !is_used {
                stale += 1;
                diagnostics.push(Diagnostic::new(
                    file.path.clone(),
                    s.line,
                    "stale-suppression",
                    if strict {
                        Severity::Error
                    } else {
                        Severity::Warning
                    },
                    format!(
                        "suppression `allow({})` matches no finding; remove it \
                         (stale allows erode the audit trail)",
                        s.rules.join(", ")
                    ),
                ));
            }
        }
    }

    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    WorkspaceReport {
        diagnostics,
        files_analyzed: files.len(),
        suppressions,
        stale_suppressions: stale,
    }
}

/// Reads the hot-span constant names out of the obs span registry
/// (`HOT_PATH_SPANS` in `crates/obs/src/names.rs`); falls back to
/// [`DEFAULT_HOT_PATH_SPANS`] when the registry is not in the file set.
fn hot_span_consts(files: &[SourceFile]) -> Vec<String> {
    use crate::lexer::TokenKind;
    for file in files {
        if file.crate_name != "obs" || !file.path.ends_with("names.rs") {
            continue;
        }
        for i in 0..file.sig.len() {
            let Some(t) = file.sig_token(i) else { continue };
            if t.kind != TokenKind::Ident || t.text != "HOT_PATH_SPANS" {
                continue;
            }
            // Collect identifiers inside the *initializer* brackets —
            // the `[` of the `&[&str]` type annotation must not count,
            // so the list only opens after the `=`.
            let mut j = i + 1;
            let mut names = Vec::new();
            let mut seen_eq = false;
            let mut in_list = false;
            while let Some(tok) = file.sig_token(j) {
                match (tok.kind, tok.text.as_str()) {
                    (TokenKind::Punct, "=") => seen_eq = true,
                    (TokenKind::Punct, "[") if seen_eq => in_list = true,
                    (TokenKind::Punct, "]") if in_list => return names,
                    (TokenKind::Punct, ";") => break,
                    (TokenKind::Ident, name) if in_list => {
                        names.push(name.to_string());
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
    DEFAULT_HOT_PATH_SPANS
        .iter()
        .map(|s| s.to_string())
        .collect()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_root_walks_upward() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root above the analyzer crate");
        assert!(root.join("crates").join("analyzer").is_dir());
    }

    #[test]
    fn find_root_fails_cleanly_outside_a_workspace() {
        assert!(find_root(Path::new("/")).is_none());
    }

    #[test]
    fn members_parse_from_manifest() {
        let m = "[workspace]\nmembers = [\n    \"crates/*\",\n    \"vendor/*\",\n]\n";
        assert_eq!(manifest_members(m), vec!["crates/*", "vendor/*"]);
    }

    #[test]
    fn package_name_parses() {
        let m = "[package]\nname = \"uniq-suite\"\nversion = \"0.1.0\"\n";
        assert_eq!(manifest_package_name(m), Some("uniq-suite".to_string()));
        assert_eq!(short_crate_name("uniq-suite"), "suite");
        assert_eq!(short_crate_name("analyzer"), "analyzer");
    }

    #[test]
    fn discovery_is_manifest_driven() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).unwrap();
        let units = discover_units(&root).unwrap();
        let names: Vec<&str> = units.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"core"), "{names:?}");
        assert!(names.contains(&"store"), "{names:?}");
        assert!(names.contains(&"render"), "{names:?}");
        assert!(
            !names.iter().any(|n| n.starts_with("vendor")),
            "vendor members must be excluded: {names:?}"
        );
    }
}
