//! The four interprocedural rule families, built on the call graph
//! ([`crate::callgraph`]), per-function facts ([`crate::facts`]) and the
//! dataflow engine ([`crate::dataflow`]).
//!
//! Each family returns its diagnostics plus the list of suppressions it
//! consumed, so the workspace driver can run the stale-suppression
//! audit. All outputs are deterministic: inputs are iterated in sorted
//! order and path witnesses come from the deterministic BFS in
//! `dataflow`.

use crate::callgraph::CallGraph;
use crate::dataflow::{self, Hop};
use crate::diagnostics::{Diagnostic, Severity, TraceStep};
use crate::facts::{Fact, FnFacts, OBSERVABILITY_CRATES};
use crate::rules::RESULT_CRATES;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// A suppression consumed by a rule: (file index, line, rule name).
pub type UsedSuppression = (usize, u32, &'static str);

/// Output of one rule family.
#[derive(Debug, Default)]
pub struct FlowOutput {
    /// Findings (unsorted; the driver sorts globally).
    pub diags: Vec<Diagnostic>,
    /// Suppressions that matched and silenced a would-be finding.
    pub used: Vec<UsedSuppression>,
}

/// Marker id injected into the lock closure for "this function may hand
/// work to the pool" (never a real lock identity: lock ids are
/// `crate.receiver` and receivers cannot contain `§`).
const POOL_MARKER: &str = "\u{a7}pool";

fn sym(graph: &CallGraph, f: usize) -> &str {
    &graph.fns[f].symbol
}

fn path_of<'a>(files: &'a [SourceFile], graph: &CallGraph, f: usize) -> &'a str {
    &files[graph.fns[f].file].path
}

/// Is this fn a result-crate public entry point (a taint sink / panic
/// reachability root)?
fn is_result_entry(graph: &CallGraph, f: usize) -> bool {
    let d = &graph.fns[f];
    d.is_pub && RESULT_CRATES.contains(&d.crate_name.as_str())
}

/// Checks a suppression for `rule` (or any of `alt_rules`) at `line` in
/// `file`; returns the rule name that matched, if any.
fn matching_suppression(
    file: &SourceFile,
    line: u32,
    rule: &'static str,
    alt_rules: &[&'static str],
) -> Option<&'static str> {
    if file.is_suppressed(rule, line) {
        return Some(rule);
    }
    alt_rules
        .iter()
        .find(|r| file.is_suppressed(r, line))
        .copied()
}

/// Walks the hop chain from `start` toward the seed it was reached
/// from, emitting one call step per hop. For upward walks
/// ([`dataflow::reach_callers`]) the call site lies in the current
/// function; for downward walks ([`dataflow::reach_callees`]) it lies
/// in `hop.next`.
fn call_chain(
    files: &[SourceFile],
    graph: &CallGraph,
    reached: &BTreeMap<usize, Option<Hop>>,
    start: usize,
    upward: bool,
) -> (Vec<TraceStep>, usize) {
    let mut steps = Vec::new();
    let mut cur = start;
    while let Some(Some(hop)) = reached.get(&cur) {
        let (site_fn, called) = if upward {
            (cur, hop.next)
        } else {
            (hop.next, cur)
        };
        steps.push(TraceStep {
            file: path_of(files, graph, site_fn).to_string(),
            line: hop.line,
            symbol: format!("calls `{}`", sym(graph, called)),
        });
        cur = hop.next;
    }
    (steps, cur)
}

/// Rule family 1: determinism taint. Sources propagate up the call
/// graph; any tainted result-crate public fn is an error, reported at
/// the public fn with a source→sink trace.
pub fn determinism_taint(
    files: &[SourceFile],
    graph: &CallGraph,
    facts: &BTreeMap<usize, FnFacts>,
) -> FlowOutput {
    let mut out = FlowOutput::default();
    // Seed functions and their witness fact (smallest line wins).
    let mut seed_fact: BTreeMap<usize, &Fact> = BTreeMap::new();
    for (&f, ff) in facts {
        let def = &graph.fns[f];
        if OBSERVABILITY_CRATES.contains(&def.crate_name.as_str()) {
            continue;
        }
        let file = &files[def.file];
        for fact in &ff.taint {
            let alts: &[&'static str] = if fact.what.starts_with("wall-clock") {
                &["wall-clock"]
            } else if fact.what.starts_with("environment") {
                &["env-read"]
            } else if fact.what.starts_with("hash-order") {
                &["hash-iteration"]
            } else {
                &[]
            };
            if let Some(rule) = matching_suppression(file, fact.line, "determinism-taint", alts) {
                out.used.push((def.file, fact.line, rule));
                continue;
            }
            let slot = seed_fact.entry(f).or_insert(fact);
            if fact.line < slot.line {
                *slot = fact;
            }
        }
    }
    let seeds: BTreeSet<usize> = seed_fact.keys().copied().collect();
    if seeds.is_empty() {
        return out;
    }
    let reached = dataflow::reach_callers(graph, &seeds);
    for (&f, _) in reached.iter() {
        if !is_result_entry(graph, f) {
            continue;
        }
        let def = &graph.fns[f];
        let file = &files[def.file];
        if file.is_suppressed("determinism-taint", def.line) {
            out.used.push((def.file, def.line, "determinism-taint"));
            continue;
        }
        let (chain, seed) = call_chain(files, graph, &reached, f, true);
        let fact = seed_fact[&seed];
        let mut trace = vec![TraceStep {
            file: path_of(files, graph, f).to_string(),
            line: def.line,
            symbol: format!("`{}` (public result-crate fn)", def.symbol),
        }];
        trace.extend(chain);
        trace.push(TraceStep {
            file: path_of(files, graph, seed).to_string(),
            line: fact.line,
            symbol: fact.what.clone(),
        });
        out.diags.push(Diagnostic {
            file: path_of(files, graph, f).to_string(),
            line: def.line,
            rule: "determinism-taint",
            severity: Severity::Error,
            message: format!(
                "public fn `{}` can observe nondeterminism: {} at {}:{} ({} call hop(s) away)",
                def.symbol,
                fact.what,
                path_of(files, graph, seed),
                fact.line,
                trace.len() - 2
            ),
            trace,
        });
    }
    out
}

/// Rule family 2: panic reachability. Unsuppressed panic sites in
/// non-result crates that a result-crate public fn can reach are
/// errors, reported at the panic site with an entry→site trace.
/// (Result-crate sites are already covered line-locally by
/// `panic-safety`.)
pub fn panic_reachability(
    files: &[SourceFile],
    graph: &CallGraph,
    facts: &BTreeMap<usize, FnFacts>,
    strict: bool,
) -> FlowOutput {
    let mut out = FlowOutput::default();
    let entries: BTreeSet<usize> = (0..graph.fns.len())
        .filter(|&f| is_result_entry(graph, f))
        .collect();
    for (&f, ff) in facts {
        let def = &graph.fns[f];
        if RESULT_CRATES.contains(&def.crate_name.as_str()) || ff.panics.is_empty() {
            continue;
        }
        let file = &files[def.file];
        let mut live: Vec<&Fact> = Vec::new();
        for fact in &ff.panics {
            if let Some(rule) =
                matching_suppression(file, fact.line, "panic-reachability", &["panic-safety"])
            {
                out.used.push((def.file, fact.line, rule));
                continue;
            }
            if fact.strict_only && !strict {
                continue;
            }
            live.push(fact);
        }
        if live.is_empty() {
            continue;
        }
        // Which result entries reach this function?
        let reached = dataflow::reach_callers(graph, &BTreeSet::from([f]));
        let mut roots: Vec<usize> = reached
            .keys()
            .copied()
            .filter(|&r| entries.contains(&r))
            .collect();
        if roots.is_empty() {
            continue;
        }
        roots.sort_by_key(|&r| (path_of(files, graph, r).to_string(), graph.fns[r].line));
        let root = roots[0];
        let (chain, _) = call_chain(files, graph, &reached, root, true);
        for fact in live {
            let mut trace = vec![TraceStep {
                file: path_of(files, graph, root).to_string(),
                line: graph.fns[root].line,
                symbol: format!("`{}` (public result-crate fn)", sym(graph, root)),
            }];
            trace.extend(chain.iter().cloned());
            trace.push(TraceStep {
                file: path_of(files, graph, f).to_string(),
                line: fact.line,
                symbol: fact.what.clone(),
            });
            out.diags.push(Diagnostic {
                file: path_of(files, graph, f).to_string(),
                line: fact.line,
                rule: "panic-reachability",
                severity: if fact.strict_only {
                    Severity::Warning
                } else {
                    Severity::Error
                },
                message: format!(
                    "{} in `{}` is reachable from {} result-crate entry point(s), e.g. `{}`",
                    fact.what,
                    def.symbol,
                    roots.len(),
                    sym(graph, root)
                ),
                trace,
            });
        }
    }
    out
}

/// One directed lock-order edge with its best (smallest) witness.
#[derive(Debug)]
struct LockEdge {
    first_file: usize,
    first_line: u32,
    second_file: usize,
    second_line: u32,
}

/// Rule family 3: lock order. Builds the Mutex acquisition graph for
/// the lock-scope crates and fails on cycles (including re-entry of the
/// same lock) and on locks held across pool boundaries.
pub fn lock_order(
    files: &[SourceFile],
    graph: &CallGraph,
    facts: &BTreeMap<usize, FnFacts>,
) -> FlowOutput {
    let mut out = FlowOutput::default();
    // Local set: lock ids a function acquires directly, plus the pool
    // marker if it hands work to the pool.
    let mut local: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (&f, ff) in facts {
        let mut set = BTreeSet::new();
        for l in &ff.locks {
            set.insert(l.id.clone());
        }
        if !ff.pool_calls.is_empty() {
            set.insert(POOL_MARKER.to_string());
        }
        if !set.is_empty() {
            local.insert(f, set);
        }
    }
    let may_acquire = dataflow::closure_over_callees(graph, &local);

    // acquired-before edges: id → id with the smallest witness site.
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let mut pool_findings: Vec<(usize, u32, String, u32)> = Vec::new(); // (file, line, lock id, acquired line)
    for (&f, ff) in facts {
        let def = &graph.fns[f];
        let file = &files[def.file];
        let line_at =
            |sig_idx: usize| -> u32 { file.sig_token(sig_idx).map(|t| t.line).unwrap_or(u32::MAX) };
        for l in &ff.locks {
            let end = l.held_until.unwrap_or(l.stmt_end);
            let end_line = line_at(end.min(file.sig.len().saturating_sub(1)));
            // Later direct acquisitions while this guard is live.
            for l2 in &ff.locks {
                if l2.sig_idx > l.sig_idx && l2.sig_idx < end {
                    insert_edge(
                        &mut edges,
                        &l.id,
                        &l2.id,
                        LockEdge {
                            first_file: def.file,
                            first_line: l.line,
                            second_file: def.file,
                            second_line: l2.line,
                        },
                    );
                }
            }
            // Direct pool boundary while held.
            for &(pl, pi) in &ff.pool_calls {
                if pi > l.sig_idx && pi < end {
                    pool_findings.push((def.file, pl, l.id.clone(), l.line));
                }
            }
            // Via calls in the live region: the callee's transitive set.
            for &ei in &graph.out_edges[f] {
                let edge = &graph.edges[ei];
                if edge.line < l.line || edge.line > end_line {
                    continue;
                }
                if let Some(set) = may_acquire.get(&edge.callee) {
                    for id in set {
                        if id == POOL_MARKER {
                            pool_findings.push((def.file, edge.line, l.id.clone(), l.line));
                        } else if *id != l.id {
                            insert_edge(
                                &mut edges,
                                &l.id,
                                id,
                                LockEdge {
                                    first_file: def.file,
                                    first_line: l.line,
                                    second_file: def.file,
                                    second_line: edge.line,
                                },
                            );
                        } else {
                            // Re-entry of the same lock through a callee:
                            // immediate self-deadlock with std Mutex.
                            insert_edge(
                                &mut edges,
                                &l.id,
                                &l.id,
                                LockEdge {
                                    first_file: def.file,
                                    first_line: l.line,
                                    second_file: def.file,
                                    second_line: edge.line,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    // Cycle detection: an edge (a, b) participates in a cycle iff b
    // transitively reaches a (self-loops included).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    for ((a, b), e) in &edges {
        let cyclic = if a == b { true } else { reaches(b, a) };
        if !cyclic {
            continue;
        }
        let file = &files[e.second_file];
        if file.is_suppressed("lock-order", e.second_line) {
            out.used.push((e.second_file, e.second_line, "lock-order"));
            continue;
        }
        let message = if a == b {
            format!("lock `{a}` may be re-acquired while already held (self-deadlock)")
        } else {
            format!(
                "lock-order cycle: `{a}` is held when `{b}` is acquired here, but elsewhere `{b}` is held when `{a}` is acquired"
            )
        };
        out.diags.push(Diagnostic {
            file: file.path.clone(),
            line: e.second_line,
            rule: "lock-order",
            severity: Severity::Error,
            message,
            trace: vec![
                TraceStep {
                    file: files[e.first_file].path.clone(),
                    line: e.first_line,
                    symbol: format!("acquires `{a}`"),
                },
                TraceStep {
                    file: files[e.second_file].path.clone(),
                    line: e.second_line,
                    symbol: format!("acquires `{b}` while `{a}` is held"),
                },
            ],
        });
    }
    pool_findings.sort();
    pool_findings.dedup();
    for (fi, line, id, acq_line) in pool_findings {
        let file = &files[fi];
        if file.is_suppressed("lock-order", line) {
            out.used.push((fi, line, "lock-order"));
            continue;
        }
        out.diags.push(Diagnostic {
            file: file.path.clone(),
            line,
            rule: "lock-order",
            severity: Severity::Error,
            message: format!(
                "lock `{id}` (acquired at line {acq_line}) is held across a pool boundary; \
                 worker panics would poison it and stall the pool"
            ),
            trace: vec![
                TraceStep {
                    file: file.path.clone(),
                    line: acq_line,
                    symbol: format!("acquires `{id}`"),
                },
                TraceStep {
                    file: file.path.clone(),
                    line,
                    symbol: "hands work to the pool while the guard is live".into(),
                },
            ],
        });
    }
    out
}

fn insert_edge(edges: &mut BTreeMap<(String, String), LockEdge>, a: &str, b: &str, e: LockEdge) {
    use std::collections::btree_map::Entry;
    match edges.entry((a.to_string(), b.to_string())) {
        Entry::Vacant(v) => {
            v.insert(e);
        }
        Entry::Occupied(mut o) => {
            let cur = o.get();
            if (e.second_file, e.second_line) < (cur.second_file, cur.second_line) {
                o.insert(e);
            }
        }
    }
}

/// Rule family 4: hot-path allocation. Functions transitively reachable
/// from a hot span site must not allocate per call. One diagnostic per
/// offending function, anchored at its first qualifying allocation
/// site; a suppression there covers the function.
pub fn hot_path_alloc(
    files: &[SourceFile],
    graph: &CallGraph,
    facts: &BTreeMap<usize, FnFacts>,
) -> FlowOutput {
    let mut out = FlowOutput::default();
    // Seed fns and the line/name of their first hot span.
    let mut seed_span: BTreeMap<usize, (u32, String)> = BTreeMap::new();
    for (&f, ff) in facts {
        for (line, name) in &ff.hot_spans {
            let slot = seed_span.entry(f).or_insert((*line, name.clone()));
            if *line < slot.0 {
                *slot = (*line, name.clone());
            }
        }
    }
    let seeds: BTreeSet<usize> = seed_span.keys().copied().collect();
    if seeds.is_empty() {
        return out;
    }
    let reached = dataflow::reach_callees(graph, &seeds);
    for (&f, _) in reached.iter() {
        let Some(ff) = facts.get(&f) else { continue };
        // The observability plane pays its allocation cost per *event*,
        // not per sample — exempt, same rationale as the taint audit.
        if OBSERVABILITY_CRATES.contains(&graph.fns[f].crate_name.as_str()) {
            continue;
        }
        let qualifying: Vec<&Fact> = match seed_span.get(&f) {
            // In the seed itself, allocation before the span starts is
            // setup; only per-iteration work inside the measured region
            // counts.
            Some((span_line, _)) => ff.allocs.iter().filter(|a| a.line > *span_line).collect(),
            None => ff.allocs.iter().collect(),
        };
        if qualifying.is_empty() {
            continue;
        }
        let def = &graph.fns[f];
        let file = &files[def.file];
        let first = qualifying
            .iter()
            .min_by_key(|a| (a.line, a.what.clone()))
            .unwrap();
        if file.is_suppressed("hot-path-alloc", first.line) {
            out.used.push((def.file, first.line, "hot-path-alloc"));
            continue;
        }
        let (chain, seed) = call_chain(files, graph, &reached, f, false);
        let (span_line, span_name) = &seed_span[&seed];
        let mut trace = vec![TraceStep {
            file: path_of(files, graph, seed).to_string(),
            line: *span_line,
            symbol: format!("hot span `{span_name}` in `{}`", sym(graph, seed)),
        }];
        trace.extend(chain.into_iter().rev());
        trace.push(TraceStep {
            file: file.path.clone(),
            line: first.line,
            symbol: format!("allocates: {}", first.what),
        });
        out.diags.push(Diagnostic {
            file: file.path.clone(),
            line: first.line,
            rule: "hot-path-alloc",
            severity: Severity::Error,
            message: format!(
                "`{}` is reachable from hot span `{span_name}` and allocates per call \
                 ({}; {} site(s) — use a caller-provided scratch buffer)",
                def.symbol,
                first.what,
                qualifying.len()
            ),
            trace,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::facts;
    use crate::symbols::extract_fns;

    fn setup(
        srcs: &[(&str, &str, &str)],
        hot: &[&str],
    ) -> (Vec<SourceFile>, CallGraph, BTreeMap<usize, FnFacts>) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, c, s)| SourceFile::parse(p, c, false, s))
            .collect();
        let mut fns = Vec::new();
        for (i, f) in files.iter().enumerate() {
            fns.extend(extract_fns(f, i));
        }
        let graph = callgraph::build(&files, fns, None);
        let hot: Vec<String> = hot.iter().map(|s| s.to_string()).collect();
        let f = facts::extract(&files, &graph, &hot);
        (files, graph, f)
    }

    #[test]
    fn taint_flows_across_crates_into_public_result_fn() {
        let (files, graph, f) = setup(
            &[
                (
                    "crates/core/src/session.rs",
                    "core",
                    "pub fn personalize(x: f64) -> f64 { helper(x) }",
                ),
                (
                    "crates/cli/src/util.rs",
                    "cli",
                    "pub fn helper(x: f64) -> f64 { let _t = Instant::now(); x }",
                ),
            ],
            &[],
        );
        let out = determinism_taint(&files, &graph, &f);
        assert_eq!(out.diags.len(), 1, "{:#?}", out.diags);
        let d = &out.diags[0];
        assert_eq!(d.rule, "determinism-taint");
        assert_eq!(d.file, "crates/core/src/session.rs");
        assert_eq!(d.trace.len(), 3);
        assert!(d.trace[2].symbol.contains("Instant::now"));
    }

    #[test]
    fn taint_from_bench_only_helper_is_silent() {
        let (files, graph, f) = setup(
            &[(
                "crates/bench/src/main.rs",
                "bench",
                "fn bench_only() { let _t = Instant::now(); }\npub fn run() { bench_only(); }",
            )],
            &[],
        );
        let out = determinism_taint(&files, &graph, &f);
        assert!(out.diags.is_empty(), "{:#?}", out.diags);
    }

    #[test]
    fn suppressed_source_kills_downstream_findings() {
        let (files, graph, f) = setup(
            &[
                (
                    "crates/core/src/session.rs",
                    "core",
                    "pub fn personalize(x: f64) -> f64 { helper(x) }",
                ),
                (
                    "crates/par/src/util.rs",
                    "par",
                    "// uniq-analyzer: allow(determinism-taint) — audited\npub fn helper(x: f64) -> f64 { let _t = Instant::now(); x }",
                ),
            ],
            &[],
        );
        let out = determinism_taint(&files, &graph, &f);
        assert!(out.diags.is_empty(), "{:#?}", out.diags);
        assert_eq!(out.used, vec![(1, 2, "determinism-taint")]);
    }

    #[test]
    fn panic_reachability_traces_to_entry() {
        let (files, graph, f) = setup(
            &[
                (
                    "crates/dsp/src/fft.rs",
                    "dsp",
                    "pub fn forward(x: &[f64]) -> f64 { support(x) }",
                ),
                (
                    "crates/par/src/util.rs",
                    "par",
                    "pub fn support(x: &[f64]) -> f64 { x.first().unwrap() + 1.0 }",
                ),
            ],
            &[],
        );
        let out = panic_reachability(&files, &graph, &f, false);
        assert_eq!(out.diags.len(), 1, "{:#?}", out.diags);
        let d = &out.diags[0];
        assert_eq!(d.file, "crates/par/src/util.rs");
        assert!(d.message.contains("dsp::fft::forward"));
        assert_eq!(d.trace.first().unwrap().file, "crates/dsp/src/fft.rs");
    }

    #[test]
    fn unreachable_panic_is_silent() {
        let (files, graph, f) = setup(
            &[(
                "crates/cli/src/main.rs",
                "cli",
                "pub fn standalone(x: Option<u8>) -> u8 { x.unwrap() }",
            )],
            &[],
        );
        let out = panic_reachability(&files, &graph, &f, false);
        assert!(out.diags.is_empty(), "{:#?}", out.diags);
    }

    #[test]
    fn lock_cycle_detected_across_fns() {
        let (files, graph, f) = setup(
            &[(
                "crates/store/src/a.rs",
                "store",
                "impl S {\n    fn ab(&self) {\n        let g = self.alpha.lock().unwrap();\n        let h = self.beta.lock().unwrap();\n    }\n    fn ba(&self) {\n        let g = self.beta.lock().unwrap();\n        let h = self.alpha.lock().unwrap();\n    }\n}\n",
            )],
            &[],
        );
        let out = lock_order(&files, &graph, &f);
        assert_eq!(out.diags.len(), 2, "{:#?}", out.diags);
        assert!(out.diags.iter().all(|d| d.rule == "lock-order"));
        assert!(out.diags[0].message.contains("cycle"));
    }

    #[test]
    fn lock_held_across_pool_boundary() {
        let (files, graph, f) = setup(
            &[(
                "crates/profile/src/m.rs",
                "profile",
                "impl M {\n    fn flush(&self, xs: &[u8]) {\n        let g = self.shard.lock().unwrap();\n        let p = pool(0);\n        p.par_map(xs, |x| *x);\n    }\n}\n",
            )],
            &[],
        );
        let out = lock_order(&files, &graph, &f);
        assert_eq!(out.diags.len(), 1, "{:#?}", out.diags);
        assert!(out.diags[0].message.contains("pool boundary"));
        assert_eq!(out.diags[0].line, 5);
    }

    #[test]
    fn ordered_acquisition_without_cycle_is_clean() {
        let (files, graph, f) = setup(
            &[(
                "crates/store/src/a.rs",
                "store",
                "impl S {\n    fn ab(&self) {\n        let g = self.alpha.lock().unwrap();\n        let h = self.beta.lock().unwrap();\n    }\n    fn also_ab(&self) {\n        let g = self.alpha.lock().unwrap();\n        let h = self.beta.lock().unwrap();\n    }\n}\n",
            )],
            &[],
        );
        let out = lock_order(&files, &graph, &f);
        assert!(out.diags.is_empty(), "{:#?}", out.diags);
    }

    #[test]
    fn hot_path_alloc_flags_callee_not_setup() {
        let (files, graph, f) = setup(
            &[
                (
                    "crates/core/src/fusion.rs",
                    "core",
                    "pub fn fuse(xs: &[f64]) -> f64 {\n    let mut scratch = Vec::new();\n    let _span = span(SPAN_FUSION);\n    inner_sum(xs)\n}\n",
                ),
                (
                    "crates/dsp/src/window.rs",
                    "dsp",
                    "pub fn inner_sum(xs: &[f64]) -> f64 {\n    let copied = xs.to_vec();\n    copied.iter().sum()\n}\n",
                ),
            ],
            &["SPAN_FUSION"],
        );
        let out = hot_path_alloc(&files, &graph, &f);
        assert_eq!(out.diags.len(), 1, "{:#?}", out.diags);
        let d = &out.diags[0];
        assert_eq!(d.file, "crates/dsp/src/window.rs");
        assert!(d.message.contains("dsp::window::inner_sum"));
        assert_eq!(
            d.trace[0].symbol,
            "hot span `SPAN_FUSION` in `core::fusion::fuse`"
        );
    }

    #[test]
    fn alloc_after_span_in_seed_is_flagged() {
        let (files, graph, f) = setup(
            &[(
                "crates/core/src/fusion.rs",
                "core",
                "pub fn fuse(xs: &[f64]) -> f64 {\n    let _span = span(SPAN_FUSION);\n    let mut v = Vec::new();\n    v.push(1.0);\n    0.0\n}\n",
            )],
            &["SPAN_FUSION"],
        );
        let out = hot_path_alloc(&files, &graph, &f);
        assert_eq!(out.diags.len(), 1, "{:#?}", out.diags);
        assert_eq!(out.diags[0].line, 3);
        assert!(out.diags[0].message.contains("2 site(s)"));
    }
}
