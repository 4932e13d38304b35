//! Fixed-point dataflow over the call graph.
//!
//! Everything here is deterministic by construction: worklists are
//! `BTreeSet`s (processed in ascending function order), edges are
//! pre-sorted by the call-graph builder, and ties between equal-length
//! paths break toward the smaller `(function, line)` pair. The lattice
//! for reachability is the two-point `{unreached, reached}` lattice with
//! a path witness attached; the transfer function is union over call
//! edges, and the BFS below is its fixpoint.

use crate::callgraph::CallGraph;
use std::collections::{BTreeMap, BTreeSet};

/// How a reached function connects one hop closer to the seed set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The neighbouring function one step closer to a seed.
    pub next: usize,
    /// Call-site line (in the *current* function for downward walks, in
    /// the caller for upward walks — see the direction helpers).
    pub line: u32,
}

/// Functions reachable *upward* from `seeds`: every function that can
/// transitively call into a seed. The returned map contains all reached
/// functions; seeds map to `None`, others to the hop toward the seed.
/// `hop.line` is the call-site line inside the reached (calling)
/// function.
pub fn reach_callers(graph: &CallGraph, seeds: &BTreeSet<usize>) -> BTreeMap<usize, Option<Hop>> {
    reach(graph, seeds, true)
}

/// Functions reachable *downward* from `seeds`: every function a seed
/// transitively calls. `hop.line` is the call-site line inside the
/// function one step closer to the seed (`hop.next`).
pub fn reach_callees(graph: &CallGraph, seeds: &BTreeSet<usize>) -> BTreeMap<usize, Option<Hop>> {
    reach(graph, seeds, false)
}

/// Breadth-first reach from `seeds` over call edges, toward callers when
/// `upward`, toward callees otherwise.
fn reach(graph: &CallGraph, seeds: &BTreeSet<usize>, upward: bool) -> BTreeMap<usize, Option<Hop>> {
    let mut state: BTreeMap<usize, Option<Hop>> = seeds.iter().map(|&s| (s, None)).collect();
    let mut frontier: BTreeSet<usize> = seeds.clone();
    while !frontier.is_empty() {
        let mut nxt = BTreeSet::new();
        for &f in &frontier {
            let edges = if upward {
                &graph.in_edges[f]
            } else {
                &graph.out_edges[f]
            };
            for &e in edges {
                let edge = &graph.edges[e];
                let other = if upward { edge.caller } else { edge.callee };
                let entry = state.entry(other).or_insert_with(|| {
                    nxt.insert(other);
                    Some(Hop {
                        next: f,
                        line: edge.line,
                    })
                });
                // Within the same BFS level, prefer the smaller
                // (next, line) witness for determinism.
                if let Some(h) = entry {
                    if nxt.contains(&other) && (f, edge.line) < (h.next, h.line) {
                        *h = Hop {
                            next: f,
                            line: edge.line,
                        };
                    }
                }
            }
        }
        frontier = nxt;
    }
    state
}

/// Transitive closure of a per-function set-valued fact (e.g. "locks
/// this function may acquire, directly or via callees"). Classic
/// worklist fixpoint on the powerset lattice: iterate until no
/// function's set grows.
pub fn closure_over_callees(
    graph: &CallGraph,
    local: &BTreeMap<usize, BTreeSet<String>>,
) -> BTreeMap<usize, BTreeSet<String>> {
    let mut sets: BTreeMap<usize, BTreeSet<String>> = local.clone();
    let mut work: BTreeSet<usize> = (0..graph.fns.len()).collect();
    while let Some(&f) = work.iter().next() {
        work.remove(&f);
        let mut merged: BTreeSet<String> = sets.get(&f).cloned().unwrap_or_default();
        let before = merged.len();
        for &e in &graph.out_edges[f] {
            if let Some(callee_set) = sets.get(&graph.edges[e].callee) {
                merged.extend(callee_set.iter().cloned());
            }
        }
        if merged.len() > before || (!merged.is_empty() && !sets.contains_key(&f)) {
            sets.insert(f, merged);
            for &e in &graph.in_edges[f] {
                work.insert(graph.edges[e].caller);
            }
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::source::SourceFile;
    use crate::symbols::extract_fns;

    fn graph(srcs: &[(&str, &str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, c, s)| SourceFile::parse(p, c, false, s))
            .collect();
        let mut fns = Vec::new();
        for (i, f) in files.iter().enumerate() {
            fns.extend(extract_fns(f, i));
        }
        let g = callgraph::build(&files, fns, None);
        (files, g)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn upward_reachability_with_witness() {
        let (_, g) = graph(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn entry() {\n    helper(1);\n}\nfn helper(x: u32) {\n    leaf(x);\n}\nfn leaf(x: u32) {\n    let _ = x;\n}\n",
        )]);
        let leaf = idx(&g, "leaf");
        let reached = reach_callers(&g, &BTreeSet::from([leaf]));
        let entry = idx(&g, "entry");
        let helper = idx(&g, "helper");
        assert!(reached.contains_key(&entry));
        let hop = reached[&entry].unwrap();
        assert_eq!(hop.next, helper);
        assert_eq!(hop.line, 2);
        assert_eq!(reached[&leaf], None);
    }

    #[test]
    fn downward_reachability() {
        let (_, g) = graph(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn entry() {\n    helper(1);\n}\nfn helper(x: u32) {\n    leaf(x);\n}\nfn leaf(x: u32) {\n    let _ = x;\n}\nfn unrelated() {}\n",
        )]);
        let entry = idx(&g, "entry");
        let reached = reach_callees(&g, &BTreeSet::from([entry]));
        assert!(reached.contains_key(&idx(&g, "leaf")));
        assert!(!reached.contains_key(&idx(&g, "unrelated")));
    }

    #[test]
    fn closure_unions_callee_sets_through_cycles() {
        let (_, g) = graph(&[(
            "crates/store/src/a.rs",
            "store",
            "fn a() {\n    b();\n}\nfn b() {\n    a();\n    c();\n}\nfn c() {}\n",
        )]);
        let c = idx(&g, "c");
        let local = BTreeMap::from([(c, BTreeSet::from(["store.inner".to_string()]))]);
        let closed = closure_over_callees(&g, &local);
        assert!(closed[&idx(&g, "a")].contains("store.inner"));
        assert!(closed[&idx(&g, "b")].contains("store.inner"));
    }
}
