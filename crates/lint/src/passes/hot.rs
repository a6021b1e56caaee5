//! Hot-path reachability: which functions run inside the measured region.
//!
//! The hot set is seeded from the two places host wall-clock is actually
//! spent (see DESIGN.md §12):
//!
//! 1. **`sjc_par` entry-point closures** — the callees a worker-thread
//!    closure dispatches to. The closure argument of every
//!    `par_map`/`join`/… call is scanned for call sites, and the matching
//!    call-graph edges of the enclosing function become roots. Rooting the
//!    *callees named inside the closure* rather than the whole enclosing
//!    function keeps driver-side setup code out of the hot set.
//! 2. **`crates/bench` functions** — everything the bench harness calls is
//!    by definition inside a measured region (bench bodies themselves are
//!    never *flagged*; they only seed traversal into the library crates).
//!    The crate's `src/bin/` CLI drivers are excluded: `reproduce` prints
//!    tables and `perfsnap` writes JSON *after* the simulated runs —
//!    nothing they call sits inside a timed region.
//! 3. **Scratch-arena callers** — a function that checks buffers out of
//!    `sjc_par::scratch` (`take_vec`/`put_vec`/`with_vec`) is reusing
//!    allocations precisely because it sits on a hot path, so it seeds the
//!    set like a par-closure callee. The same exclusions as root 2 apply —
//!    bench CLI drivers, plus anything under a `target/` directory (build
//!    artifacts are not workspace code, and walking them would blow the
//!    lint gate's 20 s budget) — and `crates/par` itself is exempt: the
//!    arena's internals are not users of it.
//!
//! From those roots the set closes forward over the crate-topology-gated
//! call graph, the same edges the entropy pass trusts. The closure bodies
//! handed to `sjc_par` are additionally reported as hot token *ranges* per
//! file, so loops written inline in a worker closure are covered without
//! any call-graph hop.

use std::collections::BTreeMap;

use crate::callgraph::{calls_in, CallGraph, FnId};
use crate::cfg;
use crate::items::FileModel;
use crate::passes::par_closure;

/// The hot-path reachability result for one workspace scan.
pub(crate) struct HotSet {
    /// Parallel to `graph.fns`: true when the function is reachable from a
    /// hot root.
    pub hot: Vec<bool>,
    /// Per model index: token ranges of closure bodies handed directly to
    /// `sjc_par` entry points (hot even when their enclosing fn is not).
    pub closure_ranges: Vec<Vec<(usize, usize)>>,
}

pub(crate) fn compute(models: &[FileModel], graph: &CallGraph) -> HotSet {
    let mut hot = vec![false; graph.fns.len()];
    let mut work: Vec<FnId> = Vec::new();
    let mut closure_ranges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); models.len()];

    // Root 2: bench functions (including bench harness files — the bench
    // crate *is* the measured-region driver), except the `src/bin/` CLI
    // drivers, which only format and print already-computed results.
    let mut id_of: BTreeMap<(usize, usize), FnId> = BTreeMap::new();
    for (id, &(fi, gi)) in graph.fns.iter().enumerate() {
        id_of.insert((fi, gi), id);
        let m = &models[fi];
        if m.krate == "bench" && !m.rel_path.contains("/src/bin/") && !hot[id] {
            hot[id] = true;
            work.push(id);
        }
    }

    // Root 1: callees named inside sjc_par entry-point closures.
    for (mi, m) in models.iter().enumerate() {
        if m.krate == "par" {
            continue; // the runtime's internals dispatch their own closures
        }
        let toks = &m.toks;
        let mut i = 0usize;
        while i < toks.len() {
            if !par_closure::is_par_call(m, i) || m.in_test_at(i) {
                i += 1;
                continue;
            }
            let open = i + 1;
            let Some(close) = cfg::matching(toks, open, "(", ")") else { break };
            let mut j = open + 1;
            while j < close {
                if toks[j].is_op("|") || toks[j].is_op("||") {
                    let (bs, be, _) = par_closure::closure_extent(toks, j, close);
                    closure_ranges[mi].push((bs, be));
                    // Every call-graph edge of the enclosing fn whose
                    // call-site name appears in the closure body is a root.
                    let names: Vec<String> =
                        calls_in(toks, bs, be).into_iter().map(|c| c.name).collect();
                    let caller = m
                        .fns
                        .iter()
                        .rposition(|f| f.body.is_some_and(|(s, e)| s <= i && i <= e))
                        .and_then(|gi| id_of.get(&(mi, gi)).copied());
                    if let Some(caller) = caller {
                        for e in &graph.edges[caller] {
                            if names.contains(&e.via) && !hot[e.callee] {
                                hot[e.callee] = true;
                                work.push(e.callee);
                            }
                        }
                    }
                    j = be + 1;
                } else {
                    j += 1;
                }
            }
            i = close + 1;
        }
    }

    // Root 3: functions whose bodies check buffers out of the sjc_par
    // scratch arena. Same exclusions as root 2 (bench CLI drivers, target/
    // artifacts); the arena's own crate is exempt.
    for (id, &(fi, gi)) in graph.fns.iter().enumerate() {
        let m = &models[fi];
        if hot[id]
            || m.krate == "par"
            || m.rel_path.contains("/src/bin/")
            || m.rel_path.contains("target/")
        {
            continue;
        }
        let Some((bs, be)) = m.fns[gi].body else { continue };
        let toks = &m.toks;
        let uses_scratch = (bs..=be.min(toks.len().saturating_sub(1))).any(|k| {
            k >= 2
                && toks[k].kind == crate::lexer::TokKind::Ident
                && matches!(toks[k].text.as_str(), "take_vec" | "put_vec" | "with_vec")
                && toks[k - 1].is_op("::")
                && toks[k - 2].is_ident("scratch")
                && !m.in_test_at(k)
        });
        if uses_scratch {
            hot[id] = true;
            work.push(id);
        }
    }

    // Forward closure: anything a hot function calls is hot.
    while let Some(id) = work.pop() {
        for e in &graph.edges[id] {
            if !hot[e.callee] {
                hot[e.callee] = true;
                work.push(e.callee);
            }
        }
    }

    HotSet { hot, closure_ranges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;

    fn hot_names(files: &[(&str, &str)]) -> Vec<String> {
        let models: Vec<FileModel> = files.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        let graph = callgraph::build(&models);
        let set = compute(&models, &graph);
        graph
            .fns
            .iter()
            .enumerate()
            .filter(|&(id, _)| set.hot[id])
            .map(|(_, &(fi, gi))| models[fi].fns[gi].name.clone())
            .collect()
    }

    #[test]
    fn par_closure_callees_and_their_callees_are_hot() {
        let names = hot_names(&[(
            "crates/index/src/x.rs",
            "pub fn drive(parts: &[Vec<u64>]) -> Vec<u64> {\n    sjc_par::par_map(parts, |p| kernel(p))\n}\nfn kernel(p: &[u64]) -> u64 { helper(p) }\nfn helper(p: &[u64]) -> u64 { p.len() as u64 }\nfn cold(p: &[u64]) -> u64 { p.len() as u64 }\n",
        )]);
        assert!(names.contains(&"kernel".to_string()), "{names:?}");
        assert!(names.contains(&"helper".to_string()), "{names:?}");
        assert!(!names.contains(&"cold".to_string()), "{names:?}");
        // The driver itself is not hot — only what the closure dispatches.
        assert!(!names.contains(&"drive".to_string()), "{names:?}");
    }

    #[test]
    fn scratch_arena_callers_seed_the_hot_set_with_the_driver_exclusions() {
        // A library function checking buffers out of the arena is hot, and
        // so is everything it calls…
        let src = "pub fn build(n: usize) -> Vec<u64> {\n    let mut buf: Vec<u64> = sjc_par::scratch::take_vec();\n    fill(&mut buf, n);\n    let out = buf.clone();\n    sjc_par::scratch::put_vec(buf);\n    out\n}\nfn fill(buf: &mut Vec<u64>, n: usize) { buf.extend(0..n as u64); }\nfn cold() -> u64 { 3 }\n";
        let names = hot_names(&[("crates/index/src/stripes.rs", src)]);
        assert!(names.contains(&"build".to_string()), "{names:?}");
        assert!(names.contains(&"fill".to_string()), "{names:?}");
        assert!(!names.contains(&"cold".to_string()), "{names:?}");
        // …but the same code in a bench CLI driver or a target/ artifact
        // seeds nothing, and the arena's own crate is exempt.
        for excluded in [
            "crates/bench/src/bin/perfsnap.rs",
            "target/debug/build/x.rs",
            "crates/par/src/scratch.rs",
        ] {
            let names = hot_names(&[(excluded, src)]);
            assert!(!names.contains(&"fill".to_string()), "{excluded}: {names:?}");
        }
    }

    #[test]
    fn bench_fns_seed_reachability_across_crates() {
        let names = hot_names(&[
            (
                "crates/bench/src/suite.rs",
                "use sjc_core::run_join;\npub fn measure() -> u64 { run_join() }\n",
            ),
            ("crates/core/src/join.rs", "pub fn run_join() -> u64 { inner() }\nfn inner() -> u64 { 1 }\nfn unused() -> u64 { 2 }\n"),
        ]);
        assert!(names.contains(&"run_join".to_string()), "{names:?}");
        assert!(names.contains(&"inner".to_string()), "{names:?}");
        assert!(!names.contains(&"unused".to_string()), "{names:?}");
    }
}
