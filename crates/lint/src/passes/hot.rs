//! Hot-path reachability, and the hot loops both hot-path passes check.
//!
//! The hot set is seeded from the places host wall-clock is actually spent
//! (see DESIGN.md §12):
//!
//! 1. **`sjc_par` entry-point closures** — the callees a worker-thread
//!    closure dispatches to. The closure argument of every `par_*`/`join`
//!    call is scanned for call sites, and the matching call-graph edges of
//!    the enclosing function become roots. Rooting the *callees named
//!    inside the closure* rather than the whole enclosing function keeps
//!    driver-side setup code out of the hot set.
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
//!    artifacts are not workspace code) — and `crates/par` itself is
//!    exempt: the arena's internals are not users of it.
//!
//! From those roots the set closes forward over the crate-topology-gated
//! call graph, the same edges the entropy pass trusts. [`hot_loops`] then
//! collects, once per scan, the loops of every hot function plus the loops
//! written inline in the closure bodies handed to `sjc_par` — the spans
//! `hot-alloc` and `loop-invariant-call` both check.

use std::collections::BTreeMap;

use crate::callgraph::{calls_in, CallGraph, FnId};
use crate::cfg::{self, Loop};
use crate::items::FileModel;
use crate::lexer::TokKind;
use crate::SIM_CRATES;

/// Per model index: the hot loops of the file's non-test code, by opening
/// brace, each once. Only simulation-crate library files have any — the
/// code that produces the paper's numbers.
pub(crate) fn hot_loops(models: &[FileModel], graph: &CallGraph) -> Vec<Vec<Loop>> {
    let (hot, closure_ranges) = reachable(models, graph);
    let checked = |m: &FileModel| !m.harness && SIM_CRATES.contains(&m.krate.as_str());
    let mut out: Vec<Vec<Loop>> = vec![Vec::new(); models.len()];
    for (id, &(fi, gi)) in graph.fns.iter().enumerate() {
        let f = &models[fi].fns[gi];
        let Some((s, e)) = f.body else { continue };
        if hot[id] && !f.in_test && checked(&models[fi]) {
            out[fi].extend(cfg::loops(&models[fi].toks, s, e));
        }
    }
    for (mi, m) in models.iter().enumerate().filter(|&(_, m)| checked(m)) {
        for &(cs, ce) in &closure_ranges[mi] {
            if !m.in_test_at(cs) {
                out[mi].extend(cfg::loops(&m.toks, cs, ce));
            }
        }
        out[mi].sort_by_key(|l| l.open);
        out[mi].dedup_by_key(|l| l.open);
    }
    out
}

/// True when token `i` heads a call to a `sjc_par` entry point: a `par_*`
/// function, or `join`/`join_budget` qualified by `sjc_par::` or imported
/// from it, so `path.join(…)` and the spatial-join functions never match.
fn is_par_call(m: &FileModel, i: usize) -> bool {
    let toks = &m.toks;
    let t = &toks[i];
    let join = t.text == "join" || t.text == "join_budget";
    if t.kind != TokKind::Ident
        || !(t.text.starts_with("par_") || join)
        || !toks.get(i + 1).is_some_and(|n| n.is_op("("))
    {
        return false;
    }
    if i > 0 && (toks[i - 1].is_op(".") || toks[i - 1].is_ident("fn")) {
        return false; // method call or definition, not a runtime dispatch
    }
    if i > 0 && toks[i - 1].is_op("::") {
        return i >= 2 && (toks[i - 2].is_ident("sjc_par") || toks[i - 2].is_ident("par"));
    }
    !join || (m.use_crates.contains("sjc_par") && m.use_names.contains(&t.text))
}

/// The hot flag per function (parallel to `graph.fns`), and per model
/// index the token ranges of closure bodies handed directly to `sjc_par`
/// entry points (hot even when their enclosing fn is not).
fn reachable(models: &[FileModel], graph: &CallGraph) -> (Vec<bool>, Vec<Vec<(usize, usize)>>) {
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
            if !is_par_call(m, i) || m.in_test_at(i) {
                i += 1;
                continue;
            }
            let open = i + 1;
            let Some(close) = cfg::matching(toks, open, "(", ")") else { break };
            let mut j = open + 1;
            while j < close {
                if toks[j].is_op("|") || toks[j].is_op("||") {
                    let (bs, be) = cfg::closure_body(toks, j, close);
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
                && toks[k].kind == TokKind::Ident
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

    (hot, closure_ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;

    fn hot_names(files: &[(&str, &str)]) -> Vec<String> {
        let models: Vec<FileModel> = files.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        let graph = callgraph::build(&models);
        let (hot, _) = reachable(&models, &graph);
        graph
            .fns
            .iter()
            .enumerate()
            .filter(|&(id, _)| hot[id])
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
    fn every_par_entry_point_and_only_sjc_par_joins_root_the_set() {
        let src = "use sjc_par::join;\npub fn drive(parts: &[Vec<u64>], w: &[u64]) {\n    sjc_par::par_map_weighted(parts, w, |p| a(p));\n    join(|| b(), || 0);\n    path.join(|| c());\n    other::join(|| d());\n}\nfn a(p: &[u64]) -> u64 { 1 }\nfn b() -> u64 { 2 }\nfn c() -> u64 { 3 }\nfn d() -> u64 { 4 }\n";
        let names = hot_names(&[("crates/core/src/x.rs", src)]);
        assert_eq!(names, ["a", "b"], "{names:?}");
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

    #[test]
    fn a_closure_loop_inside_a_hot_fn_is_collected_once() {
        // `inner` is hot (a par closure calls it), and so is the closure it
        // hands to `par_map`: the loop belongs to both, and counts once.
        let src = "pub fn top(v: &[Vec<Vec<u64>>]) {\n    sjc_par::par_map(v, |parts| inner(parts));\n}\nfn inner(parts: &[Vec<u64>]) -> Vec<u64> {\n    sjc_par::par_map(parts, |p| {\n        let mut n = 0;\n        for x in p.iter() {\n            n += x;\n        }\n        n\n    })\n}\n";
        let models = [FileModel::build("crates/core/src/x.rs", src)];
        let graph = callgraph::build(&models);
        assert_eq!(hot_loops(&models, &graph)[0].len(), 1);
        // Outside the simulation crates nothing is collected.
        let models = [FileModel::build("crates/testkit/src/x.rs", src)];
        let graph = callgraph::build(&models);
        assert!(hot_loops(&models, &graph)[0].is_empty());
    }
}
