//! Workspace call graph over the item model.
//!
//! Calls are extracted syntactically (an identifier directly followed by
//! `(`, or `.name(` for method calls) and resolved *by name* — but the
//! resolution is gated by the workspace's crate topology: a call in crate A
//! only resolves to a function in crate B when A == B, when the calling file
//! `use`s `sjc_B`, or when the call is path-qualified (`sjc_b::f(…)`,
//! `crate::m::f(…)`). That gate is what keeps name-based resolution honest:
//! without it, a bench-crate helper named `run` would taint every `run` in
//! the simulation crates and the entropy pass would drown in false
//! positives. With it, taint can only flow along edges the build graph
//! actually has. For the same reason a call from library code never
//! resolves to a test-only function, which the library build does not
//! contain.

use std::collections::BTreeMap;

use crate::items::FileModel;
use crate::lexer::{Tok, TokKind};

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Final path segment — the called name.
    pub name: String,
    /// Full path segments when the call was qualified (`["sjc_par",
    /// "par_map"]`); just `[name]` for bare calls.
    pub path: Vec<String>,
    /// True for `.name(…)` method calls.
    pub method: bool,
    /// For method calls, the receiver identifier when it is a single ident
    /// (`self.run()` → `Some("self")`; `x.y().run()` → `None`).
    pub recv: Option<String>,
    /// Token index of the name in the file's stream.
    pub tok: usize,
    pub line: usize,
}

/// Identifier-followed-by-`(` positions that are *not* calls.
pub(crate) fn is_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "move"
            | "in"
            | "as"
            | "let"
            | "else"
            | "break"
            | "continue"
            | "fn"
            | "where"
            | "unsafe"
    )
}

/// Extracts call sites from `toks[start..=end]`.
pub fn calls_in(toks: &[Tok], start: usize, end: usize) -> Vec<Call> {
    let mut out = Vec::new();
    let hi = end.min(toks.len().saturating_sub(1));
    for i in start..=hi {
        if toks[i].kind != TokKind::Ident || is_call_keyword(&toks[i].text) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else { continue };
        if !next.is_op("(") {
            continue;
        }
        // `name!(…)` is a macro, `fn name(` a definition.
        if i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_op("!")) {
            continue;
        }
        let method = i > 0 && toks[i - 1].is_op(".");
        let recv = (method && i >= 2 && toks[i - 2].kind == TokKind::Ident)
            .then(|| toks[i - 2].text.clone());
        // Walk the `a::b::name` qualifier chain backwards.
        let mut path = vec![toks[i].text.clone()];
        let mut k = i;
        while k >= 2 && toks[k - 1].is_op("::") && toks[k - 2].kind == TokKind::Ident {
            path.insert(0, toks[k - 2].text.clone());
            k -= 2;
        }
        out.push(Call {
            name: toks[i].text.clone(),
            path,
            method,
            recv,
            tok: i,
            line: toks[i].line,
        });
    }
    out
}

/// A function in the workspace-wide flat list: `(file index, fn index)`.
pub type FnId = usize;

/// One resolved caller→callee edge, carrying the call site that produced it
/// so taint and panic chains can be reported readably.
#[derive(Debug, Clone)]
pub struct Edge {
    pub callee: FnId,
    /// The call-site name as written in the caller.
    pub via: String,
    /// Token index of the call-site name in the caller's file.
    pub tok: usize,
    /// Line of the call site in the caller's file.
    pub line: usize,
}

pub struct CallGraph {
    /// Flat list of every function: indexes into `models[file].fns[idx]`.
    pub fns: Vec<(usize, usize)>,
    /// Resolved callee edges per function, parallel to `fns`.
    pub edges: Vec<Vec<Edge>>,
}

/// `sjc_<dir>` is the import path of the crate in `crates/<dir>` (package
/// names use hyphens, paths use underscores; every directory name in this
/// workspace is underscore-free, so the mapping is just a prefix).
fn import_alias(krate: &str) -> String {
    format!("sjc_{krate}")
}

/// Path segments that name scope roots or foreign crates rather than
/// workspace modules — they carry no module-file constraint.
fn is_scope_segment(seg: &str) -> bool {
    matches!(seg, "crate" | "self" | "super" | "std" | "core" | "alloc") || seg.starts_with("sjc_")
}

/// True when `rel_path` is a plausible file for module `m`:
/// `…/m.rs`, or any directory component named `m` (`…/m/mod.rs`,
/// `…/m/part.rs`).
fn in_module(rel_path: &str, m: &str) -> bool {
    let file = format!("{m}.rs");
    rel_path.split('/').any(|c| c == m || c == file)
}

pub fn build(models: &[FileModel]) -> CallGraph {
    let mut fns = Vec::new();
    let mut calls = Vec::new();
    // name -> ids, for resolution.
    let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();

    for (fi, m) in models.iter().enumerate() {
        for (gi, f) in m.fns.iter().enumerate() {
            let id = fns.len();
            fns.push((fi, gi));
            by_name.entry(f.name.as_str()).or_default().push(id);
            calls.push(match f.body {
                Some((s, e)) => calls_in(&m.toks, s, e),
                None => Vec::new(),
            });
        }
    }

    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
    for (id, &(fi, gi)) in fns.iter().enumerate() {
        let caller_file = &models[fi];
        let caller_in_test = caller_file.fns[gi].in_test;
        for call in &calls[id] {
            let Some(cands) = by_name.get(call.name.as_str()) else { continue };
            let segs = &call.path[..call.path.len() - 1];
            // `std::…` / `core::…` / `alloc::…` never target the workspace.
            if segs.first().is_some_and(|s| matches!(s.as_str(), "std" | "core" | "alloc")) {
                continue;
            }
            // The innermost lowercase qualifier names a module file
            // (`scheduler::lpt_makespan` must land in `scheduler.rs`). An
            // uppercase qualifier is a type (`Kind::assoc`) and constrains
            // nothing a token walk can check.
            let module = segs
                .iter()
                .rev()
                .find(|s| !is_scope_segment(s))
                .filter(|s| s.chars().next().is_some_and(|c| c.is_lowercase()));
            for &cand in cands {
                let (cfi, cgi) = fns[cand];
                let callee_file = &models[cfi];
                // Test-only code is not compiled into the library, so a
                // library call can never reach it.
                if !caller_in_test && callee_file.fns[cgi].in_test {
                    continue;
                }
                let callee_crate = &callee_file.krate;
                let crate_ok = match segs.first().map(String::as_str) {
                    // Crate-relative paths stay inside the caller's crate.
                    Some("crate") | Some("self") | Some("super") => {
                        *callee_crate == caller_file.krate
                    }
                    // An `sjc_x::…` path names exactly one crate; no
                    // same-crate fallback.
                    Some(q) if q.starts_with("sjc_") => q == import_alias(callee_crate),
                    // Bare, module-qualified, or `Type::assoc` calls: same
                    // crate, or a crate the file actually imports. A
                    // `self.method()` receiver pins the impl to this crate.
                    _ => {
                        if call.method && call.recv.as_deref() == Some("self") {
                            *callee_crate == caller_file.krate
                        } else {
                            *callee_crate == caller_file.krate
                                || caller_file.use_crates.contains(&import_alias(callee_crate))
                        }
                    }
                };
                let module_ok = module.is_none_or(|m| in_module(&callee_file.rel_path, m));
                if crate_ok && module_ok {
                    edges[id].push(Edge {
                        callee: cand,
                        via: call.name.clone(),
                        tok: call.tok,
                        line: call.line,
                    });
                }
            }
        }
    }

    CallGraph { fns, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::FileModel;

    #[test]
    fn calls_extracted_with_paths_and_methods() {
        let m = FileModel::build(
            "crates/cluster/src/x.rs",
            "fn f() { g(); h.run(); sjc_par::par_map(&v, k); if x { writeln!(o, \"\"); } }\n",
        );
        let (s, e) = m.fns[0].body.unwrap();
        let calls = calls_in(&m.toks, s, e);
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        // `if` and the `writeln!` macro are not calls.
        assert_eq!(names, ["g", "run", "par_map"]);
        assert!(calls[1].method);
        assert_eq!(calls[2].path, ["sjc_par", "par_map"]);
    }

    #[test]
    fn resolution_is_gated_by_imports() {
        let a = FileModel::build(
            "crates/cluster/src/a.rs",
            "use sjc_data::jitter;\nfn caller() { jitter(); }\n",
        );
        let b = FileModel::build("crates/data/src/b.rs", "pub fn jitter() {}\n");
        // A bench fn with the same name must NOT resolve: cluster does not
        // import sjc_bench.
        let c = FileModel::build("crates/bench/src/c.rs", "pub fn jitter() {}\n");
        let g = build(&[a, b, c]);
        // fns: caller(0), data::jitter(1), bench::jitter(2)
        let callee_files: Vec<usize> = g.edges[0].iter().map(|e| g.fns[e.callee].0).collect();
        assert_eq!(callee_files, [1], "edges: {:?}", g.edges[0]);
    }

    #[test]
    fn same_crate_calls_resolve_without_use() {
        let a = FileModel::build("crates/rdd/src/a.rs", "fn f() { helper(); }\n");
        let b = FileModel::build("crates/rdd/src/b.rs", "pub fn helper() {}\n");
        let g = build(&[a, b]);
        assert_eq!(g.edges[0].len(), 1);
    }

    #[test]
    fn sjc_qualified_calls_resolve_to_that_crate_only() {
        // A same-crate fn with the same name must NOT shadow the qualified
        // target (the pre-precision resolver kept a same-crate fallback).
        let a = FileModel::build(
            "crates/cluster/src/a.rs",
            "fn f() { sjc_data::jitter(); }\npub fn jitter() {}\n",
        );
        let b = FileModel::build("crates/data/src/b.rs", "pub fn jitter() {}\n");
        let g = build(&[a, b]);
        let callee_files: Vec<usize> = g.edges[0].iter().map(|e| g.fns[e.callee].0).collect();
        assert_eq!(callee_files, [1], "edges: {:?}", g.edges[0]);
    }

    #[test]
    fn module_qualified_calls_require_the_module_file() {
        let a = FileModel::build(
            "crates/cluster/src/plan.rs",
            "fn f() -> u64 { scheduler::lpt_makespan() }\n",
        );
        let b = FileModel::build(
            "crates/cluster/src/scheduler.rs",
            "pub fn lpt_makespan() -> u64 { 1 }\n",
        );
        // Same name in a different module file: must not resolve.
        let c =
            FileModel::build("crates/cluster/src/other.rs", "pub fn lpt_makespan() -> u64 { 2 }\n");
        let g = build(&[a, b, c]);
        let callee_files: Vec<usize> = g.edges[0].iter().map(|e| g.fns[e.callee].0).collect();
        assert_eq!(callee_files, [1], "edges: {:?}", g.edges[0]);
    }

    #[test]
    fn self_method_calls_stay_in_the_callers_crate() {
        let a = FileModel::build(
            "crates/index/src/grid.rs",
            "use sjc_geom::probe;\nimpl Grid { fn run(&self) { self.probe(); } fn probe(&self) {} }\n",
        );
        let b = FileModel::build("crates/geom/src/lib.rs", "pub fn probe() {}\n");
        let g = build(&[a, b]);
        // fns: run(0), index::probe(1), geom::probe(2) — despite the `use`,
        // `self.probe()` can only be the index-crate impl.
        let callees: Vec<FnId> = g.edges[0].iter().map(|e| e.callee).collect();
        assert_eq!(callees, [1], "edges: {:?}", g.edges[0]);
    }

    #[test]
    fn cross_crate_method_calls_resolve_through_use() {
        // Satellite regression: a method call on a value whose type lives in
        // another crate resolves when the caller imports that crate.
        let a = FileModel::build(
            "crates/core/src/join.rs",
            "use sjc_index::Grid;\nfn f(g: &Grid) -> u64 { g.probe_count() }\n",
        );
        let b = FileModel::build(
            "crates/index/src/grid.rs",
            "impl Grid { pub fn probe_count(&self) -> u64 { 7 } }\n",
        );
        let g = build(&[a, b]);
        let callees: Vec<FnId> = g.edges[0].iter().map(|e| e.callee).collect();
        assert_eq!(callees, [1], "edges: {:?}", g.edges[0]);
        assert_eq!(g.edges[0][0].via, "probe_count");
    }

    #[test]
    fn library_calls_never_resolve_to_test_only_functions() {
        // A library helper `lines` in core once inherited the `panic!` of a
        // same-named test helper in `sjc_data`'s tiger.rs, because core
        // imports sjc_data.
        let a = FileModel::build(
            "crates/core/src/hadoopgis/mod.rs",
            "use sjc_data::tsv;\npub fn run(t: &str) -> usize { lines(t) }\nfn lines(t: &str) -> usize { t.len() }\n",
        );
        let b = FileModel::build(
            "crates/data/src/tiger.rs",
            "pub fn edges() {}\n#[cfg(test)]\nmod tests {\n    fn lines(n: usize) -> usize { if n == 0 { panic!(\"none\") } n }\n    #[test]\n    fn t() { lines(3); }\n}\n",
        );
        let g = build(&[a, b]);
        // fns: run(0), core::lines(1), edges(2), tests::lines(3), tests::t(4)
        let callees = |id: FnId| -> Vec<FnId> { g.edges[id].iter().map(|e| e.callee).collect() };
        assert_eq!(callees(0), [1], "edges: {:?}", g.edges[0]);
        // Test → test edges still resolve.
        assert_eq!(callees(4), [3], "edges: {:?}", g.edges[4]);
    }

    #[test]
    fn std_qualified_calls_never_resolve_into_the_workspace() {
        let a = FileModel::build("crates/rdd/src/a.rs", "fn f() -> u64 { std::cmp::max(1, 2) }\n");
        let b = FileModel::build(
            "crates/rdd/src/b.rs",
            "pub fn max(a: u64, b: u64) -> u64 { a.max(b) }\n",
        );
        let g = build(&[a, b]);
        assert!(g.edges[0].is_empty(), "edges: {:?}", g.edges[0]);
    }
}
