//! Entropy-taint pass.
//!
//! Two halves:
//!
//! 1. **Reachability**: a function whose body mentions a wall-clock or
//!    entropy API is a *source*; taint propagates backwards along the call
//!    graph (callers of tainted functions are tainted). Any tainted
//!    function in a simulation crate's non-test code is a violation — the
//!    line rule only sees direct call sites, this closes the transitive
//!    gap (`schedule() → helper() → thread_rng()` across files).
//! 2. **Flow into simulated output**: inside any single function (bench
//!    included — bench may *observe* the clock, but simulated numbers must
//!    never be derived from it), a value bound from an entropy source must
//!    not reach a `sim_ns` field/variable assignment or a `*trace*(…)`
//!    call argument. Taint is tracked per binding through `let` chains.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::items::FileModel;
use crate::lexer::{Tok, TokKind};
use crate::{Rule, Violation, SIM_CRATES};

/// Entropy/wall-clock source patterns, as (qualifier, name) or bare names.
const QUALIFIED_SOURCES: &[(&str, &str)] = &[("Instant", "now"), ("SystemTime", "now")];
const BARE_SOURCES: &[&str] = &["thread_rng", "from_entropy"];

/// Scans a token range for a direct entropy-source mention; returns a label
/// and the 1-based line of the first one found. Shared with the purity half
/// of the summary layer, which treats any clock/entropy read as impure.
pub(crate) fn direct_source(toks: &[Tok], start: usize, end: usize) -> Option<(String, usize)> {
    let hi = end.min(toks.len().saturating_sub(1));
    for i in start..=hi {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        for &(q, n) in QUALIFIED_SOURCES {
            if toks[i].is_ident(q)
                && toks.get(i + 1).is_some_and(|t| t.is_op("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident(n))
            {
                return Some((format!("{q}::{n}"), toks[i].line));
            }
        }
        if BARE_SOURCES.contains(&toks[i].text.as_str()) {
            return Some((toks[i].text.clone(), toks[i].line));
        }
    }
    None
}

pub fn run(models: &[FileModel], graph: &CallGraph) -> Vec<Violation> {
    // taint[id] = Some((via, source_label)): `via` is the callee name this
    // function reached the source through ("" for direct sources).
    let mut taint: Vec<Option<(String, String)>> = vec![None; graph.fns.len()];
    let mut work = Vec::new();
    for (id, &(fi, gi)) in graph.fns.iter().enumerate() {
        let f = &models[fi].fns[gi];
        if let Some((s, e)) = f.body {
            if let Some((label, _)) = direct_source(&models[fi].toks, s, e) {
                taint[id] = Some((String::new(), label));
                work.push(id);
            }
        }
    }
    // Propagate backwards: build reverse edges once, then fixpoint.
    let mut callers: Vec<Vec<(usize, String)>> = vec![Vec::new(); graph.fns.len()];
    for (caller, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            callers[e.callee].push((caller, e.via.clone()));
        }
    }
    while let Some(id) = work.pop() {
        let source = taint[id].as_ref().map(|(_, s)| s.clone()).unwrap_or_default();
        for (caller, via) in callers[id].clone() {
            if taint[caller].is_none() {
                taint[caller] = Some((via, source.clone()));
                work.push(caller);
            }
        }
    }

    let mut out = Vec::new();
    for (id, &(fi, gi)) in graph.fns.iter().enumerate() {
        let m = &models[fi];
        let f = &m.fns[gi];
        let Some((via, source)) = &taint[id] else { continue };
        if !SIM_CRATES.contains(&m.krate.as_str()) || f.in_test || m.harness {
            continue;
        }
        let how = if via.is_empty() {
            format!("calls `{source}` directly")
        } else {
            format!("reaches `{source}` via `{via}(…)`")
        };
        out.push(Violation::new(
            Rule::EntropyTaint,
            &m.rel_path,
            f.line,
            format!(
                "fn `{}` {how} — simulation code must derive everything from the experiment seed; \
                 hoist the host observation into crates/bench or thread a seeded rng through",
                f.name
            ),
        ));
    }

    // Per-function data-flow: entropy-derived bindings must not reach
    // sim_ns / trace output.
    for m in models {
        for f in &m.fns {
            if f.in_test || m.harness {
                continue;
            }
            let Some((s, e)) = f.body else { continue };
            out.extend(flow_violations(m, s, e));
        }
    }
    out
}

/// Sink names: an identifier containing `sim_ns`, or a called function whose
/// name mentions the trace machinery.
fn is_sink_ident(name: &str) -> bool {
    name.contains("sim_ns")
}

fn is_sink_call(name: &str) -> bool {
    name.contains("sim_ns") || name.contains("trace")
}

/// Intra-function taint: statements are approximated line-by-line (the
/// workspace is rustfmt-formatted, so a binding and its initializer share a
/// line often enough for a checker that only has to catch real leaks, not
/// prove their absence).
fn flow_violations(m: &FileModel, start: usize, end: usize) -> Vec<Violation> {
    let toks = &m.toks;
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    // Statement grouping shared with the unit-flow pass (`crate::dataflow`).
    let lines = crate::dataflow::group_lines(toks, start, end);
    let mut out = Vec::new();
    for (&line, idxs) in &lines {
        let line_toks: Vec<&Tok> = idxs.iter().map(|&i| &toks[i]).collect();
        // A line's tokens are contiguous in the stream.
        let (Some(&first), Some(&last)) = (idxs.first(), idxs.last()) else { continue };
        let has_source = direct_source(toks, first, last).is_some();
        let rhs_tainted =
            line_toks.iter().any(|t| t.kind == TokKind::Ident && tainted.contains(&t.text));
        // `let [mut] name … = …` with an entropic RHS taints the binding.
        if has_source || rhs_tainted {
            let mut k = 0;
            while k < line_toks.len() {
                if line_toks[k].is_ident("let") {
                    let mut j = k + 1;
                    while j < line_toks.len()
                        && !line_toks[j].is_op("=")
                        && !line_toks[j].is_op(";")
                    {
                        if line_toks[j].kind == TokKind::Ident && line_toks[j].text != "mut" {
                            tainted.insert(line_toks[j].text.clone());
                        }
                        j += 1;
                    }
                    k = j;
                } else {
                    k += 1;
                }
            }
        }
        if tainted.is_empty() {
            continue;
        }
        // Sinks: `sim_ns: <expr>` / `sim_ns = <expr>` with a tainted ident
        // in the expression, or `…trace…( … tainted … )`.
        for (k, t) in line_toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let next = line_toks.get(k + 1);
            let sink_assign =
                is_sink_ident(&t.text) && next.is_some_and(|n| n.is_op(":") || n.is_op("="));
            let sink_call = is_sink_call(&t.text)
                && next.is_some_and(|n| n.is_op("("))
                // Reading a field like `t.sim_ns` is fine; calling
                // `record_trace(x)` with tainted x is not.
                && !t.text.is_empty();
            if !(sink_assign || sink_call) {
                continue;
            }
            // The value expression: tokens after the `:`/`=`/`(` up to a
            // `,`/`;` at the same nesting depth (or end of line).
            let mut depth = 0i64;
            for v in line_toks.iter().skip(k + 2) {
                if v.is_op("(") || v.is_op("[") || v.is_op("{") {
                    depth += 1;
                } else if v.is_op(")") || v.is_op("]") || v.is_op("}") {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if depth == 0 && (v.is_op(",") || v.is_op(";")) {
                    break;
                } else if v.kind == TokKind::Ident && tainted.contains(&v.text) {
                    out.push(Violation::new(
                        Rule::EntropyTaint,
                        &m.rel_path,
                        line,
                        format!(
                            "`{}` is derived from a wall-clock/entropy source and flows into \
                             `{}` — simulated output must be a pure function of the seed",
                            v.text, t.text
                        ),
                    ));
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;

    fn analyze(files: &[(&str, &str)]) -> Vec<Violation> {
        let models: Vec<FileModel> = files.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        let graph = callgraph::build(&models);
        run(&models, &graph)
    }

    #[test]
    fn transitive_reach_across_files_is_flagged() {
        let vs = analyze(&[
            (
                "crates/cluster/src/sched.rs",
                "use sjc_data::jitter;\npub fn plan() -> u64 { jitter() }\n",
            ),
            ("crates/data/src/noise.rs", "pub fn jitter() -> u64 { thread_rng() }\n"),
        ]);
        assert!(
            vs.iter().any(|v| v.rule == Rule::EntropyTaint
                && v.path == "crates/cluster/src/sched.rs"
                && v.message.contains("jitter")),
            "{vs:?}"
        );
        // The source itself sits in `data`, which is not a sim crate: the
        // line rules (bench-isolation) own that site.
        assert!(!vs.iter().any(|v| v.path == "crates/data/src/noise.rs"), "{vs:?}");
    }

    #[test]
    fn unrelated_crates_do_not_propagate() {
        // bench's `jitter` must not taint cluster's `plan`: cluster does
        // not import sjc_bench.
        let vs = analyze(&[
            ("crates/cluster/src/sched.rs", "pub fn plan() -> u64 { jitter() }\n"),
            ("crates/bench/src/noise.rs", "pub fn jitter() -> u64 { thread_rng() }\n"),
        ]);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn clock_derived_value_into_sim_ns_is_flagged_even_in_bench() {
        let vs = analyze(&[(
            "crates/bench/src/snap.rs",
            "pub fn snap(r: &mut Row) {\n    let t0 = Instant::now();\n    let wall = t0;\n    r.sim_ns = wall;\n}\n",
        )]);
        assert!(vs.iter().any(|v| v.rule == Rule::EntropyTaint && v.line == 4), "{vs:?}");
    }

    #[test]
    fn wall_clock_next_to_sim_ns_without_flow_is_clean() {
        // Reading the clock into wall_ms while sim_ns comes from the model
        // is what a timing harness does — must not fire.
        let vs = analyze(&[(
            "crates/bench/src/snap.rs",
            "pub fn snap(r: &mut Row, model_ns: u64) {\n    let t0 = Instant::now();\n    r.wall_ms = elapsed(t0);\n    r.sim_ns = model_ns;\n}\n",
        )]);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn test_code_is_out_of_scope() {
        let vs = analyze(&[(
            "crates/cluster/src/sched.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { let x = thread_rng(); }\n}\n",
        )]);
        assert!(vs.is_empty(), "{vs:?}");
    }
}
