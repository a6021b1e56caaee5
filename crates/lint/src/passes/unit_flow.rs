//! Unit-flow pass: no arithmetic that mixes physical units.
//!
//! The simulation's numbers all travel as bare `u64`s — simulated
//! nanoseconds (`sim_ns`, `*_ns`), byte volumes (`*_bytes`), and counts
//! (`*_count`, `*_attempts`). The type system cannot tell them apart, so a
//! `total_ns + shuffle_bytes` typo compiles and quietly corrupts a
//! simulated result. This pass gives every operand a unit — a binding from
//! its name suffix or through `let` chains via the [`crate::dataflow`]
//! machinery, a call from its name or its summarized return
//! ([`crate::summaries`]) — and flags, in one walk per body,
//!
//! * `+`/`-`/`+=`/`-=` between two operands of *different known* units
//!   (multiplication and division are exempt: `bytes * ns_per_byte` is how
//!   conversions are spelled);
//! * a non-nanosecond value reaching a `*_ns`/`sim_ns` sink through a plain
//!   `=`/`: ` assignment whose right-hand side has no converting `*`/`/`;
//! * an argument whose unit differs from the parameter's declared unit.
//!
//! Name-derived units win over flow-derived ones (a binding named
//! `total_ns` *is* nanoseconds, whatever fed it — the mixing is flagged at
//! the arithmetic, not at the rename), and identifiers containing `per`
//! carry no unit: `ns_per_byte` is a rate, not a byte count. Ambiguous
//! calls (several resolved callees with disagreeing summaries) carry no
//! fact: the under-approximation direction the whole crate follows.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::dataflow::{self, Flow, LetBinding};
use crate::items::FileModel;
use crate::lexer::{Tok, TokKind};
use crate::summaries::Summaries;
use crate::{cfg, Related, Rule, Violation};

/// The units the simulation's identifiers encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    Ns,
    Bytes,
    Count,
}

impl Unit {
    pub fn name(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Bytes => "bytes",
            Unit::Count => "count",
        }
    }
}

/// The unit an identifier's *name* declares, from its last `_`-segment.
/// `per`-containing names are rates and carry no unit.
pub fn unit_of_name(name: &str) -> Option<Unit> {
    if name.split('_').any(|seg| seg == "per") {
        return None;
    }
    match name.rsplit('_').next().unwrap_or(name) {
        "ns" => Some(Unit::Ns),
        "bytes" | "byte" => Some(Unit::Bytes),
        "count" | "counts" | "attempts" => Some(Unit::Count),
        _ => None,
    }
}

/// Per-call-site facts from the callee summaries, keyed by the name token.
struct CallFact {
    /// Agreed return unit across all resolved callees.
    ret: Option<Unit>,
    /// Agreed per-position parameter facts: `(param name, unit)`.
    params: Vec<(Option<String>, Option<Unit>)>,
    /// Display name of the call.
    name: String,
    /// Declaration site of one resolved callee (stable-key minimal), for
    /// the related location.
    decl: (String, usize),
}

/// One side of a `+`/`-`: a binding (or unit-named call) with its unit, or
/// a call whose unit is its summarized return.
enum Operand<'a> {
    Binding(&'a str, Unit),
    Call(&'a CallFact, Unit),
}

pub fn run(models: &[FileModel], graph: &CallGraph, sums: &Summaries) -> Vec<Violation> {
    let mut out = Vec::new();
    for (id, &(fi, gi)) in graph.fns.iter().enumerate() {
        let m = &models[fi];
        let f = &m.fns[gi];
        if m.harness || f.in_test {
            continue;
        }
        let Some((s, e)) = f.body else { continue };
        check_body(m, s, e, &call_facts(models, graph, sums, id), &mut out);
    }
    out
}

/// The unit of the identifier at token `k`, resolved name-first, then
/// through the flow facts. Field chains use the field's own name (`e.
/// wasted_ns` is nanoseconds regardless of what `e` is).
pub(crate) fn unit_at(toks: &[Tok], k: usize, flow: &Flow<Unit>) -> Option<Unit> {
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    unit_of_name(&t.text).or_else(|| {
        // Flow facts apply to whole bindings, not fields of one.
        let is_field = k >= 1 && toks[k - 1].is_op(".");
        if is_field {
            None
        } else {
            flow.get(&t.text).copied()
        }
    })
}

/// Builds the call-site fact table for one caller: only calls whose name
/// does not itself declare a unit (those are plain operands), and whose
/// resolved callees agree.
fn call_facts(
    models: &[FileModel],
    graph: &CallGraph,
    sums: &Summaries,
    id: usize,
) -> BTreeMap<usize, CallFact> {
    let mut by_tok: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for e in &graph.edges[id] {
        by_tok.entry(e.tok).or_default().push(e.callee);
    }
    let mut out = BTreeMap::new();
    for (tok, callees) in by_tok {
        let (c0fi, c0gi) = graph.fns[callees[0]];
        let name = models[c0fi].fns[c0gi].name.clone();
        if unit_of_name(&name).is_some() {
            continue;
        }
        let ret = agreed(callees.iter().map(|&c| sums.ret_unit[c]));
        let max_params = callees.iter().map(|&c| sums.params[c].len()).max().unwrap_or(0);
        let params: Vec<(Option<String>, Option<Unit>)> = (0..max_params)
            .map(|p| {
                let unit =
                    agreed(callees.iter().map(|&c| sums.params[c].get(p).and_then(|pa| pa.unit)));
                let pname = sums.params[callees[0]].get(p).and_then(|pa| pa.name.clone());
                (pname, unit)
            })
            .collect();
        if ret.is_none() && params.iter().all(|(_, u)| u.is_none()) {
            continue;
        }
        let decl_of = |c: usize| {
            let (dfi, dgi) = graph.fns[c];
            (models[dfi].rel_path.clone(), models[dfi].fns[dgi].line)
        };
        let decl = callees.iter().map(|&c| decl_of(c)).min().unwrap_or_default();
        out.insert(tok, CallFact { ret, params, name, decl });
    }
    out
}

/// The single unit all items agree on, or `None` on any unknown/conflict
/// (or no items at all).
pub(crate) fn agreed(units: impl Iterator<Item = Option<Unit>>) -> Option<Unit> {
    let mut acc: Option<Unit> = None;
    for u in units {
        match (u, acc) {
            (None, _) => return None,
            (Some(u), None) => acc = Some(u),
            (Some(u), Some(a)) if u != a => return None,
            _ => {}
        }
    }
    acc
}

fn check_body(
    m: &FileModel,
    start: usize,
    end: usize,
    facts: &BTreeMap<usize, CallFact>,
    out: &mut Vec<Violation>,
) {
    let toks = &m.toks;
    let end = end.min(toks.len().saturating_sub(1));
    let bindings = dataflow::let_bindings(toks, start, end);
    let mut next_binding = 0usize;
    let mut flow: Flow<Unit> = Flow::new();

    for k in start..=end {
        // Apply every binding whose initializer we have fully walked past,
        // so checks inside an initializer use the pre-binding facts.
        while next_binding < bindings.len() && bindings[next_binding].rhs.1 < k {
            apply_binding(toks, &bindings[next_binding], &mut flow);
            next_binding += 1;
        }
        let t = &toks[k];
        let line = t.line;

        // Mixing: `a_ns + b_bytes`, `acc_ns -= delta_bytes`, `x_ns + f(…)`…
        if t.kind == TokKind::Op
            && matches!(t.text.as_str(), "+" | "-" | "+=" | "-=")
            && k > start
            && k < end
        {
            let lhs = operand_before(toks, k - 1, facts, &flow);
            let rhs = operand_after(toks, k + 1, facts, &flow);
            if let (Some(l), Some(r)) = (lhs, rhs) {
                if let Some(v) = mix_violation(m, line, &l, &r, &t.text) {
                    out.push(v);
                }
            }
        }

        // Sink: `…_ns = <expr>` / `sim_ns: <expr>` receiving a known
        // non-nanosecond operand with no converting `*`/`/` in the
        // expression.
        if t.kind == TokKind::Ident
            && unit_of_name(&t.text) == Some(Unit::Ns)
            && toks.get(k + 1).is_some_and(|n| n.is_op("=") || n.is_op(":"))
        {
            match offending_rhs(toks, k + 2, end, facts, &flow) {
                Some(Operand::Binding(name, unit)) => out.push(Violation::new(
                    Rule::UnitFlow,
                    &m.rel_path,
                    line,
                    format!(
                        "`{name}` ({}) flows into `{}` — a nanosecond sink must receive \
                         nanoseconds; convert with an explicit rate first",
                        unit.name(),
                        t.text
                    ),
                )),
                Some(Operand::Call(fact, ret)) => out.push(
                    Violation::new(
                        Rule::UnitFlow,
                        &m.rel_path,
                        line,
                        format!(
                            "`{}(…)` returns {} and flows into `{}` — a nanosecond sink \
                             must receive nanoseconds; convert with an explicit rate first",
                            fact.name,
                            ret.name(),
                            t.text
                        ),
                    )
                    .with_related(vec![decl_related(fact, ret)]),
                ),
                None => {}
            }
        }

        // Argument positions: a single-ident argument with a known unit must
        // match the parameter's declared unit.
        let Some(fact) = facts.get(&k) else { continue };
        let Some(close) = cfg::matching(toks, k + 1, "(", ")") else { continue };
        for (p, arg) in single_ident_args(toks, k + 1, close).into_iter().enumerate() {
            let Some(arg_tok) = arg else { continue };
            let Some((pname, Some(want))) = fact.params.get(p).cloned() else { continue };
            let Some(have) = unit_at(toks, arg_tok, &flow) else { continue };
            if have != want {
                let pname = pname.unwrap_or_else(|| format!("#{p}"));
                out.push(
                    Violation::new(
                        Rule::UnitFlow,
                        &m.rel_path,
                        line,
                        format!(
                            "`{}` ({}) is passed to parameter `{pname}` ({}) of \
                             `{}` — convert with an explicit rate first",
                            toks[arg_tok].text,
                            have.name(),
                            want.name(),
                            fact.name
                        ),
                    )
                    .with_related(vec![Related {
                        path: fact.decl.0.clone(),
                        line: fact.decl.1,
                        note: format!("`{}` declares `{pname}` as {}", fact.name, want.name()),
                    }]),
                );
            }
        }
    }
}

/// The operand ending at token `k`: a binding, or a call `f(…)` whose
/// summarized return carries a unit.
fn operand_before<'a>(
    toks: &'a [Tok],
    k: usize,
    facts: &'a BTreeMap<usize, CallFact>,
    flow: &Flow<Unit>,
) -> Option<Operand<'a>> {
    if toks[k].is_op(")") {
        let mut depth = 0i64;
        let open = (0..=k).rev().find(|&j| {
            depth += i64::from(toks[j].is_op(")")) - i64::from(toks[j].is_op("("));
            depth == 0
        })?;
        let fact = facts.get(&open.checked_sub(1)?)?;
        return fact.ret.map(|u| Operand::Call(fact, u));
    }
    unit_at(toks, k, flow).map(|u| Operand::Binding(&toks[k].text, u))
}

/// The operand starting at token `k`: a (possibly path-qualified) call with
/// a summarized return unit, else the binding at `k`.
fn operand_after<'a>(
    toks: &'a [Tok],
    k: usize,
    facts: &'a BTreeMap<usize, CallFact>,
    flow: &Flow<Unit>,
) -> Option<Operand<'a>> {
    let mut name = k;
    while toks.get(name + 1).is_some_and(|t| t.is_op("::"))
        && toks.get(name + 2).is_some_and(|t| t.kind == TokKind::Ident)
    {
        name += 2;
    }
    if let Some(fact) = facts.get(&name) {
        return fact.ret.map(|u| Operand::Call(fact, u));
    }
    unit_at(toks, k, flow).map(|u| Operand::Binding(&toks[k].text, u))
}

/// The finding for `l op r` when the two units differ; a summarized call
/// on either side is named with its declaration as the related location.
fn mix_violation(
    m: &FileModel,
    line: usize,
    l: &Operand,
    r: &Operand,
    op: &str,
) -> Option<Violation> {
    let v = match (l, r) {
        (Operand::Binding(a, u), Operand::Binding(b, w)) => {
            if u == w {
                return None;
            }
            Violation::new(
                Rule::UnitFlow,
                &m.rel_path,
                line,
                format!(
                    "`{a}` ({}) and `{b}` ({}) are combined with `{op}` — different units \
                     never add; convert explicitly (multiply by a rate) first",
                    u.name(),
                    w.name()
                ),
            )
        }
        (Operand::Call(fact, ret), Operand::Binding(other, u))
        | (Operand::Binding(other, u), Operand::Call(fact, ret)) => {
            if ret == u {
                return None;
            }
            Violation::new(
                Rule::UnitFlow,
                &m.rel_path,
                line,
                format!(
                    "`{}(…)` returns {} but is combined with `{other}` ({}) via `{op}` — \
                     different units never add; convert explicitly (multiply by a rate) first",
                    fact.name,
                    ret.name(),
                    u.name()
                ),
            )
            .with_related(vec![decl_related(fact, *ret)])
        }
        (Operand::Call(..), Operand::Call(..)) => return None,
    };
    Some(v)
}

fn decl_related(fact: &CallFact, ret: Unit) -> Related {
    Related {
        path: fact.decl.0.clone(),
        line: fact.decl.1,
        note: format!("`{}` returns {} (summarized here)", fact.name, ret.name()),
    }
}

/// Scans the value expression starting at `from` (after `=`/`:`) up to a
/// `,`/`;`/closer at depth 0. Returns the first operand with a known
/// non-`Ns` unit — unless a `*`/`/` at depth 0 marks the expression as a
/// conversion, or any operand is already `Ns` (then the `+`/`-` mixing
/// check owns the finding).
fn offending_rhs<'a>(
    toks: &'a [Tok],
    from: usize,
    end: usize,
    facts: &'a BTreeMap<usize, CallFact>,
    flow: &Flow<Unit>,
) -> Option<Operand<'a>> {
    let mut depth = 0i64;
    let mut first_bad: Option<Operand> = None;
    for k in from..=end {
        let t = &toks[k];
        if t.is_op("(") || t.is_op("[") || t.is_op("{") {
            depth += 1;
        } else if t.is_op(")") || t.is_op("]") || t.is_op("}") {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_op(",") || t.is_op(";")) {
            break;
        } else if depth == 0 && (t.is_op("*") || t.is_op("/")) {
            return None; // conversion expression
        } else if depth == 0 && t.kind == TokKind::Ident {
            let operand = match facts.get(&k) {
                Some(fact) => fact.ret.map(|u| Operand::Call(fact, u)),
                None => unit_at(toks, k, flow).map(|u| Operand::Binding(&t.text, u)),
            };
            match operand {
                Some(Operand::Binding(_, Unit::Ns) | Operand::Call(_, Unit::Ns)) => return None,
                Some(o) if first_bad.is_none() => first_bad = Some(o),
                _ => {}
            }
        }
    }
    first_bad
}

/// Applies one `let` binding to the fact environment: the bound name takes
/// its name-declared unit if it has one, else the unit the initializer
/// propagates — a single known unit among its top-level operands, with
/// `*`/`/` (conversions) clearing the fact.
pub(crate) fn apply_binding(toks: &[Tok], b: &LetBinding, flow: &mut Flow<Unit>) {
    if b.names.len() != 1 {
        // Tuple patterns: positional matching is more machinery than the
        // workspace needs; unmodeled bindings just carry no fact.
        for n in &b.names {
            flow.bind(n, unit_of_name(n));
        }
        return;
    }
    let name = &b.names[0];
    if let Some(u) = unit_of_name(name) {
        flow.bind(name, Some(u));
        return;
    }
    let (rs, re) = b.rhs;
    let mut depth = 0i64;
    let mut derived: Option<Unit> = None;
    for k in rs..=re {
        let t = &toks[k];
        if t.is_op("(") || t.is_op("[") {
            depth += 1;
        } else if t.is_op(")") || t.is_op("]") {
            depth -= 1;
        } else if depth <= 0 && (t.is_op("*") || t.is_op("/")) {
            derived = None; // a conversion: the result's unit is not an operand's
            break;
        } else if depth <= 0 && t.kind == TokKind::Ident {
            if let Some(u) = unit_at(toks, k, flow) {
                match derived {
                    None => derived = Some(u),
                    Some(d) if d != u => {
                        // Mixed rhs: the arithmetic check reports it; the
                        // binding itself gets no trustworthy unit.
                        derived = None;
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
    flow.bind(name, derived);
}

/// Arguments of the call spanning `(open, close)`, positionally: the token
/// index of arguments that are a single bare identifier, `None` for
/// anything more structured (those carry no checkable unit).
fn single_ident_args(toks: &[Tok], open: usize, close: usize) -> Vec<Option<usize>> {
    let mut args: Vec<Vec<usize>> = vec![Vec::new()];
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().take(close).skip(open + 1) {
        if t.is_op("(") || t.is_op("[") || t.is_op("{") {
            depth += 1;
        } else if t.is_op(")") || t.is_op("]") || t.is_op("}") {
            depth -= 1;
        } else if depth == 0 && t.is_op(",") {
            args.push(Vec::new());
            continue;
        }
        if let Some(arg) = args.last_mut() {
            arg.push(k);
        }
    }
    args.into_iter()
        .map(|idxs| match idxs.as_slice() {
            [one] if toks[*one].kind == TokKind::Ident => Some(*one),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;

    fn analyze(src: &str) -> Vec<Violation> {
        let models = [FileModel::build("crates/core/src/x.rs", src)];
        let graph = callgraph::build(&models);
        let sums = Summaries::compute(&models, &graph);
        run(&models, &graph, &sums)
    }

    #[test]
    fn direct_mixing_fires() {
        let vs = analyze(
            "fn f(task_ns: u64, shuffle_bytes: u64) -> u64 {\n    task_ns + shuffle_bytes\n}\n",
        );
        assert!(
            vs.iter().any(|v| v.rule == Rule::UnitFlow && v.message.contains("shuffle_bytes")),
            "{vs:?}"
        );
        let vs = analyze(
            "fn f(total_ns: &mut u64, read_bytes: u64) {\n    *total_ns += read_bytes;\n}\n",
        );
        assert!(vs.iter().any(|v| v.rule == Rule::UnitFlow), "{vs:?}");
    }

    #[test]
    fn flow_through_let_chains_fires() {
        let vs = analyze(
            "fn f(task_ns: u64, read_bytes: u64) -> u64 {\n    let moved = read_bytes;\n    task_ns + moved\n}\n",
        );
        assert!(vs.iter().any(|v| v.message.contains("moved")), "{vs:?}");
    }

    #[test]
    fn same_unit_and_conversions_are_clean() {
        for ok in [
            "fn f(a_ns: u64, b_ns: u64) -> u64 { a_ns + b_ns }\n",
            "fn f(read_bytes: u64, ns_per_byte: u64) -> u64 { read_bytes * ns_per_byte }\n",
            "fn f(read_bytes: u64, rate: u64) -> u64 {\n    let cost_ns = read_bytes * rate;\n    cost_ns\n}\n",
            "fn f(a_count: u64, b_count: u64) -> u64 { a_count - b_count }\n",
            "fn f(xs: &[u64]) -> u64 { xs.len() as u64 + 1 }\n",
        ] {
            assert!(analyze(ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn ns_sink_rejects_unconverted_bytes() {
        let vs = analyze("fn f(r: &mut R, read_bytes: u64) {\n    r.sim_ns = read_bytes;\n}\n");
        assert!(vs.iter().any(|v| v.message.contains("sim_ns")), "{vs:?}");
        // A converted value is fine.
        let vs = analyze(
            "fn f(r: &mut R, read_bytes: u64, ns_per_byte: u64) {\n    r.sim_ns = read_bytes * ns_per_byte;\n}\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
        // Struct-literal field init is a sink too.
        let vs =
            analyze("fn f(read_bytes: u64) -> R {\n    R { sim_ns: read_bytes, other: 0 }\n}\n");
        assert!(vs.iter().any(|v| v.message.contains("sim_ns")), "{vs:?}");
    }

    #[test]
    fn name_derived_unit_wins_over_flow() {
        // `total_ns` *is* ns by name: assigning bytes into it is the sink
        // finding; downstream `total_ns + x_ns` must NOT also fire.
        let vs = analyze(
            "fn f(read_bytes: u64, x_ns: u64) -> u64 {\n    let total_ns = read_bytes;\n    total_ns + x_ns\n}\n",
        );
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("total_ns"), "{vs:?}");
    }

    #[test]
    fn rebinding_kills_stale_facts() {
        let vs = analyze(
            "fn f(task_ns: u64, read_bytes: u64, plain: u64) -> u64 {\n    let moved = read_bytes;\n    let moved = plain;\n    task_ns + moved\n}\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn test_code_is_out_of_scope() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(a_ns: u64, b_bytes: u64) -> u64 { a_ns + b_bytes }\n}\n";
        assert!(analyze(src).is_empty(), "{src}");
    }

    #[test]
    fn returned_unit_mixing_fires_on_either_side_of_the_operator() {
        for src in [
            "pub fn total(task_ns: u64, n: u64) -> u64 { task_ns + moved(n) }\nfn moved(n: u64) -> u64 {\n    let out_bytes = n;\n    out_bytes\n}\n",
            "pub fn total(task_ns: u64, n: u64) -> u64 { moved(n) + task_ns }\nfn moved(n: u64) -> u64 {\n    let out_bytes = n;\n    out_bytes\n}\n",
        ] {
            let vs = analyze(src);
            assert_eq!(vs.len(), 1, "{vs:?}");
            assert!(vs[0].message.contains("`moved(…)` returns bytes"), "{vs:?}");
            assert!(vs[0].related[0].note.contains("summarized here"), "{vs:?}");
        }
    }

    #[test]
    fn returned_unit_into_ns_sink_fires() {
        let vs = analyze(
            "pub fn record(r: &mut R, n: u64) {\n    r.sim_ns = step(n);\n}\nfn step(n: u64) -> u64 {\n    let got_bytes = n;\n    got_bytes\n}\n",
        );
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(
            vs[0].message.contains("`step(…)` returns bytes and flows into `sim_ns`"),
            "{vs:?}"
        );
    }

    #[test]
    fn argument_unit_mismatch_fires() {
        let vs = analyze(
            "pub fn drive(read_bytes: u64) -> u64 { scale(read_bytes) }\nfn scale(cost_ns: u64) -> u64 { cost_ns }\n",
        );
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("parameter `cost_ns`"), "{vs:?}");
    }

    #[test]
    fn converted_agreeing_and_unknown_returns_are_clean() {
        for ok in [
            // Converted before the sink.
            "pub fn record(r: &mut R, n: u64, ns_per_byte: u64) {\n    r.sim_ns = step(n) * ns_per_byte;\n}\nfn step(n: u64) -> u64 {\n    let got_bytes = n;\n    got_bytes\n}\n",
            // Same units agree.
            "pub fn total(task_ns: u64, n: u64) -> u64 { task_ns + step(n) }\nfn step(n: u64) -> u64 {\n    let more_ns = n;\n    more_ns\n}\n",
            // Unknown callee unit carries no fact.
            "pub fn total(task_ns: u64, n: u64) -> u64 { task_ns + plain(n) }\nfn plain(n: u64) -> u64 { n }\n",
            // A unit-named call is an operand like any binding.
            "pub fn total(task_ns: u64) -> u64 { task_ns + other_ns() }\nfn other_ns() -> u64 { 1 }\n",
        ] {
            assert!(analyze(ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn unit_named_call_is_reported_once() {
        let vs = analyze(
            "pub fn total(task_ns: u64) -> u64 { task_ns + other_bytes() }\nfn other_bytes() -> u64 { 1 }\n",
        );
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("`other_bytes` (bytes)"), "{vs:?}");
    }
}
