//! Bottom-up interprocedural function summaries.
//!
//! The per-function passes stop at call boundaries; this module closes them.
//! It condenses the crate-topology-gated call graph into strongly connected
//! components (iterative Tarjan — the pop order of Tarjan is already reverse
//! topological, i.e. callees before callers) and computes, bottom-up, one
//! fact set per function, gathered in [`Summaries`]:
//!
//! * **may-panic** — the body contains `.unwrap()`/`.expect(`, a panicking
//!   macro, slice indexing, or a literal-zero divisor, or the function calls
//!   one that does. A site whose line carries an audited
//!   `allow(no-panic-in-lib)`/`allow(panic-path)` comment is trusted and
//!   does not count; the consumed audit is recorded so `stale-suppression`
//!   knows it is live.
//! * **purity** — the body reads no clock/entropy API and mutates no
//!   `static` (ALL_CAPS receiver hit with a mutating method or assigned
//!   to), transitively.
//! * **unit signature** — the `_ns`/`_bytes`/`_count` unit of each named
//!   parameter and of the returned value, from names and `let`-chain
//!   dataflow ([`crate::dataflow`]), with tail calls resolved through the
//!   summaries themselves (a fixpoint inside cyclic components).
//!
//! Both boolean properties are monotone (a fact only ever turns on), so one
//! bottom-up sweep suffices: a component is bad iff a member is directly bad
//! or calls a bad component. Unit facts only move `None → Some`, so the
//! in-component iteration terminates in at most `|scc| + 1` rounds.
//!
//! Diagnostic chains must not depend on file visit order, so causes are
//! assigned by a level-synchronous BFS from the direct sites over reverse
//! edges: every affected function gets a hop depth, and its recorded cause
//! is the edge to a minimal-depth callee, tie-broken by the callee's stable
//! key (path, line, name) and the call-site line. Depths strictly decrease
//! along a chain, so reconstruction always terminates.

use std::collections::BTreeSet;

use crate::callgraph::{CallGraph, FnId};
use crate::dataflow::{self, Flow};
use crate::items::FileModel;
use crate::lexer::{Tok, TokKind};
use crate::passes::unit_flow::{self, Unit};
use crate::{callgraph, cfg, passes::entropy};

/// Why a function carries a transitive property (may panic, impure).
#[derive(Debug, Clone)]
pub enum Cause {
    /// The property holds at a site in this function's own body.
    Direct {
        /// Human-readable description of the site (`.unwrap()`, `Instant::now`…).
        what: String,
        /// 1-based line of the site.
        line: usize,
    },
    /// The property is inherited through a call.
    Via {
        callee: FnId,
        /// 1-based line of the call site in this function.
        line: usize,
    },
}

/// One named parameter of a function signature.
#[derive(Debug, Clone)]
pub struct Param {
    /// The binding name, when the pattern is a single identifier.
    pub name: Option<String>,
    /// The unit the name declares (`cost_ns` → `Ns`).
    pub unit: Option<Unit>,
}

/// Per-function summaries, all vectors parallel to `graph.fns`.
pub struct Summaries {
    /// Why the function may panic; `None` when it cannot (as far as the
    /// token model sees — unmodeled code hides findings, never invents them).
    pub may_panic: Vec<Option<Cause>>,
    /// Why the function is impure; `None` when it is pure.
    pub impure: Vec<Option<Cause>>,
    /// Parameter names and units, in declaration order.
    pub params: Vec<Vec<Param>>,
    /// The unit of the returned value, when one can be derived.
    pub ret_unit: Vec<Option<Unit>>,
    /// `(file index, 1-based line)` of every audited allow comment that
    /// exempted a panic site. These audits are *live* even though no rule
    /// fires on their line any more — the finding they prevent would land at
    /// a `pub` API function far away.
    pub consumed_audits: BTreeSet<(usize, usize)>,
}

impl Summaries {
    /// Summaries with no audit exemptions (every panic site counts).
    pub fn compute(models: &[FileModel], graph: &CallGraph) -> Summaries {
        Summaries::compute_with_audit(models, graph, &|_, _| false)
    }

    /// Summaries honoring audited suppressions: `audited(file_idx, line)`
    /// returns true when a panic site on that line is covered by an
    /// `allow(no-panic-in-lib)` / `allow(panic-path)` comment.
    pub(crate) fn compute_with_audit(
        models: &[FileModel],
        graph: &CallGraph,
        audited: &dyn Fn(usize, usize) -> bool,
    ) -> Summaries {
        let n = graph.fns.len();
        let mut consumed = BTreeSet::new();

        let mut direct_panic: Vec<Option<(String, usize)>> = vec![None; n];
        let mut direct_impure: Vec<Option<(String, usize)>> = vec![None; n];
        let mut params = Vec::with_capacity(n);
        for (id, &(fi, gi)) in graph.fns.iter().enumerate() {
            let m = &models[fi];
            let f = &m.fns[gi];
            params.push(parse_params(m, f.name_tok));
            let Some((s, e)) = f.body else { continue };
            let nested = nested_ranges(m, gi);
            direct_panic[id] = scan_panic(m, fi, s, e, &nested, audited, &mut consumed);
            direct_impure[id] = scan_impure(m, s, e, &nested);
        }

        let comps = sccs(graph);
        let may_panic_set = close_over_calls(graph, &comps, &direct_panic);
        let impure_set = close_over_calls(graph, &comps, &direct_impure);
        let may_panic = assign_causes(models, graph, &direct_panic, &may_panic_set);
        let impure = assign_causes(models, graph, &direct_impure, &impure_set);

        let ret_unit = ret_units(models, graph, &comps);

        Summaries { may_panic, impure, params, ret_unit, consumed_audits: consumed }
    }

    /// The cause chain from `id` down to the direct site: each step is the
    /// cause recorded at the current function, the last step is always
    /// [`Cause::Direct`]. Empty when the property does not hold at `id`.
    pub fn chain(causes: &[Option<Cause>], id: FnId) -> Vec<&Cause> {
        let mut out = Vec::new();
        let mut cur = id;
        // Depths strictly decrease along `Via` links; the bound is a
        // belt-and-braces guard against a malformed cause vector.
        for _ in 0..=causes.len() {
            let Some(c) = &causes[cur] else { break };
            out.push(c);
            match c {
                Cause::Direct { .. } => break,
                Cause::Via { callee, .. } => cur = *callee,
            }
        }
        out
    }
}

/// Strongly connected components in reverse topological order (callees
/// before callers) — iterative Tarjan, so deep call chains cannot overflow
/// the checker's own stack.
pub fn sccs(graph: &CallGraph) -> Vec<Vec<FnId>> {
    let n = graph.fns.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<FnId> = Vec::new();
    let mut next = 0usize;
    let mut out: Vec<Vec<FnId>> = Vec::new();
    let mut frames: Vec<(FnId, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, 0));
        while let Some(frame) = frames.last_mut() {
            let v = frame.0;
            if frame.1 < graph.edges[v].len() {
                let w = graph.edges[v][frame.1].callee;
                frame.1 += 1;
                if index[w] == usize::MAX {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last() {
                    let u = parent.0;
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out
}

/// Closes a directly-observed property over the call graph, bottom-up: a
/// component has the property iff a member has it directly or any member
/// calls a function that already has it. One sweep suffices because the
/// components arrive callees-first and the property is monotone.
fn close_over_calls(
    graph: &CallGraph,
    comps: &[Vec<FnId>],
    direct: &[Option<(String, usize)>],
) -> Vec<bool> {
    let mut bad = vec![false; graph.fns.len()];
    for comp in comps {
        let comp_bad = comp
            .iter()
            .any(|&f| direct[f].is_some() || graph.edges[f].iter().any(|e| bad[e.callee]));
        if comp_bad {
            for &f in comp {
                bad[f] = true;
            }
        }
    }
    bad
}

/// Assigns each affected function a deterministic [`Cause`]: direct sites
/// keep their own, transitive ones record the edge to a minimal-hop-depth
/// callee, tie-broken by the callee's (path, line, name) and the call line —
/// independent of the order files were visited in.
fn assign_causes(
    models: &[FileModel],
    graph: &CallGraph,
    direct: &[Option<(String, usize)>],
    bad: &[bool],
) -> Vec<Option<Cause>> {
    let n = graph.fns.len();
    let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); n];
    for (caller, edges) in graph.edges.iter().enumerate() {
        if !bad[caller] {
            continue;
        }
        for e in edges {
            if bad[e.callee] {
                rev[e.callee].push(caller);
            }
        }
    }

    let mut depth = vec![usize::MAX; n];
    let mut level: Vec<FnId> = (0..n).filter(|&f| direct[f].is_some()).collect();
    for &f in &level {
        depth[f] = 0;
    }
    let mut d = 0usize;
    while !level.is_empty() {
        d += 1;
        let mut next = BTreeSet::new();
        for &v in &level {
            for &c in &rev[v] {
                if depth[c] == usize::MAX {
                    next.insert(c);
                }
            }
        }
        level = next.into_iter().collect();
        for &f in &level {
            depth[f] = d;
        }
    }

    let stable_key = |f: FnId| {
        let (fi, gi) = graph.fns[f];
        (&models[fi].rel_path, models[fi].fns[gi].line, &models[fi].fns[gi].name)
    };
    (0..n)
        .map(|f| {
            if let Some((what, line)) = &direct[f] {
                return Some(Cause::Direct { what: what.clone(), line: *line });
            }
            if !bad[f] {
                return None;
            }
            graph.edges[f]
                .iter()
                .filter(|e| depth[e.callee] != usize::MAX && depth[e.callee] + 1 == depth[f])
                .min_by_key(|e| (stable_key(e.callee), e.line, e.tok))
                .map(|e| Cause::Via { callee: e.callee, line: e.line })
        })
        .collect()
}

/// Vocabulary the may-panic scan recognizes: a deliberate under-
/// approximation. Division by a *variable* and arithmetic overflow are out
/// of scope — at the token level every `/` on `u64`s would flag, and almost
/// all of the workspace's division is float (which never panics). See
/// DESIGN.md §15 for the direction-of-error argument.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Scans `f`'s body for a panic site, skipping nested fn bodies and sites
/// whose line carries an audited allow (those are recorded in `consumed`).
fn scan_panic(
    m: &FileModel,
    fi: usize,
    s: usize,
    e: usize,
    nested: &[(usize, usize)],
    audited: &dyn Fn(usize, usize) -> bool,
    consumed: &mut BTreeSet<(usize, usize)>,
) -> Option<(String, usize)> {
    let toks = &m.toks;
    let e = e.min(toks.len().saturating_sub(1));
    let mut i = s;
    while i <= e {
        if let Some(&(_, ne)) = nested.iter().find(|&&(ns, ne)| ns <= i && i <= ne) {
            i = ne + 1;
            continue;
        }
        let t = &toks[i];
        let site: Option<String> = if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_op(".")
            && toks.get(i + 1).is_some_and(|n| n.is_op("("))
        {
            Some(format!(".{}(…)", t.text))
        } else if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_op("!"))
        {
            Some(format!("{}!", t.text))
        } else if is_index_open(toks, i) {
            Some("unchecked `[…]` indexing".to_string())
        } else if (t.is_op("/") || t.is_op("%"))
            && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Num && n.text == "0")
        {
            Some(format!("literal `{} 0` divisor", t.text))
        } else {
            None
        };
        if let Some(what) = site {
            if audited(fi, t.line) {
                consumed.insert((fi, t.line));
            } else {
                return Some((what, t.line));
            }
        }
        i += 1;
    }
    None
}

/// True when `toks[k]` is a `[` that indexes a value: the previous token
/// ends an expression (identifier, `)`, `]`) rather than opening a pattern,
/// type, attribute, or macro.
fn is_index_open(toks: &[Tok], k: usize) -> bool {
    if !toks[k].is_op("[") || k == 0 {
        return false;
    }
    let p = &toks[k - 1];
    match p.kind {
        TokKind::Ident => {
            !callgraph::is_call_keyword(&p.text)
                && !matches!(p.text.as_str(), "mut" | "ref" | "dyn" | "impl")
        }
        TokKind::Op => p.is_op(")") || p.is_op("]"),
        _ => false,
    }
}

/// Methods that mutate their receiver — hitting one on an ALL_CAPS (static)
/// receiver is direct impurity.
const MUTATING_METHODS: &[&str] = &[
    "lock",
    "write",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "get_or_init",
    "get_or_insert_with",
    "set",
    "replace",
    "borrow_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "clear",
];

/// True when `name` looks like a `static`/`const` item: at least one ASCII
/// uppercase letter and nothing lowercase.
fn is_static_name(name: &str) -> bool {
    name.len() >= 2
        && name.chars().any(|c| c.is_ascii_uppercase())
        && name.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Scans `f`'s body for direct impurity: a clock/entropy read, or a
/// mutation of an ALL_CAPS static (mutating method call or assignment).
fn scan_impure(
    m: &FileModel,
    s: usize,
    e: usize,
    nested: &[(usize, usize)],
) -> Option<(String, usize)> {
    let toks = &m.toks;
    let e = e.min(toks.len().saturating_sub(1));
    if let Some((label, line)) = entropy::direct_source(toks, s, e) {
        // Entropy sources in nested fns are vanishingly rare and the check
        // is an over-approximation in the safe direction for *this* pass's
        // consumers (purity violations are verified against direct causes).
        if !nested
            .iter()
            .any(|&(ns, ne)| toks[ns..=ne.min(toks.len() - 1)].iter().any(|t| t.line == line))
        {
            return Some((label, line));
        }
    }
    let mut i = s;
    while i <= e {
        if let Some(&(_, ne)) = nested.iter().find(|&&(ns, ne)| ns <= i && i <= ne) {
            i = ne + 1;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident && is_static_name(&t.text) {
            if toks.get(i + 1).is_some_and(|n| n.is_op("."))
                && toks.get(i + 2).is_some_and(|n| MUTATING_METHODS.contains(&n.text.as_str()))
                && toks.get(i + 3).is_some_and(|n| n.is_op("("))
            {
                return Some((
                    format!("`{}.{}(…)` mutates a static", t.text, toks[i + 2].text),
                    t.line,
                ));
            }
            if toks.get(i + 1).is_some_and(|n| {
                matches!(n.text.as_str(), "=" | "+=" | "-=" | "*=" | "/=" | "|=" | "&=" | "^=")
                    && n.kind == TokKind::Op
            }) {
                return Some((format!("assignment to static `{}`", t.text), t.line));
            }
        }
        i += 1;
    }
    None
}

/// Body ranges of fns nested strictly inside fn `gi`'s body — their tokens
/// belong to the nested item, not to `gi`.
fn nested_ranges(m: &FileModel, gi: usize) -> Vec<(usize, usize)> {
    let Some((s, e)) = m.fns[gi].body else { return Vec::new() };
    m.fns
        .iter()
        .enumerate()
        .filter(|&(gj, _)| gj != gi)
        .filter_map(|(_, g)| g.body)
        .filter(|&(s2, e2)| s < s2 && e2 < e)
        .collect()
}

/// Parses the parameter list following the fn name at `name_tok`: generics
/// are skipped (`>>` closes two angles — the lexer munches it as one op),
/// parameters split at depth-0 commas, each name read as the idents before
/// the top-level `:` (exactly one ident → a named binding; `self` and
/// tuple/struct patterns carry no unit).
fn parse_params(m: &FileModel, name_tok: usize) -> Vec<Param> {
    let toks = &m.toks;
    let mut i = name_tok + 1;
    if toks.get(i).is_some_and(|t| t.is_op("<")) {
        let mut depth = 0i64;
        while i < toks.len() {
            if toks[i].kind == TokKind::Op {
                match toks[i].text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
            }
            i += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    if !toks.get(i).is_some_and(|t| t.is_op("(")) {
        return Vec::new();
    }
    let open = i;
    let Some(close) = cfg::matching(toks, open, "(", ")") else { return Vec::new() };

    let mut out = Vec::new();
    let mut seg_start = open + 1;
    let mut depth = 0i64;
    let mut k = open + 1;
    while k <= close {
        let t = &toks[k];
        let boundary = k == close || (depth == 0 && t.is_op(","));
        if !boundary {
            if t.is_op("(") || t.is_op("[") || t.is_op("<") {
                depth += 1;
            } else if t.is_op(")") || t.is_op("]") || t.is_op(">") {
                depth -= 1;
            } else if t.is_op(">>") {
                depth -= 2;
            }
            k += 1;
            continue;
        }
        if seg_start < k {
            out.push(parse_param(&toks[seg_start..k]));
        }
        seg_start = k + 1;
        k += 1;
    }
    out
}

/// One parameter segment (tokens between commas): the binding name is the
/// single depth-0 identifier before the `:` (skipping `mut`); `self`
/// receivers and multi-ident patterns yield `name: None`.
fn parse_param(seg: &[Tok]) -> Param {
    let mut names = Vec::new();
    let mut depth = 0i64;
    for t in seg {
        if t.is_op("(") || t.is_op("[") {
            depth += 1;
        } else if t.is_op(")") || t.is_op("]") {
            depth -= 1;
        } else if depth == 0 && t.is_op(":") {
            break;
        } else if depth == 0 && t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref" {
            names.push(t.text.as_str());
        }
    }
    let name = match names.as_slice() {
        [one] if *one != "self" => Some(one.to_string()),
        _ => None,
    };
    let unit = name.as_deref().and_then(unit_flow::unit_of_name);
    Param { name, unit }
}

/// Return units, bottom-up with an in-component fixpoint: a function's unit
/// comes from its own name, else from agreeing `return <ident>;` /
/// `return <call>(…);` statements and the single-ident or single-call tail
/// expression, with idents resolved through final `let`-chain facts and
/// calls through the callee summaries computed so far. Facts only move
/// `None → Some`, so the iteration terminates.
fn ret_units(models: &[FileModel], graph: &CallGraph, comps: &[Vec<FnId>]) -> Vec<Option<Unit>> {
    let mut ret: Vec<Option<Unit>> = vec![None; graph.fns.len()];
    for comp in comps {
        loop {
            let mut changed = false;
            for &f in comp {
                if ret[f].is_some() {
                    continue;
                }
                let u = ret_unit_of(models, graph, f, &ret);
                if u.is_some() {
                    ret[f] = u;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    ret
}

fn ret_unit_of(
    models: &[FileModel],
    graph: &CallGraph,
    f: FnId,
    ret: &[Option<Unit>],
) -> Option<Unit> {
    let (fi, gi) = graph.fns[f];
    let m = &models[fi];
    let item = &m.fns[gi];
    if let Some(u) = unit_flow::unit_of_name(&item.name) {
        return Some(u);
    }
    let (s, e) = item.body?;
    let toks = &m.toks;
    let e = e.min(toks.len().saturating_sub(1));

    // Final `let`-chain facts for the whole body: an approximation (facts
    // from after a `return` can leak backwards) that only matters when the
    // same name is rebound across a `return` — losing or gaining a fact
    // there can hide a unit, never fabricate a contradiction-free wrong one,
    // because all candidates must still agree.
    let mut flow: Flow<Unit> = Flow::new();
    for b in dataflow::let_bindings(toks, s, e) {
        unit_flow::apply_binding(toks, &b, &mut flow);
    }
    // The unit a returned-value expression starting at `k` yields, when it
    // is a bare identifier or a single call whose callees agree.
    let value_unit = |k: usize, terminator: &str| -> Option<Unit> {
        let t = toks.get(k)?;
        if t.kind != TokKind::Ident {
            return None;
        }
        if toks.get(k + 1).is_some_and(|n| n.is_op(terminator)) {
            return unit_flow::unit_at(toks, k, &flow);
        }
        None
    };

    let mut candidates: Vec<Option<Unit>> = Vec::new();
    // `return x;` / `return helper(…);`
    for k in s..=e {
        if !toks[k].is_ident("return") {
            continue;
        }
        if toks.get(k + 2).is_some_and(|n| n.is_op("(")) {
            candidates.push(call_ret_unit(graph, f, k + 1, ret));
        } else {
            candidates.push(value_unit(k + 1, ";"));
        }
    }
    // Tail expression: the token(s) directly before the closing brace,
    // preceded by a statement boundary.
    if e >= 2 {
        let last = e - 1;
        let starts_stmt =
            |k: usize| k == s || toks[k].is_op(";") || toks[k].is_op("{") || toks[k].is_op("}");
        if toks[last].kind == TokKind::Ident && starts_stmt(last - 1) {
            candidates.push(unit_flow::unit_at(toks, last, &flow));
        } else if toks[last].is_op(")") {
            // Walk back to the call's opening paren, then to its name.
            let mut depth = 0i64;
            let mut k = last;
            loop {
                if toks[k].is_op(")") {
                    depth += 1;
                } else if toks[k].is_op("(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == s {
                    break;
                }
                k -= 1;
            }
            if depth == 0 && k > s && toks[k - 1].kind == TokKind::Ident {
                candidates.push(call_ret_unit(graph, f, k - 1, ret));
            }
        }
    }

    // All observed returns must carry the same known unit.
    unit_flow::agreed(candidates.into_iter())
}

/// The unit returned by the call whose name sits at token `name_tok` in fn
/// `f`'s file — all resolved callees must agree on it.
fn call_ret_unit(
    graph: &CallGraph,
    f: FnId,
    name_tok: usize,
    ret: &[Option<Unit>],
) -> Option<Unit> {
    unit_flow::agreed(graph.edges[f].iter().filter(|e| e.tok == name_tok).map(|e| ret[e.callee]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(files: &[(&str, &str)]) -> (Vec<FileModel>, CallGraph) {
        let models: Vec<FileModel> = files.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        let graph = callgraph::build(&models);
        (models, graph)
    }

    fn id_of(models: &[FileModel], graph: &CallGraph, name: &str) -> FnId {
        graph
            .fns
            .iter()
            .position(|&(fi, gi)| models[fi].fns[gi].name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn direct_and_transitive_panic_are_summarized() {
        let (models, graph) = setup(&[(
            "crates/cluster/src/x.rs",
            "pub fn api() -> u64 { helper() }\nfn helper() -> u64 { inner() }\nfn inner() -> u64 { V[0] }\nfn safe() -> u64 { 1 }\n",
        )]);
        let s = Summaries::compute(&models, &graph);
        let api = id_of(&models, &graph, "api");
        let inner = id_of(&models, &graph, "inner");
        let safe = id_of(&models, &graph, "safe");
        assert!(matches!(s.may_panic[inner], Some(Cause::Direct { .. })), "{:?}", s.may_panic);
        assert!(matches!(s.may_panic[api], Some(Cause::Via { .. })), "{:?}", s.may_panic);
        assert!(s.may_panic[safe].is_none());
        // The chain walks api → helper → inner and ends at the direct site.
        let chain = Summaries::chain(&s.may_panic, api);
        assert_eq!(chain.len(), 3, "{chain:?}");
        assert!(matches!(chain[2], Cause::Direct { what, .. } if what.contains("indexing")));
    }

    #[test]
    fn recursion_terminates_and_summarizes() {
        let (models, graph) = setup(&[(
            "crates/cluster/src/x.rs",
            "fn ping(n: u64) -> u64 { if n == 0 { 0 } else { pong(n) } }\nfn pong(n: u64) -> u64 { ping(n - 1) }\nfn looping() -> u64 { looping() }\nfn bad(n: u64) -> u64 { if n == 0 { x.unwrap() } else { bad(n - 1) } }\n",
        )]);
        let s = Summaries::compute(&models, &graph);
        assert!(s.may_panic[id_of(&models, &graph, "ping")].is_none());
        assert!(s.may_panic[id_of(&models, &graph, "looping")].is_none());
        assert!(s.may_panic[id_of(&models, &graph, "bad")].is_some());
    }

    #[test]
    fn audited_sites_do_not_count_and_are_consumed() {
        let src = "pub fn api() -> u64 {\n    // sjc-lint: allow(no-panic-in-lib) — index proven in bounds\n    V[0]\n}\n";
        let (models, graph) = setup(&[("crates/cluster/src/x.rs", src)]);
        let allows = crate::allows_for(src);
        let starts = crate::stmt_starts(src);
        let audited = |_fi: usize, line: usize| {
            crate::is_suppressed(&allows, &starts, crate::Rule::NoPanicInLib, line)
        };
        let s = Summaries::compute_with_audit(&models, &graph, &audited);
        assert!(s.may_panic[0].is_none(), "{:?}", s.may_panic);
        assert_eq!(s.consumed_audits.iter().collect::<Vec<_>>(), [&(0, 3)]);
    }

    #[test]
    fn purity_sees_clock_and_static_mutation_transitively() {
        let (models, graph) = setup(&[(
            "crates/data/src/x.rs",
            "pub fn seam() -> u64 { stamp() }\nfn stamp() -> u64 { HITS.fetch_add(1, Ordering::Relaxed) }\nfn clock() -> u64 { Instant::now() }\nfn pure_math(n: u64) -> u64 { n.wrapping_mul(3) }\n",
        )]);
        let s = Summaries::compute(&models, &graph);
        assert!(matches!(s.impure[id_of(&models, &graph, "stamp")], Some(Cause::Direct { .. })));
        assert!(matches!(s.impure[id_of(&models, &graph, "seam")], Some(Cause::Via { .. })));
        assert!(s.impure[id_of(&models, &graph, "clock")].is_some());
        assert!(s.impure[id_of(&models, &graph, "pure_math")].is_none());
    }

    #[test]
    fn param_and_return_units_are_parsed() {
        let (models, graph) = setup(&[(
            "crates/core/src/x.rs",
            "pub fn cost(read_bytes: u64, ns_per_byte: u64) -> u64 { read_bytes * ns_per_byte }\npub fn total_ns(a: u64) -> u64 { a }\npub fn forward(v: u64) -> u64 { scan_ns(v) }\nfn scan_ns(v: u64) -> u64 { v }\nfn via_let(read_bytes: u64) -> u64 {\n    let total = read_bytes;\n    total\n}\n",
        )]);
        let s = Summaries::compute(&models, &graph);
        let cost = id_of(&models, &graph, "cost");
        assert_eq!(s.params[cost].len(), 2);
        assert_eq!(s.params[cost][0].unit, Some(Unit::Bytes));
        assert_eq!(s.params[cost][1].unit, None, "rates carry no unit");
        assert_eq!(s.ret_unit[id_of(&models, &graph, "total_ns")], Some(Unit::Ns));
        // Tail call resolves through the callee's name-declared unit.
        assert_eq!(s.ret_unit[id_of(&models, &graph, "forward")], Some(Unit::Ns));
        // Let-chain: bytes flow to the tail identifier.
        assert_eq!(s.ret_unit[id_of(&models, &graph, "via_let")], Some(Unit::Bytes));
    }

    #[test]
    fn sccs_emit_callees_first() {
        let (models, graph) = setup(&[(
            "crates/cluster/src/x.rs",
            "fn a() { b(); }\nfn b() { c(); a(); }\nfn c() {}\n",
        )]);
        let comps = sccs(&graph);
        let c = id_of(&models, &graph, "c");
        let a = id_of(&models, &graph, "a");
        // c's singleton component comes before the {a, b} cycle.
        let pos = |f: FnId| comps.iter().position(|comp| comp.contains(&f)).unwrap();
        assert!(pos(c) < pos(a), "{comps:?}");
        assert_eq!(comps[pos(a)].len(), 2, "{comps:?}");
    }
}
