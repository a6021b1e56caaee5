//! Loop-invariant-call pass.
//!
//! Inside a hot loop (the loops `super::hot::hot_loops` collects: loops of
//! hot functions and of inline `sjc_par` closures, in simulation crates), a
//! call whose arguments are all loop-invariant recomputes the same value on
//! every iteration — `stage_tag(stage)` inside a per-task wave loop costs a
//! hash per task for a value that never changes. The fix is mechanical
//! (hoist the call above the loop); a call that is impure by design states
//! so in a suppression.
//!
//! A call is flagged only when the evidence is unambiguous:
//!
//! * a plain or path-qualified function call (never a method — the receiver
//!   is almost always the loop variable) with at least one identifier
//!   argument;
//! * no nested calls, `&mut`, or other effects inside the argument list;
//! * every identifier in the arguments is invariant w.r.t. the innermost
//!   enclosing loop: not bound by its header, not `let`-bound, assigned,
//!   mutated, or pattern-bound anywhere in its body (`self` is always
//!   treated as variant — interior mutation through methods is invisible
//!   here).

use std::collections::BTreeSet;

use crate::cfg::{self, Loop};
use crate::items::FileModel;
use crate::lexer::{Tok, TokKind};
use crate::{Rule, Violation};

/// Methods that mutate their receiver: the receiver chain's base becomes
/// loop-variant.
const MUTATING_METHODS: &[&str] = &[
    "push",
    "push_str",
    "extend",
    "insert",
    "remove",
    "append",
    "clear",
    "pop",
    "sort",
    "sort_by",
    "sort_by_key",
    "swap",
    "truncate",
    "drain",
    "retain",
    "borrow_mut",
];

const ASSIGN_OPS: &[&str] = &["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="];

/// `hot_loops` is [`super::hot::hot_loops`], parallel to `models`.
pub(crate) fn run(models: &[FileModel], hot_loops: &[Vec<Loop>]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (m, loops) in models.iter().zip(hot_loops) {
        for lp in loops {
            check_loop(m, loops, lp, &mut out);
        }
    }
    out
}

fn check_loop(m: &FileModel, loops: &[Loop], lp: &Loop, out: &mut Vec<Violation>) {
    let toks = &m.toks;
    let variant = variant_idents(toks, lp);
    let mut k = lp.open + 1;
    while k < lp.close {
        // Judge each call against its innermost loop only.
        if cfg::innermost(loops, k).is_some_and(|inner| inner.open != lp.open) {
            k += 1;
            continue;
        }
        let Some((name, args_open)) = call_head(toks, k) else {
            k += 1;
            continue;
        };
        let Some(args_close) = cfg::matching(toks, args_open, "(", ")") else {
            k += 1;
            continue;
        };
        if args_close >= lp.close || !args_are_invariant(toks, args_open, args_close, &variant) {
            k += 1;
            continue;
        }
        out.push(Violation::new(
            Rule::LoopInvariantCall,
            &m.rel_path,
            toks[k].line,
            format!(
                "`{name}(…)` has only loop-invariant arguments — every iteration of the \
                 loop at line {} recomputes the same value; hoist the call above the loop \
                 (or suppress if the call is impure by design)",
                lp.line
            ),
        ));
        k = args_close + 1;
    }
}

/// If token `k` heads a plain (non-method, non-macro, non-constructor)
/// call, returns `(name, index of the opening paren)`.
fn call_head(toks: &[Tok], k: usize) -> Option<(String, usize)> {
    let t = &toks[k];
    if t.kind != TokKind::Ident || crate::callgraph::is_call_keyword(&t.text) {
        return None;
    }
    if !toks.get(k + 1).is_some_and(|n| n.is_op("(")) {
        return None;
    }
    // Methods, macros, definitions, and `Type::new`-style constructors are
    // out of scope; an Uppercase head is a tuple-struct/enum constructor.
    if k > 0 && (toks[k - 1].is_op(".") || toks[k - 1].is_ident("fn") || toks[k - 1].is_op("!")) {
        return None;
    }
    if t.text.chars().next().is_some_and(|c| c.is_uppercase()) {
        return None;
    }
    // Walk the qualifier chain for display, and reject `Type::method` where
    // the qualifier is a type (uppercase): `Vec::with_capacity(n)` is an
    // allocation, not a hoisting candidate.
    let mut name = t.text.clone();
    let mut j = k;
    while j >= 2 && toks[j - 1].is_op("::") && toks[j - 2].kind == TokKind::Ident {
        if toks[j - 2].text.chars().next().is_some_and(|c| c.is_uppercase()) {
            return None;
        }
        name = format!("{}::{name}", toks[j - 2].text);
        j -= 2;
    }
    Some((name, k + 1))
}

/// True when the argument list `(args_open .. args_close)` is simple enough
/// to judge and every identifier in it is loop-invariant.
fn args_are_invariant(
    toks: &[Tok],
    args_open: usize,
    args_close: usize,
    variant: &BTreeSet<String>,
) -> bool {
    if args_close <= args_open + 1 {
        return false; // zero-arg call: nothing proves the result constant
    }
    let mut idents = 0usize;
    for t in toks.iter().take(args_close).skip(args_open + 1) {
        if t.is_op("(") || t.is_op("{") || t.is_op("|") || t.is_op("||") {
            return false; // nested call / block / closure argument
        }
        if t.is_ident("mut") || t.is_ident("self") {
            return false;
        }
        if t.kind == TokKind::Ident {
            if variant.contains(&t.text) {
                return false;
            }
            idents += 1;
        }
    }
    idents > 0
}

/// Identifiers that vary across iterations of loop `lp`: its header
/// pattern, plus everything bound, assigned, or mutated in its body.
fn variant_idents(toks: &[Tok], lp: &Loop) -> BTreeSet<String> {
    let mut variant: BTreeSet<String> = BTreeSet::new();
    variant.insert("self".to_string());
    // `for <pat> in …` header binders.
    if toks[lp.header].is_ident("for") {
        let mut j = lp.header + 1;
        while j < lp.open && !toks[j].is_ident("in") {
            if toks[j].kind == TokKind::Ident {
                variant.insert(toks[j].text.clone());
            }
            j += 1;
        }
    }
    let mut k = lp.open + 1;
    while k < lp.close {
        let t = &toks[k];
        if t.is_ident("let") || t.is_ident("for") {
            let stop = if t.is_ident("let") { "=" } else { "in" };
            let mut j = k + 1;
            while j < lp.close
                && !toks[j].is_op(stop)
                && !toks[j].is_ident(stop)
                && !toks[j].is_op(";")
            {
                if toks[j].kind == TokKind::Ident && toks[j].text != "mut" {
                    variant.insert(toks[j].text.clone());
                }
                j += 1;
            }
            k = j;
        } else if t.is_op("|") {
            // Closure params.
            let mut j = k + 1;
            while j < lp.close && !toks[j].is_op("|") {
                if toks[j].kind == TokKind::Ident {
                    variant.insert(toks[j].text.clone());
                }
                j += 1;
            }
            k = j + 1;
            continue;
        } else if t.is_op("=>") {
            // Match arm: everything between the previous delimiter and the
            // `=>` is (over-approximately) pattern-bound.
            let mut j = k;
            while j > lp.open {
                j -= 1;
                let p = &toks[j];
                if p.is_op(",") || p.is_op("{") || p.is_op("=>") {
                    break;
                }
                if p.kind == TokKind::Ident {
                    variant.insert(p.text.clone());
                }
            }
        } else if t.kind == TokKind::Op && ASSIGN_OPS.contains(&t.text.as_str()) && k > lp.open + 1
        {
            if let Some(base) = chain_base(toks, k - 1) {
                variant.insert(base);
            }
        } else if t.is_op("&")
            && toks.get(k + 1).is_some_and(|n| n.is_ident("mut"))
            && toks.get(k + 2).is_some_and(|n| n.kind == TokKind::Ident)
        {
            variant.insert(toks[k + 2].text.clone());
        } else if t.is_op(".")
            && toks.get(k + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && MUTATING_METHODS.contains(&n.text.as_str())
            })
            && toks.get(k + 2).is_some_and(|n| n.is_op("("))
            && k > lp.open + 1
        {
            if let Some(base) = chain_base(toks, k - 1) {
                variant.insert(base);
            }
        }
        k += 1;
    }
    variant
}

/// Walks a field chain (`a.b.c`) backwards from token `at`, returning the
/// base identifier.
fn chain_base(toks: &[Tok], at: usize) -> Option<String> {
    let mut k = at;
    loop {
        if toks[k].kind != TokKind::Ident && toks[k].kind != TokKind::Num {
            return None;
        }
        if k >= 2 && toks[k - 1].is_op(".") {
            k -= 2;
            continue;
        }
        return (toks[k].kind == TokKind::Ident).then(|| toks[k].text.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::passes::hot;

    fn analyze(files: &[(&str, &str)]) -> Vec<Violation> {
        let models: Vec<FileModel> = files.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        let graph = callgraph::build(&models);
        run(&models, &hot::hot_loops(&models, &graph))
    }

    const DRIVER: &str =
        "pub fn drive(parts: &[Vec<u64>]) -> Vec<u64> {\n    sjc_par::par_map(parts, |p| kernel(p, 3))\n}\n";

    #[test]
    fn invariant_call_in_hot_loop_fires() {
        let src = format!(
            "{DRIVER}fn kernel(p: &[u64], k: u64) -> u64 {{\n    let mut acc = 0u64;\n    for x in p.iter() {{\n        let w = weight(k);\n        acc += w + x;\n    }}\n    acc\n}}\nfn weight(k: u64) -> u64 {{ k * 2 }}\n"
        );
        let vs = analyze(&[("crates/index/src/x.rs", &src)]);
        assert!(
            vs.iter().any(|v| v.rule == Rule::LoopInvariantCall && v.message.contains("weight")),
            "{vs:?}"
        );
    }

    #[test]
    fn variant_args_and_hoisted_calls_are_clean() {
        // The loop variable feeds the call…
        let src = format!(
            "{DRIVER}fn kernel(p: &[u64], k: u64) -> u64 {{\n    let mut acc = 0u64;\n    for x in p.iter() {{\n        acc += weight(*x);\n    }}\n    acc\n}}\nfn weight(k: u64) -> u64 {{ k * 2 }}\n"
        );
        assert!(analyze(&[("crates/index/src/x.rs", &src)]).is_empty());
        // …or the call already sits above the loop…
        let src = format!(
            "{DRIVER}fn kernel(p: &[u64], k: u64) -> u64 {{\n    let w = weight(k);\n    let mut acc = 0u64;\n    for x in p.iter() {{\n        acc += w + x;\n    }}\n    acc\n}}\nfn weight(k: u64) -> u64 {{ k * 2 }}\n"
        );
        assert!(analyze(&[("crates/index/src/x.rs", &src)]).is_empty());
        // …or an argument is reassigned inside the loop.
        let src = format!(
            "{DRIVER}fn kernel(p: &[u64], k: u64) -> u64 {{\n    let mut acc = 0u64;\n    let mut base = k;\n    for x in p.iter() {{\n        acc += weight(base);\n        base = acc;\n    }}\n    acc\n}}\nfn weight(k: u64) -> u64 {{ k * 2 }}\n"
        );
        assert!(analyze(&[("crates/index/src/x.rs", &src)]).is_empty());
    }

    #[test]
    fn cold_fns_and_nested_calls_are_out_of_scope() {
        // Same shape, but `kernel` is not reachable from a par closure.
        let src = "fn kernel(p: &[u64], k: u64) -> u64 {\n    let mut acc = 0u64;\n    for x in p.iter() {\n        acc += weight(k) + x;\n    }\n    acc\n}\nfn weight(k: u64) -> u64 { k * 2 }\n";
        assert!(analyze(&[("crates/index/src/x.rs", src)]).is_empty());
        // A call with a nested call in its arguments is never judged itself;
        // the *inner* call is judged on its own (invariant) arguments.
        let src = format!(
            "{DRIVER}fn kernel(p: &[u64], k: u64) -> u64 {{\n    let mut acc = 0u64;\n    for x in p.iter() {{\n        acc += weight(scale(k)) + x;\n    }}\n    acc\n}}\nfn weight(k: u64) -> u64 {{ k * 2 }}\nfn scale(k: u64) -> u64 {{ k }}\n"
        );
        let vs = analyze(&[("crates/index/src/x.rs", &src)]);
        assert!(!vs.iter().any(|v| v.message.contains("`weight(")), "{vs:?}");
        assert!(vs.iter().any(|v| v.message.contains("`scale(")), "{vs:?}");
    }
}
