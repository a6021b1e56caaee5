//! Hot-alloc pass: no per-iteration allocation inside hot-path loops.
//!
//! Tsitsigkos et al. and LocationSpark both measure that allocation and
//! per-tuple overhead inside partition-join inner loops dominate in-memory
//! spatial join cost. This pass makes that a checked invariant: inside any
//! **loop** of a hot function (see `super::hot` for how the hot set is
//! seeded and closed), the allocating calls below are findings.
//!
//! What fires: `.clone()`, `.to_string()`, `.to_owned()`, `.to_vec()`,
//! `.collect(…)`, `.repeat(…)`, `format!`, `vec!`, `Box::new`,
//! `String::from`.
//!
//! What is exempt, by construction rather than by special case:
//!
//! * `Vec::with_capacity` / `String::with_capacity` — the sanctioned
//!   pre-sizing idiom is not on the alloc list (a pre-sized allocation
//!   hoisted *outside* the loop is the fix this pass asks for);
//! * buffer reuse — `buf.clear()` + `buf.extend(…)`/`push` do not allocate
//!   once capacity is warm, and none of them are on the list;
//! * straight-line closure bodies — only *loop* regions fire, so a
//!   per-partition closure that allocates its one result buffer per task is
//!   fine; the same allocation inside its per-record loop is not.
//!
//! Scope: non-test code of the simulation crates (`SIM_CRATES`) — the code
//! that produces the paper's numbers. A deliberate per-iteration
//! allocation states its reason in a suppression.

use crate::cfg::{self, Loop};
use crate::items::FileModel;
use crate::lexer::TokKind;
use crate::{Rule, Violation};

/// Methods that allocate on every call.
const ALLOC_METHODS: &[&str] = &["clone", "to_string", "to_owned", "to_vec", "collect", "repeat"];

/// Macros that allocate on every expansion.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// `Type::fn` pairs that allocate.
const ALLOC_QUALIFIED: &[(&str, &str)] = &[("Box", "new"), ("String", "from"), ("Vec", "from")];

/// `hot_loops` is [`super::hot::hot_loops`], parallel to `models`.
pub(crate) fn run(models: &[FileModel], hot_loops: &[Vec<Loop>]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (m, loops) in models.iter().zip(hot_loops) {
        if loops.is_empty() {
            continue;
        }
        for k in 0..m.toks.len() {
            let Some(lp) = cfg::innermost(loops, k) else { continue };
            let Some(what) = alloc_site(m, k) else { continue };
            let fn_name = m.enclosing_fn(k).map_or("", |f| f.name.as_str());
            out.push(Violation::new(
                Rule::HotAlloc,
                &m.rel_path,
                m.toks[k].line,
                format!(
                    "`{what}` allocates on every iteration of the hot loop at line {} \
                     (fn `{fn_name}` runs inside the measured region) — hoist it above the loop, \
                     pre-size with with_capacity, or reuse a cleared buffer",
                    lp.line
                ),
            ));
        }
    }
    out
}

/// If token `k` heads an allocating call, returns its display form.
fn alloc_site(m: &FileModel, k: usize) -> Option<String> {
    let toks = &m.toks;
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    let next = toks.get(k + 1)?;
    // `.clone()` / `.collect::<…>(…)` — a method call on some receiver.
    if k > 0
        && toks[k - 1].is_op(".")
        && ALLOC_METHODS.contains(&t.text.as_str())
        && (next.is_op("(") || next.is_op("::"))
    {
        return Some(format!(".{}()", t.text));
    }
    // `format!(…)` / `vec![…]`.
    if ALLOC_MACROS.contains(&t.text.as_str()) && next.is_op("!") {
        return Some(format!("{}!", t.text));
    }
    // `Box::new(…)` / `String::from(…)`.
    for &(ty, f) in ALLOC_QUALIFIED {
        if t.is_ident(ty)
            && next.is_op("::")
            && toks.get(k + 2).is_some_and(|n| n.is_ident(f))
            && toks.get(k + 3).is_some_and(|n| n.is_op("("))
        {
            return Some(format!("{ty}::{f}"));
        }
    }
    None
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
        "pub fn drive(parts: &[Vec<u64>]) -> Vec<u64> {\n    sjc_par::par_map(parts, |p| kernel(p))\n}\n";

    #[test]
    fn alloc_in_hot_loop_fires() {
        let src = format!(
            "{DRIVER}fn kernel(p: &[u64]) -> u64 {{\n    let mut acc = 0u64;\n    for x in p.iter() {{\n        let s = x.to_string();\n        acc += s.len() as u64;\n    }}\n    acc\n}}\n"
        );
        let vs = analyze(&[("crates/index/src/x.rs", &src)]);
        assert!(
            vs.iter().any(|v| v.rule == Rule::HotAlloc && v.message.contains(".to_string()")),
            "{vs:?}"
        );
    }

    #[test]
    fn presized_and_reused_buffers_are_clean() {
        let src = format!(
            "{DRIVER}fn kernel(p: &[u64]) -> u64 {{\n    let mut buf = Vec::with_capacity(p.len());\n    for x in p.iter() {{\n        buf.clear();\n        buf.push(*x);\n    }}\n    buf.len() as u64\n}}\n"
        );
        assert!(analyze(&[("crates/index/src/x.rs", &src)]).is_empty());
    }

    #[test]
    fn alloc_outside_hot_loops_or_hot_set_is_clean() {
        // Allocation in a straight-line hot fn body (one buffer per task)…
        let src = format!(
            "{DRIVER}fn kernel(p: &[u64]) -> u64 {{\n    let v = p.to_vec();\n    v.len() as u64\n}}\n"
        );
        assert!(analyze(&[("crates/index/src/x.rs", &src)]).is_empty());
        // …and a loop alloc in an unreachable fn are both out of scope.
        let src = format!(
            "{DRIVER}fn kernel(p: &[u64]) -> u64 {{ p.len() as u64 }}\nfn cold(p: &[u64]) -> Vec<String> {{\n    let mut v = Vec::new();\n    for x in p.iter() {{\n        v.push(x.to_string());\n    }}\n    v\n}}\n"
        );
        assert!(analyze(&[("crates/index/src/x.rs", &src)]).is_empty());
    }

    #[test]
    fn loops_written_inline_in_par_closures_fire() {
        let src = "pub fn drive(parts: &[Vec<u64>]) -> Vec<u64> {\n    sjc_par::par_map(parts, |p| {\n        let mut acc = 0u64;\n        for x in p.iter() {\n            acc += format!(\"{x}\").len() as u64;\n        }\n        acc\n    })\n}\n";
        let vs = analyze(&[("crates/core/src/x.rs", src)]);
        assert!(vs.iter().any(|v| v.message.contains("format!")), "{vs:?}");
    }

    #[test]
    fn bench_reached_fns_fire_but_bench_itself_does_not() {
        let bench = "use sjc_core::run_join;\npub fn measure() -> u64 {\n    let mut acc = 0;\n    for _ in 0..3 {\n        acc += run_join() + format!(\"x\").len() as u64;\n    }\n    acc\n}\n";
        let core = "pub fn run_join() -> u64 {\n    let mut acc = 0u64;\n    for i in 0..4u64 {\n        acc += i.to_string().len() as u64;\n    }\n    acc\n}\n";
        let vs =
            analyze(&[("crates/bench/src/suite.rs", bench), ("crates/core/src/join.rs", core)]);
        assert!(vs.iter().all(|v| v.path == "crates/core/src/join.rs"), "{vs:?}");
        assert!(vs.iter().any(|v| v.message.contains(".to_string()")), "{vs:?}");
    }
}
