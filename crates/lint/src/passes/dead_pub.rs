//! Dead-pub pass: every public library item earns a non-test reference.
//!
//! A `pub fn` that only its own tests call is parked code: it compiles,
//! its tests pass, and nothing the simulator runs depends on it. The same
//! holds for a `pub struct`, `enum`, `trait`, `const`, `static` or `type`
//! that nothing names. This pass flags every such non-test public item in
//! the eight library crates whose name appears as an identifier nowhere but
//! its own definition and test code.
//!
//! A reference counts when it sits in
//!
//! * non-test code of a file that can see the defining crate — the same
//!   crate, or a file that names `sjc_<crate>` (the crate-topology gate the
//!   call graph applies);
//! * non-test code of the root package's `src/`, or anywhere in
//!   `examples/`;
//! * anywhere under `benchmark/src`, tests included: that package compiles
//!   against this API.
//!
//! `examples/` and `benchmark/src` arrive as reference-only token streams
//! that no other pass or line rule sees. Identifiers count, not only calls,
//! so function pointers and `use` imports keep an item alive; a `mod`
//! declaration or a path prefix (`plan::…`) names a module and does not
//! count for a function, while a type's path prefix (`Kind::Point`,
//! `Cell::new`) names the type and does. `lint`, `bench` and `testkit` are
//! out of scope: their API exists to serve tests and benches.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{FileModel, Vis};
use crate::lexer::{Tok, TokKind};
use crate::{Rule, Violation};

/// The library crates whose public functions must earn a caller.
const SCOPE: &[&str] = &["geom", "index", "cluster", "mapreduce", "rdd", "data", "core", "par"];

/// Who has referenced a name so far.
#[derive(Default)]
struct Seen<'a> {
    /// A root-`src/`, `examples/` or `benchmark/src` reference: live in
    /// every crate.
    everywhere: bool,
    /// Crates a referencing file can see.
    crates: BTreeSet<&'a str>,
    /// True when some target of this name is not a function, so a path
    /// prefix (`Name::…`) names it.
    prefix_names: bool,
}

/// One public item the pass checks: its keyword (`fn`, `struct`, …), name
/// and 1-based line.
struct Target<'a> {
    model: &'a FileModel,
    keyword: &'a str,
    name: &'a str,
    line: usize,
}

/// The item keywords besides `fn` whose public names must be referenced.
const ITEM_KEYWORDS: &[&str] = &["struct", "enum", "trait", "const", "static", "type"];

/// `models` are the workspace files; `refs` the reference-only token
/// streams of `examples/` and `benchmark/src`.
pub(crate) fn run(models: &[FileModel], refs: &[Vec<Tok>]) -> Vec<Violation> {
    let mut targets: Vec<Target> = Vec::new();
    for m in models.iter().filter(|m| SCOPE.contains(&m.krate.as_str()) && !m.harness) {
        targets.extend(m.fns.iter().filter(|f| f.vis == Vis::Pub && !f.in_test).map(|f| Target {
            model: m,
            keyword: "fn",
            name: &f.name,
            line: f.line,
        }));
        targets.extend(pub_items(m));
    }
    let mut seen: BTreeMap<&str, Seen> = BTreeMap::new();
    for t in &targets {
        seen.entry(t.name).or_default().prefix_names |= t.keyword != "fn";
    }

    for m in models.iter().filter(|m| !m.harness) {
        let everywhere = m.krate.is_empty();
        let mut sees: BTreeSet<&str> =
            m.toks.iter().filter_map(|t| t.text.strip_prefix("sjc_")).collect();
        sees.insert(m.krate.as_str());
        for (i, name, prefix) in references(&m.toks) {
            let Some(s) = seen.get_mut(name) else { continue };
            if prefix && !s.prefix_names {
                continue;
            }
            if !m.in_test_at(i) && !m.enclosing_fn(i).is_some_and(|f| f.in_test) {
                s.everywhere |= everywhere;
                s.crates.extend(&sees);
            }
        }
    }
    for toks in refs {
        for (_, name, prefix) in references(toks) {
            if let Some(s) = seen.get_mut(name).filter(|s| !prefix || s.prefix_names) {
                s.everywhere = true;
            }
        }
    }

    targets
        .into_iter()
        .filter(|t| {
            !seen.get(t.name).is_some_and(|s| s.everywhere || s.crates.contains(t.model.krate.as_str()))
        })
        .map(|t| {
            let what = if t.keyword == "fn" { "has no caller" } else { "is named nowhere" };
            Violation::new(
                Rule::DeadPub,
                &t.model.rel_path,
                t.line,
                format!(
                    "pub {} `{}` {what} outside test code — delete it, make it private, \
                     or add `// sjc-lint: allow(dead-pub) — <reason>` naming the test that needs it",
                    t.keyword, t.name
                ),
            )
        })
        .collect()
}

/// The non-test `pub struct/enum/trait/const/static/type` items of `m`
/// (`pub const fn` is a function, which `FileModel::fns` already holds).
fn pub_items(m: &FileModel) -> impl Iterator<Item = Target<'_>> {
    let toks = &m.toks;
    toks.iter().enumerate().filter_map(move |(i, t)| {
        if !t.is_ident("pub") {
            return None;
        }
        let keyword = toks.get(i + 1).filter(|t| ITEM_KEYWORDS.iter().any(|kw| t.is_ident(kw)))?;
        let name = toks.get(i + 2).filter(|n| n.kind == TokKind::Ident && !n.is_ident("fn"))?;
        let test = m.in_test_at(i) || m.enclosing_fn(i).is_some_and(|f| f.in_test);
        (!test).then_some(Target {
            model: m,
            keyword: keyword.text.as_str(),
            name: name.text.as_str(),
            line: t.line,
        })
    })
}

/// Identifier tokens, with their indices, that can name an item: not the
/// name an item definition introduces (`fn`, `mod`, `struct`, …). The flag
/// marks a path prefix (`plan::`, without a turbofish), which names a
/// module or a type, never a function (`plan::plan` is the function).
fn references(toks: &[Tok]) -> impl Iterator<Item = (usize, &str, bool)> {
    toks.iter().enumerate().filter_map(|(i, t)| {
        let defines = i > 0
            && (toks[i - 1].is_ident("fn")
                || toks[i - 1].is_ident("mod")
                || ITEM_KEYWORDS.iter().any(|kw| toks[i - 1].is_ident(kw)));
        let prefix = toks.get(i + 1).is_some_and(|n| n.is_op("::"))
            && !toks.get(i + 2).is_some_and(|n| n.is_op("<"));
        (t.kind == TokKind::Ident && !defines).then_some((i, t.text.as_str(), prefix))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `run` flags over `files`, in report order.
    fn flagged(files: &[(&str, &str)]) -> Vec<String> {
        let models: Vec<FileModel> = files.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        run(&models, &[]).into_iter().map(|v| v.message.split('`').nth(1).unwrap().into()).collect()
    }

    const PLANTED: (&str, &str) = (
        "crates/cluster/src/planted.rs",
        "pub struct Planted;\npub const PLANTED_LIMIT: u64 = 7;\n\
         #[cfg(test)]\nmod tests {\n    fn t() -> u64 { let _ = super::Planted; super::PLANTED_LIMIT }\n}\n",
    );

    #[test]
    fn unused_pub_struct_and_const_are_flagged() {
        assert_eq!(flagged(&[PLANTED]), ["Planted", "PLANTED_LIMIT"]);
        // A crate that never names `sjc_cluster` cannot see them.
        let blind =
            ("crates/geom/src/user.rs", "fn f() -> u64 { let _ = Planted; PLANTED_LIMIT }\n");
        assert_eq!(flagged(&[PLANTED, blind]), ["Planted", "PLANTED_LIMIT"]);
    }

    #[test]
    fn pub_items_named_from_a_crate_that_sees_them_are_live() {
        let user = (
            "crates/core/src/user.rs",
            "use sjc_cluster::planted::{Planted, PLANTED_LIMIT};\nfn f() -> u64 { let _ = Planted; PLANTED_LIMIT }\n",
        );
        assert!(flagged(&[PLANTED, user]).is_empty());
        // A type's path prefix names the type.
        let by_path =
            ("crates/core/src/user.rs", "fn f() -> u64 { sjc_cluster::Planted::LIMIT }\n");
        assert_eq!(flagged(&[PLANTED, by_path]), ["PLANTED_LIMIT"]);
    }
}
