//! Dead-pub pass: every public library function earns a non-test caller.
//!
//! A `pub fn` that only its own tests call is parked code: it compiles,
//! its tests pass, and nothing the simulator runs depends on it. This pass
//! flags every non-test `pub fn` in the eight library crates whose name
//! appears as an identifier nowhere but its own definition and test code.
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
//! declaration or a path prefix (`plan::…`) names a module and does not.
//! `lint`, `bench` and `testkit` are out of scope: their API exists to
//! serve tests and benches.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{FileModel, FnItem, Vis};
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
}

/// `models` are the workspace files; `refs` the reference-only token
/// streams of `examples/` and `benchmark/src`.
pub(crate) fn run(models: &[FileModel], refs: &[Vec<Tok>]) -> Vec<Violation> {
    let targets: Vec<(&FileModel, &FnItem)> = models
        .iter()
        .filter(|m| SCOPE.contains(&m.krate.as_str()) && !m.harness)
        .flat_map(|m| m.fns.iter().filter(|f| f.vis == Vis::Pub && !f.in_test).map(move |f| (m, f)))
        .collect();
    let mut seen: BTreeMap<&str, Seen> =
        targets.iter().map(|(_, f)| (f.name.as_str(), Seen::default())).collect();

    for m in models.iter().filter(|m| !m.harness) {
        let everywhere = m.krate.is_empty();
        let mut sees: BTreeSet<&str> =
            m.toks.iter().filter_map(|t| t.text.strip_prefix("sjc_")).collect();
        sees.insert(m.krate.as_str());
        for (i, name) in references(&m.toks) {
            let Some(s) = seen.get_mut(name) else { continue };
            if !m.in_test_at(i) && !m.enclosing_fn(i).is_some_and(|f| f.in_test) {
                s.everywhere |= everywhere;
                s.crates.extend(&sees);
            }
        }
    }
    for toks in refs {
        for (_, name) in references(toks) {
            if let Some(s) = seen.get_mut(name) {
                s.everywhere = true;
            }
        }
    }

    targets
        .into_iter()
        .filter(|(m, f)| {
            !seen.get(f.name.as_str()).is_some_and(|s| s.everywhere || s.crates.contains(m.krate.as_str()))
        })
        .map(|(m, f)| {
            Violation::new(
                Rule::DeadPub,
                &m.rel_path,
                f.line,
                format!(
                    "pub fn `{}` has no caller outside test code — delete it, make it private, \
                     or add `// sjc-lint: allow(dead-pub) — <reason>` naming the test that needs it",
                    f.name
                ),
            )
        })
        .collect()
}

/// Identifier tokens, with their indices, that can name a function: not
/// the name of a `fn` or `mod` item, and not a path prefix (`plan::` names
/// the module, not `plan::plan`) unless a turbofish follows (`f::<T>`).
fn references(toks: &[Tok]) -> impl Iterator<Item = (usize, &str)> {
    toks.iter().enumerate().filter_map(|(i, t)| {
        let defines = i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_ident("mod"));
        let prefix = toks.get(i + 1).is_some_and(|n| n.is_op("::"))
            && !toks.get(i + 2).is_some_and(|n| n.is_op("<"));
        (t.kind == TokKind::Ident && !defines && !prefix).then_some((i, t.text.as_str()))
    })
}
