//! Panic-path pass: `pub` simulation API never transitively panics.
//!
//! PR 1's `no-panic-in-lib` line rule bans panic *sites* in the library
//! crates syntactically; this pass upgrades that to a call-graph-closed
//! guarantee using the [`crate::summaries`] may-panic facts: a `pub`
//! function of a simulation crate must not *reach* a panic site through any
//! chain of calls — including calls into crates the line rule does not
//! cover (`sjc_par`'s worker internals, for instance). Sites carrying an
//! audited `allow(no-panic-in-lib)`/`allow(panic-path)` comment are trusted
//! by the summary layer and never start a chain.
//!
//! The diagnostic reports the full chain: the message names every hop, and
//! each hop becomes a related location (printed indented under the
//! finding), so the reader can audit the path without re-running the
//! analysis.

use crate::callgraph::CallGraph;
use crate::items::{FileModel, Vis};
use crate::summaries::{Cause, Summaries};
use crate::{Related, Rule, Violation, SIM_CRATES};

pub fn run(models: &[FileModel], graph: &CallGraph, sums: &Summaries) -> Vec<Violation> {
    let mut out = Vec::new();
    for (id, &(fi, gi)) in graph.fns.iter().enumerate() {
        let m = &models[fi];
        let f = &m.fns[gi];
        if !SIM_CRATES.contains(&m.krate.as_str()) || m.harness || f.in_test || f.vis != Vis::Pub {
            continue;
        }
        if sums.may_panic[id].is_none() {
            continue;
        }
        let (desc, related) = describe_chain(models, graph, &sums.may_panic, id);
        out.push(
            Violation::new(
                Rule::PanicPath,
                &m.rel_path,
                f.line,
                format!(
                    "pub fn `{}` can reach a panic site: {desc} — public simulation API \
                     returns Result/Option, or the site carries an audited \
                     allow(panic-path) comment",
                    f.name
                ),
            )
            .with_related(related),
        );
    }
    out
}

/// Renders the cause chain from `id` both as prose (`calls `a` → calls `b`
/// → `.unwrap()` at crates/par/src/lib.rs:168`) and as related locations,
/// one per hop.
pub(crate) fn describe_chain(
    models: &[FileModel],
    graph: &CallGraph,
    causes: &[Option<Cause>],
    id: usize,
) -> (String, Vec<Related>) {
    let mut prose = Vec::new();
    let mut related = Vec::new();
    let mut cur = id;
    for cause in Summaries::chain(causes, id) {
        let (cfi, _) = graph.fns[cur];
        let path = &models[cfi].rel_path;
        match cause {
            Cause::Via { callee, line } => {
                let (nfi, ngi) = graph.fns[*callee];
                let name = &models[nfi].fns[ngi].name;
                prose.push(format!("calls `{name}` ({path}:{line})"));
                related.push(Related {
                    path: path.clone(),
                    line: *line,
                    note: format!("calls `{name}`"),
                });
                cur = *callee;
            }
            Cause::Direct { what, line } => {
                prose.push(format!("{what} at {path}:{line}"));
                related.push(Related { path: path.clone(), line: *line, note: what.clone() });
            }
        }
    }
    (prose.join(" → "), related)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::summaries::Summaries;

    fn check(files: &[(&str, &str)]) -> Vec<Violation> {
        let models: Vec<FileModel> = files.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        let graph = callgraph::build(&models);
        let sums = Summaries::compute(&models, &graph);
        run(&models, &graph, &sums)
    }

    #[test]
    fn pub_api_reaching_a_panic_reports_the_chain() {
        let vs = check(&[
            (
                "crates/core/src/join.rs",
                "use sjc_par::par_map_budget;\npub fn run_join(parts: &[u64]) -> u64 {\n    par_map_budget(parts)\n}\n",
            ),
            (
                "crates/par/src/lib.rs",
                "pub fn par_map_budget(parts: &[u64]) -> u64 {\n    parts.iter().next().unwrap();\n    0\n}\n",
            ),
        ]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        let v = &vs[0];
        assert_eq!(v.path, "crates/core/src/join.rs");
        assert!(v.message.contains("run_join") && v.message.contains("par_map_budget"), "{v:?}");
        assert!(v.message.contains(".unwrap"), "{v:?}");
        // One related location per hop: the call site, then the panic site.
        assert_eq!(v.related.len(), 2, "{v:?}");
        assert_eq!(v.related[1].path, "crates/par/src/lib.rs");
    }

    #[test]
    fn private_fns_and_clean_apis_do_not_fire() {
        let vs = check(&[(
            "crates/core/src/join.rs",
            "pub fn clean(n: u64) -> u64 { n.saturating_add(1) }\nfn internal() { x.unwrap(); }\n",
        )]);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn restricted_visibility_is_not_public_api() {
        let vs = check(&[("crates/core/src/join.rs", "pub(crate) fn helper() { x.unwrap(); }\n")]);
        assert!(vs.is_empty(), "{vs:?}");
    }
}
