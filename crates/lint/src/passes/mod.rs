//! `sjc-analyze` — the cross-file layer of the checker.
//!
//! The line rules in `lib.rs` are single-line token scans; the passes here
//! see the whole workspace at once: a token stream per file (`lexer`), an
//! item model with function extents, visibility and test regions (`items`),
//! a name-resolved call graph gated by the crate topology (`callgraph`),
//! and one bottom-up SCC fixpoint computing may-panic, purity and unit
//! facts per function ([`crate::summaries`]). Eight passes run on top:
//!
//! * [`entropy`] — no simulation-crate function may *transitively* reach a
//!   wall-clock or entropy source, and nothing derived from one may flow
//!   into `sim_ns`/trace output (in any crate, bench included);
//! * [`error_flow`] — every `SimError` variant is both constructed and
//!   handled somewhere, and library code never silently discards a
//!   `Result`;
//! * [`hot_alloc`] — no per-iteration allocation inside a hot loop: a loop
//!   of any function reachable from an `sjc_par` entry-point closure or a
//!   `crates/bench` kernel, or a loop inside such a closure ([`hot`]
//!   collects them once for this pass and the next);
//! * [`loop_invariant`] — no call with all-loop-invariant arguments inside
//!   a hot loop (hoist it out);
//! * [`unit_flow`] — no `+`/`-` mixing `*_ns`/`*_bytes`/count operands, no
//!   non-nanosecond value reaching a `*_ns` sink, and no argument in a unit
//!   other than its parameter's; a call's unit comes from its name or its
//!   summarized return;
//! * [`panic_path`] — `pub` simulation API must not *transitively* reach a
//!   panic site; the diagnostic carries the full call chain;
//! * [`cache_purity`] — everything reachable from a memoized seam
//!   (`generate_cached` and friends) must be a pure function of its inputs;
//! * [`stale_suppression`] — audited allow comments must still cover a
//!   finding (delete or re-justify dead waivers).
//!
//! Suppression works exactly as for the line rules: an inline allow
//! comment naming the rule, with a reason, on (or directly above) the
//! reported line.

pub mod cache_purity;
pub mod entropy;
pub mod error_flow;
pub(crate) mod hot;
pub mod hot_alloc;
pub mod loop_invariant;
pub mod panic_path;
pub mod stale_suppression;
pub mod unit_flow;

use std::io;
use std::path::Path;
use std::time::Duration;

use crate::callgraph;
use crate::items::FileModel;
use crate::summaries::Summaries;
use crate::{Rule, Violation};

/// Wall time spent in one named stage of [`analyze_workspace_timed`].
#[derive(Debug, Clone)]
pub struct PassTiming {
    pub name: &'static str,
    pub wall: Duration,
}

/// Reads the host monotonic clock for `--timings`.
pub(crate) fn stamp() -> std::time::Instant {
    // sjc-lint: allow(bench-isolation) — timings measure the analyzer itself, not simulated work
    std::time::Instant::now()
}

/// Runs every cross-file pass over the workspace rooted at `root` and
/// returns the unsuppressed violations, sorted by path and line.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(analyze_workspace_timed(root)?.0)
}

/// [`analyze_workspace`] plus per-stage wall times (the `--timings` flag).
pub fn analyze_workspace_timed(root: &Path) -> io::Result<(Vec<Violation>, Vec<PassTiming>)> {
    let files = crate::workspace_files(root)?;
    Ok(analyze_files(&files))
}

/// The whole pipeline over an in-memory file set. Split from the I/O so the
/// order-independence tests can drive it with permuted file lists.
pub(crate) fn analyze_files(files: &[(String, String)]) -> (Vec<Violation>, Vec<PassTiming>) {
    let mut timings = Vec::new();

    let t = stamp();
    let mut models = Vec::with_capacity(files.len());
    let mut allows = Vec::with_capacity(files.len());
    let mut starts = Vec::with_capacity(files.len());
    for (rel, source) in files {
        models.push(FileModel::build(rel, source));
        allows.push(crate::allows_for(source));
        starts.push(crate::stmt_starts(source));
    }
    let graph = callgraph::build(&models);
    timings.push(PassTiming { name: "model+callgraph", wall: t.elapsed() });

    // The interprocedural summaries trust panic sites whose line carries an
    // audited allow for either the syntactic or the interprocedural panic
    // rule — one audit covers both layers.
    let t = stamp();
    let audited = |fi: usize, line: usize| {
        crate::is_suppressed(&allows[fi], &starts[fi], Rule::NoPanicInLib, line)
            || crate::is_suppressed(&allows[fi], &starts[fi], Rule::PanicPath, line)
    };
    let sums = Summaries::compute_with_audit(&models, &graph, &audited);
    timings.push(PassTiming { name: "summaries", wall: t.elapsed() });

    let t = stamp();
    let loops = hot::hot_loops(&models, &graph);
    timings.push(PassTiming { name: "hot-loops", wall: t.elapsed() });

    let mut out = Vec::new();
    let mut timed = |name: &'static str, vs: Vec<Violation>, t0: std::time::Instant| {
        timings.push(PassTiming { name, wall: t0.elapsed() });
        vs
    };

    let t = stamp();
    out.extend(timed("entropy", entropy::run(&models, &graph), t));
    let t = stamp();
    out.extend(timed("error-flow", error_flow::run(&models), t));
    let t = stamp();
    out.extend(timed("hot-alloc", hot_alloc::run(&models, &loops), t));
    let t = stamp();
    out.extend(timed("loop-invariant", loop_invariant::run(&models, &loops), t));
    let t = stamp();
    out.extend(timed("unit-flow", unit_flow::run(&models, &graph, &sums), t));
    let t = stamp();
    out.extend(timed("panic-path", panic_path::run(&models, &graph, &sums), t));
    let t = stamp();
    out.extend(timed("cache-purity", cache_purity::run(&models, &graph, &sums), t));

    // Stale-suppression compares every allow against the *pre-suppression*
    // findings of both layers, so it runs after every other pass and before
    // the suppression filter below.
    let t = stamp();
    let mut raw = out.clone();
    for (rel, source) in files {
        raw.extend(crate::check_file_raw(rel, source));
    }
    out.extend(timed(
        "stale-suppression",
        stale_suppression::run(&models, &allows, &starts, &raw, &sums.consumed_audits),
        t,
    ));

    // Apply suppressions: pass findings honor the same audited allow
    // comments as the line rules.
    out.retain(|v| {
        let Some(idx) = models.iter().position(|m| m.rel_path == v.path) else {
            return true;
        };
        !crate::is_suppressed(&allows[idx], &starts[idx], v.rule, v.line)
    });

    out.sort_by(|a, b| (&a.path, a.line, a.rule.name()).cmp(&(&b.path, b.line, b.rule.name())));
    (out, timings)
}

/// File-visit-order independence: the SCC fixpoint in [`crate::summaries`]
/// and every pass built on it must produce identical results no matter how
/// the directory walk happens to order the sources. Seeded property test
/// (`sjc-testkit`, no external deps) over random permutations of a corpus
/// that includes direct recursion, cross-file mutual recursion, unit facts
/// and a memoized seam — the shapes whose summaries depend on fixpoint
/// iteration rather than a single bottom-up sweep.
#[cfg(test)]
mod order_independence {
    use std::collections::BTreeMap;

    use super::analyze_files;
    use crate::callgraph;
    use crate::items::FileModel;
    use crate::summaries::Summaries;

    /// Direct recursion reaching a panic, mutual recursion across files
    /// reaching a panic, an interprocedural unit fact, and an impure
    /// function behind a memoized seam.
    fn corpus() -> Vec<(String, String)> {
        let files: &[(&str, &str)] = &[
            (
                "crates/core/src/rec.rs",
                "pub fn spin(n: u64) -> u64 {\n    if n == 0 {\n        base()\n    } else {\n        spin(n - 1)\n    }\n}\nfn base() -> u64 {\n    let v: Vec<u64> = Vec::new();\n    v.iter().next().copied().unwrap()\n}\n",
            ),
            (
                "crates/cluster/src/ping.rs",
                "pub fn ping(n: u64) -> u64 {\n    pong(n)\n}\n",
            ),
            (
                "crates/cluster/src/pong.rs",
                "pub fn pong(n: u64) -> u64 {\n    if n == 0 {\n        seed().unwrap()\n    } else {\n        ping(n - 1)\n    }\n}\nfn seed() -> Option<u64> {\n    None\n}\n",
            ),
            (
                "crates/core/src/units.rs",
                "pub fn total(task_ns: u64, n: u64) -> u64 {\n    task_ns + moved(n)\n}\nfn moved(n: u64) -> u64 {\n    let out_bytes = n;\n    out_bytes\n}\n",
            ),
            (
                "crates/data/src/cache.rs",
                "pub fn generate_cached(k: u64) -> u64 {\n    build(k)\n}\n",
            ),
            (
                "crates/data/src/catalog.rs",
                "pub fn build(k: u64) -> u64 {\n    stamp(k)\n}\nfn stamp(k: u64) -> u64 {\n    k ^ COUNTER.fetch_add(1, Ordering::Relaxed)\n}\n",
            ),
        ];
        files.iter().map(|&(p, s)| (p.to_string(), s.to_string())).collect()
    }

    /// Order-insensitive rendering of every per-function summary fact,
    /// keyed by `(path, fn name)` instead of the order-dependent `FnId`.
    fn summary_facts(files: &[(String, String)]) -> BTreeMap<(String, String), String> {
        let models: Vec<FileModel> = files.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        let graph = callgraph::build(&models);
        let sums = Summaries::compute(&models, &graph);
        let mut out = BTreeMap::new();
        for (id, &(fi, gi)) in graph.fns.iter().enumerate() {
            let m = &models[fi];
            let f = &m.fns[gi];
            let chain = super::panic_path::describe_chain(&models, &graph, &sums.may_panic, id).0;
            let fact = format!(
                "panic={chain:?} impure={} ret={:?} params={:?}",
                sums.impure[id].is_some(),
                sums.ret_unit[id],
                sums.params[id],
            );
            out.insert((m.rel_path.clone(), f.name.clone()), fact);
        }
        out
    }

    #[test]
    fn fixpoint_converges_identically_under_any_file_order() {
        let baseline_files = corpus();
        let baseline_violations = analyze_files(&baseline_files).0;
        let baseline_facts = summary_facts(&baseline_files);
        // The corpus exercises the fixpoint: the recursive chains must be
        // reported (an empty baseline would make the permutation check
        // vacuous).
        assert!(
            baseline_violations.iter().any(|v| v.message.contains("spin")),
            "{baseline_violations:?}"
        );
        assert!(
            baseline_violations.iter().any(|v| v.message.contains("pong")),
            "{baseline_violations:?}"
        );

        sjc_testkit::cases(0x51AC_0DDE, 32, |rng| {
            // Fisher–Yates over the file list.
            let mut files = corpus();
            for i in (1..files.len()).rev() {
                files.swap(i, rng.usize_in(0..i + 1));
            }
            assert_eq!(analyze_files(&files).0, baseline_violations);
            assert_eq!(summary_facts(&files), baseline_facts);
        });
        // The two boundary orders a walk is most likely to produce.
        let mut rev = corpus();
        rev.reverse();
        assert_eq!(analyze_files(&rev).0, baseline_violations);
        assert_eq!(summary_facts(&rev), baseline_facts);
    }
}
