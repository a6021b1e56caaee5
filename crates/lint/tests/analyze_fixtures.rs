//! Fixture-tree checks for the `sjc-analyze` passes: each pass has a firing
//! (`<rule>_bad`) and a clean (`<rule>_ok`) miniature workspace under
//! `tests/fixtures/`. That every rule has one (or a seeded line case) is
//! checked from `Rule::ALL` by the workspace's `tests/lint_gate.rs`; the
//! tests here pin what each firing tree reports. The trees are scanned,
//! never compiled — `collect_rs` skips directories named `fixtures`, so the
//! outer workspace gate does not lint the deliberately-bad code here.

use std::path::PathBuf;

use sjc_lint::{analyze_workspace, Rule};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

#[test]
fn hot_alloc_bad_names_the_site_and_the_loop() {
    let vs = analyze_workspace(&fixture("hot_alloc_bad")).unwrap();
    assert!(
        vs.iter().any(|v| v.path == "crates/core/src/join.rs"
            && v.message.contains(".to_string()")
            && v.message.contains("hot loop")),
        "{vs:?}"
    );
}

#[test]
fn loop_invariant_call_bad_names_the_hoistable_call() {
    let vs = analyze_workspace(&fixture("loop_invariant_call_bad")).unwrap();
    assert!(vs.iter().all(|v| v.rule == Rule::LoopInvariantCall), "{vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("`weight(")), "{vs:?}");
}

#[test]
fn unit_flow_bad_fires_every_shape() {
    let vs = analyze_workspace(&fixture("unit_flow_bad")).unwrap();
    let in_file = |path: &str, text: &str| {
        vs.iter().any(|v| v.path.ends_with(path) && v.message.contains(text))
    };
    // Bindings: direct mixing, mixing through a `let` chain, and the
    // unconverted sink.
    assert!(in_file("ledger.rs", "shuffle_bytes"), "{vs:?}");
    assert!(in_file("ledger.rs", "`moved`"), "{vs:?}");
    assert!(in_file("ledger.rs", "sim_ns"), "{vs:?}");
    // Calls, through the summarized signatures: a returned unit mixed with
    // another, a returned unit reaching a sink, an argument/parameter
    // mismatch — each pointing back at the summarized declaration.
    assert!(in_file("metrics.rs", "`moved(…)` returns bytes"), "{vs:?}");
    assert!(in_file("metrics.rs", "`step(…)` returns bytes and flows into `sim_ns`"), "{vs:?}");
    assert!(in_file("metrics.rs", "parameter `cost_ns`"), "{vs:?}");
    assert!(vs.iter().filter(|v| v.path.ends_with("metrics.rs")).all(|v| !v.related.is_empty()));
}

#[test]
fn entropy_bad_reports_both_halves_of_the_pass() {
    let vs = analyze_workspace(&fixture("entropy_taint_bad")).unwrap();
    // Reachability: `plan` reaches thread_rng through sjc_data::jitter.
    assert!(
        vs.iter().any(|v| v.path == "crates/cluster/src/sched.rs" && v.message.contains("jitter")),
        "{vs:?}"
    );
    // Data flow: the Instant::now-derived binding flows into sim_ns.
    assert!(
        vs.iter().any(|v| v.path == "crates/cluster/src/sched.rs" && v.message.contains("sim_ns")),
        "{vs:?}"
    );
    // The source in crates/data is not itself a sim-crate violation — the
    // bench-isolation line rule owns that site.
    assert!(!vs.iter().any(|v| v.path.starts_with("crates/data")), "{vs:?}");
}

#[test]
fn panic_path_bad_reports_the_full_chain_as_related_locations() {
    let vs = analyze_workspace(&fixture("panic_path_bad")).unwrap();
    // The violation anchors at the pub API in the sim crate, not at the
    // panic site in sjc_par (which no-panic-in-lib does not cover).
    let v = vs.iter().find(|v| v.path == "crates/core/src/join.rs").unwrap();
    assert!(v.message.contains("run_join") && v.message.contains("par_map_budget"), "{v:?}");
    assert!(v.message.contains(".unwrap"), "{v:?}");
    // One related location per hop: the call into sjc_par, then the site.
    assert_eq!(v.related.len(), 2, "{v:?}");
    assert_eq!(v.related[1].path, "crates/par/src/lib.rs");
    assert_eq!(v.related[1].line, 4, "{v:?}");
}

#[test]
fn panic_path_ok_consumed_audit_survives_stale_suppression() {
    // The audited allow(panic-path) in the ok tree matches no surviving
    // finding; only the consumed-audit carve-out keeps it from being
    // reported stale. An empty scan proves both halves at once.
    let vs = analyze_workspace(&fixture("panic_path_ok")).unwrap();
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn cache_purity_bad_blames_the_directly_impure_fn_with_the_seam_chain() {
    let vs = analyze_workspace(&fixture("cache_purity_bad")).unwrap();
    assert_eq!(vs.len(), 1, "{vs:?}");
    let v = &vs[0];
    // `stamp` is directly impure; `build` (impure only via `stamp`) is not
    // cascaded into a second finding.
    assert_eq!(v.path, "crates/data/src/catalog.rs");
    assert!(v.message.contains("`stamp`") && v.message.contains("generate_cached"), "{v:?}");
    // Chain: seam calls build, build calls stamp, then the mutation site.
    assert_eq!(v.related.len(), 3, "{v:?}");
    assert!(v.related[2].note.contains("fetch_add"), "{v:?}");
}

#[test]
fn stale_suppression_findings_name_the_dead_rule() {
    let vs = analyze_workspace(&fixture("stale_suppression_bad")).unwrap();
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert!(vs[0].message.contains("allow(no-panic-in-lib)"), "{vs:?}");
    assert_eq!(vs[0].line, 6, "{vs:?}");
}

#[test]
fn error_flow_bad_names_the_phantom_variant_at_its_declaration() {
    let vs = analyze_workspace(&fixture("error_flow_bad")).unwrap();
    assert!(
        vs.iter().any(|v| v.path == "crates/cluster/src/error.rs" && v.message.contains("Phantom")),
        "{vs:?}"
    );
    // The recovery-ledger vocabulary is audited with the same rule.
    assert!(
        vs.iter().any(|v| v.path == "crates/cluster/src/metrics.rs" && v.message.contains("Ghost")),
        "{vs:?}"
    );
    // Both discard shapes are reported in lib.rs.
    let discards: Vec<_> = vs.iter().filter(|v| v.path == "crates/cluster/src/lib.rs").collect();
    assert_eq!(discards.len(), 2, "{vs:?}");
}

#[test]
fn dead_pub_bad_names_every_function_without_a_real_caller() {
    let vs = analyze_workspace(&fixture("dead_pub_bad")).unwrap();
    assert!(vs.iter().all(|v| v.rule == Rule::DeadPub && v.path.starts_with("crates/geom/src/")));
    // A `tests/` file and a `#[cfg(test)]` module are not callers; neither
    // is a same-named call in a crate that never names `sjc_geom`, nor the
    // module path `grid::` for a function named `grid`.
    let named: Vec<&str> = vs.iter().map(|v| v.message.split('`').nth(1).unwrap()).collect();
    assert_eq!(named, ["grid", "only_tested", "unreferenced", "wrong_crate"], "{vs:?}");
    assert!(vs[0].message.contains("allow(dead-pub)"), "{vs:?}");
}
