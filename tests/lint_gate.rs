//! Tier-1 lint gate.
//!
//! Three parts, all of which must hold for the simulated results to be
//! trustworthy:
//!
//! 1. the workspace itself is clean under **both** checker layers — the
//!    line rules and the cross-file `sjc-analyze` passes — so every
//!    remaining panic/nondeterminism/race/discard site is an audited,
//!    reasoned suppression;
//! 2. the checker actually works — each named rule fires on seeded bad code
//!    (otherwise a silently broken scanner would make gate 1 vacuous); the
//!    analyzer passes prove this against fixture trees in
//!    `crates/lint/tests/analyze_fixtures.rs`;
//! 3. the checked-in `LINT_BASELINE.json` ratchet holds: per-rule counts
//!    may only decrease, and the baseline documents every rule.

use std::path::Path;
use std::time::Duration;

use sjc_lint::{
    check_all, check_all_timed, check_file, check_workspace, json, sarif, Rule, Violation,
};

/// The gate: `cargo test -q` fails if any workspace source regresses under
/// the line rules **or** the `sjc-analyze` passes.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let violations = check_all(root).expect("workspace scan must succeed");
    assert!(
        violations.is_empty(),
        "sjc-lint found {} violation(s):\n{}",
        violations.len(),
        violations.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
    // check_all = line rules + passes; make sure the line-rule layer alone
    // also ran (a scan error above would have surfaced, but an empty file
    // set must stay impossible).
    assert!(check_workspace(root).is_ok());
}

/// The ratchet: the fresh scan's per-rule counts must not exceed the
/// checked-in baseline, and the baseline must document every rule (so a new
/// rule cannot land without extending the contract).
#[test]
fn baseline_ratchet_holds_and_documents_every_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("LINT_BASELINE.json"))
        .expect("LINT_BASELINE.json must be checked in at the workspace root");
    let baseline = json::Counts::parse(&text).expect("baseline must parse");
    for rule in Rule::ALL {
        assert!(
            baseline.by_rule.contains_key(rule.name()),
            "LINT_BASELINE.json is missing rule {:?} — regenerate with --write-baseline",
            rule.name()
        );
    }
    assert!(baseline.by_rule.contains_key(Rule::BadSuppression.name()));

    let violations = check_all(root).expect("workspace scan must succeed");
    let counts = json::Counts::from_violations(&violations);
    counts.ratchet_against(&baseline).unwrap_or_else(|e| panic!("baseline ratchet failed:\n{e}"));
}

/// The ratchet compares per-(rule, file) cells, not just totals: a
/// violation that merely *moves* between files — totals flat — must still
/// be rejected, otherwise churn could smuggle regressions into files the
/// baseline records as clean.
#[test]
fn ratchet_rejects_a_per_file_increase_even_at_flat_totals() {
    let baseline = json::Counts::from_violations(&[Violation::new(
        Rule::HotAlloc,
        "crates/a/src/x.rs",
        3,
        "seeded".to_string(),
    )]);
    let fresh = json::Counts::from_violations(&[Violation::new(
        Rule::HotAlloc,
        "crates/b/src/y.rs",
        3,
        "seeded".to_string(),
    )]);
    assert_eq!(fresh.total, baseline.total, "the move keeps totals flat");
    let err = fresh.ratchet_against(&baseline).expect_err("per-file cell must be enforced");
    assert!(err.contains("crates/b/src/y.rs"), "error names the regressed file: {err}");
}

/// The analyzer's own perf gate: the full two-layer scan (the same one
/// `--timings` instruments) must stay comfortably interactive, or the
/// checker stops being something contributors run before every commit. The
/// budget is generous — an order of magnitude above today's wall time — so
/// it only trips on genuine blowups (an accidentally quadratic pass, a
/// fixpoint that stops converging), not on CI jitter.
#[test]
fn full_scan_fits_the_wall_budget_and_names_every_stage() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (violations, timings) = check_all_timed(root).expect("workspace scan must succeed");
    assert!(violations.is_empty(), "{violations:?}");
    // Every pipeline stage reports a timing, so a silently skipped pass
    // cannot hide behind a fast total.
    for stage in [
        "line-rules",
        "model+callgraph",
        "summaries",
        "entropy",
        "par-closure",
        "error-flow",
        "hot-alloc",
        "loop-invariant",
        "unit-flow",
        "panic-path",
        "interproc-unit-flow",
        "cache-purity",
        "scoped-spawn",
        "stale-suppression",
    ] {
        assert!(
            timings.iter().any(|t| t.name == stage),
            "stage {stage:?} missing from timings: {:?}",
            timings.iter().map(|t| t.name).collect::<Vec<_>>()
        );
    }
    let total: Duration = timings.iter().map(|t| t.wall).sum();
    assert!(total < Duration::from_secs(20), "scan took {total:?}, budget is 20s");
}

/// Every rule the checker enforces is documented in the README's rule
/// table — a rule cannot land without telling contributors what it checks.
#[test]
fn every_rule_is_documented_in_the_readme_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("README.md")).expect("README.md at the root");
    for rule in Rule::ALL {
        assert!(
            text.contains(&format!("| `{}` |", rule.name())),
            "README.md rule table is missing `{}`",
            rule.name()
        );
    }
    assert!(text.contains(&format!("| `{}` |", Rule::BadSuppression.name())));
}

/// `--format sarif` on the live workspace scan must produce a report the
/// crate's own SARIF 2.1.0 checker accepts — the same artifact CI uploads
/// to code scanning.
#[test]
fn sarif_report_from_the_live_scan_validates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let violations = check_all(root).expect("workspace scan must succeed");
    let report = sarif::report(&violations);
    sarif::validate(&report).unwrap_or_else(|e| panic!("live SARIF report invalid: {e}"));
}

/// `--format json` and the baseline file share one parser: a report emitted
/// from the live scan must round-trip through it with identical counts.
#[test]
fn json_report_round_trips_against_the_live_scan() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let violations = check_all(root).expect("workspace scan must succeed");
    let report = json::report(&violations);
    let parsed = json::Counts::parse(&report).expect("report must parse");
    assert_eq!(parsed, json::Counts::from_violations(&violations));
    // The workspace is clean today, so the report's counts must equal the
    // checked-in all-zero baseline exactly.
    let text = std::fs::read_to_string(root.join("LINT_BASELINE.json")).unwrap();
    assert_eq!(parsed, json::Counts::parse(&text).unwrap());
}

fn rules_fired(rel_path: &str, src: &str) -> Vec<Rule> {
    let mut rules: Vec<Rule> = check_file(rel_path, src).into_iter().map(|v| v.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn no_nondeterminism_fires_on_seeded_bad_code() {
    for bad in [
        "use std::collections::HashMap;\n",
        "let t = std::time::Instant::now();\n",
        "let mut rng = rand::thread_rng();\n",
    ] {
        let fired = rules_fired("crates/cluster/src/fixture.rs", bad);
        assert!(fired.contains(&Rule::NoNondeterminism), "{bad:?} -> {fired:?}");
    }
    // Deterministic alternatives pass.
    assert!(rules_fired("crates/cluster/src/fixture.rs", "use std::collections::BTreeMap;\n")
        .is_empty());
}

#[test]
fn no_panic_in_lib_fires_on_seeded_bad_code() {
    for bad in [
        "let x = opt.unwrap();\n",
        "let x = res.expect(\"always\");\n",
        "panic!(\"boom\");\n",
        "unreachable!();\n",
        "let x = items[i];\n",
    ] {
        let fired = rules_fired("crates/geom/src/fixture.rs", bad);
        assert!(fired.contains(&Rule::NoPanicInLib), "{bad:?} -> {fired:?}");
    }
    // The same code in a test harness file is fine.
    assert!(rules_fired("crates/geom/tests/fixture.rs", "let x = opt.unwrap();\n").is_empty());
}

#[test]
fn float_hygiene_fires_on_seeded_bad_code() {
    let fired = rules_fired("crates/geom/src/fixture.rs", "if area == 0.0 { return; }\n");
    assert!(fired.contains(&Rule::FloatHygiene), "{fired:?}");
    // Integer comparisons and epsilon helpers pass.
    assert!(rules_fired("crates/geom/src/fixture.rs", "if n == 0 { return; }\n").is_empty());
    assert!(
        rules_fired("crates/geom/src/fixture.rs", "if approx_zero(area) { return; }\n").is_empty()
    );
}

#[test]
fn bench_isolation_fires_on_seeded_bad_code() {
    // Wall-clock reads outside crates/bench are flagged...
    let fired = rules_fired("crates/testkit/src/fixture.rs", "let t0 = Instant::now();\n");
    assert!(fired.contains(&Rule::BenchIsolation), "{fired:?}");
    // ...and the bench harness itself is exempt.
    assert!(rules_fired("crates/bench/src/fixture.rs", "let t0 = Instant::now();\n").is_empty());
}

#[test]
fn serial_hot_loop_fires_on_seeded_bad_code() {
    let bad = "fn drive(tasks: &[u8]) {\n    for t in tasks {\n        run(t);\n    }\n}\n";
    // A serial task loop in a designated hot-path file is flagged…
    let fired = rules_fired("crates/mapreduce/src/job.rs", bad);
    assert!(fired.contains(&Rule::SerialHotLoop), "{fired:?}");
    // …the same loop in a non-hot-path file is not…
    assert!(rules_fired("crates/mapreduce/src/streaming.rs", bad).is_empty());
    // …per-record inner loops and sjc_par call expressions never fire…
    for ok in ["for rec in &task.records {\n", "for out in sjc_par::par_map(&parts, run) {\n"] {
        assert!(rules_fired("crates/mapreduce/src/job.rs", ok).is_empty(), "{ok:?}");
    }
    // …and a reasoned suppression documents an intentionally serial merge.
    let suppressed = "fn drive(tasks: &[u8]) {\n    // sjc-lint: allow(serial-hot-loop) — merge must run in task order\n    for t in tasks {\n        run(t);\n    }\n}\n";
    assert!(rules_fired("crates/mapreduce/src/job.rs", suppressed).is_empty());
}

#[test]
fn bounded_retry_fires_on_seeded_bad_code() {
    // A retry loop with no named bound in a recovery-engine crate is
    // flagged at its header…
    let bad = "fn f() {\n    let mut attempt = 0u32;\n    loop {\n        attempt += 1;\n        if try_once(attempt) {\n            break;\n        }\n    }\n}\n";
    let fired = rules_fired("crates/cluster/src/fixture.rs", bad);
    assert!(fired.contains(&Rule::BoundedRetry), "{fired:?}");
    // …naming the MAX_* constant inside the loop passes…
    let good = bad.replace(
        "if try_once(attempt) {",
        "if attempt >= MAX_TASK_ATTEMPTS || try_once(attempt) {",
    );
    assert!(rules_fired("crates/cluster/src/fixture.rs", &good).is_empty());
    // …aggregation loops over recorded attempts never fire…
    let agg = "fn f(scheds: &[S], trace: &mut T) {\n    for s in scheds {\n        trace.attempts += s.attempts;\n    }\n}\n";
    assert!(rules_fired("crates/mapreduce/src/fixture.rs", agg).is_empty());
    // …and presentation code outside the engine crates is out of scope.
    assert!(rules_fired("crates/core/src/fixture.rs", bad).is_empty());
}

/// Compile-only bench gate: `cargo bench --no-run` must keep building so
/// the microbench suites cannot rot silently. Building, not running: host
/// time belongs in `benchmark/`, not the test gate.
#[test]
fn bench_targets_compile() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = std::process::Command::new(env!("CARGO"))
        .args(["bench", "--no-run", "-p", "sjc-bench", "--offline", "-q"])
        .current_dir(root)
        .output()
        .expect("cargo bench --no-run must spawn");
    assert!(
        out.status.success(),
        "bench targets failed to compile:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_suppression_fires_on_seeded_bad_code() {
    // A reasonless allow is itself a violation and does not suppress.
    let vs = check_file(
        "crates/geom/src/fixture.rs",
        "let x = v[0]; // sjc-lint: allow(no-panic-in-lib)\n",
    );
    assert!(vs.iter().any(|v| v.rule == Rule::BadSuppression), "{vs:?}");
    assert!(vs.iter().any(|v| v.rule == Rule::NoPanicInLib), "{vs:?}");
    // An unknown rule name is a violation.
    let vs = check_file(
        "crates/geom/src/fixture.rs",
        "let x = v[0]; // sjc-lint: allow(no-such-rule) — justified at length\n",
    );
    assert!(vs.iter().any(|v| v.rule == Rule::BadSuppression), "{vs:?}");
    // A well-formed reasoned allow suppresses cleanly.
    let vs = check_file(
        "crates/geom/src/fixture.rs",
        "let x = v[0]; // sjc-lint: allow(no-panic-in-lib) — v is non-empty by construction\n",
    );
    assert!(vs.is_empty(), "{vs:?}");
}
