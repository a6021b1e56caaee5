//! Tier-1 lint gate.
//!
//! Two parts, both of which must hold for the simulated results to be
//! trustworthy:
//!
//! 1. the workspace itself is clean under **both** checker layers — the
//!    line rules and the cross-file `sjc-analyze` passes — so every
//!    remaining panic/nondeterminism/spawn/discard site is an audited,
//!    reasoned suppression. This is the one gate: any finding fails it,
//!    exactly as it fails `cargo run -p sjc-lint -- .`;
//! 2. the checker actually works — every rule in `Rule::ALL` fires on a
//!    seeded line case here or on a fixture tree under
//!    `crates/lint/tests/fixtures/` (otherwise a silently broken or dead
//!    rule would make gate 1 vacuous).

use std::path::Path;
use std::time::Duration;

use sjc_lint::{analyze_workspace, check_all, check_all_timed, check_file, check_workspace, Rule};

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

/// The analyzer's own perf gate: the full two-layer scan (the same one
/// `--timings` instruments) must stay comfortably interactive, or the
/// checker stops being something contributors run before every commit.
/// The budget is the slowest total of ten `cargo test -q --test lint_gate`
/// runs on a 2-vCPU host — measured under this binary's own concurrency,
/// with `bench_targets_compile` building beside it — plus 50 %.
#[test]
fn full_scan_fits_the_wall_budget_and_names_every_stage() {
    // Slowest of ten runs: 1 121 ms (range 420–1 121 ms).
    const BUDGET: Duration = Duration::from_millis(1_700);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (violations, timings) = check_all_timed(root).expect("workspace scan must succeed");
    assert!(violations.is_empty(), "{violations:?}");
    // Every pipeline stage reports a timing, so a silently skipped pass
    // cannot hide behind a fast total.
    for stage in [
        "line-rules",
        "model+callgraph",
        "summaries",
        "hot-loops",
        "entropy",
        "error-flow",
        "hot-alloc",
        "loop-invariant",
        "unit-flow",
        "panic-path",
        "cache-purity",
        "stale-suppression",
    ] {
        assert!(
            timings.iter().any(|t| t.name == stage),
            "stage {stage:?} missing from timings: {:?}",
            timings.iter().map(|t| t.name).collect::<Vec<_>>()
        );
    }
    let total: Duration = timings.iter().map(|t| t.wall).sum();
    assert!(total < BUDGET, "scan took {total:?}, budget is {BUDGET:?}");
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

/// One seeded firing case per line rule: `(rule, path, source)`. The
/// analyzer passes fire on fixture trees instead.
const SEEDED: &[(Rule, &str, &str)] = &[
    (Rule::NoNondeterminism, "crates/cluster/src/fixture.rs", "use std::collections::HashMap;\n"),
    (Rule::NoPanicInLib, "crates/geom/src/fixture.rs", "let x = opt.unwrap();\n"),
    (Rule::FloatHygiene, "crates/geom/src/fixture.rs", "if area == 0.0 { return; }\n"),
    (Rule::BenchIsolation, "crates/testkit/src/fixture.rs", "let t0 = Instant::now();\n"),
    (Rule::SerialHotLoop, "crates/mapreduce/src/job.rs", "for t in tasks {\n"),
    (Rule::BoundedRetry, "crates/cluster/src/fixture.rs", "for attempt in 0..4 { g(attempt) }\n"),
    (Rule::ScopedSpawnInHotPath, "crates/index/src/fixture.rs", "std::thread::spawn(work);\n"),
];

/// Every rule has a firing case — a seeded line case above, or a
/// `<rule>_bad` fixture tree that fires it (and nothing else) beside a
/// `<rule>_ok` twin that stays clean — and every fixture tree belongs to a
/// rule. A rule that can no longer fire, or a fixture for a deleted rule,
/// fails here.
#[test]
fn every_rule_fires_on_a_fixture_or_a_seeded_case() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/lint/tests/fixtures");
    for rule in Rule::ALL {
        let snake = rule.name().replace('-', "_");
        let bad = fixtures.join(format!("{snake}_bad"));
        if let Some(&(_, path, src)) = SEEDED.iter().find(|(r, ..)| *r == rule) {
            assert!(!bad.exists(), "{rule} has both a seeded case and a fixture");
            assert!(rules_fired(path, src).contains(&rule), "{rule}: {src:?} does not fire");
            continue;
        }
        let vs = analyze_workspace(&bad).unwrap_or_else(|e| panic!("{rule}: no fixture: {e}"));
        assert!(vs.iter().any(|v| v.rule == rule), "{snake}_bad: no {rule} finding in {vs:?}");
        assert!(vs.iter().all(|v| v.rule == rule), "{snake}_bad: other rules in {vs:?}");
        let ok = analyze_workspace(&fixtures.join(format!("{snake}_ok")))
            .unwrap_or_else(|e| panic!("{rule}: no clean twin: {e}"));
        assert!(ok.is_empty(), "{snake}_ok: expected clean, got {ok:?}");
    }
    for entry in std::fs::read_dir(&fixtures).expect("fixture dir") {
        let name = entry.expect("fixture entry").file_name().to_string_lossy().into_owned();
        let stem = name.strip_suffix("_bad").or_else(|| name.strip_suffix("_ok"));
        let rule = stem.and_then(|s| Rule::from_name(&s.replace('_', "-")));
        assert!(rule.is_some(), "fixture {name} names no rule in Rule::ALL");
    }
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

#[test]
fn scoped_spawn_in_hot_path_fires_on_seeded_bad_code() {
    // Direct scoped and plain spawns outside crates/par are flagged…
    for bad in [
        "std::thread::scope(|s| {\n    s.spawn(|| work(parts));\n});\n",
        "let h = thread::spawn(|| 1u64);\n",
    ] {
        let fired = rules_fired("crates/index/src/fixture.rs", bad);
        assert!(fired.contains(&Rule::ScopedSpawnInHotPath), "{bad:?} -> {fired:?}");
    }
    // …the pool crate owns its threads, and test code may spawn freely…
    let pool = "std::thread::scope(|s| s.spawn(f));\n";
    assert!(rules_fired("crates/par/src/pool.rs", pool).is_empty());
    assert!(rules_fired("crates/index/tests/threads.rs", pool).is_empty());
    let test_mod =
        "#[cfg(test)]\nmod tests {\n    fn t() {\n        std::thread::spawn(|| 1u64);\n    }\n}\n";
    assert!(rules_fired("crates/index/src/fixture.rs", test_mod).is_empty());
    // …and methods or other APIs named `spawn`/`scope` never fire.
    for ok in ["s.spawn(task);\n", "pool::scope(run);\n", "let scope = lexical_scope();\n"] {
        assert!(rules_fired("crates/cluster/src/fixture.rs", ok).is_empty(), "{ok:?}");
    }
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
