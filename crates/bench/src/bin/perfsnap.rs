//! `perfsnap` — one-shot host-performance snapshot of the hot suites.
//!
//! Runs the `local_join`, `data_gen` and `systems_e2e` workloads at a fixed
//! ladder of thread budgets — `@1`, `@4`, `@8`, plus `--threads N` if given
//! — and writes `BENCH_baseline.json` at the repo root mapping each
//! `<suite>@<threads>` cell to `{wall_ms, sim_ns, threads, phase_ms}`,
//! where `phase_ms` is a named per-phase wall-time breakdown of the best
//! repetition (e.g. `input_gen` vs `sweep` for `local_join`). The ladder is
//! fixed rather than "serial + hardware" so the snapshot keys are unique on
//! any host: on a single-core machine the old scheme produced
//! `local_join@1` twice and the last copy silently won. Two invariants are
//! checked while measuring:
//!
//! * **simulation is thread-count independent** — `sim_ns` of each suite
//!   must be bit-identical at every thread budget (the process exits
//!   non-zero otherwise);
//! * **parallelism pays** — the printed speedup column is the serial wall
//!   over that row's wall (≈1.0 on a single-core host, where extra threads
//!   only add coordination; ≥2× expected on multi-core machines).
//!
//! After the baseline, the fault sweep runs each system under the
//! none/light/heavy fault presets and writes `BENCH_faults.json` — all
//! simulated numbers, so that file is bit-stable across machines.
//!
//! `--check` skips all timing and re-parses the two checked-in snapshots
//! with [`sjc_bench::baseline`] (which rejects duplicate keys at every
//! object level), verifying the schema — including the `phase_ms`
//! breakdown, which must exist on every row and name the same phases at
//! every thread budget — and the thread-independence of `sim_ns`. It also
//! *reports* each suite's @8/@1 wall ratio without gating on it: wall-clock
//! scaling depends on the snapshot host's core count, so it would flake as
//! a hard CI check. All of this is cheap enough for CI on any hardware.
//!
//! ```text
//! cargo run --release -p sjc-bench --bin perfsnap            # write BENCH_baseline.json + BENCH_faults.json
//! cargo run --release -p sjc-bench --bin perfsnap -- --out snap.json --faults-out faults.json --threads 16
//! cargo run --release -p sjc-bench --bin perfsnap -- --check # validate the checked-in snapshots, no timing
//! ```

use std::process::ExitCode;
use std::time::Instant;

use sjc_bench::baseline::{self, Baseline};
use sjc_bench::microbench::black_box;
use sjc_cluster::{Cluster, ClusterConfig, FaultPlan};
use sjc_core::experiment::{ExperimentGrid, SystemKind, Workload};
use sjc_core::framework::JoinPredicate;
use sjc_core::json::Json;
use sjc_data::rng::StdRng;
use sjc_data::{DatasetId, ScaledDataset};
use sjc_geom::Mbr;
use sjc_index::entry::IndexEntry;
use sjc_index::join::stripe_sweep;

/// Experiment scale for the e2e suite: small enough for a quick snapshot,
/// large enough that the grid dominates process startup.
const SCALE: f64 = 1e-4;
const SEED: u64 = 20150701;

/// Thread budgets every snapshot records. Fixed so the JSON keys are the
/// same (and unique) regardless of the host's core count.
const BUDGETS: [usize; 3] = [1, 4, 8];

/// One measured run of a suite. `phase_ms` is the named wall-time
/// breakdown of the best (recorded) repetition — where inside the suite
/// the wall clock actually went, so a scaling regression points at a
/// phase, not just a suite.
struct Snap {
    suite: &'static str,
    threads: usize,
    wall_ms: f64,
    sim_ns: u64,
    phase_ms: Vec<(&'static str, f64)>,
}

/// What a suite runner produces: the summed simulated nanoseconds (0 for
/// host-only suites) plus its named phase wall times.
type SuiteRun = (u64, Vec<(&'static str, f64)>);

/// Times one named phase of a suite run.
fn timed<T>(phases: &mut Vec<(&'static str, f64)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let (out, wall) = sjc_bench::microbench::time(f);
    phases.push((name, wall.as_secs_f64() * 1e3));
    out
}

fn random_entries(n: usize, seed: u64, extent: f64, side: f64) -> Vec<IndexEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x = rng.gen::<f64>() * extent;
            let y = rng.gen::<f64>() * extent;
            IndexEntry::new(
                i as u64,
                Mbr::new(x, y, x + rng.gen::<f64>() * side, y + rng.gen::<f64>() * side),
            )
        })
        .collect()
}

/// The `local_join` suite: the default striped-sweep kernel at partition
/// scale. Host-only work — no simulation — so `sim_ns` is 0 by definition.
fn run_local_join() -> SuiteRun {
    let mut phases = Vec::new();
    let (left, right) = timed(&mut phases, "input_gen", || {
        (random_entries(60_000, 21, 1000.0, 3.0), random_entries(30_000, 22, 1000.0, 3.0))
    });
    timed(&mut phases, "sweep", || {
        let mut acc = 0usize;
        for _ in 0..3 {
            acc += stripe_sweep(black_box(&left), black_box(&right)).pairs.len();
        }
        black_box(acc);
    });
    (0, phases)
}

/// The `data_gen` suite: the two-phase parallel generators, uncached (the
/// cache would hide the work being measured). Host-only; `sim_ns` is 0.
fn run_data_gen() -> SuiteRun {
    let mut phases = Vec::new();
    let ids: [(&'static str, DatasetId); 3] = [
        ("taxi1m", DatasetId::Taxi1m),
        ("edges01", DatasetId::Edges01),
        ("linearwater01", DatasetId::Linearwater01),
    ];
    for (name, id) in ids {
        timed(&mut phases, name, || {
            let ds = ScaledDataset::generate(id, SCALE, SEED ^ 0x5AD);
            black_box(ds.geoms.len());
        });
    }
    (0, phases)
}

/// The `systems_e2e` suite: the full Table-2 grid. Returns the summed
/// simulated nanoseconds of every successful cell — the value that must not
/// depend on the thread budget. The `prepare` phase runs the two workloads'
/// input generation up front (normally cache-warm after the first rep) so
/// the `grid` phase isolates partition + simulate + local-join work.
fn run_systems_e2e() -> SuiteRun {
    let mut phases = Vec::new();
    timed(&mut phases, "prepare", || {
        for w in [Workload::taxi_nycb(), Workload::edge_linearwater()] {
            black_box(w.prepare(SCALE, SEED));
        }
    });
    let grid = ExperimentGrid { scale: SCALE, seed: SEED };
    let sim_ns = timed(&mut phases, "grid", || {
        grid.table2()
            .iter()
            .filter_map(|c| c.outcome.as_ref().ok())
            .map(|s| s.trace.total_ns())
            .sum()
    });
    (sim_ns, phases)
}

/// Provisioning-delay base for the sweep's checkpoint axis: 4 s spins a
/// replacement up within even the Spark system's ~10 s faulted run, so the
/// axis exercises elastic re-scheduling for every system (the 30 s default
/// models EC2 instance launch and lands after the short runs finish).
const SWEEP_PROVISION_NS: u64 = 4_000_000_000;

/// The fault sweep behind `BENCH_faults.json`: each system's makespan on
/// EC2-8 under the none / light / heavy fault presets, heavy plus a node
/// crash at 40% of that system's own fault-free runtime (mirroring
/// `examples/fault_tolerance.rs`), then the heavy plan again with durable
/// checkpoints every 2 waves / every wave plus elastic replacement
/// provisioning. Inputs stay at multiplier 1 so HadoopGIS survives — its
/// full-scale pipe break is Table 2's story, not a fault outcome.
/// Everything here is simulated time: bit-stable across hosts and thread
/// budgets, so the file is directly diffable between machines.
fn run_fault_sweep() -> Json {
    let (mut left, mut right) = Workload::taxi1m_nycb().prepare(SCALE, SEED);
    left.multiplier = 1.0;
    right.multiplier = 1.0;
    let config = ClusterConfig::ec2(8);
    let mut rows: Vec<(String, Json)> = Vec::new();
    println!(
        "{:<16} {:>16} {:>16} {:>16} {:>16} {:>16}",
        "fault sweep", "none_ns", "light_ns", "heavy_ns", "heavy_ckpt2_ns", "heavy_ckpt1_ns"
    );
    for sys in SystemKind::all() {
        let base = sys
            .instance()
            .run(&Cluster::new(config.clone()), &left, &right, JoinPredicate::Intersects)
            .map(|o| o.trace.total_ns())
            .unwrap_or(0);
        let heavy = || FaultPlan::heavy(7, &config).crash_at(2, base * 2 / 5);
        let plans: [(&str, FaultPlan); 5] = [
            ("none", FaultPlan::none()),
            ("light", FaultPlan::light(7, &config)),
            ("heavy", heavy()),
            (
                "heavy_ckpt2",
                heavy().with_checkpoints(2, 3).with_elastic_provisioning(SWEEP_PROVISION_NS),
            ),
            (
                "heavy_ckpt1",
                heavy().with_checkpoints(1, 3).with_elastic_provisioning(SWEEP_PROVISION_NS),
            ),
        ];
        let mut fields: Vec<(String, Json)> = Vec::new();
        let mut printed: Vec<String> = Vec::new();
        for (label, plan) in plans {
            let cluster = Cluster::with_faults(config.clone(), plan);
            match sys.instance().run(&cluster, &left, &right, JoinPredicate::Intersects) {
                Ok(out) => {
                    fields.push((format!("{label}_sim_ns"), Json::Int(out.trace.total_ns())));
                    if label == "heavy" {
                        let wasted: u64 = out.trace.recovery.iter().map(|e| e.wasted_ns).sum();
                        fields.push((
                            "heavy_recovery_events".to_string(),
                            Json::Int(out.trace.recovery.len() as u64),
                        ));
                        fields.push(("heavy_wasted_ns".to_string(), Json::Int(wasted)));
                    }
                    printed.push(format!("{:>16}", out.trace.total_ns()));
                }
                Err(e) => {
                    fields.push((format!("{label}_failed"), Json::Str(e.kind().to_string())));
                    printed.push(format!("{:>16}", format!("- ({})", e.kind())));
                }
            }
        }
        println!("{:<16} {}", sys.paper_name(), printed.join(" "));
        rows.push((sys.paper_name().to_string(), Json::Obj(fields)));
    }
    Json::Obj(rows)
}

/// Repetitions per measured cell; the best wall time is recorded, which
/// discards OS scheduling jitter (large on shared single-core hosts) the
/// same way the microbench harness's min column does.
const REPS: usize = 3;

/// Measures one suite across the whole thread ladder with *interleaved*
/// reps: each round runs every budget once, so slow host drift (cgroup
/// throttling, thermal clamps, a neighbor stealing the core) hits all
/// rungs alike instead of systematically penalizing whichever budget
/// happens to run last. Per budget the best wall time is kept, along
/// with that rep's phase breakdown so the phases add up to (roughly)
/// the recorded wall, not to some average of reps.
fn measure_ladder(suite: &'static str, budgets: &[usize], run: fn() -> SuiteRun) -> Vec<Snap> {
    let mut snaps: Vec<Snap> = budgets
        .iter()
        .map(|&threads| Snap {
            suite,
            threads,
            wall_ms: f64::INFINITY,
            sim_ns: 0,
            phase_ms: Vec::new(),
        })
        .collect();
    for _ in 0..REPS {
        for snap in snaps.iter_mut() {
            sjc_par::set_global_threads(snap.threads);
            let start = Instant::now();
            let (sim, phases) = run();
            let wall = start.elapsed().as_secs_f64() * 1e3;
            eprintln!("  rep {}@{}: {wall:.2} ms", suite, snap.threads);
            snap.sim_ns = sim;
            if wall < snap.wall_ms {
                snap.wall_ms = wall;
                snap.phase_ms = phases;
            }
        }
    }
    sjc_par::set_global_threads(0);
    snaps
}

/// `--check`: re-parse the checked-in snapshots without timing anything.
/// Fails on JSON-level problems (duplicate keys, malformed rows), schema
/// drift, or thread-dependent simulated time.
fn check_snapshots(out_path: &str, faults_path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(out_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfsnap --check: cannot read {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snapshot = match Baseline::parse(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfsnap --check: {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if snapshot.rows.is_empty() {
        eprintln!("perfsnap --check: {out_path} holds no rows");
        return ExitCode::FAILURE;
    }
    for suite in ["local_join", "data_gen", "systems_e2e"] {
        let rows = snapshot.suite(suite);
        if rows.is_empty() {
            eprintln!("perfsnap --check: {out_path} lacks any `{suite}@*` row");
            return ExitCode::FAILURE;
        }
        if let Some(first) = rows.first() {
            if rows.iter().any(|r| r.sim_ns != first.sim_ns) {
                eprintln!(
                    "perfsnap --check: {out_path}: `{suite}` sim_ns varies with the \
                     thread budget — determinism violation"
                );
                return ExitCode::FAILURE;
            }
            // Every row must carry the phase breakdown, and every thread
            // budget must decompose the suite into the same phases — the
            // rows are otherwise not comparable.
            let names = |r: &baseline::BaselineRow| {
                r.phase_ms.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
            };
            let expected = names(first);
            if expected.is_empty() {
                eprintln!(
                    "perfsnap --check: {out_path}: `{suite}@{}` lacks its phase_ms \
                     breakdown — regenerate the snapshot with this perfsnap",
                    first.threads
                );
                return ExitCode::FAILURE;
            }
            if let Some(odd) = rows.iter().find(|r| names(r) != expected) {
                eprintln!(
                    "perfsnap --check: {out_path}: `{suite}@{}` phases {:?} differ from \
                     `{suite}@{}`'s {:?}",
                    odd.threads,
                    names(odd),
                    first.threads,
                    expected
                );
                return ExitCode::FAILURE;
            }
        }
        // Scaling report, not a gate: the @8/@1 wall ratio says whether the
        // extra threads paid on the snapshot host. A ratio near 1.0 is the
        // honest answer on a single-core machine, so CI never hard-fails on
        // it — regressions show up as the ratio drifting above 1.0.
        if let (Some(serial), Some(wide)) = (snapshot.row(suite, 1), snapshot.row(suite, 8)) {
            let ratio = wide.wall_ms / serial.wall_ms.max(1e-9);
            let verdict = if ratio <= 1.0 { "scales" } else { "overhead" };
            println!(
                "perfsnap --check: {suite}: @8/@1 wall ratio {ratio:.3} \
                 ({:.2} ms / {:.2} ms) — {verdict}",
                wide.wall_ms, serial.wall_ms
            );
        }
    }
    let faults_text = match std::fs::read_to_string(faults_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfsnap --check: cannot read {faults_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The fault sweep's schema varies per system (failed systems carry
    // `*_failed` strings instead of `*_sim_ns`), so the generic parser —
    // which still rejects duplicate keys — does the JSON-level checking,
    // and the axis coverage is validated on top: every system row must
    // answer every sweep axis one way or the other.
    let faults_doc = match baseline::parse(&faults_text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfsnap --check: {faults_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline::Value::Obj(systems) = &faults_doc else {
        eprintln!("perfsnap --check: {faults_path}: root must be an object of system rows");
        return ExitCode::FAILURE;
    };
    if systems.is_empty() {
        eprintln!("perfsnap --check: {faults_path} holds no system rows");
        return ExitCode::FAILURE;
    }
    for (system, row) in systems {
        for axis in ["none", "light", "heavy", "heavy_ckpt2", "heavy_ckpt1"] {
            let answered = row.get(&format!("{axis}_sim_ns")).is_some()
                || row.get(&format!("{axis}_failed")).is_some();
            if !answered {
                eprintln!(
                    "perfsnap --check: {faults_path}: `{system}` lacks both \
                     `{axis}_sim_ns` and `{axis}_failed` — sweep axis missing"
                );
                return ExitCode::FAILURE;
            }
        }
        if row.get("heavy_sim_ns").is_some()
            && (row.get("heavy_recovery_events").is_none() || row.get("heavy_wasted_ns").is_none())
        {
            eprintln!(
                "perfsnap --check: {faults_path}: `{system}` survived the heavy plan but \
                 lacks its recovery-ledger summary fields"
            );
            return ExitCode::FAILURE;
        }
    }
    println!(
        "perfsnap --check: {out_path} ({} rows) and {faults_path} parse cleanly",
        snapshot.rows.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_baseline.json");
    let mut faults_path = String::from("BENCH_faults.json");
    let mut extra_budget: Option<usize> = None;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => return usage("--out needs a path"),
            },
            "--faults-out" => match args.next() {
                Some(p) => faults_path = p,
                None => return usage("--faults-out needs a path"),
            },
            "--threads" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => extra_budget = Some(n),
                _ => return usage("--threads needs a positive integer"),
            },
            "--check" => check = true,
            "--help" | "-h" => {
                println!(
                    "perfsnap — wall-clock snapshot of the hot suites\n\n\
                     USAGE: perfsnap [--out PATH] [--faults-out PATH] [--threads N] [--check]\n\n\
                     Runs local_join / data_gen / systems_e2e at 1, 4 and 8 threads\n\
                     (plus N if --threads is given), checks the simulated numbers\n\
                     are thread-count independent, and writes\n\
                     {{suite@threads: {{wall_ms, sim_ns, threads, phase_ms}}}} to PATH\n\
                     (default BENCH_baseline.json). Then runs the per-system\n\
                     none/light/heavy fault sweep and writes its simulated\n\
                     makespans to the faults path (default BENCH_faults.json).\n\n\
                     --check re-parses both checked-in files (rejecting duplicate\n\
                     keys, schema drift, and rows missing their phase_ms\n\
                     breakdown) and reports — without failing on — each suite's\n\
                     @8/@1 wall ratio, all without timing anything."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if check {
        return check_snapshots(&out_path, &faults_path);
    }

    let mut budgets: Vec<usize> = BUDGETS.to_vec();
    if let Some(n) = extra_budget {
        budgets.push(n);
    }
    budgets.sort_unstable();
    budgets.dedup();

    type Suite = (&'static str, fn() -> SuiteRun);
    let suites: [Suite; 3] = [
        ("local_join", run_local_join),
        ("data_gen", run_data_gen),
        ("systems_e2e", run_systems_e2e),
    ];

    // Warm-up pass: fills the dataset cache and faults in code/data so the
    // timed passes below measure compute, not first-touch costs.
    sjc_par::set_global_threads(1);
    for (_, run) in suites {
        black_box(run());
    }
    sjc_par::set_global_threads(0);

    let mut snaps: Vec<Snap> = Vec::new();
    println!(
        "{:<14} {:>8} {:>12} {:>16} {:>9}",
        "suite", "threads", "wall_ms", "sim_ns", "speedup"
    );
    for (suite, run) in suites {
        let mut serial_wall: Option<f64> = None;
        let mut serial_sim: Option<u64> = None;
        for snap in measure_ladder(suite, &budgets, run) {
            let serial = *serial_wall.get_or_insert(snap.wall_ms);
            match serial_sim {
                None => serial_sim = Some(snap.sim_ns),
                Some(expected) if expected != snap.sim_ns => {
                    eprintln!(
                        "perfsnap: {suite}: simulated time depends on the thread budget \
                         ({expected} ns at {} thread(s) vs {} ns at {}) — \
                         determinism violation",
                        budgets.first().copied().unwrap_or(1),
                        snap.sim_ns,
                        snap.threads
                    );
                    return ExitCode::FAILURE;
                }
                Some(_) => {}
            }
            let speedup = serial / snap.wall_ms.max(1e-9);
            println!(
                "{:<14} {:>8} {:>12.2} {:>16} {:>9}",
                snap.suite,
                snap.threads,
                snap.wall_ms,
                snap.sim_ns,
                if snap.threads == budgets.first().copied().unwrap_or(1) {
                    "-".to_string()
                } else {
                    format!("{speedup:.2}x")
                }
            );
            snaps.push(snap);
        }
    }

    let fields: Vec<(String, Json)> = snaps
        .iter()
        .map(|s| {
            let phases: Vec<(String, Json)> = s
                .phase_ms
                .iter()
                .map(|(name, ms)| (name.to_string(), Json::Float((ms * 100.0).round() / 100.0)))
                .collect();
            (
                format!("{}@{}", s.suite, s.threads),
                Json::obj(vec![
                    ("wall_ms", Json::Float((s.wall_ms * 100.0).round() / 100.0)),
                    ("sim_ns", Json::Int(s.sim_ns)),
                    ("threads", Json::Int(s.threads as u64)),
                    ("phase_ms", Json::Obj(phases)),
                ]),
            )
        })
        .collect();
    let json = Json::Obj(fields);
    if let Err(e) = std::fs::write(&out_path, json.to_string_pretty() + "\n") {
        eprintln!("perfsnap: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("perfsnap: wrote {out_path}");

    let faults = run_fault_sweep();
    if let Err(e) = std::fs::write(&faults_path, faults.to_string_pretty() + "\n") {
        eprintln!("perfsnap: cannot write {faults_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("perfsnap: wrote {faults_path}");
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfsnap: {msg} (see --help)");
    ExitCode::from(2)
}
