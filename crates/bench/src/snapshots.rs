//! Every simulated output the repo checks in: one list, one check, one bless.
//!
//! [`SNAPSHOTS`] pairs each checked-in file with the function that renders
//! it: the two fingerprints `BENCH_baseline.json` and `BENCH_faults.json`
//! (below), the engine ledgers ([`ledgers`]), `reproduce`'s text and JSON,
//! the examples' stdout and the benchmark's `sim_ns_sum` per workload.
//! Everything in them is simulated — no clock, no thread budget, no host —
//! so a render is byte-identical on any machine unless the cost model or
//! what a report prints changed.
//!
//! * **Check.** Tier-1 re-derives every member that has
//!   [`Snapshot::budgets`] in its own process, at each of them, and names
//!   every file that moved with its first differing line: the engine
//!   ledgers in `tests/engine_ledger.rs` and `tests/hadoopgis_ledger.rs`,
//!   the `BENCH_*.json` in `tests/perf_baseline.rs`, the rest in
//!   `tests/snapshots.rs`. CI diffs the
//!   others, the outputs of separate binaries, at one and two threads.
//! * **Bless.** `perfsnap` renders every member and writes it. A non-empty
//!   `git diff` afterwards is exactly the simulated output that moved.
//!
//! Host time is measured only by `benchmark/`.

use std::fmt::Write as _;
use std::process::Command;

use sjc_cluster::{Cluster, ClusterConfig, FaultPlan, RunTrace, SimError};
use sjc_core::experiment::{ExperimentGrid, SystemKind, Workload};
use sjc_core::framework::JoinPredicate;
use sjc_core::json::Json;

use crate::baseline::{self, Value};

pub mod ledgers;

/// One independent piece of a snapshot's work: its fragment of each file,
/// in [`Snapshot::paths`] order, or why it cannot be rendered.
pub type Piece = Box<dyn FnOnce() -> Result<Vec<String>, String> + Send>;

/// Checked-in outputs of one run, and how to render them.
pub struct Snapshot {
    /// The files, relative to the repo root: one for most runs, two for a
    /// `reproduce --json` run (its text and its payload).
    pub paths: &'static [&'static str],
    /// The host thread budgets tier-1 re-derives the files at. Empty for
    /// the output of another binary (an example, the benchmark), which
    /// `perfsnap` runs and CI diffs.
    pub budgets: &'static [usize],
    render: Render,
}

enum Render {
    /// One piece: the file's whole text.
    Whole(fn() -> Result<String, String>),
    /// `reproduce all --scale S`, one piece per report; a second path takes
    /// its `--json` payload.
    Reproduce(f64),
}

impl Snapshot {
    const fn whole(
        paths: &'static [&'static str],
        budgets: &'static [usize],
        render: fn() -> Result<String, String>,
    ) -> Snapshot {
        Snapshot { paths, budgets, render: Render::Whole(render) }
    }

    /// The pieces whose fragments, concatenated in order, are the files.
    /// They share no work, so a check may render them concurrently.
    pub fn pieces(&self) -> Vec<Piece> {
        let json = self.paths.len() > 1;
        match self.render {
            Render::Whole(render) => vec![Box::new(move || render().map(|text| vec![text]))],
            Render::Reproduce(scale) => crate::report_works("all", scale, SEED)
                .into_iter()
                .map(|work| -> Piece {
                    Box::new(move || {
                        let (text, payload) = work();
                        let payload = payload.map(|p| p.to_string_pretty()).unwrap_or_default();
                        Ok(if json { vec![text, payload] } else { vec![text] })
                    })
                })
                .collect(),
        }
    }

    /// Each file's exact text, in `paths` order: every piece rendered in
    /// order.
    pub fn render(&self) -> Result<Vec<String>, String> {
        self.assemble(self.pieces().into_iter().map(|piece| piece()))
    }

    /// Each file's exact text from its pieces' fragments, in piece order.
    pub fn assemble(
        &self,
        fragments: impl IntoIterator<Item = Result<Vec<String>, String>>,
    ) -> Result<Vec<String>, String> {
        let mut files = vec![String::new(); self.paths.len()];
        for fragment in fragments {
            for (file, part) in files.iter_mut().zip(fragment?) {
                file.push_str(&part);
            }
        }
        Ok(files)
    }
}

/// The directory of every snapshot file except the two `BENCH_*.json` at
/// the repo root (`benchmark/README.md` names those).
pub const DIR: &str = "tests/fixtures";

/// The thread budgets of an in-process snapshot, and of none.
const TIER1: &[usize] = &[1, 4];
const BINARY: &[usize] = &[];

/// Every snapshot, the slowest to derive first.
pub const SNAPSHOTS: &[Snapshot] = &[
    Snapshot {
        paths: &["tests/fixtures/reproduce_all_1e-3.txt", "tests/fixtures/reproduce_1e-3.json"],
        budgets: TIER1,
        render: Render::Reproduce(1e-3),
    },
    Snapshot::whole(&["tests/fixtures/engine_ledger.txt"], TIER1, ledgers::engines),
    Snapshot {
        paths: &["tests/fixtures/reproduce_all_1e-4.txt"],
        budgets: TIER1,
        render: Render::Reproduce(1e-4),
    },
    Snapshot::whole(&["tests/fixtures/hadoopgis_ledger.txt"], TIER1, ledgers::hadoopgis),
    Snapshot::whole(&["BENCH_baseline.json"], &[1, 4, 8], || Ok(file_text(&systems_e2e()))),
    Snapshot::whole(&["BENCH_faults.json"], &[1, 4, 8], || Ok(file_text(&fault_sweep()))),
    Snapshot::whole(&["tests/fixtures/example_quickstart.txt"], BINARY, || example("quickstart")),
    Snapshot::whole(&["tests/fixtures/example_road_water.txt"], BINARY, || example("road_water")),
    Snapshot::whole(&["tests/fixtures/example_taxi_zones.txt"], BINARY, || example("taxi_zones")),
    Snapshot::whole(&["tests/fixtures/example_cluster_sizing.txt"], BINARY, || {
        example("cluster_sizing")
    }),
    Snapshot::whole(&["tests/fixtures/example_design_ablation.txt"], BINARY, || {
        example("design_ablation")
    }),
    Snapshot::whole(&["tests/fixtures/example_fault_tolerance.txt"], BINARY, || {
        example("fault_tolerance")
    }),
    Snapshot::whole(&["tests/fixtures/benchmark_sim_ns_sum.txt"], BINARY, benchmark_sums),
];

/// Where `derived` first departs from `checked_in`: the line number and
/// both versions of that line, or `None` when the two are byte-identical.
pub fn first_difference(derived: &str, checked_in: &str) -> Option<String> {
    if derived == checked_in {
        return None;
    }
    let (mut got, mut want) = (derived.split_inclusive('\n'), checked_in.split_inclusive('\n'));
    let mut line = 1;
    loop {
        let (g, w) = (got.next(), want.next());
        if g != w {
            let show = |l: Option<&str>| l.map_or("end of file".to_string(), |l| format!("{l:?}"));
            return Some(format!("line {line}: derived {}, checked in {}", show(g), show(w)));
        }
        line += 1;
    }
}

/// The stdout of `cargo ARGS` (whitespace-separated), run in the current
/// directory.
fn cargo(args: &str) -> Result<String, String> {
    let out = Command::new("cargo").args(args.split_whitespace()).output();
    let out = out.map_err(|e| format!("cannot start `cargo {args}`: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("`cargo {args}` failed ({}): {stderr}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("`cargo {args}`: {e}"))
}

/// An example's stdout, as CI runs it.
fn example(name: &str) -> Result<String, String> {
    cargo(&format!("run -q --release --example {name}"))
}

/// `workload=sim_ns_sum` for every workload `BENCHMARK.json` declares, each
/// run once as CI runs it (`--seconds 1 --trace 0` at the default seed).
fn benchmark_sums() -> Result<String, String> {
    let decl = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
    let decl = baseline::parse(&decl).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Arr(workloads)) = decl.get("workloads") else {
        return Err("BENCHMARK.json declares no workloads".to_string());
    };
    let mut text = String::new();
    for name in workloads.iter().filter_map(|w| w.get("name")) {
        let Value::Str(name) = name else { return Err(format!("workload name {name:?}")) };
        let out = cargo(&format!(
            "run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
             --workload {name} --seed {SEED} --seconds 1 --trace 0"
        ))?;
        let sum = out.split("\"sim_ns_sum\": ").nth(1).unwrap_or_default();
        let sum: String = sum.chars().take_while(char::is_ascii_digit).collect();
        if sum.is_empty() {
            return Err(format!("benchmark workload {name} printed no sim_ns_sum"));
        }
        let _ = writeln!(text, "{name}={sum}");
    }
    Ok(text)
}

/// The exact text of a fingerprint's checked-in file.
fn file_text(json: &Json) -> String {
    json.to_string_pretty() + "\n"
}

/// Experiment scale and seed of both fingerprints: small enough for a test,
/// large enough that every Table-2 cell does real partition and join work.
const SCALE: f64 = 1e-4;
const SEED: u64 = 20150701;

/// `BENCH_baseline.json`: the summed simulated nanoseconds of every
/// successful cell of the full Table-2 grid, with the scale and seed that
/// produced it. The grid runs through `FaultPlan::none()`, so this also pins
/// the fault subsystem's zero-fault path as the identity.
fn systems_e2e() -> Json {
    let grid = ExperimentGrid { scale: SCALE, seed: SEED };
    let sim_ns: u64 = grid
        .table2()
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok())
        .map(|s| s.trace.total_ns())
        .sum();
    let row = vec![
        ("scale", Json::Float(SCALE)),
        ("seed", Json::Int(SEED)),
        ("sim_ns", Json::Int(sim_ns)),
    ];
    Json::obj(vec![("systems_e2e", Json::obj(row))])
}

/// Provisioning-delay base for the sweep's checkpoint axis: 4 s spins a
/// replacement up within even the Spark system's ~10 s faulted run, so the
/// axis exercises elastic re-scheduling for every system (the 30 s default
/// models EC2 instance launch and lands after the short runs finish).
const SWEEP_PROVISION_NS: u64 = 4_000_000_000;

/// One system's runs of the fault sweep: its paper name and, per axis label,
/// the run's trace or the error that ended it.
pub type SweepRuns = (&'static str, Vec<(&'static str, Result<RunTrace, SimError>)>);

/// The runs behind `BENCH_faults.json`: each system's join on EC2-8 under the
/// none / light / heavy fault presets, heavy plus a node crash at 40% of
/// that system's own fault-free runtime (mirroring
/// `examples/fault_tolerance.rs`), then the heavy plan again with durable
/// checkpoints every 2 waves / every wave plus elastic replacement
/// provisioning. Each system works once; its ledger is priced under every
/// plan (a fault plan moves no capacity check, so the fault-free cluster is
/// the whole `stop`). Inputs stay at multiplier 1 so HadoopGIS survives —
/// its full-scale pipe break is Table 2's story, not a fault outcome.
pub fn fault_sweep_runs() -> Vec<SweepRuns> {
    let (mut left, mut right) = Workload::taxi1m_nycb().prepare(SCALE, SEED);
    left.multiplier = 1.0;
    right.multiplier = 1.0;
    let config = ClusterConfig::ec2(8);
    let on = |plan: FaultPlan| Cluster::with_faults(config.clone(), plan);
    let fault_free = [on(FaultPlan::none())];
    SystemKind::all()
        .into_iter()
        .map(|sys| {
            let ledger = sys.instance().work(&left, &right, JoinPredicate::Intersects, &fault_free);
            let run = |plan: FaultPlan| ledger.price(&on(plan));
            let base = run(FaultPlan::none()).map(|t| t.total_ns()).unwrap_or(0);
            let heavy = || FaultPlan::heavy(7, &config).crash_at(2, base * 2 / 5);
            let ckpt = |interval| {
                heavy().with_checkpoints(interval, 3).with_elastic_provisioning(SWEEP_PROVISION_NS)
            };
            let plans = [
                ("none", FaultPlan::none()),
                ("light", FaultPlan::light(7, &config)),
                ("heavy", heavy()),
                ("heavy_ckpt2", ckpt(2)),
                ("heavy_ckpt1", ckpt(1)),
            ];
            (sys.paper_name(), plans.map(|(label, plan)| (label, run(plan))).into())
        })
        .collect()
}

/// `BENCH_faults.json`: per system and sweep axis the simulated makespan
/// (or the failure kind), plus the heavy plan's recovery-ledger summary.
fn fault_sweep() -> Json {
    let rows = fault_sweep_runs().into_iter().map(|(system, runs)| {
        let mut fields: Vec<(String, Json)> = Vec::new();
        for (label, run) in runs {
            match run {
                Ok(trace) => {
                    fields.push((format!("{label}_sim_ns"), Json::Int(trace.total_ns())));
                    if label == "heavy" {
                        let wasted: u64 = trace.recovery.iter().map(|e| e.wasted_ns).sum();
                        fields.push((
                            "heavy_recovery_events".to_string(),
                            Json::Int(trace.recovery.len() as u64),
                        ));
                        fields.push(("heavy_wasted_ns".to_string(), Json::Int(wasted)));
                    }
                }
                Err(e) => fields.push((format!("{label}_failed"), Json::Str(e.kind().to_string()))),
            }
        }
        (system.to_string(), Json::Obj(fields))
    });
    Json::Obj(rows.collect())
}
