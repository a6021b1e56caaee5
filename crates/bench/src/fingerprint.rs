//! The two simulated-time fingerprints tier-1 pins.
//!
//! Host time is measured only by `benchmark/`. Simulated time is pinned by
//! re-deriving the two values below and comparing them with the checked-in
//! `BENCH_baseline.json` and `BENCH_faults.json` (`tests/perf_baseline.rs`);
//! `perfsnap` writes those files from the same two functions. Both are pure
//! functions of the cost model — no clock, no thread budget, no host — so
//! regenerating either file on any machine is byte-identical unless the
//! cost model changed.

use sjc_cluster::{Cluster, ClusterConfig, FaultPlan, RunTrace, SimError};
use sjc_core::experiment::{ExperimentGrid, SystemKind, Workload};
use sjc_core::framework::JoinPredicate;
use sjc_core::json::Json;

/// The exact text of a fingerprint's checked-in file: what `perfsnap` writes
/// and what tier-1 compares a re-derived fingerprint with.
pub fn file_text(json: &Json) -> String {
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
pub fn systems_e2e() -> Json {
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

/// The runs behind [`fault_sweep`]: each system's join on EC2-8 under the
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
pub fn fault_sweep() -> Json {
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
