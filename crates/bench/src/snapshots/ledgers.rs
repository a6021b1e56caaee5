//! Every engine's simulated ledger, stage by stage.
//!
//! `BENCH_baseline.json` pins one summed `sim_ns` and `BENCH_faults.json`
//! one total per fault plan; neither would notice a byte moving between two
//! stages, or an error reporting a different group's payload. The two
//! ledgers here render every stage, error payload, recovery event and
//! result-pair hash:
//!
//! * [`hadoopgis`] (`tests/fixtures/hadoopgis_ledger.txt`): every HadoopGIS
//!   number is charged from the *length* of a text line (`pipe_ns`,
//!   `parse_ns`, `streaming_pipe_limit`), so this is what holds an edit of
//!   the text path to its parent. The inputs are the benchmark's HadoopGIS
//!   cells (`pip_1t`: taxi × nycb at 4e-4; `sampled_ws_1t`: the two sampled
//!   pairs) at its default seed. A record set's TSV line lengths are built
//!   on the first HadoopGIS run that reads them and reused by every later
//!   run on any holder of the set, a prepared input and the cached dataset
//!   included. So each derivation builds its inputs over fresh record sets
//!   and derives the ledger twice on them, cold then warm, and both must
//!   agree, whatever ran on the cached datasets before.
//! * [`engines`] (`tests/fixtures/engine_ledger.txt`): SpatialHadoop,
//!   SpatialSpark and LDE-MC+ for every configuration the ablations flip,
//!   each stage's full `StageTrace` (name, kind, phase, `sim_ns`, bytes,
//!   tasks, recovery accounting).
//!
//! A run that ends differently than the section expects writes its outcome
//! into the text, where the comparison with the checked-in file shows it.

use std::fmt::Write as _;

use sjc_cluster::{Cluster, ClusterConfig, FaultPlan, SimError};
use sjc_core::common::{LocalJoinAlgo, PartitionerKind};
use sjc_core::experiment::Workload;
use sjc_core::framework::{DistributedSpatialJoin, JoinInput, JoinOutput, JoinPredicate};
use sjc_core::hadoopgis::HadoopGis;
use sjc_core::lde::LdeEngine;
use sjc_core::spatialhadoop::SpatialHadoop;
use sjc_core::spatialspark::SpatialSpark;
use sjc_geom::EngineKind;

use super::{first_difference, SEED};
use crate::cold_copy;

/// FNV-1a over the sorted pairs' little-endian bytes.
fn pair_hash(pairs: &[(u64, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in pairs.iter().flat_map(|&(a, b)| [a, b]) {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// HadoopGIS's ledger, derived cold and then warm on the same inputs; an
/// `Err` names the first line where the two disagree, or an input whose
/// line lengths were built before the cold derivation.
pub fn hadoopgis() -> Result<String, String> {
    let inputs = Inputs::prepare();
    if let Some(warm) = inputs.all().find(|i| i.records.tsv_lines().is_some()) {
        return Err(format!("{}'s line lengths are built before the cold derivation", warm.name));
    }
    let cold = hadoopgis_ledger(&inputs);
    let warm = hadoopgis_ledger(&inputs);
    match first_difference(&warm, &cold) {
        None => Ok(cold),
        Some(diff) => Err(format!("the warm derivation differs from the cold one: {diff}")),
    }
}

/// The input pairs of HadoopGIS's sections, over record sets of their own
/// whose line lengths no run has built yet, kept across the two ledger
/// derivations so the second one reads warm lengths.
struct Inputs {
    stage: Vec<(&'static str, f64, JoinInput, JoinInput)>,
    full: (JoinInput, JoinInput),
    faulted: (JoinInput, JoinInput),
}

impl Inputs {
    fn prepare() -> Inputs {
        let cold = |w: Workload, scale: f64| {
            let (l, r) = w.prepare(scale, SEED);
            (cold_copy(&l), cold_copy(&r))
        };
        let stage = [(Workload::taxi1m_nycb(), 2e-3), (Workload::edge01_linearwater01(), 6e-4)]
            .into_iter()
            .map(|(w, scale)| {
                let name = w.name;
                let (l, r) = cold(w, scale);
                (name, scale, l, r)
            })
            .collect();
        Inputs {
            stage,
            full: cold(Workload::taxi_nycb(), 4e-4),
            faulted: cold(Workload::taxi1m_nycb(), 1e-4),
        }
    }

    fn all(&self) -> impl Iterator<Item = &JoinInput> {
        let pairs = self.stage.iter().map(|(_, _, l, r)| (l, r));
        let pairs = pairs.chain([(&self.full.0, &self.full.1), (&self.faulted.0, &self.faulted.1)]);
        pairs.flat_map(|(l, r)| [l, r])
    }
}

/// HadoopGIS's join of `l` and `r` on `cluster`.
fn gis(cluster: Cluster, (l, r): (&JoinInput, &JoinInput)) -> Result<JoinOutput, SimError> {
    HadoopGis::default().run(&cluster, l, r, JoinPredicate::Intersects)
}

/// A faulted cell's inputs: multiplier-1 clones, as the benchmark's faulted
/// cells use (they share the originals' text).
fn at_multiplier_one((l, r): &(JoinInput, JoinInput)) -> (JoinInput, JoinInput) {
    let (mut l, mut r) = (l.clone(), r.clone());
    l.multiplier = 1.0;
    r.multiplier = 1.0;
    (l, r)
}

/// (a) Successful runs on the workstation: every stage's simulated numbers
/// and the result set.
fn stage_ledgers(inputs: &Inputs, out: &mut String) {
    for (name, scale, l, r) in &inputs.stage {
        writeln!(out, "## {name} @ {scale:e} on WS").unwrap();
        let run = match gis(Cluster::new(ClusterConfig::workstation()), (l, r)) {
            Ok(run) => run,
            Err(e) => {
                writeln!(out, "{e:?}").unwrap();
                continue;
            }
        };
        writeln!(out, "# name | sim_ns pipe shuffle hdfs_read hdfs_written tasks").unwrap();
        for s in &run.trace.stages {
            let (read, written) = (s.hdfs_bytes_read, s.hdfs_bytes_written);
            let (name, sim_ns, pipe, shuffle, tasks) =
                (&s.name, s.sim_ns, s.pipe_bytes, s.shuffle_bytes, s.tasks);
            writeln!(out, "{name} | {sim_ns} {pipe} {shuffle} {read} {written} {tasks}").unwrap();
        }
        write_pairs(out, run);
    }
}

/// (b) Full-dataset runs: the exact error, payload included — group order
/// decides which group's payload is reported.
fn broken_pipes(inputs: &Inputs, out: &mut String) {
    let (l, r) = &inputs.full;
    for cfg in [ClusterConfig::workstation(), ClusterConfig::ec2(10)] {
        writeln!(out, "## taxi-nycb @ 4e-4 on {}", cfg.name).unwrap();
        match gis(Cluster::new(cfg), (l, r)) {
            Err(err) => writeln!(out, "{err:?}").unwrap(),
            Ok(o) => writeln!(out, "completed with {} pairs", o.pairs.len()).unwrap(),
        }
    }
}

/// (c) A faulted, checkpointed run at multiplier 1: recovery accounting per
/// stage and the recovery ledger itself.
fn faulted_run(inputs: &Inputs, out: &mut String) {
    let (l, r) = at_multiplier_one(&inputs.faulted);
    let cfg = ClusterConfig::ec2(8);
    let plan = FaultPlan::heavy(7, &cfg).with_checkpoints(2, 3);
    writeln!(out, "## taxi1m-nycb @ 1e-4 x1 on EC2-8, heavy(7) + checkpoints(2, 3)").unwrap();
    let run = match gis(Cluster::with_faults(cfg, plan), (&l, &r)) {
        Ok(run) => run,
        Err(e) => return writeln!(out, "{e:?}").unwrap(),
    };
    writeln!(out, "total_sim_ns {}", run.trace.total_ns()).unwrap();
    writeln!(out, "# name | attempts wasted_ns").unwrap();
    for s in &run.trace.stages {
        writeln!(out, "{} | {} {}", s.name, s.attempts, s.wasted_ns).unwrap();
    }
    for e in &run.trace.recovery {
        writeln!(out, "{e:?}").unwrap();
    }
}

/// (d) A crash-only, checkpointed run on the same inputs: node 2 crashes at
/// 18/40 of the fault-free `total_ns`, inside a MapReduce job whose
/// recovery restores from a checkpoint. Every stage and every event.
fn crash_run(inputs: &Inputs, out: &mut String) {
    let (l, r) = at_multiplier_one(&inputs.faulted);
    let cfg = ClusterConfig::ec2(8);
    let base = match gis(Cluster::new(cfg.clone()), (&l, &r)) {
        Ok(run) => run.trace.total_ns(),
        Err(e) => return writeln!(out, "fault-free base run: {e:?}").unwrap(),
    };
    let plan = FaultPlan::seeded(7, &cfg).crash_at(2, base * 18 / 40).with_checkpoints(2, 3);
    let at = "seeded(7) crash_at(2, 18/40) + checkpoints(2, 3)";
    writeln!(out, "## taxi1m-nycb @ 1e-4 x1 on EC2-8, {at}").unwrap();
    let run = gis(Cluster::with_faults(cfg, plan), (&l, &r));
    if let Ok(run) = &run {
        writeln!(out, "total_sim_ns {}", run.trace.total_ns()).unwrap();
    }
    write_outcome(out, run);
}

fn hadoopgis_ledger(inputs: &Inputs) -> String {
    let mut out = String::new();
    stage_ledgers(inputs, &mut out);
    broken_pipes(inputs, &mut out);
    faulted_run(inputs, &mut out);
    crash_run(inputs, &mut out);
    out
}

type System = (&'static str, Box<dyn DistributedSpatialJoin>);

/// LDE with another local-join kernel.
fn lde(mut sys: LdeEngine, local_algo: LocalJoinAlgo) -> LdeEngine {
    sys.local_algo = local_algo;
    sys
}

/// Every configuration the ablations and the paper's tables run, by label.
fn systems() -> Vec<System> {
    let sh = SpatialHadoop::default;
    let ss = SpatialSpark::default;
    vec![
        ("SpatialHadoop", Box::new(sh())),
        (
            "SpatialHadoop reuse_partitions",
            Box::new(SpatialHadoop { reuse_partitions: true, ..sh() }),
        ),
        (
            "SpatialHadoop FixedGrid",
            Box::new(SpatialHadoop { partitioner: PartitionerKind::FixedGrid, ..sh() }),
        ),
        (
            "SpatialHadoop StrTiles",
            Box::new(SpatialHadoop { partitioner: PartitionerKind::StrTiles, ..sh() }),
        ),
        (
            "SpatialHadoop Bsp",
            Box::new(SpatialHadoop { partitioner: PartitionerKind::Bsp, ..sh() }),
        ),
        ("SpatialHadoop GEOS", Box::new(SpatialHadoop { engine: EngineKind::Geos, ..sh() })),
        (
            "SpatialHadoop SyncRTree",
            Box::new(SpatialHadoop { local_algo: LocalJoinAlgo::SyncRTree, ..sh() }),
        ),
        (
            "SpatialHadoop IndexedNestedLoop",
            Box::new(SpatialHadoop { local_algo: LocalJoinAlgo::IndexedNestedLoop, ..sh() }),
        ),
        ("SpatialSpark", Box::new(ss())),
        ("SpatialSpark broadcast", Box::new(SpatialSpark { broadcast_join: true, ..ss() })),
        ("SpatialSpark 32 partitions", Box::new(SpatialSpark { partitions: 32, ..ss() })),
        ("SpatialSpark 2048 partitions", Box::new(SpatialSpark { partitions: 2048, ..ss() })),
        ("LDE-MC+", Box::new(LdeEngine::default())),
        ("LDE-MC+ PlaneSweep", Box::new(lde(LdeEngine::default(), LocalJoinAlgo::PlaneSweep))),
    ]
}

/// The configurations of [`systems`] whose label is in `labels`.
fn only(labels: &[&str]) -> Vec<System> {
    systems().into_iter().filter(|(label, _)| labels.contains(label)).collect()
}

/// One run's ledger: every stage and recovery event, then the pair set — or
/// the exact error.
fn run_ledger(
    out: &mut String,
    (label, sys): &System,
    cluster: &Cluster,
    (l, r): (&JoinInput, &JoinInput),
    predicate: JoinPredicate,
) {
    writeln!(out, "### {label}").unwrap();
    write_outcome(out, sys.run(cluster, l, r, predicate));
}

/// Every stage and recovery event of a run, then its pair set — or the
/// exact error.
fn write_outcome(out: &mut String, run: Result<JoinOutput, SimError>) {
    match run {
        Ok(run) => {
            for s in &run.trace.stages {
                writeln!(out, "{s:?}").unwrap();
            }
            for e in &run.trace.recovery {
                writeln!(out, "{e:?}").unwrap();
            }
            write_pairs(out, run);
        }
        Err(e) => writeln!(out, "{e:?}").unwrap(),
    }
}

/// The sorted result pairs' count and FNV-1a hash.
fn write_pairs(out: &mut String, run: JoinOutput) {
    let pairs = run.sorted_pairs();
    writeln!(out, "pairs {} fnv1a {:016x}", pairs.len(), pair_hash(&pairs)).unwrap();
}

/// (a) Every configuration on both of Table 3's workloads, on the
/// workstation and on EC2-10.
fn configurations(out: &mut String) {
    for (w, scale) in [(Workload::taxi1m_nycb(), 1e-3), (Workload::edge01_linearwater01(), 3e-4)] {
        let (l, r) = w.prepare(scale, SEED);
        for cfg in [ClusterConfig::workstation(), ClusterConfig::ec2(10)] {
            writeln!(out, "## {} @ {scale:e} on {}", w.name, cfg.name).unwrap();
            let cluster = Cluster::new(cfg);
            for sys in &systems() {
                run_ledger(out, sys, &cluster, (&l, &r), JoinPredicate::Intersects);
            }
        }
    }
}

/// (b) Full-dataset runs where SpatialSpark runs out of memory: the exact
/// error payload.
fn failures(out: &mut String) {
    let (l, r) = Workload::taxi_nycb().prepare(4e-4, SEED);
    for cfg in [ClusterConfig::ec2(8), ClusterConfig::ec2(6)] {
        writeln!(out, "## taxi-nycb @ 4e-4 on {}", cfg.name).unwrap();
        let cluster = Cluster::new(cfg);
        for sys in &only(&["SpatialSpark", "SpatialSpark broadcast"]) {
            run_ledger(out, sys, &cluster, (&l, &r), JoinPredicate::Intersects);
        }
    }
}

/// (c) Heavy-fault runs: recovery accounting per stage and the ledger.
fn faulted_runs(out: &mut String) {
    let (l, r) = at_multiplier_one(&Workload::taxi1m_nycb().prepare(1e-4, SEED));
    let cfg = ClusterConfig::ec2(8);
    let plan = FaultPlan::heavy(7, &cfg);
    writeln!(out, "## taxi1m-nycb @ 1e-4 x1 on EC2-8, heavy(7)").unwrap();
    let cluster = Cluster::with_faults(cfg, plan);
    for sys in &only(&["SpatialHadoop", "SpatialSpark"]) {
        run_ledger(out, sys, &cluster, (&l, &r), JoinPredicate::Intersects);
    }
}

/// (d) Crash-only runs on EC2-8: node 2 crashes at `k/40` of the system's
/// fault-free `total_ns`, with and without checkpoints. These reach the
/// crash-recovery paths the heavy plan never fires: a Hadoop job's
/// `CheckpointRestore`, Spark's `StageResubmit` and a lineage recompute
/// truncated at a checkpoint.
fn crash_runs(out: &mut String) {
    let (l, r) = at_multiplier_one(&Workload::taxi1m_nycb().prepare(1e-4, SEED));
    let cfg = ClusterConfig::ec2(8);
    for (label, k, checkpoints) in [
        ("SpatialHadoop", 39, false),
        ("SpatialHadoop", 31, true),
        ("SpatialSpark", 22, true),
        ("SpatialSpark", 30, false),
    ] {
        for sys in &only(&[label]) {
            let base = sys.1.run(&Cluster::new(cfg.clone()), &l, &r, JoinPredicate::Intersects);
            let base = match base {
                Ok(run) => run.trace.total_ns(),
                Err(e) => {
                    writeln!(out, "### {label} fault-free base run: {e:?}").unwrap();
                    continue;
                }
            };
            let mut plan = FaultPlan::seeded(7, &cfg).crash_at(2, base * k / 40);
            let mut name = format!("crash_at(2, {k}/40)");
            if checkpoints {
                plan = plan.with_checkpoints(2, 3);
                name.push_str(" + checkpoints(2, 3)");
            }
            writeln!(out, "## taxi1m-nycb @ 1e-4 x1 on EC2-8, seeded(7) {name}").unwrap();
            let cluster = Cluster::with_faults(cfg.clone(), plan);
            run_ledger(out, sys, &cluster, (&l, &r), JoinPredicate::Intersects);
        }
    }
}

/// SpatialHadoop's, SpatialSpark's and LDE's ledger.
pub fn engines() -> Result<String, String> {
    let mut out = String::new();
    configurations(&mut out);
    failures(&mut out);
    faulted_runs(&mut out);
    crash_runs(&mut out);
    Ok(out)
}
