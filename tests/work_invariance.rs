//! The work a system does never depends on the cluster it is priced on.
//!
//! The paper's Tables 2 and 3 hold each design fixed and vary only the
//! hardware. For every system, each of the four experiment workloads at the
//! `tables_small_mt` scale (full-scale multipliers, multiplier 1, and
//! multiplier 1 under a heavy fault plan) runs on every configuration of
//! `ClusterConfig::paper_configs()`, and what the run did must read the same
//! on all of them:
//!
//! * the sorted result pairs;
//! * per stage, its name, `hdfs_bytes_read`, `shuffle_bytes` and
//!   `pipe_bytes`;
//! * per stage, its task count, unless the count is the cluster's own
//!   partitioning (see [`priced_by_the_cluster`]).
//!
//! A Spark stage over freshly loaded data sums its shuffle bytes over the
//! cluster's load partitions, each scaled to full size and truncated to
//! whole bytes, so those sums may differ by less than one byte per
//! partition.
//!
//! Only successful runs carry a trace; a failed run is compared by nothing.

use sjc_cluster::{Cluster, ClusterConfig, FaultPlan, RunTrace, StageKind};
use sjc_core::experiment::{SystemKind, Workload};
use sjc_core::framework::{DistributedSpatialJoin, JoinInput, JoinPredicate};
use sjc_core::lde::LdeEngine;
use sjc_core::ledger::Step;

const SCALE: f64 = 4e-5;
const SEED: u64 = 20150701;

fn workloads() -> [Workload; 4] {
    [
        Workload::taxi_nycb(),
        Workload::edge_linearwater(),
        Workload::taxi1m_nycb(),
        Workload::edge01_linearwater01(),
    ]
}

/// The input variants: as generated, at multiplier 1, and at multiplier 1
/// under the heavy fault plan (where HadoopGIS survives and recovery runs).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    FullScale,
    Unit,
    UnitHeavyFaults,
}

fn cluster(config: &ClusterConfig, variant: Variant) -> Cluster {
    match variant {
        Variant::UnitHeavyFaults => {
            Cluster::with_faults(config.clone(), FaultPlan::heavy(7, config))
        }
        _ => Cluster::new(config.clone()),
    }
}

fn inputs(w: &Workload, variant: Variant) -> (JoinInput, JoinInput) {
    let (mut l, mut r) = w.prepare(SCALE, SEED);
    if variant != Variant::FullScale {
        l.multiplier = 1.0;
        r.multiplier = 1.0;
    }
    (l, r)
}

/// The most partitions a paper configuration loads into (EC2-10:
/// `2 × 10 × 8`).
const MAX_LOAD_PARTITIONS: u64 = 160;

/// How a stage's numbers depend on the cluster: `(tasks move, shuffle
/// bytes move, shuffle bytes truncate per load partition)`. A broadcast
/// ships one copy per node, counted in its task count and its shuffle
/// bytes; the Spark stages over freshly loaded data run one task per
/// partition of `2 × total_slots`.
fn priced_by_the_cluster(kind: StageKind, name: &str) -> (bool, bool, bool) {
    let spark = kind == StageKind::SparkStage;
    let broadcast = spark && name.starts_with("broadcast");
    let load_partitioned = spark && (name.starts_with("sample") || name.starts_with("groupByKey"));
    (broadcast || load_partitioned, broadcast, load_partitioned)
}

/// One stage, as far as no cluster field may move it.
#[derive(Debug)]
struct StageWork {
    name: String,
    hdfs_bytes_read: u64,
    /// `None` where the bytes count per-node copies.
    shuffle_bytes: Option<u64>,
    /// Whether `shuffle_bytes` sums per-partition truncations.
    truncated: bool,
    pipe_bytes: u64,
    /// `None` where the count is the cluster's partitioning.
    tasks: Option<u64>,
}

impl PartialEq for StageWork {
    fn eq(&self, o: &StageWork) -> bool {
        let shuffle = match (self.shuffle_bytes, o.shuffle_bytes) {
            (Some(a), Some(b)) if self.truncated => a.abs_diff(b) < MAX_LOAD_PARTITIONS,
            (a, b) => a == b,
        };
        shuffle
            && (&self.name, self.hdfs_bytes_read, self.truncated, self.pipe_bytes, self.tasks)
                == (&o.name, o.hdfs_bytes_read, o.truncated, o.pipe_bytes, o.tasks)
    }
}

/// What a run did, as far as no cluster field may move it.
#[derive(Debug, PartialEq)]
struct Work {
    pairs: Vec<(u64, u64)>,
    stages: Vec<StageWork>,
}

fn work_of(trace: &RunTrace, mut pairs: Vec<(u64, u64)>) -> Work {
    pairs.sort_unstable();
    let stages = trace
        .stages
        .iter()
        .map(|s| {
            let (tasks_move, shuffle_moves, truncated) = priced_by_the_cluster(s.kind, &s.name);
            StageWork {
                name: s.name.clone(),
                hdfs_bytes_read: s.hdfs_bytes_read,
                shuffle_bytes: (!shuffle_moves).then_some(s.shuffle_bytes),
                truncated,
                pipe_bytes: s.pipe_bytes,
                tasks: (!tasks_move).then_some(s.tasks),
            }
        })
        .collect();
    Work { pairs, stages }
}

#[test]
fn every_system_does_the_same_work_on_every_paper_configuration() {
    let configs = ClusterConfig::paper_configs();
    let mut compared = 0;
    for w in workloads() {
        for variant in [Variant::FullScale, Variant::Unit, Variant::UnitHeavyFaults] {
            let (left, right) = inputs(&w, variant);
            for sys in SystemKind::all() {
                let mut first: Option<(String, Work)> = None;
                for config in &configs {
                    let cluster = cluster(config, variant);
                    let Ok(out) =
                        sys.instance().run(&cluster, &left, &right, JoinPredicate::Intersects)
                    else {
                        continue;
                    };
                    let work = work_of(&out.trace, out.pairs);
                    match &first {
                        None => first = Some((config.name.clone(), work)),
                        Some((name, want)) => {
                            compared += 1;
                            assert_eq!(
                                &work,
                                want,
                                "{} on {} ({variant:?}): {} differs from {name}",
                                sys.paper_name(),
                                w.name,
                                config.name
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(compared >= 60, "only {compared} run pairs compared");
}

/// Two recorded steps agree as far as both run.
fn agree((a, b): (&Step, &Step)) -> bool {
    match (a, b) {
        (Step::Spark(a), Step::Spark(b)) => a.agrees_with(b),
        _ => a == b,
    }
}

/// Every system as the trait the grid and the reports drive: the three
/// reproduced ones and LDE-MC+.
fn every_system() -> Vec<Box<dyn DistributedSpatialJoin>> {
    let mut systems: Vec<_> = SystemKind::all().iter().map(SystemKind::instance).collect();
    systems.push(Box::new(LdeEngine::default()));
    systems
}

/// The same, read off the ledgers: on every paper configuration a system's
/// work records the same steps, as far as each one runs. A ledger ends early
/// only where its one cluster fails (HadoopGIS's pipes, SpatialSpark's
/// executor memory), and then without result pairs; two complete ledgers are
/// equal outright.
#[test]
fn every_system_records_the_same_ledger_on_every_paper_configuration() {
    let configs = ClusterConfig::paper_configs();
    for w in workloads() {
        for variant in [Variant::FullScale, Variant::Unit, Variant::UnitHeavyFaults] {
            let (left, right) = inputs(&w, variant);
            let clusters: Vec<Cluster> = configs.iter().map(|c| cluster(c, variant)).collect();
            for sys in every_system() {
                let work =
                    |stop: &[Cluster]| sys.work(&left, &right, JoinPredicate::Intersects, stop);
                let everywhere = work(&clusters);
                for (i, c) in clusters.iter().enumerate() {
                    let own = work(std::slice::from_ref(c));
                    let what = format!("{} on {} ({variant:?}), {}", sys.name(), w.name, i);
                    let n = own.steps.len().min(everywhere.steps.len());
                    let agree = own.steps[..n].iter().zip(&everywhere.steps[..n]).all(agree);
                    assert!(agree, "{what}: steps differ");
                    if own.pairs.is_some() {
                        assert!(own == everywhere, "{what}: complete ledgers differ");
                    } else {
                        assert!(own.steps.len() <= everywhere.steps.len(), "{what}: ran further");
                    }
                }
            }
        }
    }
}

/// Table 3's `taxi1m-nycb` at the test scale, run on `cluster`.
fn priced_on(sys: SystemKind, cluster: &Cluster) -> RunTrace {
    let (left, right) = Workload::taxi1m_nycb().prepare(SCALE, SEED);
    let out = sys.instance().run(cluster, &left, &right, JoinPredicate::Intersects);
    out.unwrap_or_else(|e| panic!("{} on {}: {e}", sys.paper_name(), cluster.config.name)).trace
}

/// The cluster's cost model reaches every charge, those `work` makes inside
/// a job's closures included: a constant that only the work reads (the
/// streaming script's per-record cost, a geometry vertex's JVM bytes) moves
/// the priced run when the cluster's value moves.
#[test]
fn the_clusters_cost_model_reaches_every_charge() {
    let base = Cluster::new(ClusterConfig::workstation());

    let mut slow_script = base.clone();
    slow_script.cost.streaming_script_record_ns *= 2.0;
    let join_ns = |trace: &RunTrace| {
        let join = trace.stages.iter().find(|s| s.name == "distributed join (streaming MR)");
        join.expect("HadoopGIS completes its join job on WS").sim_ns
    };
    let (before, after) = (
        join_ns(&priced_on(SystemKind::HadoopGis, &base)),
        join_ns(&priced_on(SystemKind::HadoopGis, &slow_script)),
    );
    assert!(after > before, "HadoopGIS join job: {before} ns, {after} ns with a 2x script cost");

    let mut fat_vertices = base.clone();
    fat_vertices.cost.spark_vertex_bytes *= 2.0;
    let (before, after) = (
        priced_on(SystemKind::SpatialSpark, &base).total_ns(),
        priced_on(SystemKind::SpatialSpark, &fat_vertices).total_ns(),
    );
    assert_ne!(before, after, "SpatialSpark total with 2x vertex bytes");
}

/// `work` charges with one cost model, so the clusters it is given must
/// share one.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "share a cost model")]
fn clusters_with_two_cost_models_are_refused() {
    let base = Cluster::new(ClusterConfig::workstation());
    let mut other = base.clone();
    other.cost.streaming_script_record_ns *= 2.0;
    let (left, right) = Workload::taxi1m_nycb().prepare(SCALE, SEED);
    SystemKind::SpatialHadoop.instance().work(
        &left,
        &right,
        JoinPredicate::Intersects,
        &[base, other],
    );
}
