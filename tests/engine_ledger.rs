//! SpatialHadoop's, SpatialSpark's and LDE's simulated ledgers, pinned
//! stage by stage, for every configuration the ablations flip.
//!
//! `tests/hadoopgis_ledger.rs` holds HadoopGIS's text path to its parent;
//! this file does the same for the other engines. Every stage's full
//! `StageTrace` (name, kind, phase, `sim_ns`, bytes, tasks, recovery
//! accounting), the sorted result pairs' FNV-1a hash, every error payload
//! and every recovery event are re-derived at 1 and 4 host threads and
//! compared byte for byte with `tests/fixtures/engine_ledger.txt`.
//!
//! A deliberate cost-model change regenerates the fixture with
//! `cargo test --test engine_ledger -- --ignored`.

use std::fmt::Write as _;

use sjc_cluster::{Cluster, ClusterConfig, FaultPlan};
use sjc_core::common::{LocalJoinAlgo, PartitionerKind};
use sjc_core::experiment::Workload;
use sjc_core::framework::{DistributedSpatialJoin, JoinInput, JoinPredicate};
use sjc_core::lde::LdeEngine;
use sjc_core::spatialhadoop::SpatialHadoop;
use sjc_core::spatialspark::SpatialSpark;
use sjc_geom::EngineKind;

const SEED: u64 = 20150701;
const FIXTURE: &str = "tests/fixtures/engine_ledger.txt";

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
        ("LDE-MC+ StripeSweep", Box::new(lde(LdeEngine::default(), LocalJoinAlgo::StripeSweep))),
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
    match sys.run(cluster, l, r, predicate) {
        Ok(run) => {
            for s in &run.trace.stages {
                writeln!(out, "{s:?}").unwrap();
            }
            for e in &run.trace.recovery {
                writeln!(out, "{e:?}").unwrap();
            }
            let pairs = run.sorted_pairs();
            writeln!(out, "pairs {} fnv1a {:016x}", pairs.len(), pair_hash(&pairs)).unwrap();
        }
        Err(e) => writeln!(out, "{e:?}").unwrap(),
    }
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
    let (mut l, mut r) = Workload::taxi1m_nycb().prepare(1e-4, SEED);
    l.multiplier = 1.0;
    r.multiplier = 1.0;
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
    let (mut l, mut r) = Workload::taxi1m_nycb().prepare(1e-4, SEED);
    l.multiplier = 1.0;
    r.multiplier = 1.0;
    let cfg = ClusterConfig::ec2(8);
    for (label, k, checkpoints) in [
        ("SpatialHadoop", 39, false),
        ("SpatialHadoop", 31, true),
        ("SpatialSpark", 22, true),
        ("SpatialSpark", 30, false),
    ] {
        for sys in &only(&[label]) {
            let base = sys.1.run(&Cluster::new(cfg.clone()), &l, &r, JoinPredicate::Intersects);
            let base = base.expect("fault-free EC2-8 run completes").trace.total_ns();
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

fn ledger() -> String {
    let mut out = String::new();
    configurations(&mut out);
    failures(&mut out);
    faulted_runs(&mut out);
    crash_runs(&mut out);
    out
}

#[test]
fn engine_ledger_matches_the_fixture_at_1_and_4_threads() {
    let want = std::fs::read_to_string(FIXTURE).expect("fixture is checked in");
    for threads in [1, 4] {
        sjc_par::set_global_threads(threads);
        let got = ledger();
        sjc_par::set_global_threads(0);
        if let Some((i, (g, w))) =
            got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w)
        {
            panic!("{threads} threads, {FIXTURE}:{}:\n  derived {g}\n  fixture {w}", i + 1);
        }
        assert_eq!(got.len(), want.len(), "{threads} threads: ledger and fixture differ in length");
    }
}

#[test]
#[ignore = "rewrites the fixture; run only for a deliberate cost-model change"]
fn regenerate_fixture() {
    std::fs::write(FIXTURE, ledger()).expect("fixture is writable");
}
