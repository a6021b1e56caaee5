//! HadoopGIS's simulated ledger, pinned stage by stage.
//!
//! `BENCH_baseline.json` pins one summed `sim_ns` and `BENCH_faults.json`
//! one total per fault plan; neither would notice a byte moving between two
//! HadoopGIS stages, or a `BrokenPipe` reporting a different group's
//! payload. Every number below is charged from the *length* of a text line
//! (`pipe_ns`, `parse_ns`, `streaming_pipe_limit`), so this file is what
//! holds an edit of the text path to its parent: it re-derives
//! `tests/fixtures/hadoopgis_ledger.txt` at 1 and at 4 host threads and
//! compares byte for byte. The inputs are the benchmark's HadoopGIS cells
//! (`pip_1t`: taxi × nycb at 4e-4; `sampled_ws_1t`: the two sampled pairs)
//! at its default seed.
//!
//! Each dataset's TSV text is built on a `JoinInput`'s first HadoopGIS run
//! and reused by every later run and clone, so the ledger is derived twice on
//! the same inputs, cold then warm, and both must match.
//!
//! A deliberate cost-model change regenerates the fixture with
//! `cargo test --test hadoopgis_ledger -- --ignored`.

use std::fmt::Write as _;

use sjc_cluster::{Cluster, ClusterConfig, FaultPlan};
use sjc_core::experiment::Workload;
use sjc_core::framework::{DistributedSpatialJoin, JoinInput, JoinPredicate};
use sjc_core::hadoopgis::HadoopGis;

const SEED: u64 = 20150701;
const FIXTURE: &str = "tests/fixtures/hadoopgis_ledger.txt";

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

/// The prepared input pairs of the three sections, kept across ledger
/// derivations so the second one reads warm text.
struct Inputs {
    stage: Vec<(&'static str, f64, JoinInput, JoinInput)>,
    full: (JoinInput, JoinInput),
    faulted: (JoinInput, JoinInput),
}

impl Inputs {
    fn prepare() -> Inputs {
        let stage = [(Workload::taxi1m_nycb(), 2e-3), (Workload::edge01_linearwater01(), 6e-4)]
            .into_iter()
            .map(|(w, scale)| {
                let (l, r) = w.prepare(scale, SEED);
                (w.name, scale, l, r)
            })
            .collect();
        Inputs {
            stage,
            full: Workload::taxi_nycb().prepare(4e-4, SEED),
            faulted: Workload::taxi1m_nycb().prepare(1e-4, SEED),
        }
    }
}

/// (a) Successful runs on the workstation: every stage's simulated numbers
/// and the result set.
fn stage_ledgers(inputs: &Inputs, out: &mut String) {
    for (name, scale, l, r) in &inputs.stage {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let run = HadoopGis::default()
            .run(&cluster, l, r, JoinPredicate::Intersects)
            .unwrap_or_else(|e| panic!("{name} must complete on WS: {e}"));
        writeln!(out, "## {name} @ {scale:e} on WS").unwrap();
        writeln!(out, "# name | sim_ns pipe shuffle hdfs_read hdfs_written tasks").unwrap();
        for s in &run.trace.stages {
            writeln!(
                out,
                "{} | {} {} {} {} {} {}",
                s.name,
                s.sim_ns,
                s.pipe_bytes,
                s.shuffle_bytes,
                s.hdfs_bytes_read,
                s.hdfs_bytes_written,
                s.tasks
            )
            .unwrap();
        }
        let pairs = run.sorted_pairs();
        writeln!(out, "pairs {} fnv1a {:016x}", pairs.len(), pair_hash(&pairs)).unwrap();
    }
}

/// (b) Full-dataset runs: the exact error, payload included — group order
/// decides which group's payload is reported.
fn broken_pipes(inputs: &Inputs, out: &mut String) {
    let (l, r) = &inputs.full;
    for cfg in [ClusterConfig::workstation(), ClusterConfig::ec2(10)] {
        let name = cfg.name.clone();
        let err = HadoopGis::default()
            .run(&Cluster::new(cfg), l, r, JoinPredicate::Intersects)
            .map(|o| o.pairs.len())
            .expect_err("the full taxi dataset breaks HadoopGIS's pipe everywhere");
        writeln!(out, "## taxi-nycb @ 4e-4 on {name}").unwrap();
        writeln!(out, "{err:?}").unwrap();
    }
}

/// (c) A faulted, checkpointed run: recovery accounting per stage and the
/// recovery ledger itself. The inputs are multiplier-1 clones, as the
/// benchmark's faulted cells use: they share the originals' text.
fn faulted_run(inputs: &Inputs, out: &mut String) {
    let (mut l, mut r) = inputs.faulted.clone();
    l.multiplier = 1.0;
    r.multiplier = 1.0;
    let cfg = ClusterConfig::ec2(8);
    let plan = FaultPlan::heavy(7, &cfg).with_checkpoints(2, 3);
    let run = HadoopGis::default()
        .run(&Cluster::with_faults(cfg, plan), &l, &r, JoinPredicate::Intersects)
        .expect("HadoopGIS survives the heavy plan at multiplier 1");
    writeln!(out, "## taxi1m-nycb @ 1e-4 x1 on EC2-8, heavy(7) + checkpoints(2, 3)").unwrap();
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
    let (mut l, mut r) = inputs.faulted.clone();
    l.multiplier = 1.0;
    r.multiplier = 1.0;
    let cfg = ClusterConfig::ec2(8);
    let base = HadoopGis::default()
        .run(&Cluster::new(cfg.clone()), &l, &r, JoinPredicate::Intersects)
        .expect("HadoopGIS completes fault-free at multiplier 1")
        .trace
        .total_ns();
    let plan = FaultPlan::seeded(7, &cfg).crash_at(2, base * 18 / 40).with_checkpoints(2, 3);
    writeln!(
        out,
        "## taxi1m-nycb @ 1e-4 x1 on EC2-8, seeded(7) crash_at(2, 18/40) + checkpoints(2, 3)"
    )
    .unwrap();
    match HadoopGis::default().run(
        &Cluster::with_faults(cfg, plan),
        &l,
        &r,
        JoinPredicate::Intersects,
    ) {
        Ok(run) => {
            writeln!(out, "total_sim_ns {}", run.trace.total_ns()).unwrap();
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

fn ledger(inputs: &Inputs) -> String {
    let mut out = String::new();
    stage_ledgers(inputs, &mut out);
    broken_pipes(inputs, &mut out);
    faulted_run(inputs, &mut out);
    crash_run(inputs, &mut out);
    out
}

#[test]
fn hadoopgis_ledger_matches_the_fixture_at_1_and_4_threads() {
    let want = std::fs::read_to_string(FIXTURE).expect("fixture is checked in");
    for threads in [1, 4] {
        sjc_par::set_global_threads(threads);
        let inputs = Inputs::prepare();
        let derived = [("cold", ledger(&inputs)), ("warm", ledger(&inputs))];
        sjc_par::set_global_threads(0);
        for (text, got) in derived {
            if let Some((i, (g, w))) =
                got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w)
            {
                panic!(
                    "{threads} threads, {text}, {FIXTURE}:{}:\n  derived {g}\n  fixture {w}",
                    i + 1
                );
            }
            assert_eq!(got.len(), want.len(), "{threads} threads, {text}: lengths differ");
        }
    }
}

#[test]
#[ignore = "rewrites the fixture; run only for a deliberate cost-model change"]
fn regenerate_fixture() {
    std::fs::write(FIXTURE, ledger(&Inputs::prepare())).expect("fixture is writable");
}
