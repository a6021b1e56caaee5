//! Bit-stable reproduction: identical scale and seed must give identical
//! datasets, results, simulated times and failure cells across runs.

use sjc_cluster::{Cluster, ClusterConfig};
use sjc_core::experiment::{ExperimentGrid, Workload};
use sjc_core::framework::DistributedSpatialJoin;
use sjc_core::framework::JoinPredicate;
use sjc_core::spatialhadoop::SpatialHadoop;

#[test]
fn dataset_generation_is_bit_stable() {
    for id in sjc_data::DatasetId::all() {
        let a = sjc_data::ScaledDataset::generate(id, 2e-4, 99);
        let b = sjc_data::ScaledDataset::generate(id, 2e-4, 99);
        assert_eq!(a.records, b.records, "{id:?}");
    }
}

#[test]
fn system_runs_are_bit_stable() {
    let (l, r) = Workload::taxi1m_nycb().prepare(3e-4, 2718);
    let cluster = Cluster::new(ClusterConfig::ec2(10));
    let sys = SpatialHadoop::default();
    let a = sys.run(&cluster, &l, &r, JoinPredicate::Intersects).unwrap();
    let b = sys.run(&cluster, &l, &r, JoinPredicate::Intersects).unwrap();
    assert_eq!(a.trace.total_ns(), b.trace.total_ns(), "simulated time is deterministic");
    let a_stage_ns: Vec<u64> = a.trace.stages.iter().map(|s| s.sim_ns).collect();
    let b_stage_ns: Vec<u64> = b.trace.stages.iter().map(|s| s.sim_ns).collect();
    assert_eq!(a_stage_ns, b_stage_ns);
    assert_eq!(a.sorted_pairs(), b.sorted_pairs());
}

#[test]
fn experiment_grid_cells_are_stable() {
    let grid = ExperimentGrid { scale: 3e-4, seed: 1 };
    let w = Workload::taxi1m_nycb();
    let (l, r) = w.prepare(grid.scale, grid.seed);
    let cfg = ClusterConfig::workstation();
    let run = || grid.run_cell(sjc_core::experiment::SystemKind::SpatialSpark, &cfg, &w, &l, &r);
    let a = run();
    let b = run();
    match (&a.outcome, &b.outcome) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.total_s, y.total_s);
            assert_eq!(x.pairs, y.pairs);
        }
        (Err(x), Err(y)) => assert_eq!(x, y),
        other => panic!("outcome flip-flopped: {other:?}"),
    }
}

#[test]
fn results_are_identical_across_thread_budgets() {
    // The whole point of sjc-par: the host thread budget may change wall
    // time, never results. Run all three systems serially and at 8 threads
    // and demand bit-identical traces and pair sets.
    let run_all = |threads: usize| {
        sjc_par::set_global_threads(threads);
        let (l, r) = Workload::taxi1m_nycb().prepare(3e-4, 31337);
        let cluster = Cluster::new(ClusterConfig::workstation());
        let out: Vec<_> = sjc_core::experiment::SystemKind::all()
            .iter()
            .map(|sys| {
                let o = sys
                    .instance()
                    .run(&cluster, &l, &r, JoinPredicate::Intersects)
                    .expect("workstation config completes for all systems");
                let stage_ns: Vec<u64> = o.trace.stages.iter().map(|s| s.sim_ns).collect();
                (o.trace.total_ns(), stage_ns, o.sorted_pairs())
            })
            .collect();
        sjc_par::set_global_threads(0);
        out
    };
    let serial = run_all(1);
    let parallel = run_all(8);
    assert_eq!(
        serial, parallel,
        "simulated traces and pair sets must not depend on SJC_PAR_THREADS"
    );
}

#[test]
fn plane_sweep_kernel_is_identical_at_1_and_8_threads() {
    // Both inputs hold more than 4 096 entries, so the sweep's `min_x` sorts
    // run `sjc_par::par_sort_by`'s parallel merge; its stable order must
    // make the emitted pair sequence — not just the set — and the reported
    // JoinStats bit-identical at any thread budget.
    let mut rng = sjc_data::rng::StdRng::seed_from_u64(0xD17E);
    let mut entries = |n: usize| -> Vec<sjc_index::entry::IndexEntry> {
        (0..n)
            .map(|i| {
                let x = rng.gen::<f64>() * 500.0;
                let y = rng.gen::<f64>() * 500.0;
                sjc_index::entry::IndexEntry::new(
                    i as u64,
                    sjc_geom::Mbr::new(
                        x,
                        y,
                        x + rng.gen::<f64>() * 4.0,
                        y + rng.gen::<f64>() * 4.0,
                    ),
                )
            })
            .collect()
    };
    let left = entries(9_000);
    let right = entries(4_500);
    let run = |threads: usize| {
        sjc_par::set_global_threads(threads);
        let out = sjc_index::join::plane_sweep(&left, &right);
        sjc_par::set_global_threads(0);
        out
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.pairs, parallel.pairs, "exact pair order, not just the set");
    assert_eq!(serial.stats, parallel.stats, "identical JoinStats");
}

#[test]
fn faulted_runs_are_bit_stable() {
    // Fault draws are stateless hashes of (seed, stage, task, attempt):
    // re-running the same plan must replay the exact same failure history.
    let (l, r) = Workload::taxi1m_nycb().prepare(3e-4, 2718);
    let cfg = ClusterConfig::ec2(10);
    let plan = sjc_cluster::FaultPlan::light(11, &cfg).crash_at(3, 40_000_000_000);
    let cluster = Cluster::with_faults(cfg, plan);
    let sys = SpatialHadoop::default();
    let a = sys.run(&cluster, &l, &r, JoinPredicate::Intersects).unwrap();
    let b = sys.run(&cluster, &l, &r, JoinPredicate::Intersects).unwrap();
    assert_eq!(a.trace.total_ns(), b.trace.total_ns());
    assert_eq!(a.trace.recovery, b.trace.recovery, "identical recovery ledgers");
    let a_stage: Vec<(u64, u64, u64)> =
        a.trace.stages.iter().map(|s| (s.sim_ns, s.attempts, s.wasted_ns)).collect();
    let b_stage: Vec<(u64, u64, u64)> =
        b.trace.stages.iter().map(|s| (s.sim_ns, s.attempts, s.wasted_ns)).collect();
    assert_eq!(a_stage, b_stage);
    assert_eq!(a.sorted_pairs(), b.sorted_pairs());
}

#[test]
fn faulted_e2e_is_identical_at_1_and_8_threads() {
    // The persistent-pool counterpart of `faulted_runs_are_bit_stable`:
    // fault injection, recovery re-scheduling and checkpoint replay must
    // not leak the host thread budget either. Run every system under a
    // light fault plan plus a mid-run node crash, serially and with seven
    // pool helpers, and demand identical traces, recovery ledgers, pair
    // sets and simulated time.
    let run_all = |threads: usize| {
        sjc_par::set_global_threads(threads);
        let (l, r) = Workload::taxi1m_nycb().prepare(3e-4, 2718);
        let cfg = ClusterConfig::ec2(10);
        let out: Vec<_> = sjc_core::experiment::SystemKind::all()
            .iter()
            .map(|sys| {
                let plan = sjc_cluster::FaultPlan::light(11, &cfg).crash_at(3, 40_000_000_000);
                let cluster = Cluster::with_faults(cfg.clone(), plan);
                match sys.instance().run(&cluster, &l, &r, JoinPredicate::Intersects) {
                    Ok(o) => {
                        let stage: Vec<(u64, u64, u64)> = o
                            .trace
                            .stages
                            .iter()
                            .map(|s| (s.sim_ns, s.attempts, s.wasted_ns))
                            .collect();
                        Ok((o.trace.total_ns(), stage, o.trace.recovery.clone(), o.sorted_pairs()))
                    }
                    Err(e) => Err(format!("{e:?}")),
                }
            })
            .collect();
        sjc_par::set_global_threads(0);
        out
    };
    let serial = run_all(1);
    let parallel = run_all(8);
    assert_eq!(
        serial, parallel,
        "faulted traces, recovery ledgers and pair sets must not depend on the thread budget"
    );
}

#[test]
fn different_seeds_give_different_data_same_shape() {
    let a = sjc_data::ScaledDataset::generate(sjc_data::DatasetId::Taxi, 2e-4, 1);
    let b = sjc_data::ScaledDataset::generate(sjc_data::DatasetId::Taxi, 2e-4, 2);
    assert_ne!(a.records, b.records, "seeds vary the draw");
    assert_eq!(a.len(), b.len(), "but not the scale");
    assert_eq!(a.domain, b.domain, "nor the domain");
}
