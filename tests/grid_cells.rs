//! The grid equals its cells: `table2()` and `table3()` report, cell for
//! cell, byte for byte, what `ExperimentGrid::run_cell` reports for the same
//! (system, configuration, workload), at 1 and at 4 host threads. At the
//! `tables_small_mt` scale the grid holds HadoopGIS's `broken pipe` cells;
//! the work the grid shares, priced on each configuration, fails with the
//! same error and payload as that configuration's own run.

use sjc_cluster::{Cluster, ClusterConfig};
use sjc_core::experiment::{CellResult, ExperimentGrid, SystemKind, Workload};
use sjc_core::framework::JoinPredicate;
use sjc_core::json::ToJson;

const GRID: ExperimentGrid = ExperimentGrid { scale: 4e-5, seed: 20150701 };

/// `run_cell` for every (workload, system, configuration) of one table, in
/// the grid's order.
fn cell_by_cell(workloads: &[Workload], configs: &[ClusterConfig]) -> Vec<CellResult> {
    let mut out = Vec::new();
    for w in workloads {
        let (left, right) = w.prepare(GRID.scale, GRID.seed);
        for sys in SystemKind::all() {
            for config in configs {
                out.push(GRID.run_cell(sys, config, w, &left, &right));
            }
        }
    }
    out
}

fn json_lines(cells: &[CellResult]) -> Vec<String> {
    cells.iter().map(|c| c.to_json().to_string_pretty()).collect()
}

#[test]
fn tables_equal_their_cells_at_1_and_4_threads() {
    let table2 = cell_by_cell(
        &[Workload::taxi_nycb(), Workload::edge_linearwater()],
        &ClusterConfig::paper_configs(),
    );
    let table3 = cell_by_cell(
        &[Workload::taxi1m_nycb(), Workload::edge01_linearwater01()],
        &[ClusterConfig::workstation(), ClusterConfig::ec2(10)],
    );
    assert_eq!(table2.len() + table3.len(), 36);
    let failed = table2.iter().chain(&table3).filter(|c| c.outcome.is_err()).count();
    assert!(failed > 0, "the grid holds failed cells at this scale");
    let (want2, want3) = (json_lines(&table2), json_lines(&table3));
    for threads in [1, 4] {
        sjc_par::set_global_threads(threads);
        let (got2, got3) = (json_lines(&GRID.table2()), json_lines(&GRID.table3()));
        sjc_par::set_global_threads(0);
        assert_eq!(got2, want2, "table2 at {threads} threads");
        assert_eq!(got3, want3, "table3 at {threads} threads");
    }
}

#[test]
fn shared_work_prices_as_each_configurations_own_run() {
    let tables = [
        (vec![Workload::taxi_nycb(), Workload::edge_linearwater()], ClusterConfig::paper_configs()),
        (
            vec![Workload::taxi1m_nycb(), Workload::edge01_linearwater01()],
            vec![ClusterConfig::workstation(), ClusterConfig::ec2(10)],
        ),
    ];
    let mut failures = 0;
    for (workloads, configs) in tables {
        let clusters: Vec<Cluster> = configs.into_iter().map(Cluster::new).collect();
        for w in workloads {
            let (left, right) = w.prepare(GRID.scale, GRID.seed);
            for sys in SystemKind::all() {
                let shared =
                    sys.instance().work(&left, &right, JoinPredicate::Intersects, &clusters);
                for cluster in &clusters {
                    let own = sys.instance().run(cluster, &left, &right, JoinPredicate::Intersects);
                    let priced = shared.price(cluster);
                    failures += usize::from(priced.is_err());
                    assert_eq!(
                        format!("{priced:?}"),
                        format!("{:?}", own.as_ref().map(|o| &o.trace)),
                        "{} on {} / {}",
                        sys.paper_name(),
                        w.name,
                        cluster.config.name
                    );
                    if let Ok(out) = own {
                        assert_eq!(shared.pairs.as_ref(), Some(&out.pairs));
                    }
                }
            }
        }
    }
    assert!(failures > 0, "the grid holds failed cells at this scale");
}
