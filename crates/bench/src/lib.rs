//! # sjc-bench — the reproduction harness
//!
//! * `bin/reproduce` regenerates every table and figure of the paper:
//!   `reproduce [table1|table2|table3|fig1|speedups|all] [--scale S] [--seed N] [--json PATH]`;
//! * the [`microbench`]-based benches under `benches/` cover the same
//!   experiments plus the ablations DESIGN.md lists (access model, geometry
//!   engine, local join algorithm, broadcast vs partition join, sample
//!   rate, partitioner);
//! * [`fingerprint`] derives the two simulated-time pins (`perfsnap` writes
//!   them to `BENCH_*.json`; `tests/perf_baseline.rs` re-derives and
//!   compares), and [`baseline`] parses those files back (duplicate-key
//!   rejecting). Host time is measured by `benchmark/`, not here.

pub mod baseline;
pub mod fingerprint;
pub mod microbench;

use sjc_cluster::ClusterConfig;
use sjc_cluster::{Cluster, RunTrace};
use sjc_core::experiment::{CellResult, ExperimentGrid, SystemKind, Workload};
use sjc_core::framework::JoinPredicate;

/// Runs all three systems on a small workload and returns their traces —
/// the input of the Fig.-1 reproduction. Uses the workstation configuration
/// (the only one where HadoopGIS completes, per Table 3) so all three
/// pipelines are visible.
pub fn fig1_traces(scale: f64, seed: u64) -> Vec<RunTrace> {
    let (left, right) = Workload::taxi1m_nycb().prepare(scale, seed);
    let cluster = Cluster::new(ClusterConfig::workstation());
    SystemKind::all()
        .iter()
        .map(|sys| match sys.instance().run(&cluster, &left, &right, JoinPredicate::Intersects) {
            Ok(out) => out.trace,
            Err(e) => {
                let mut t = RunTrace::new(format!("{} (failed: {})", sys.paper_name(), e.kind()));
                t.stages.clear();
                t
            }
        })
        .collect()
}

/// Convenience: the full grid at a given scale.
pub fn run_tables(scale: f64, seed: u64) -> (Vec<CellResult>, Vec<CellResult>) {
    let grid = ExperimentGrid { scale, seed };
    (grid.table2(), grid.table3())
}
