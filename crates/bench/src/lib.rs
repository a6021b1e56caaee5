//! # sjc-bench — the reproduction harness
//!
//! * [`reproduce`] renders every table and figure of the paper; the
//!   `reproduce` binary prints it:
//!   `reproduce [all|table1|table2|table3|fig1|speedups|scalability|extension|ablations] [--scale S] [--seed N] [--json PATH]`;
//! * the [`microbench`]-based benches under `benches/` cover the same
//!   experiments plus the ablations DESIGN.md lists (access model, geometry
//!   engine, local join algorithm, broadcast vs partition join, sample
//!   rate, partitioner);
//! * [`snapshots`] lists every checked-in simulated output with its
//!   renderer: tier-1 (`tests/snapshots.rs` and the files it names) re-derives
//!   and compares them, the
//!   `perfsnap` binary rewrites them all. [`baseline`] parses the
//!   `BENCH_*.json` files back (duplicate-key rejecting). Host time is
//!   measured by `benchmark/`, not here.

pub mod baseline;
pub mod microbench;
mod reproduce;
pub mod snapshots;

pub use reproduce::{report_works, reproduce, ReportWork, REPORTS};

use sjc_cluster::ClusterConfig;
use sjc_cluster::{Cluster, RunTrace};
use sjc_core::experiment::{CellResult, ExperimentGrid, SystemKind, Workload};
use sjc_core::framework::{JoinInput, JoinPredicate};

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

/// `input` over a fresh copy of its records, whose TSV line lengths no run
/// has built yet. A prepared input shares the cached dataset's records and
/// line lengths, which any earlier HadoopGIS run in the process may have
/// built; whatever must read a cold HadoopGIS input copies it this way.
pub fn cold_copy(input: &JoinInput) -> JoinInput {
    let records = input.records.to_vec();
    JoinInput::new(input.name.clone(), records, input.sim_bytes, input.multiplier, input.domain)
}

/// Convenience: the full grid at a given scale.
pub fn run_tables(scale: f64, seed: u64) -> (Vec<CellResult>, Vec<CellResult>) {
    let grid = ExperimentGrid { scale, seed };
    (grid.table2(), grid.table3())
}
