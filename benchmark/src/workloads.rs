//! The four workloads: their inputs, their cells, and how one pass runs.
//!
//! A pass runs every cell of the workload once through
//! `SystemKind::instance().run(..)`, one after the other (a single closed
//! loop: the next cell starts when the previous one returns). Sizes are
//! chosen so that 25 to 40 passes fit in the run length `BENCHMARK.json`
//! fixes, on the 2-core reference host.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use sjc_cluster::{Cluster, ClusterConfig, FaultPlan, SimError};
use sjc_core::experiment::{CellResult, ExperimentGrid, SystemKind, Workload};
use sjc_core::framework::{JoinInput, JoinOutput, JoinPredicate};
use sjc_core::json::ToJson;
use sjc_core::report;

use crate::spans::Recorder;
use crate::verify::{oracle, pair_sig, Expect, Outcome, PairSig};

/// Seed of perfsnap's heavy fault plan, reused so the faulted cells are
/// the ones `BENCH_faults.json` pins.
const FAULT_SEED: u64 = 7;
/// perfsnap's `SWEEP_PROVISION_NS`: replacements come up within even the
/// Spark system's short faulted run.
const PROVISION_NS: u64 = 4_000_000_000;

/// One generated input pair.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    pub workload: Workload,
    pub scale: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterSpec {
    Ws,
    Ec2(u32),
    /// EC2 under perfsnap's heavy fault plan, on inputs at multiplier 1 so
    /// that HadoopGIS survives and recovery is what the cell exercises.
    Ec2Faulted(u32),
}

#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    pub input: usize,
    pub system: SystemKind,
    pub cluster: ClusterSpec,
    pub expect: Expect,
}

pub struct Bench {
    pub name: &'static str,
    /// `_1t` workloads run at one thread, `_mt` at `min(nproc, 4)`.
    pub multi_threaded: bool,
    pub inputs: Vec<InputSpec>,
    pub cells: Vec<CellSpec>,
    /// `Some(scale)`: a pass is `ExperimentGrid::table2()` + `table3()` +
    /// the report strings, and `cells` lists the grid's cells in its order.
    pub grid_scale: Option<f64>,
}

pub const NAMES: [&str; 4] = ["pip_1t", "polyline_1t", "sampled_ws_1t", "tables_small_mt"];

/// Threads a `_mt` workload runs at on this host.
pub fn mt_threads() -> usize {
    sjc_par::hardware_threads().min(4)
}

impl Bench {
    pub fn threads(&self) -> usize {
        if self.multi_threaded {
            mt_threads()
        } else {
            1
        }
    }
}

fn cells_for(
    input: usize,
    systems: &[SystemKind],
    clusters: &[ClusterSpec],
    expect: fn(SystemKind) -> Expect,
) -> Vec<CellSpec> {
    systems
        .iter()
        .flat_map(|&system| {
            let expect = expect(system);
            clusters.iter().map(move |&cluster| CellSpec { input, system, cluster, expect })
        })
        .collect()
}

/// The paper's Table 2 pattern on full datasets: HadoopGIS dies of a
/// broken pipe, the other two complete.
fn full_dataset_pattern(system: SystemKind) -> Expect {
    match system {
        SystemKind::HadoopGis => Expect::Fails("broken pipe"),
        _ => Expect::Ok,
    }
}

/// Builds workload `name`. `smoke` divides every scale by ten and drops
/// the paper-pattern check, which only holds at the real scales.
pub fn bench(name: &str, smoke: bool) -> Option<Bench> {
    let all = SystemKind::all();
    let shrink = if smoke { 0.1 } else { 1.0 };
    let always_ok: fn(SystemKind) -> Expect = |_| Expect::Ok;
    let mut b = match name {
        "pip_1t" => Bench {
            name: "pip_1t",
            multi_threaded: false,
            inputs: vec![InputSpec { workload: Workload::taxi_nycb(), scale: 4e-4 * shrink }],
            cells: cells_for(
                0,
                &all,
                &[ClusterSpec::Ws, ClusterSpec::Ec2(10)],
                full_dataset_pattern,
            ),
            grid_scale: None,
        },
        // Never below 1e-3: under it SpatialSpark's extrapolated footprint
        // flips to out-of-memory. SpatialSpark/WS alone: at 0.7 s it is the
        // cell that still gives a run some 25 passes.
        "polyline_1t" => Bench {
            name: "polyline_1t",
            multi_threaded: false,
            inputs: vec![InputSpec {
                workload: Workload::edge_linearwater(),
                scale: 1e-3 * shrink,
            }],
            cells: cells_for(0, &[SystemKind::SpatialSpark], &[ClusterSpec::Ws], always_ok),
            grid_scale: None,
        },
        "sampled_ws_1t" => {
            let mut cells = cells_for(0, &all, &[ClusterSpec::Ws], always_ok);
            cells.extend(cells_for(1, &all, &[ClusterSpec::Ws], always_ok));
            cells.extend(cells_for(0, &all, &[ClusterSpec::Ec2Faulted(8)], always_ok));
            Bench {
                name: "sampled_ws_1t",
                multi_threaded: false,
                inputs: vec![
                    InputSpec { workload: Workload::taxi1m_nycb(), scale: 2e-3 * shrink },
                    InputSpec { workload: Workload::edge01_linearwater01(), scale: 6e-4 * shrink },
                ],
                cells,
                grid_scale: None,
            }
        }
        "tables_small_mt" => {
            let scale = 4e-5 * shrink;
            let table2 =
                [ClusterSpec::Ws, ClusterSpec::Ec2(10), ClusterSpec::Ec2(8), ClusterSpec::Ec2(6)];
            let table3 = [ClusterSpec::Ws, ClusterSpec::Ec2(10)];
            let workloads = [
                Workload::taxi_nycb(),
                Workload::edge_linearwater(),
                Workload::taxi1m_nycb(),
                Workload::edge01_linearwater01(),
            ];
            let mut cells = Vec::new();
            for input in 0..workloads.len() {
                let clusters: &[ClusterSpec] = if input < 2 { &table2 } else { &table3 };
                cells.extend(cells_for(input, &all, clusters, |_| Expect::Any));
            }
            Bench {
                name: "tables_small_mt",
                multi_threaded: true,
                inputs: workloads.iter().map(|&workload| InputSpec { workload, scale }).collect(),
                cells,
                grid_scale: Some(scale),
            }
        }
        _ => return None,
    };
    if smoke {
        b.cells.iter_mut().for_each(|c| c.expect = Expect::Any);
    }
    Some(b)
}

fn run_span(system: SystemKind) -> &'static str {
    match system {
        SystemKind::HadoopGis => "core.run.hadoopgis",
        SystemKind::SpatialHadoop => "core.run.spatialhadoop",
        SystemKind::SpatialSpark => "core.run.spatialspark",
    }
}

/// A cell ready to run: its inputs generated, its cluster (and fault plan)
/// built.
pub struct PreparedCell {
    pub label: String,
    pub system: SystemKind,
    pub cluster: Cluster,
    /// Index into `Prepared::inputs` of what the cell runs on.
    pub input: usize,
    /// Index of the generated input whose oracle its pairs must equal.
    pub oracle_input: usize,
    pub expect: Expect,
    /// A faulted cell's pairs on the same cluster without faults.
    pub twin: Option<PairSig>,
    pub on_ws: bool,
}

pub struct Prepared {
    /// The generated input pairs, then their multiplier-1 copies.
    pub inputs: Vec<(JoinInput, JoinInput)>,
    /// How many of `inputs` are generated ones.
    pub generated: usize,
    pub cells: Vec<PreparedCell>,
    pub seed: u64,
}

impl Prepared {
    /// The brute-force pairs of every generated input pair. Computed after
    /// the timed passes: it is no part of set-up.
    pub fn oracles(&self) -> Vec<PairSig> {
        self.inputs[..self.generated].iter().map(|(l, r)| oracle(l, r)).collect()
    }

    /// Left + right generated records of every cell of one pass.
    pub fn records_per_pass(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| {
                let (l, r) = &self.inputs[c.input];
                (l.records.len() + r.records.len()) as u64
            })
            .sum()
    }
}

type RunResult = std::thread::Result<Result<JoinOutput, SimError>>;

fn run_cell(system: SystemKind, cluster: &Cluster, input: &(JoinInput, JoinInput)) -> RunResult {
    catch_unwind(AssertUnwindSafe(|| {
        system.instance().run(cluster, &input.0, &input.1, JoinPredicate::Intersects)
    }))
}

fn summarize(res: RunResult) -> Outcome {
    match res {
        Ok(Ok(out)) => {
            let sig = pair_sig(&out.pairs);
            Outcome {
                kind: "ok".to_string(),
                pairs: sig.count,
                hash: Some(sig.hash),
                sim_ns: out.trace.total_ns(),
            }
        }
        Ok(Err(e)) => Outcome::failed(e.kind()),
        Err(_) => Outcome::failed("panic"),
    }
}

/// Gets the workload's inputs ready: generates them through the dataset
/// cache (cold in a fresh process), and for each faulted cell runs its
/// unfaulted twin, whose simulated runtime places the plan's node crash.
pub fn prepare(bench: &Bench, seed: u64) -> Prepared {
    let mut inputs: Vec<(JoinInput, JoinInput)> =
        bench.inputs.iter().map(|i| i.workload.prepare(i.scale, seed)).collect();
    let generated = inputs.len();
    let mut unit_copy: Vec<Option<usize>> = vec![None; generated];
    let mut cells = Vec::with_capacity(bench.cells.len());
    for spec in &bench.cells {
        let workload = bench.inputs[spec.input].workload.name;
        let (config, faulted) = match spec.cluster {
            ClusterSpec::Ws => (ClusterConfig::workstation(), false),
            ClusterSpec::Ec2(n) => (ClusterConfig::ec2(n), false),
            ClusterSpec::Ec2Faulted(n) => (ClusterConfig::ec2(n), true),
        };
        let mut label = format!("{}/{}/{}", workload, spec.system.paper_name(), config.name);
        let mut input = spec.input;
        let mut twin = None;
        let cluster = if faulted {
            label.push_str("/heavy-faults");
            input = *unit_copy[spec.input].get_or_insert_with(|| {
                let (mut l, mut r) = inputs[spec.input].clone();
                l.multiplier = 1.0;
                r.multiplier = 1.0;
                inputs.push((l, r));
                inputs.len() - 1
            });
            let base =
                summarize(run_cell(spec.system, &Cluster::new(config.clone()), &inputs[input]));
            twin = Some(PairSig { count: base.pairs, hash: base.hash.unwrap_or(0) });
            let plan = FaultPlan::heavy(FAULT_SEED, &config)
                .crash_at(2, base.sim_ns * 2 / 5)
                .with_checkpoints(2, 3)
                .with_elastic_provisioning(PROVISION_NS);
            Cluster::with_faults(config, plan)
        } else {
            Cluster::new(config)
        };
        cells.push(PreparedCell {
            label,
            system: spec.system,
            cluster,
            input,
            oracle_input: spec.input,
            expect: spec.expect,
            twin,
            on_ws: spec.cluster == ClusterSpec::Ws,
        });
    }
    Prepared { inputs, generated, cells, seed }
}

/// One pass: the wall time of each separately clocked unit, and what the
/// cells produced.
pub struct Pass {
    /// Sum of `unit_ms`.
    pub wall_ms: f64,
    /// One wall per cell run; for the grid, whose cells run interleaved on
    /// the pool, one per call: `table2()`, `table3()`, the report.
    pub unit_ms: Vec<f64>,
    pub outcomes: Vec<Outcome>,
}

impl Pass {
    fn new(unit_ms: Vec<f64>, outcomes: Vec<Outcome>) -> Pass {
        Pass { wall_ms: unit_ms.iter().sum(), unit_ms, outcomes }
    }

    /// The wall cell `i` is known to have run within.
    pub fn cell_wall_ms(&self, i: usize) -> f64 {
        if self.unit_ms.len() == self.outcomes.len() {
            self.unit_ms[i]
        } else {
            self.wall_ms
        }
    }

    pub fn sim_ns_sum(&self) -> u64 {
        self.outcomes.iter().map(|o| o.sim_ns).sum()
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn grid_outcome(cell: &CellResult) -> Outcome {
    match &cell.outcome {
        Ok(s) => Outcome {
            kind: "ok".to_string(),
            pairs: s.pairs,
            hash: None,
            sim_ns: s.trace.total_ns(),
        },
        Err(kind) => Outcome::failed(kind),
    }
}

/// `f` under a span and under its own clock.
fn clocked<T>(rec: &mut Recorder, span: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
    rec.span(span, |_| {
        let start = Instant::now();
        let out = f();
        (ms(start), out)
    })
}

/// What `reproduce table2 table3 speedups --json` does, in-process.
fn run_grid(scale: f64, seed: u64, rec: &mut Recorder) -> (Vec<f64>, Vec<CellResult>) {
    let grid = ExperimentGrid { scale, seed };
    let (t2_ms, table2) = clocked(rec, "core.table2", || grid.table2());
    let (t3_ms, table3) = clocked(rec, "core.table3", || grid.table3());
    let (report_ms, ()) = clocked(rec, "core.report", || {
        std::hint::black_box((
            report::table2_string(&table2),
            report::table3_string(&table3),
            report::speedups_string(&table2, &table3),
            table2.to_json().to_string_pretty(),
            table3.to_json().to_string_pretty(),
        ));
    });
    let mut cells = table2;
    cells.extend(table3);
    (vec![t2_ms, t3_ms, report_ms], cells)
}

/// Runs one pass. Only the cell runs are on the clock; hashing the pairs
/// happens after each run's clock has stopped. Untraced passes hand in
/// `Recorder::off()`, whose spans read no clock.
pub fn run_pass(bench: &Bench, prep: &Prepared, rec: &mut Recorder) -> Pass {
    if let Some(scale) = bench.grid_scale {
        let start = Instant::now();
        return match catch_unwind(AssertUnwindSafe(|| run_grid(scale, prep.seed, rec))) {
            Ok((unit_ms, cells)) if cells.len() == prep.cells.len() => {
                Pass::new(unit_ms, cells.iter().map(grid_outcome).collect())
            }
            _ => Pass::new(vec![ms(start)], vec![Outcome::failed("panic"); prep.cells.len()]),
        };
    }
    run_cells(prep, rec)
}

/// Runs the prepared cells one after the other, each under its own clock.
pub fn run_cells(prep: &Prepared, rec: &mut Recorder) -> Pass {
    let mut unit_ms = Vec::with_capacity(prep.cells.len());
    let mut outcomes = Vec::with_capacity(prep.cells.len());
    for cell in &prep.cells {
        let input = &prep.inputs[cell.input];
        let (wall, res) =
            clocked(rec, run_span(cell.system), || run_cell(cell.system, &cell.cluster, input));
        unit_ms.push(wall);
        outcomes.push(summarize(res));
    }
    Pass::new(unit_ms, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds() {
        for name in NAMES {
            for smoke in [false, true] {
                let b = bench(name, smoke).expect("declared workload");
                assert_eq!(b.name, name);
                assert!(!b.cells.is_empty());
                assert!(b.cells.iter().all(|c| c.input < b.inputs.len()));
            }
        }
        assert!(bench("nope", false).is_none());
    }

    #[test]
    fn grid_cells_follow_the_grids_order() {
        let b = bench("tables_small_mt", true).unwrap();
        assert_eq!(b.cells.len(), 36);
        // table2: per workload, systems outer, its four clusters inner.
        assert_eq!(b.cells[5].system, SystemKind::SpatialHadoop);
        assert_eq!(b.cells[5].cluster, ClusterSpec::Ec2(10));
        assert_eq!(b.cells[24].input, 2);
        assert_eq!(b.cells[35].cluster, ClusterSpec::Ec2(10));
    }
}
