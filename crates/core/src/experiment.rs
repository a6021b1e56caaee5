//! The paper's experiment grid: workloads × hardware × systems.

use sjc_cluster::metrics::Phase;
use sjc_cluster::{Cluster, ClusterConfig, RunTrace, SimError};
use sjc_data::DatasetId;

use crate::framework::{DistributedSpatialJoin, JoinInput, JoinPredicate};
use crate::hadoopgis::HadoopGis;
use crate::spatialhadoop::SpatialHadoop;
use crate::spatialspark::SpatialSpark;

/// The three evaluated systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    HadoopGis,
    SpatialHadoop,
    SpatialSpark,
}

impl SystemKind {
    pub fn all() -> [SystemKind; 3] {
        [SystemKind::HadoopGis, SystemKind::SpatialHadoop, SystemKind::SpatialSpark]
    }

    /// Instantiates the system with its default (paper) configuration.
    pub fn instance(&self) -> Box<dyn DistributedSpatialJoin> {
        match self {
            SystemKind::HadoopGis => Box::new(HadoopGis::default()),
            SystemKind::SpatialHadoop => Box::new(SpatialHadoop::default()),
            SystemKind::SpatialSpark => Box::new(SpatialSpark::default()),
        }
    }

    /// The system's name in the paper's tables.
    pub fn paper_name(&self) -> &'static str {
        self.instance().name()
    }
}

/// One experiment workload: a left and right dataset joined by intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub left: DatasetId,
    pub right: DatasetId,
}

impl Workload {
    /// Table 2, row block 1: point-in-polygon at full scale.
    pub fn taxi_nycb() -> Workload {
        Workload { name: "taxi-nycb", left: DatasetId::Taxi, right: DatasetId::Nycb }
    }

    /// Table 2, row block 2: polyline intersection at full scale.
    pub fn edge_linearwater() -> Workload {
        Workload { name: "edge-linearwater", left: DatasetId::Edges, right: DatasetId::Linearwater }
    }

    /// Table 3, row block 1: one month of taxi data.
    pub fn taxi1m_nycb() -> Workload {
        Workload { name: "taxi1m-nycb", left: DatasetId::Taxi1m, right: DatasetId::Nycb }
    }

    /// Table 3, row block 2: the 10% TIGER samples.
    pub fn edge01_linearwater01() -> Workload {
        Workload {
            name: "edge0.1-linearwater0.1",
            left: DatasetId::Edges01,
            right: DatasetId::Linearwater01,
        }
    }

    /// Generates both inputs at `scale` with deterministic seeds.
    ///
    /// Both sides come from the process-wide dataset cache (repeat
    /// preparations of the same workload/scale/seed are free) and cache
    /// misses for the two sides generate concurrently.
    pub fn prepare(&self, scale: f64, seed: u64) -> (JoinInput, JoinInput) {
        let (l, r) = sjc_par::join(
            || sjc_data::generate_cached(self.left, scale, seed),
            || sjc_data::generate_cached(self.right, scale, seed),
        );
        (JoinInput::from_dataset(&l), JoinInput::from_dataset(&r))
    }
}

/// Summary of a successful run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Index-left / index-right / distributed-join / total simulated seconds
    /// (the paper's IA, IB, DJ, TOT columns).
    pub ia_s: f64,
    pub ib_s: f64,
    pub dj_s: f64,
    pub total_s: f64,
    /// Result pair count (generation scale).
    pub pairs: u64,
    pub trace: RunTrace,
}

impl RunSummary {
    fn new(trace: RunTrace, pairs: usize) -> RunSummary {
        RunSummary {
            ia_s: trace.phase_seconds(Phase::IndexA),
            ib_s: trace.phase_seconds(Phase::IndexB),
            dj_s: trace.phase_seconds(Phase::DistributedJoin),
            total_s: trace.total_seconds(),
            pairs: pairs as u64,
            trace,
        }
    }
}

/// One cell of an experiment table.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub system: SystemKind,
    pub cluster: String,
    pub workload: &'static str,
    /// `Err` carries the failure label (`broken pipe` / `out of memory`) —
    /// the paper's "-" cells.
    pub outcome: Result<RunSummary, String>,
}

impl CellResult {
    fn new(
        system: SystemKind,
        config: &ClusterConfig,
        workload: &Workload,
        outcome: Result<RunSummary, SimError>,
    ) -> CellResult {
        CellResult {
            system,
            cluster: config.name.clone(),
            workload: workload.name,
            outcome: outcome.map_err(|e| e.kind().to_string()),
        }
    }

    /// Total seconds, or `None` for a failed cell.
    pub fn total_s(&self) -> Option<f64> {
        self.outcome.as_ref().ok().map(|s| s.total_s)
    }
}

/// The experiment driver.
#[derive(Debug, Clone)]
pub struct ExperimentGrid {
    /// Generation scale (domain-area fraction; see `sjc-data`).
    pub scale: f64,
    pub seed: u64,
}

impl Default for ExperimentGrid {
    fn default() -> Self {
        ExperimentGrid { scale: 1e-3, seed: 20150701 }
    }
}

impl ExperimentGrid {
    /// Runs one system on one cluster for an already-prepared workload.
    pub fn run_cell(
        &self,
        system: SystemKind,
        config: &ClusterConfig,
        workload: &Workload,
        left: &JoinInput,
        right: &JoinInput,
    ) -> CellResult {
        let cluster = Cluster::new(config.clone());
        let outcome = system
            .instance()
            .run(&cluster, left, right, JoinPredicate::Intersects)
            .map(|out| RunSummary::new(out.trace, out.pairs.len()));
        CellResult::new(system, config, workload, outcome)
    }

    /// Table 2: full-dataset workloads on all four hardware configurations.
    pub fn table2(&self) -> Vec<CellResult> {
        self.run_grid(
            &[Workload::taxi_nycb(), Workload::edge_linearwater()],
            &ClusterConfig::paper_configs(),
        )
    }

    /// Table 3: sampled workloads on WS and EC2-10 (the paper omits the
    /// other configs because they behave like EC2-10).
    pub fn table3(&self) -> Vec<CellResult> {
        self.run_grid(
            &[Workload::taxi1m_nycb(), Workload::edge01_linearwater01()],
            &[ClusterConfig::workstation(), ClusterConfig::ec2(10)],
        )
    }

    /// Every (system, workload) does its real work once — a workload's
    /// three works run concurrently, one weighted-map item each — and each
    /// configuration prices it, in grid order. One workload's inputs and
    /// ledgers live at a time, until its cells are priced.
    fn run_grid(&self, workloads: &[Workload], configs: &[ClusterConfig]) -> Vec<CellResult> {
        let clusters: Vec<Cluster> = configs.iter().cloned().map(Cluster::new).collect();
        let mut out = Vec::with_capacity(workloads.len() * 3 * configs.len());
        for w in workloads {
            let (left, right) = w.prepare(self.scale, self.seed);
            // Works are pure functions of (system, workload): run them in
            // parallel, collect in deterministic grid order. Equal weights
            // keep grid order, so the caller always works HadoopGIS: its TSV
            // text and streaming lines, the grid's largest allocations, stay
            // in the caller's allocator arena beside the inputs, instead of
            // growing a pool worker's arena as well.
            let systems = SystemKind::all();
            let ledgers = sjc_par::par_map_weighted(
                &systems,
                |_| 1,
                |sys| sys.instance().work(&left, &right, JoinPredicate::Intersects, &clusters),
            );
            for (sys, ledger) in systems.iter().zip(&ledgers) {
                let pairs = ledger.pairs.as_ref().map_or(0, Vec::len);
                for (config, cluster) in configs.iter().zip(&clusters) {
                    let outcome = ledger.price(cluster).map(|trace| RunSummary::new(trace, pairs));
                    out.push(CellResult::new(*sys, config, w, outcome));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_define_the_papers_experiments() {
        assert_eq!(Workload::taxi_nycb().left, DatasetId::Taxi);
        assert_eq!(Workload::edge01_linearwater01().right, DatasetId::Linearwater01);
    }

    #[test]
    fn run_cell_produces_summary_or_failure_label() {
        let grid = ExperimentGrid { scale: 2e-5, seed: 1 };
        let w = Workload::taxi_nycb();
        let (l, r) = w.prepare(grid.scale, grid.seed);
        let cell =
            grid.run_cell(SystemKind::SpatialHadoop, &ClusterConfig::workstation(), &w, &l, &r);
        let summary = cell.outcome.expect("SpatialHadoop never fails");
        assert!(summary.total_s > 0.0);
        let parts = summary.ia_s + summary.ib_s + summary.dj_s;
        assert!((parts - summary.total_s).abs() < 1e-6, "breakdown sums to total");
        assert!(summary.pairs > 0);
    }

    #[test]
    fn cell_results_serialize_to_stable_json() {
        use crate::json::ToJson;
        let grid = ExperimentGrid { scale: 2e-5, seed: 1 };
        let w = Workload::taxi_nycb();
        let (l, r) = w.prepare(grid.scale, grid.seed);
        let cell =
            grid.run_cell(SystemKind::SpatialHadoop, &ClusterConfig::workstation(), &w, &l, &r);
        let json = cell.to_json();
        assert_eq!(json.get("workload").as_str(), Some("taxi-nycb"));
        assert_eq!(json.get("cluster").as_str(), Some("WS"));
        let ok = json.get("outcome").get("Ok");
        assert!(ok.get("total_s").as_f64().unwrap() > 0.0);
        assert!(ok.get("trace").get("stages").as_array().unwrap().len() >= 5);
        // The rendered text is parseable-shaped JSON with stable field order.
        let text = json.to_string_pretty();
        assert!(text.contains("\"workload\": \"taxi-nycb\""));
    }

    #[test]
    fn failed_cells_carry_the_failure_kind() {
        let grid = ExperimentGrid { scale: 2e-5, seed: 1 };
        let w = Workload::taxi_nycb();
        let (l, r) = w.prepare(grid.scale, grid.seed);
        let cell = grid.run_cell(SystemKind::HadoopGis, &ClusterConfig::ec2(10), &w, &l, &r);
        assert_eq!(cell.outcome.unwrap_err(), "broken pipe");
    }
}
