//! Work once, price per cluster.
//!
//! The paper's Tables 2 and 3 hold each design fixed and vary only the
//! hardware. Every system here, LDE-MC+ included, splits the same way:
//! [`work`](crate::framework::DistributedSpatialJoin::work) runs the real
//! partitioning, tagging, local joins and refinement once and records what
//! each stage did in a [`WorkLedger`]; [`WorkLedger::price`] is pure
//! arithmetic over that record on one [`Cluster`]. The trait's one
//! [`run`](crate::framework::DistributedSpatialJoin::run) is `price(work(..))`
//! on one cluster; the experiment grid and the scalability and extension
//! tables work each (system, workload) once and price it on every
//! configuration.
//!
//! `work` never reads a cluster, with one exception: `stop`, the clusters
//! the ledger will be priced on. A stage whose capacity check (HadoopGIS's
//! streaming pipes, SpatialSpark's executor memory) fails on every one of
//! them ends the work there, since no cluster that will price it gets past
//! it. Pricing re-derives each cluster's own failure point and payload.

use sjc_cluster::{Cluster, CostModel, RunTrace, SimError, SimHdfs, SimNs, StageTrace};
use sjc_mapreduce::{JobWork, MapReduceJob};
use sjc_rdd::SparkLedger;

use crate::framework::JoinOutput;
use crate::lde::LdeWork;

/// The cost model a system's work charges its closures with: the
/// simulator's calibration, the same on every cluster (`Cluster::new` and
/// `Cluster::with_faults` install it).
pub(crate) fn work_cost() -> CostModel {
    CostModel::default()
}

/// One recorded step of a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A MapReduce job, native or streaming.
    Job(JobWork),
    /// A stage no cluster field moves: HadoopGIS's copies between HDFS and
    /// the local file system, and its serial partition generation.
    Fixed(StageTrace),
    /// A serial step on the master: `cpu_ns` plus a read of `bytes` of
    /// metadata off its disk (SpatialHadoop's `getSplits`). `stage` holds
    /// everything but the time.
    MasterRead { stage: StageTrace, cpu_ns: SimNs, bytes: u64 },
    /// A file written to HDFS outside any job (SpatialHadoop's `_master`).
    HdfsWrite { name: String, bytes: u64, records: u64 },
    /// A whole Spark application.
    Spark(SparkLedger),
    /// A whole LDE-MC+ run: its scan, tagging and partition-pair join.
    Lde(LdeWork),
}

/// What a system did on one input pair: its steps, and its result pairs
/// unless the work stopped early.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkLedger {
    /// The system name the priced trace carries.
    pub system: &'static str,
    pub steps: Vec<Step>,
    /// `None` when the work stopped at a step every cluster of its `stop`
    /// fails.
    pub pairs: Option<Vec<(u64, u64)>>,
}

impl WorkLedger {
    /// Prices the work on `cluster`: every step's simulated time, bytes and
    /// recovery on the run's global clock, or the error of the first step
    /// the cluster fails.
    ///
    /// A ledger that stopped early prices only on the clusters of its
    /// `stop`; on another cluster that gets past the last step it fails
    /// with [`SimError::FileNotFound`] for the output that step never wrote.
    pub fn price(&self, cluster: &Cluster) -> Result<RunTrace, SimError> {
        let mut hdfs = SimHdfs::new(cluster.config.nodes);
        let mut trace = RunTrace::new(self.system);
        for step in &self.steps {
            match step {
                Step::Job(job) => {
                    let start = trace.total_ns();
                    let (stage, recovery) =
                        MapReduceJob::new(cluster, &mut hdfs).price(job, start)?;
                    trace.push_recovery(recovery);
                    trace.push(stage);
                }
                // sjc-lint: allow(hot-alloc) — the priced trace owns its stages: one copy per recorded stage, the output itself
                Step::Fixed(stage) => trace.push(stage.clone()),
                Step::MasterRead { stage, cpu_ns, bytes } => {
                    // sjc-lint: allow(hot-alloc) — the priced trace owns its stages: one copy per recorded stage, the output itself
                    let mut stage = stage.clone();
                    stage.sim_ns =
                        cpu_ns + cluster.cost.io_ns(*bytes, cluster.config.node.disk_read_bw);
                    trace.push(stage);
                }
                Step::HdfsWrite { name, bytes, records } => {
                    hdfs.write_file(name, *bytes, *records);
                }
                Step::Spark(spark) => trace = spark.price(cluster, trace)?,
                Step::Lde(lde) => {
                    let (stages, recovery) = lde.price(cluster, trace.total_ns())?;
                    trace.push_recovery(recovery);
                    stages.into_iter().for_each(|s| trace.push(s));
                }
            }
        }
        match self.pairs {
            Some(_) => Ok(trace),
            None => {
                Err(SimError::FileNotFound(format!("{}: output of the last step", self.system)))
            }
        }
    }

    /// Prices the work on `cluster` and hands over the result pairs.
    pub fn into_output(self, cluster: &Cluster) -> Result<JoinOutput, SimError> {
        let trace = self.price(cluster)?;
        Ok(JoinOutput { pairs: self.pairs.unwrap_or_default(), trace })
    }
}
