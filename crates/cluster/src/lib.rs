//! # sjc-cluster — deterministic cluster simulator
//!
//! The hardware/platform substrate replacing the paper's physical testbeds:
//! a 16-core/128 GB workstation ("WS") and Amazon EC2 clusters of 6–10
//! `g2.2xlarge` nodes (8 vCPU / 15 GB each). The simulator is *analytic*:
//! real computation runs on the host, while a [`cost::CostModel`] charges
//! every byte moved and every record processed to a simulated clock, and a
//! [`scheduler`] turns per-task costs into a makespan on the configured
//! hardware. This reproduces the paper's *relative* results (who wins, by
//! what factor, which configurations fail) without the actual clusters.
//!
//! Components:
//!
//! * [`config`] — hardware presets (WS, EC2-10/8/6) and their resources;
//! * [`cost`] — the calibrated cost-model constants, each tied to a paper
//!   observation;
//! * [`scheduler`] — wave/LPT scheduling of task sets onto cluster slots;
//! * [`hdfs`] — a simulated HDFS: block placement, replication, byte
//!   accounting;
//! * [`metrics`] — [`metrics::RunTrace`]: the per-stage ledger that the
//!   report layer prints (stage seconds, HDFS/network/pipe bytes — the
//!   quantities Fig. 1 of the paper illustrates qualitatively);
//! * [`error`] — the failure modes observed in the paper (Hadoop-Streaming
//!   broken pipes, Spark out-of-memory);
//! * [`faults`] — deterministic seeded fault injection ([`FaultPlan`]:
//!   node crashes, stragglers, transient disk errors) that the engines
//!   recover around (task retry, speculation, replica failover, lineage
//!   recomputation).

pub mod config;
pub mod cost;
pub mod error;
pub mod faults;
pub mod hdfs;
pub mod metrics;
pub mod scheduler;

pub use config::{ClusterConfig, NodeSpec};
pub use cost::CostModel;
pub use error::SimError;
pub use faults::{
    CheckpointPolicy, FaultPlan, DEFAULT_CHECKPOINT_REPLICATION, DEFAULT_PROVISION_DELAY_NS,
    MAX_PROVISION_DELAY_NS, MAX_RETRY_BACKOFF_NS, MAX_STAGE_RESUBMITS, MAX_TASK_ATTEMPTS,
    RETRY_BACKOFF_BASE_NS,
};
pub use hdfs::SimHdfs;
pub use metrics::{RecoveryEvent, RecoveryKind, RunTrace, StageKind, StageTrace};

/// Simulated time in nanoseconds.
pub type SimNs = u64;

/// Converts simulated nanoseconds to seconds.
pub fn ns_to_secs(ns: SimNs) -> f64 {
    ns as f64 / 1e9
}

/// A cluster: hardware configuration plus the cost model — the context
/// object every simulated job executes against.
#[derive(Debug, Clone)]
pub struct Cluster {
    pub config: ClusterConfig,
    pub cost: CostModel,
    /// The fault schedule for runs on this cluster. Defaults to
    /// [`FaultPlan::none()`], under which every engine bypasses its fault
    /// machinery entirely (bit-identical to the pre-fault behaviour).
    pub faults: FaultPlan,
}

impl Cluster {
    pub fn new(config: ClusterConfig) -> Self {
        Cluster { config, cost: CostModel::default(), faults: FaultPlan::none() }
    }

    /// A cluster with a fault schedule attached.
    pub fn with_faults(config: ClusterConfig, faults: FaultPlan) -> Self {
        Cluster { config, cost: CostModel::default(), faults }
    }

    /// Total parallel task slots (cores across all nodes).
    pub fn total_slots(&self) -> usize {
        (self.config.nodes * self.config.node.cores) as usize
    }

    /// Makespan of running `task_ns` durations on this cluster's slots.
    pub fn makespan(&self, task_ns: &[SimNs]) -> SimNs {
        scheduler::lpt_makespan(task_ns, self.total_slots())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_expose_resources() {
        let ws = Cluster::new(ClusterConfig::workstation());
        assert_eq!(ws.total_slots(), 16);
        assert_eq!(ws.config.nodes as u64 * ws.config.node.memory_bytes, 128 * (1 << 30));

        let ec2 = Cluster::new(ClusterConfig::ec2(10));
        assert_eq!(ec2.total_slots(), 80);
        assert_eq!(ec2.config.nodes as u64 * ec2.config.node.memory_bytes, 150 * (1 << 30));
    }

    #[test]
    fn makespan_uses_all_slots() {
        let ws = Cluster::new(ClusterConfig::workstation());
        let tasks = vec![1_000_000_000u64; 16];
        assert_eq!(ws.makespan(&tasks), 1_000_000_000);
        let tasks17 = vec![1_000_000_000u64; 17];
        assert_eq!(ws.makespan(&tasks17), 2_000_000_000);
    }

    #[test]
    fn ns_conversion() {
        assert_eq!(ns_to_secs(1_500_000_000), 1.5);
    }
}
