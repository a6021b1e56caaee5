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

use scheduler::TaskSchedule;

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
    /// [`FaultPlan::none()`], under which [`Cluster::wave`] is the plain LPT
    /// makespan and no replica failover fires, so a run meters no attempt
    /// and logs no recovery event.
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

    /// Schedules one wave of `tasks` (full-scale durations) on this
    /// cluster's slots, starting at `start` on the run's global clock. With
    /// no fault planned it is the LPT makespan alone: no attempts, no
    /// events. Otherwise the event scheduler
    /// [`faulty_makespan`](scheduler::faulty_makespan) runs it under
    /// [`Self::faults`], `stage` naming its recovery events and seeding its
    /// fault draws.
    pub fn wave(
        &self,
        tasks: &[SimNs],
        stage: &str,
        start: SimNs,
        rerun_on_crash: bool,
    ) -> Result<TaskSchedule, SimError> {
        if self.faults.is_none() {
            return Ok(TaskSchedule { makespan: self.makespan(tasks), ..TaskSchedule::default() });
        }
        scheduler::faulty_makespan(
            tasks,
            self.config.node.cores,
            self.config.nodes,
            &self.faults,
            stage,
            start,
            rerun_on_crash,
        )
    }

    /// Effective per-slot HDFS write bandwidth: on a multi-node cluster the
    /// replication pipeline streams two remote copies through the NIC, so a
    /// writer is capped by `min(disk, net / 2)` — on 1 Gbit/s EC2 networks
    /// this, not the SSD, bounds SpatialHadoop's index writes and every
    /// checkpoint write.
    pub fn hdfs_write_bw(&self) -> f64 {
        let node = &self.config.node;
        if self.config.nodes > 1 {
            node.slot_disk_write_bw().min(node.slot_net_bw() / 2.0)
        } else {
            node.slot_disk_write_bw()
        }
    }

    /// Replica failover for a stage starting at `start` that reads `bytes`
    /// of full-scale input: the blocks whose primary replica sat on a node
    /// already dead come from remote replicas over the NIC, spread across
    /// the surviving slots. Returns the bytes re-read and the recovery event,
    /// whose `wasted_ns` is the time the stage pays; `None` when no node is
    /// dead or nothing is read.
    pub fn replica_failover(
        &self,
        stage: &str,
        start: SimNs,
        bytes: u64,
    ) -> Option<(u64, RecoveryEvent)> {
        let dead = self.faults.dead_nodes_at(start);
        if dead.is_empty() || bytes == 0 {
            return None;
        }
        let nodes = self.config.nodes;
        let node = &self.config.node;
        let live = nodes.saturating_sub(dead.len() as u32).max(1);
        let reread = (bytes as f64 * dead.len() as f64 / nodes as f64) as u64;
        let live_slots = (live as u64 * node.cores as u64).max(1);
        let extra = self.cost.io_ns(reread / live_slots, node.slot_net_bw());
        let event = RecoveryEvent {
            stage: stage.to_string(),
            kind: RecoveryKind::ReplicaFailover {
                blocks: reread.div_ceil(hdfs::DEFAULT_BLOCK_SIZE),
            },
            wasted_ns: extra,
        };
        Some((reread, event))
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
    fn wave_is_lpt_without_faults_and_the_event_scheduler_with_them() {
        let tasks = [400u64, 900, 300, 300, 700, 100, 800, 200, 600, 500];
        let config = ClusterConfig::ec2(2);
        let clean = Cluster::new(config.clone());
        let s = clean.wave(&tasks, "w", 1_000, true).unwrap();
        assert_eq!(s.makespan, scheduler::lpt_makespan(&tasks, clean.total_slots()));
        assert_eq!((s.attempts, s.speculative, s.wasted_ns), (0, 0, 0));
        assert!(s.events.is_empty() && s.task_nodes.is_empty());

        let plan = FaultPlan::seeded(3, &config).crash_at(1, 1_200);
        let crashed = Cluster::with_faults(config, plan.clone());
        for rerun in [false, true] {
            let s = crashed.wave(&tasks, "w", 1_000, rerun).unwrap();
            let direct =
                scheduler::faulty_makespan(&tasks, 8, 2, &plan, "w", 1_000, rerun).unwrap();
            assert_eq!(s, direct);
            assert!(s.attempts > 0);
        }
    }

    #[test]
    fn ns_conversion() {
        assert_eq!(ns_to_secs(1_500_000_000), 1.5);
    }
}
