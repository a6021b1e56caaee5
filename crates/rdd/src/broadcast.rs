//! Broadcast variables.
//!
//! SpatialSpark builds a spatial index over sampled partition MBRs and
//! broadcasts it "to all computing nodes by Spark runtime without involving
//! HDFS" (§II.B) — unlike HadoopGIS, where every map task re-reads the MBR
//! file from HDFS and rebuilds its own index. A broadcast is charged once
//! per node over the network.

use crate::context::SparkContext;
use crate::ledger::SparkStep;
use sjc_cluster::metrics::Phase;

/// A value shipped once to every executor.
pub struct Broadcast<B> {
    value: B,
    pub bytes: u64,
}

impl<B> Broadcast<B> {
    /// Accesses the broadcast value (free on executors after shipping).
    pub fn value(&self) -> &B {
        &self.value
    }
}

impl<'a> SparkContext<'a> {
    /// Broadcasts `value` of serialized size `bytes` to all nodes; charges
    /// a network-bound stage (the driver streams to each executor).
    pub fn broadcast<B>(&mut self, name: &str, phase: Phase, value: B, bytes: u64) -> Broadcast<B> {
        self.steps.push(SparkStep::Broadcast { name: name.to_string(), phase, bytes });
        Broadcast { value, bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_cluster::{Cluster, ClusterConfig};

    #[test]
    fn broadcast_ships_once_per_node() {
        let cluster = Cluster::new(ClusterConfig::ec2(10));
        let mut ctx = SparkContext::new(&cluster);
        let b = ctx.broadcast("bcast index", Phase::DistributedJoin, vec![1, 2, 3], 1 << 20);
        assert_eq!(b.value(), &vec![1, 2, 3]);
        let stage = &ctx.trace().unwrap().stages[0];
        assert_eq!(stage.shuffle_bytes, 10 << 20);
        assert_eq!(stage.hdfs_bytes_read, 0, "no HDFS involved");
        assert!(stage.sim_ns > 0);
    }

    #[test]
    fn broadcast_wall_time_independent_of_node_count() {
        let t = |n: u32| {
            let cluster = Cluster::new(ClusterConfig::ec2(n));
            let mut ctx = SparkContext::new(&cluster);
            ctx.broadcast("b", Phase::DistributedJoin, (), 8 << 20);
            ctx.trace().unwrap().stages[0].sim_ns
        };
        assert_eq!(t(2), t(10), "parallel torrent distribution");
    }
}
