//! LDE — the paper's *future work*, implemented.
//!
//! The conclusion of the paper points past all three JVM systems: the
//! authors' own next designs (ISP-MC+/ISP-GPU on Impala, **LDE-MC+/LDE-GPU
//! "directly on top of Apache Thrift for distributed data
//! communications"**) drop the Hadoop/Spark platforms entirely and exploit
//! SIMD, which "JVMs do not support yet". This module reproduces that
//! design direction as a fourth system:
//!
//! * **no platform jobs** — long-lived native workers receive partition-pair
//!   tasks over an RPC layer (one dispatch round, no job startup, no
//!   shuffle materialization);
//! * **streamed partitions** — each worker pulls exactly the two partitions
//!   of its task and releases them afterwards, so peak memory is bounded by
//!   a partition pair, not the dataset: the OOM cliff of SpatialSpark
//!   structurally cannot happen;
//! * **columnar SIMD refinement** — candidate pairs are refined in batches
//!   over coordinate arrays; the simulated cost divides by the SIMD lane
//!   count, and the per-record framework overhead is native-engine small.
//!
//! It reuses the same partitioner, local-join filter and geometry engine as
//! the other systems — results are identical (tests enforce it); only the
//! execution fabric differs.

use sjc_cluster::metrics::Phase;
use sjc_cluster::scheduler::lpt_makespan;
use sjc_cluster::{Cluster, RunTrace, SimError, StageKind, StageTrace};
use sjc_geom::{EngineKind, GeometryEngine, Point};
use sjc_index::partition::{str_tile_cells, CellLocator};

use crate::common::{local_join, LocalJoinAlgo};
use crate::framework::{
    reported_by, CellIndex, DistributedSpatialJoin, GeoRecord, JoinInput, JoinOutput, JoinPredicate,
};

/// Target spatial partition count.
const PARTITIONS: usize = 512;

/// The LDE-MC+ style system.
#[derive(Debug, Clone)]
pub struct LdeEngine {
    /// Local join algorithm for the filter step (the modeled system probes
    /// per-partition R-trees, so the default stays `IndexedNestedLoop`;
    /// `StripeSweep` is selectable for ablations).
    pub local_algo: LocalJoinAlgo,
}

impl Default for LdeEngine {
    fn default() -> Self {
        LdeEngine { local_algo: LocalJoinAlgo::IndexedNestedLoop }
    }
}

impl DistributedSpatialJoin for LdeEngine {
    fn name(&self) -> &'static str {
        "LDE-MC+"
    }

    fn engine(&self) -> EngineKind {
        // Native engine with JTS-grade algorithms (the authors' own C++
        // kernels); the SIMD speedup is applied on top of the base profile.
        EngineKind::Jts
    }

    fn run(
        &self,
        cluster: &Cluster,
        left: &JoinInput,
        right: &JoinInput,
        predicate: JoinPredicate,
    ) -> Result<JoinOutput, SimError> {
        let cost = &cluster.cost;
        let node = &cluster.config.node;
        let slots = cluster.total_slots();
        let jts = GeometryEngine::new(self.engine());
        let mult = left.multiplier.max(right.multiplier);
        let mut trace = RunTrace::new(self.name());

        // --- Stage 1: read + partition, fully in memory ---
        // Workers scan their input shards once; the coordinator derives
        // partitions from a sample and broadcasts cell MBRs over RPC.
        let stride = (right.records.len() / (10 * PARTITIONS)).max(1);
        let sample: Vec<Point> =
            right.records.iter().step_by(stride).map(|r| r.mbr.center()).collect();
        let index =
            CellIndex::new(CellLocator::new(str_tile_cells(right.domain, sample, PARTITIONS)));
        let ncells = index.locator().cells().len();

        let mut read_stage = StageTrace::new(
            "scan inputs + derive partitions",
            StageKind::LocalSerial,
            Phase::IndexB,
        );
        {
            // Parallel scan of both inputs at native per-record cost.
            let total_bytes = left.sim_bytes + right.sim_bytes;
            let total_records = (left.records.len() + right.records.len()) as u64;
            let io = cost
                .io_ns((total_bytes as f64 * mult) as u64 / slots as u64, node.slot_disk_read_bw());
            let cpu = (cost.parse_ns((total_bytes as f64 * mult) as u64 / slots as u64) as f64
                + (total_records as f64 * mult / slots as f64) * cost.record_overhead_lde_ns)
                * node.cpu_scale;
            read_stage.sim_ns = io + cpu as u64;
            read_stage.hdfs_bytes_read = (total_bytes as f64 * mult) as u64;
            read_stage.tasks = slots as u64;
        }
        trace.push(read_stage);

        // --- Stage 2: assign records to cells (native probe, in memory) ---
        let mut assign_l: Vec<Vec<u64>> = vec![Vec::new(); ncells];
        let mut assign_r: Vec<Vec<u64>> = vec![Vec::new(); ncells];
        let mut probe_visits = 0u64;
        let mut hits = Vec::new();
        for (assign, input) in [(&mut assign_l, left), (&mut assign_r, right)] {
            for rec in &input.records {
                probe_visits += index.tag(&rec.mbr, &mut hits) as u64;
                for &c in &hits {
                    if let Some(cell) = assign.get_mut(c as usize) {
                        cell.push(rec.id);
                    }
                }
            }
        }
        let mut assign_stage = StageTrace::new(
            "assign partition ids (in memory)",
            StageKind::LocalSerial,
            Phase::DistributedJoin,
        );
        {
            let records = (left.records.len() + right.records.len()) as f64 * mult;
            let cpu = (records * cost.record_overhead_lde_ns
                + probe_visits as f64 * mult * jts.filter_cost_ns() as f64)
                * node.cpu_scale
                / slots as f64;
            assign_stage.sim_ns = cpu as u64;
            assign_stage.tasks = slots as u64;
        }
        trace.push(assign_stage);

        // --- Stage 3: dispatch partition-pair tasks over RPC + local join ---
        // Each task streams its two partitions across the network once
        // (bounded memory!), filters, and SIMD-refines the candidates.
        let remote_fraction = if cluster.config.nodes > 1 {
            (cluster.config.nodes - 1) as f64 / cluster.config.nodes as f64
        } else {
            0.0
        };
        let mut pairs = Vec::new();
        let mut task_ns: Vec<u64> = Vec::with_capacity(ncells);
        let mut net_bytes = 0u64;
        let bpr_l = left.bytes_per_record();
        let bpr_r = right.bytes_per_record();
        // Per-cell record views are gathered into two reused buffers: the
        // cell loop clears and refills them instead of allocating fresh
        // Vecs ncells times.
        let mut lrecs: Vec<&GeoRecord> = Vec::new();
        let mut rrecs: Vec<&GeoRecord> = Vec::new();
        for (cell, (l_ids, r_ids)) in assign_l.iter().zip(&assign_r).enumerate() {
            lrecs.clear();
            rrecs.clear();
            lrecs.extend(left.pick(l_ids.iter().copied()));
            rrecs.extend(right.pick(r_ids.iter().copied()));
            if lrecs.is_empty() || rrecs.is_empty() {
                continue;
            }
            let keep = reported_by(index.locator(), cell as u32);
            let (cell_pairs, jc) =
                local_join(&jts, predicate, self.local_algo, &lrecs, &rrecs, keep);
            pairs.extend(cell_pairs);

            let part_bytes =
                ((lrecs.len() as f64 * bpr_l + rrecs.len() as f64 * bpr_r) * mult) as u64;
            net_bytes += (part_bytes as f64 * remote_fraction) as u64;
            let records = (lrecs.len() + rrecs.len()) as f64 * mult;
            // Columnar refinement: geometry cost divided by SIMD width.
            let cpu = (records * cost.record_overhead_lde_ns
                + ((jc.filter_ns + jc.refine_ns) as f64 * mult) / cost.lde_simd_lanes)
                * node.cpu_scale;
            let io = cost.io_ns((part_bytes as f64 * remote_fraction) as u64, node.slot_net_bw());
            task_ns.push(cpu as u64 + io);
        }
        let mut join_stage = StageTrace::new(
            "RPC dispatch + SIMD local join",
            StageKind::LocalSerial,
            Phase::DistributedJoin,
        );
        join_stage.sim_ns = 100_000_000 /* one RPC round */ + lpt_makespan(&task_ns, slots);
        join_stage.shuffle_bytes = net_bytes;
        join_stage.tasks = task_ns.len() as u64;
        trace.push(join_stage);

        Ok(JoinOutput { pairs, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::direct_join;
    use crate::experiment::Workload;
    use crate::spatialspark::SpatialSpark;
    use sjc_cluster::ClusterConfig;

    fn tiny_inputs() -> (JoinInput, JoinInput) {
        let (mut l, mut r) = Workload::taxi1m_nycb().prepare(2e-4, 7);
        l.multiplier = 1.0;
        r.multiplier = 1.0;
        (l, r)
    }

    #[test]
    fn matches_direct_join() {
        let (left, right) = tiny_inputs();
        let cluster = Cluster::new(ClusterConfig::workstation());
        let out =
            LdeEngine::default().run(&cluster, &left, &right, JoinPredicate::Intersects).unwrap();
        let mut expected = direct_join(
            &GeometryEngine::jts(),
            JoinPredicate::Intersects,
            &left.records,
            &right.records,
        );
        expected.sort_unstable();
        assert!(!expected.is_empty());
        assert_eq!(out.sorted_pairs(), expected);
    }

    #[test]
    fn beats_spatialspark_where_both_run() {
        let (l, r) = Workload::taxi1m_nycb().prepare(1e-3, 20150701);
        let cluster = Cluster::new(ClusterConfig::ec2(10));
        let lde = LdeEngine::default().run(&cluster, &l, &r, JoinPredicate::Intersects).unwrap();
        let spark =
            SpatialSpark::default().run(&cluster, &l, &r, JoinPredicate::Intersects).unwrap();
        assert!(
            lde.trace.total_seconds() < spark.trace.total_seconds(),
            "LDE {} should beat SpatialSpark {}",
            lde.trace.total_seconds(),
            spark.trace.total_seconds()
        );
    }

    #[test]
    fn survives_where_spatialspark_oom() {
        // Bounded streaming memory: the full-scale workload that OOMs
        // SpatialSpark on EC2-6 completes on LDE.
        let (l, r) = Workload::taxi_nycb().prepare(1e-3, 20150701);
        let cluster = Cluster::new(ClusterConfig::ec2(6));
        assert!(SpatialSpark::default().run(&cluster, &l, &r, JoinPredicate::Intersects).is_err());
        assert!(LdeEngine::default().run(&cluster, &l, &r, JoinPredicate::Intersects).is_ok());
    }

    #[test]
    fn reads_inputs_once_and_never_writes() {
        let (l, r) = tiny_inputs();
        let cluster = Cluster::new(ClusterConfig::ec2(10));
        let out = LdeEngine::default().run(&cluster, &l, &r, JoinPredicate::Intersects).unwrap();
        let read: u64 = out.trace.stages.iter().map(|s| s.hdfs_bytes_read).sum();
        assert_eq!(read, l.sim_bytes + r.sim_bytes);
        let written: u64 = out.trace.stages.iter().map(|s| s.hdfs_bytes_written).sum();
        assert_eq!(written, 0);
    }
}
