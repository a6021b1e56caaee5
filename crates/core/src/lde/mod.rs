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
use sjc_cluster::{Cluster, RecoveryEvent, SimError, SimNs, StageKind, StageTrace};
use sjc_geom::{GeometryEngine, Point};
use sjc_index::partition::{str_tile_cells, CellLocator};

use crate::common::{local_join_reported, LocalJoinAlgo};
use crate::framework::{CellIndex, DistributedSpatialJoin, GeoRecord, JoinInput, JoinPredicate};
use crate::ledger::{Step, WorkLedger};

/// Target spatial partition count.
const PARTITIONS: usize = 512;
/// One RPC dispatch round from the coordinator to every worker.
const RPC_ROUND_NS: u64 = 100_000_000;

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

    /// Runs the join's real work once — sample, tag every record with its
    /// cells, join each cell's partition pair — and records what each of
    /// the three stages reads and computes. Nothing in LDE has a capacity
    /// check, so `stop` never ends it early.
    fn work(
        &self,
        left: &JoinInput,
        right: &JoinInput,
        predicate: JoinPredicate,
        _stop: &[Cluster],
    ) -> WorkLedger {
        // Native engine with JTS-grade algorithms (the authors' own C++
        // kernels); the SIMD speedup is applied on top of the base profile.
        let jts = GeometryEngine::jts();
        let mult = left.multiplier.max(right.multiplier);

        // --- Stage 1: read + partition, fully in memory ---
        // Workers scan their input shards once; the coordinator derives
        // partitions from a sample and broadcasts cell MBRs over RPC.
        let stride = (right.records.len() / (10 * PARTITIONS)).max(1);
        let sample: Vec<Point> =
            right.records.iter().step_by(stride).map(|r| r.mbr.center()).collect();
        let index =
            CellIndex::new(CellLocator::new(str_tile_cells(right.domain, sample, PARTITIONS)));
        let ncells = index.locator().cells().len();
        let scan_bytes = ((left.sim_bytes + right.sim_bytes) as f64 * mult) as u64;
        let records = (left.records.len() + right.records.len()) as f64 * mult;

        // --- Stage 2: assign records to cells (native probe, in memory) ---
        let mut assign_l: Vec<Vec<u64>> = vec![Vec::new(); ncells];
        let mut assign_r: Vec<Vec<u64>> = vec![Vec::new(); ncells];
        let mut probe_visits = 0u64;
        for (assign, input) in [(&mut assign_l, left), (&mut assign_r, right)] {
            for rec in &input.records {
                probe_visits += index.tag(&rec.mbr, |c| {
                    if let Some(cell) = assign.get_mut(c as usize) {
                        cell.push(rec.id);
                    }
                }) as u64;
            }
        }
        let probe_ns = probe_visits as f64 * mult * jts.filter_cost_ns() as f64;

        // --- Stage 3: partition-pair tasks: local join ---
        // Each task streams its two partitions across the network once
        // (bounded memory!), filters, and SIMD-refines the candidates.
        let mut pairs = Vec::new();
        let mut tasks: Vec<LdeTask> = Vec::with_capacity(ncells);
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
            let owner = [index.locator().owner_test(cell as u32)];
            let (cell_pairs, jc) =
                local_join_reported(&jts, predicate, self.local_algo, &lrecs, &rrecs, &owner);
            pairs.extend(cell_pairs);
            tasks.push(LdeTask {
                bytes: ((lrecs.len() as f64 * bpr_l + rrecs.len() as f64 * bpr_r) * mult) as u64,
                records: (lrecs.len() + rrecs.len()) as f64 * mult,
                join_ns: (jc.filter_ns + jc.refine_ns) as f64 * mult,
            });
        }
        let work = LdeWork { scan_bytes, records, probe_ns, tasks };
        WorkLedger { system: self.name(), steps: vec![Step::Lde(work)], pairs: Some(pairs) }
    }
}

/// What LDE-MC+ did on one input pair, at full scale, for `price`: the
/// bytes and records of both inputs, the filter cost of the cell probes
/// that tag them, and its tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct LdeWork {
    scan_bytes: u64,
    records: f64,
    probe_ns: f64,
    tasks: Vec<LdeTask>,
}

/// One partition-pair task, at full scale: the bytes and records of its two
/// partitions and the filter plus refinement cost of its local join.
#[derive(Debug, Clone, PartialEq)]
struct LdeTask {
    bytes: u64,
    records: f64,
    join_ns: f64,
}

impl LdeWork {
    /// The three stages on `cluster`, the run starting at `start` on its
    /// global clock: the scan and the tagging spread over its slots, the
    /// partition-pair tasks one wave on them after one RPC round, under the
    /// cluster's fault plan. Pure arithmetic over the recorded work; returns
    /// the stages and the join wave's recovery events.
    pub(crate) fn price(
        &self,
        cluster: &Cluster,
        start: SimNs,
    ) -> Result<([StageTrace; 3], Vec<RecoveryEvent>), SimError> {
        let cost = &cluster.cost;
        let node = &cluster.config.node;
        let slots = cluster.total_slots();

        // Parallel scan of both inputs at native per-record cost.
        let mut read_stage = StageTrace::new(
            "scan inputs + derive partitions",
            StageKind::LocalSerial,
            Phase::IndexB,
        );
        let io = cost.io_ns(self.scan_bytes / slots as u64, node.slot_disk_read_bw());
        let cpu = (cost.parse_ns(self.scan_bytes / slots as u64) as f64
            + (self.records / slots as f64) * cost.record_overhead_lde_ns)
            * node.cpu_scale;
        read_stage.sim_ns = io + cpu as u64;
        read_stage.hdfs_bytes_read = self.scan_bytes;
        read_stage.tasks = slots as u64;

        let mut assign_stage = StageTrace::new(
            "assign partition ids (in memory)",
            StageKind::LocalSerial,
            Phase::DistributedJoin,
        );
        assign_stage.sim_ns = ((self.records * cost.record_overhead_lde_ns + self.probe_ns)
            * node.cpu_scale
            / slots as f64) as u64;
        assign_stage.tasks = slots as u64;

        // Each task pulls the remote share of its two partitions over the
        // network; columnar refinement divides the geometry cost by the
        // SIMD width.
        let nodes = cluster.config.nodes;
        let remote_fraction = if nodes > 1 { (nodes - 1) as f64 / nodes as f64 } else { 0.0 };
        let mut net_bytes = 0u64;
        let mut task_ns: Vec<u64> = Vec::with_capacity(self.tasks.len());
        for t in &self.tasks {
            let remote = (t.bytes as f64 * remote_fraction) as u64;
            net_bytes += remote;
            let cpu = (t.records * cost.record_overhead_lde_ns + t.join_ns / cost.lde_simd_lanes)
                * node.cpu_scale;
            task_ns.push(cpu as u64 + cost.io_ns(remote, node.slot_net_bw()));
        }
        let mut join_stage = StageTrace::new(
            "RPC dispatch + SIMD local join",
            StageKind::LocalSerial,
            Phase::DistributedJoin,
        );
        // A finished task's pairs are already with the coordinator, so a
        // crash re-runs only the tasks it kills.
        let dispatched = start + read_stage.sim_ns + assign_stage.sim_ns + RPC_ROUND_NS;
        let wave = cluster.wave(&task_ns, &join_stage.name, dispatched, false)?;
        join_stage.sim_ns = RPC_ROUND_NS + wave.makespan;
        join_stage.shuffle_bytes = net_bytes;
        join_stage.tasks = task_ns.len() as u64;
        join_stage.attempts = wave.attempts;
        join_stage.speculative = wave.speculative;
        join_stage.wasted_ns = wave.wasted_ns;
        Ok(([read_stage, assign_stage, join_stage], wave.events))
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
