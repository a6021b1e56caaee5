//! SpatialHadoop reproduction: native Hadoop + JTS (Fig. 1(b) of the paper).
//!
//! Pipeline (§II.A–C):
//!
//! 1. **Preprocessing, per dataset** — two MR jobs:
//!    * *sample job*: scan the input, draw a systematic sample, derive
//!      partition MBRs from it on the master, store them as a `_master`
//!      HDFS file (a few KB; the simulation does not charge that write);
//!    * *partition job*: map assigns every record the cell(s) it
//!      intersects; the shuffle groups records by cell id; reducers write
//!      one indexed block file per cell (the intra-block R-tree is "built
//!      virtually for free" next to the dominating disk I/O, but the write
//!      — with 3× replication — is exactly the indexing cost Table 3 shows
//!      exploding on EC2).
//! 2. **Global join** — *not* a distributed step: the job's `getSplits`
//!    override runs a serial plane-sweep over the two `_master` MBR lists
//!    on the master node and emits one input split per intersecting cell
//!    pair.
//! 3. **Local join** — a *map-only* job: each task random-accesses the two
//!    indexed block files of its cell pair and runs a plane-sweep (or
//!    synchronized R-tree) join plus JTS refinement. No shuffle, no
//!    reducers — the design the paper credits for SpatialHadoop's
//!    robustness.

use sjc_cluster::hdfs::DEFAULT_BLOCK_SIZE;
use sjc_cluster::metrics::Phase;
use sjc_cluster::{Cluster, CostModel, StageKind, StageTrace};
use sjc_geom::{EngineKind, GeometryEngine, Mbr};
use sjc_index::join::plane_sweep;
use sjc_index::partition::CellLocator;
use sjc_mapreduce::job::ScaleMode;
use sjc_mapreduce::{block_splits, JobConfig, JobWork, MapTask};

use crate::common::{local_join_reported, LocalJoinAlgo, PartitionerKind};
use crate::framework::{CellIndex, DistributedSpatialJoin, GeoRecord, JoinInput, JoinPredicate};
use crate::ledger::{run_cost, Step, WorkLedger};

/// Systematic sample stride for partition derivation: a 1 % sample.
const SAMPLE_STRIDE: u64 = 100;
/// Target spatial partition count per dataset. SpatialHadoop sizes
/// partitions toward HDFS blocks; 128 cells approximates the block count of
/// the full datasets.
const PARTITIONS: usize = 128;

/// The SpatialHadoop system.
#[derive(Debug, Clone)]
pub struct SpatialHadoop {
    /// Local join algorithm (§II.C offers plane sweep and synchronized
    /// R-tree traversal). Defaults to the striped SoA sweep kernel, which
    /// computes the plane sweep's exact pair set and `JoinStats` faster on
    /// the host; the paper's algorithms stay selectable for the ablation.
    pub local_algo: LocalJoinAlgo,
    /// Spatial partitioner family (SpatialHadoop supports GRID and
    /// STR-style indexes; the ablation benches sweep this).
    pub partitioner: PartitionerKind,
    /// Geometry library cost profile (JTS for the real system; the
    /// `ablation_geometry_engine` bench swaps in GEOS).
    pub engine: EngineKind,
    /// Index the right dataset with the *left* dataset's grid. §II.B: when
    /// "the underlying grid configurations are not compatible ...
    /// re-partition is required. On the other hand ... SpatialHadoop can run
    /// faster when re-partitioning can be skipped" — compatible grids drop
    /// the right side's sample job and turn the global join into identity
    /// cell pairing.
    pub reuse_partitions: bool,
}

impl Default for SpatialHadoop {
    fn default() -> Self {
        SpatialHadoop {
            local_algo: LocalJoinAlgo::default(),
            partitioner: PartitionerKind::StrTiles,
            engine: EngineKind::Jts,
            reuse_partitions: false,
        }
    }
}

/// A dataset after preprocessing: its cell index, the record ids of each
/// cell, and the dataset's serialized bytes per record.
struct Indexed {
    index: CellIndex,
    cells: Vec<Vec<u64>>,
    bpr: f64,
}

impl Indexed {
    /// The record ids of `cell` (none for an id outside the index).
    fn cell(&self, cell: u64) -> &[u64] {
        self.cells.get(cell as usize).map_or(&[], Vec::as_slice)
    }

    /// Serialized bytes of `cell`'s indexed block file.
    fn cell_bytes(&self, cell: u64) -> u64 {
        (self.cell(cell).len() as f64 * self.bpr) as u64
    }
}

impl SpatialHadoop {
    /// The two preprocessing MR jobs for one dataset, appended to `steps`.
    fn index_dataset(
        &self,
        cost: &CostModel,
        steps: &mut Vec<Step>,
        input: &JoinInput,
        phase: Phase,
        shared_cells: Option<Vec<Mbr>>,
    ) -> Indexed {
        let bpr = input.bytes_per_record();
        let block = DEFAULT_BLOCK_SIZE;
        let records: Vec<&GeoRecord> = input.records.iter().collect();

        let index = CellIndex::new(match shared_cells {
            // Compatible-grid mode: adopt the other dataset's cells and skip
            // the sample job entirely.
            Some(cells) => CellLocator::new(cells),
            None => {
                // --- MR job 1: sample + derive partitions on the master ---
                let cfg1 =
                    JobConfig::new(format!("{}: sample", input.name), phase, input.multiplier)
                        .write_output(false);
                let (job, sample) =
                    JobWork::map_only(&cfg1, block_splits(&records, bpr, block), |rec, em| {
                        if rec.id % SAMPLE_STRIDE == 0 {
                            em.emit(rec.mbr.center(), 16);
                        }
                    });
                steps.push(Step::Job(job));
                self.partitioner.build(input.domain, sample, PARTITIONS)
            }
        });
        let ncells = index.locator().cells().len();

        // --- MR job 2: assign partitions, shuffle, write indexed blocks ---
        let jts = GeometryEngine::new(self.engine);
        let cfg2 =
            JobConfig::new(format!("{}: partition+index", input.name), phase, input.multiplier);
        let (job, output) = JobWork::map_reduce(
            &cfg2,
            block_splits(&records, bpr, block),
            |rec, em| {
                let visits = index.tag(&rec.mbr, |cell| em.emit(cell, rec.id, bpr as u64));
                em.charge(visits as u64 * jts.filter_cost_ns());
            },
            |cell, ids, em| {
                // Build the intra-block index — sort the block by MBR
                // `min_x`, ties by id, the order every local join's sweep
                // reads it in, so no partner cell sorts it again — and
                // write the block: the write dominates, as the paper notes.
                em.charge(cost.sort_ns(ids.len() as u64));
                let mut keyed: Vec<(f64, u64)> =
                    input.pick(ids.iter().copied()).map(|r| (r.mbr.min_x, r.id)).collect();
                keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let sorted: Vec<u64> = keyed.iter().map(|&(_, id)| id).collect();
                em.emit((*cell, sorted), (ids.len() as f64 * bpr) as u64);
            },
        );
        steps.push(Step::Job(job));

        let mut cells: Vec<Vec<u64>> = vec![Vec::new(); ncells];
        for (cell, ids) in output {
            if let Some(slot) = cells.get_mut(cell as usize) {
                *slot = ids;
            }
        }
        Indexed { index, cells, bpr }
    }
}

impl DistributedSpatialJoin for SpatialHadoop {
    fn name(&self) -> &'static str {
        "SpatialHadoop"
    }

    /// Runs the join's real work once — both datasets' sample and
    /// partition jobs, `getSplits`, and the map-only local join — and
    /// records it for pricing. SpatialHadoop has no capacity check, so
    /// `stop` never ends it early.
    fn work(
        &self,
        left: &JoinInput,
        right: &JoinInput,
        predicate: JoinPredicate,
        stop: &[Cluster],
    ) -> WorkLedger {
        let cost = run_cost(stop);
        let mut steps = Vec::new();
        let jts = GeometryEngine::new(self.engine);

        // Preprocessing: index both datasets (IA, IB).
        let ia = self.index_dataset(cost, &mut steps, left, Phase::IndexA, None);
        let shared =
            if self.reuse_partitions { Some(ia.index.locator().cells().to_vec()) } else { None };
        let ib = self.index_dataset(cost, &mut steps, right, Phase::IndexB, shared);

        // Global join on the master: serial plane-sweep over the two
        // `_master` cell-MBR lists (the getSplits override).
        let (a_entries, b_entries) = (ia.index.entries(), ib.index.entries());
        let cand = if self.reuse_partitions {
            // Compatible grids: cell i pairs with cell i — no serial sweep.
            sjc_index::join::CandidatePairs {
                pairs: (0..a_entries.len() as u64).map(|i| (i, i)).collect(),
                stats: Default::default(),
            }
        } else {
            // Deliberately the classic sweep, not `stripe_sweep`: the pair
            // *order* here becomes the task order fed to the wave
            // scheduler, so switching kernels would reorder tasks and move
            // the simulated clock. The lists are tiny (one entry per cell).
            plane_sweep(&a_entries, &b_entries)
        };
        let master_bytes = (a_entries.len() + b_entries.len()) as u64 * 72;
        let mut stage = StageTrace::new(
            "getSplits: pair partitions",
            StageKind::LocalSerial,
            Phase::DistributedJoin,
        );
        stage.hdfs_bytes_read = master_bytes;
        let cpu_ns = cand.stats.filter_tests * jts.filter_cost_ns();
        steps.push(Step::MasterRead { stage, cpu_ns, bytes: master_bytes });

        // Local join: map-only job, one task per intersecting cell pair.
        let tasks: Vec<MapTask<(u64, u64)>> = cand
            .pairs
            .iter()
            .map(|&(ca, cb)| MapTask::new(vec![(ca, cb)], ia.cell_bytes(ca) + ib.cell_bytes(cb)))
            .collect();
        let mult = left.multiplier.max(right.multiplier);
        let cfg = JobConfig::new("distributed join (map-only)", Phase::DistributedJoin, mult)
            .map_scale(ScaleMode::BiggerTasks)
            .parse_input(false); // indexed binary blocks, no text parse
        let (job, pairs) = JobWork::map_only(&cfg, tasks, |&(ca, cb), em| {
            let lrecs: Vec<&GeoRecord> = left.pick(ia.cell(ca).iter().copied()).collect();
            let rrecs: Vec<&GeoRecord> = right.pick(ib.cell(cb).iter().copied()).collect();
            // A pair is reported once: by the cell pair owning its
            // reference point in both grids.
            let owners = [
                ia.index.locator().owner_test(ca as u32),
                ib.index.locator().owner_test(cb as u32),
            ];
            let (pairs, join) =
                local_join_reported(&jts, predicate, self.local_algo, &lrecs, &rrecs, &owners);
            // Deserializing the two block files' records into JVM objects is
            // the task's real per-record cost; the geometry work rides on top.
            em.charge(cost.hadoop_records_ns((lrecs.len() + rrecs.len()) as u64));
            em.charge(join.filter_ns + join.refine_ns);
            for p in pairs {
                em.emit(p, 24);
            }
        });
        steps.push(Step::Job(job));
        WorkLedger { system: self.name(), steps, pairs: Some(pairs) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::direct_join;
    use sjc_cluster::ClusterConfig;
    use sjc_data::{DatasetId, ScaledDataset};

    fn tiny_inputs() -> (JoinInput, JoinInput) {
        let taxi = ScaledDataset::generate(DatasetId::Taxi, 2e-5, 7);
        let nycb = ScaledDataset::generate(DatasetId::Nycb, 2e-5, 7);
        (JoinInput::from_dataset(&taxi), JoinInput::from_dataset(&nycb))
    }

    #[test]
    fn matches_direct_join() {
        let (left, right) = tiny_inputs();
        let cluster = Cluster::new(ClusterConfig::workstation());
        let sys = SpatialHadoop::default();
        let out = sys.run(&cluster, &left, &right, JoinPredicate::Intersects).unwrap();
        let mut expected = direct_join(
            &GeometryEngine::jts(),
            JoinPredicate::Intersects,
            &left.records,
            &right.records,
        );
        expected.sort_unstable();
        assert!(!expected.is_empty(), "workload must have hits");
        assert_eq!(out.sorted_pairs(), expected);
    }

    #[test]
    fn emits_the_papers_stage_structure() {
        let (left, right) = tiny_inputs();
        let cluster = Cluster::new(ClusterConfig::workstation());
        let out = SpatialHadoop::default()
            .run(&cluster, &left, &right, JoinPredicate::Intersects)
            .unwrap();
        // 2 jobs per dataset + getSplits + map-only join = 6 stages.
        assert_eq!(out.trace.stages.len(), 6);
        assert!(out.trace.phase_ns(Phase::IndexA) > 0);
        assert!(out.trace.phase_ns(Phase::IndexB) > 0);
        assert!(out.trace.phase_ns(Phase::DistributedJoin) > 0);
        // The join job is map-only.
        let join_stage = out.trace.stages.last().unwrap();
        assert_eq!(join_stage.kind, StageKind::MapOnlyJob);
        assert_eq!(join_stage.shuffle_bytes, 0, "no shuffle in the join job");
    }

    #[test]
    fn sync_rtree_variant_agrees() {
        let (left, right) = tiny_inputs();
        let cluster = Cluster::new(ClusterConfig::workstation());
        let sweep = SpatialHadoop::default()
            .run(&cluster, &left, &right, JoinPredicate::Intersects)
            .unwrap();
        let sync =
            SpatialHadoop { local_algo: LocalJoinAlgo::SyncRTree, ..SpatialHadoop::default() }
                .run(&cluster, &left, &right, JoinPredicate::Intersects)
                .unwrap();
        assert_eq!(sweep.sorted_pairs(), sync.sorted_pairs());
    }

    #[test]
    fn compatible_grids_skip_work_without_changing_results() {
        // §II.B: when the grids are compatible, re-partitioning is skipped
        // and SpatialHadoop runs faster. Same results, fewer stages, less
        // simulated time.
        let (left, right) = tiny_inputs();
        let cluster = Cluster::new(ClusterConfig::workstation());
        let default_run = SpatialHadoop::default()
            .run(&cluster, &left, &right, JoinPredicate::Intersects)
            .unwrap();
        let reuse_run = SpatialHadoop { reuse_partitions: true, ..SpatialHadoop::default() }
            .run(&cluster, &left, &right, JoinPredicate::Intersects)
            .unwrap();
        assert_eq!(reuse_run.pairs.len(), default_run.pairs.len(),);
        let mut a = default_run.pairs.clone();
        let mut b = reuse_run.pairs.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "identity pairing is exact under a shared grid");
        assert_eq!(
            reuse_run.trace.stages.len(),
            default_run.trace.stages.len() - 1,
            "the right side's sample job disappears"
        );
        assert!(
            reuse_run.trace.phase_ns(Phase::IndexB) < default_run.trace.phase_ns(Phase::IndexB),
            "IB gets cheaper"
        );
    }

    #[test]
    fn blocks_are_sorted_by_filter_min_x_then_id() {
        // The local join's sweep reads each block in this order; a block
        // written in any other order is sorted again by every partner cell.
        let (left, right) = tiny_inputs();
        let cost = CostModel::default();
        for reuse_partitions in [false, true] {
            let sys = SpatialHadoop { reuse_partitions, ..SpatialHadoop::default() };
            let mut steps = Vec::new();
            let ia = sys.index_dataset(&cost, &mut steps, &left, Phase::IndexA, None);
            let shared = reuse_partitions.then(|| ia.index.locator().cells().to_vec());
            let ib = sys.index_dataset(&cost, &mut steps, &right, Phase::IndexB, shared);
            for (side, indexed, input) in [("left", &ia, &left), ("right", &ib, &right)] {
                let mut ids = 0;
                for (cell, block) in indexed.cells.iter().enumerate() {
                    let keys: Vec<(f64, u64)> =
                        input.pick(block.iter().copied()).map(|r| (r.mbr.min_x, r.id)).collect();
                    for w in keys.windows(2) {
                        let order = w[0].0.total_cmp(&w[1].0).then(w[0].1.cmp(&w[1].1));
                        assert!(
                            order.is_lt(),
                            "reuse {reuse_partitions}: {side} cell {cell} out of order at {w:?}"
                        );
                    }
                    ids += block.len();
                }
                assert!(ids >= input.records.len(), "{side}: every record is in a block");
            }
        }
    }

    #[test]
    fn never_fails_by_design() {
        // SpatialHadoop is the paper's robustness winner: huge multipliers
        // (full datasets) never error.
        let (left, right) = tiny_inputs();
        for cfg in ClusterConfig::paper_configs() {
            let cluster = Cluster::new(cfg);
            assert!(SpatialHadoop::default()
                .run(&cluster, &left, &right, JoinPredicate::Intersects)
                .is_ok());
        }
    }
}
