//! The Spark driver context: where an application's stages are recorded.

use sjc_cluster::{Cluster, CostModel, SimError};

use crate::ledger::{Column, Layout, Pending, Source, SparkLedger, SparkStep};
use crate::rdd::{Rdd, LOAD_BLOCK};
use crate::record::SparkRecord;

/// Driver-side context for building and executing RDDs. It prices
/// nothing: it records the stages into a [`SparkLedger`] that prices on any
/// cluster afterwards.
pub struct SparkContext<'a> {
    /// The cost model the records' resident bytes are charged with.
    pub(crate) cost: CostModel,
    /// The recorded stages.
    pub(crate) steps: Vec<SparkStep>,
    /// The clusters the recorded stages will be priced on.
    stop: &'a [Cluster],
}

impl<'a> SparkContext<'a> {
    /// A context for one cluster: [`for_work`](Self::for_work) on `cluster`
    /// alone, so a stage fails where that cluster runs out of memory.
    pub fn new(cluster: &'a Cluster) -> Self {
        SparkContext::for_work(cluster.cost.clone(), std::slice::from_ref(cluster))
    }

    /// A context that records its stages for pricing later, on the clusters
    /// of `stop`. Reads no field of them but their memory: a stage whose
    /// memory check fails on every one of them ends the application there,
    /// with the first one's error.
    pub fn for_work(cost: CostModel, stop: &'a [Cluster]) -> Self {
        SparkContext { cost, steps: Vec::new(), stop }
    }

    /// The recorded stages.
    pub fn into_ledger(self) -> SparkLedger {
        SparkLedger { steps: self.steps }
    }

    /// Loads a dataset "from HDFS": the only point where SpatialSpark
    /// touches the distributed file system. The read and text parse are
    /// pending work (Spark is lazy — the load is paid when the first stage
    /// runs), split into the cluster's partitions when priced.
    pub fn read_text<T: SparkRecord>(
        &mut self,
        records: Vec<T>,
        input_bytes: u64,
        multiplier: f64,
    ) -> Rdd<T> {
        let n = records.len();
        let cost = &self.cost;
        let mut blocks = Vec::with_capacity(n.div_ceil(LOAD_BLOCK));
        let mut mem = Column::default();
        let mut block_mem = Vec::with_capacity(LOAD_BLOCK.min(n));
        let mut it = records.into_iter();
        while blocks.len() * LOAD_BLOCK < n {
            let mut block = Vec::with_capacity(LOAD_BLOCK.min(n - blocks.len() * LOAD_BLOCK));
            block.extend(it.by_ref().take(LOAD_BLOCK));
            block_mem.clear();
            block_mem.extend(block.iter().map(|r| r.mem_bytes(cost)));
            mem.append(Column::of(&block_mem));
            blocks.push(block);
        }
        let pending = Pending {
            layout: Layout::Loaded,
            source: Source::Load { input_bytes, records: n as u64 },
            narrow: Vec::new(),
            mem,
            records: Column::repeat(1, n),
            hdfs_read: (input_bytes as f64 * multiplier) as u64,
            multiplier,
            lineage_depth: 1,
        };
        Rdd { blocks, pending }
    }

    /// Closes a stage: records it.
    pub(crate) fn close(&mut self, step: SparkStep) -> Result<(), SimError> {
        let failed = (!self.stop.is_empty())
            .then(|| self.stop.iter().map(|c| step.out_of_memory(c)).collect::<Option<Vec<_>>>())
            .flatten();
        self.steps.push(step);
        match failed.and_then(|errs| errs.into_iter().next()) {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Requires `bytes` resident on every executor at once (a broadcast of
    /// a whole dataset).
    pub fn fits_on_every_node(&mut self, name: &str, bytes: u64) -> Result<(), SimError> {
        self.close(SparkStep::FitsEveryNode { name: name.to_string(), bytes })
    }

    /// The recorded stages priced on the first `stop` cluster.
    #[cfg(test)]
    pub(crate) fn trace(&self) -> Option<sjc_cluster::RunTrace> {
        let ledger = SparkLedger { steps: self.steps.clone() };
        ledger.price(self.stop.first()?, sjc_cluster::RunTrace::new("spark")).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_cluster::ClusterConfig;

    #[test]
    fn read_text_partitions_and_charges() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut ctx = SparkContext::new(&cluster);
        let records: Vec<u64> = (0..1000).collect();
        let rdd = ctx.read_text(records, 40_000, 10.0);
        assert_eq!(rdd.count(), 1000);
        let priced = rdd.pending.price(&cluster);
        assert!(priced.pending_ns.len() <= cluster.total_slots() * 2);
        assert_eq!(priced.records.iter().sum::<u64>(), 1000);
        assert!(priced.pending_ns.iter().all(|&ns| ns > 0));
        assert_eq!(rdd.pending.hdfs_read, 400_000);
    }

    #[test]
    fn empty_dataset_still_has_one_partition() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut ctx = SparkContext::new(&cluster);
        let rdd: Rdd<u64> = ctx.read_text(Vec::new(), 0, 1.0);
        assert_eq!(rdd.pending.price(&cluster).pending_ns.len(), 1);
    }
}
