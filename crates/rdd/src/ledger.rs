//! What a Spark application did, with no cluster in sight, and its price on
//! a cluster.
//!
//! An RDD's work is recorded per *unit*: each record of a freshly loaded
//! dataset, or each partition of a shuffle's output. A shuffle's partition
//! count is the application's choice, so its partitions are the cluster's
//! too. A load is split into `2 × total_slots` partitions in load order —
//! a number only the cluster knows — so pricing sums the units' integer
//! columns into each cluster's own partitions, exactly.
//!
//! [`SparkLedger`] is the list of stage-closing steps an application took;
//! `Pricer` turns each into a [`StageTrace`] on one cluster.

use std::ops::Range;

use sjc_cluster::metrics::Phase;
use sjc_cluster::{
    Cluster, RecoveryEvent, RecoveryKind, RunTrace, SimError, SimNs, StageKind, StageTrace,
    MAX_STAGE_RESUBMITS,
};

use crate::memory::check_fits;

/// A generation-scale integer per unit, packed. A load's columns hold one
/// entry per record and live as long as the ledger, so each piece (a run
/// of units recorded together) stores its values in the narrowest width
/// that holds them, and a run of equal values as one number: a column of
/// probe counts costs a byte per record.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Column {
    pieces: Vec<Packed>,
}

#[derive(Debug, Clone, PartialEq)]
enum Packed {
    Same { value: u64, len: usize },
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl Packed {
    fn new(values: &[u64]) -> Packed {
        let (min, max) = (values.iter().min(), values.iter().max());
        match (min, max) {
            (Some(&min), Some(&max)) if min != max => {
                if max <= u64::from(u8::MAX) {
                    Packed::U8(values.iter().map(|&v| v as u8).collect())
                } else if max <= u64::from(u16::MAX) {
                    Packed::U16(values.iter().map(|&v| v as u16).collect())
                } else if max <= u64::from(u32::MAX) {
                    Packed::U32(values.iter().map(|&v| v as u32).collect())
                } else {
                    Packed::U64(values.to_vec())
                }
            }
            _ => Packed::Same { value: min.copied().unwrap_or(0), len: values.len() },
        }
    }

    fn len(&self) -> usize {
        match self {
            Packed::Same { len, .. } => *len,
            Packed::U8(values) => values.len(),
            Packed::U16(values) => values.len(),
            Packed::U32(values) => values.len(),
            Packed::U64(values) => values.len(),
        }
    }

    /// The values of units `r` of the piece, summed.
    fn sum(&self, r: Range<usize>) -> u64 {
        match self {
            Packed::Same { value, .. } => value * r.len() as u64,
            Packed::U8(v) => v.get(r).map_or(0, |s| s.iter().map(|&x| u64::from(x)).sum()),
            Packed::U16(v) => v.get(r).map_or(0, |s| s.iter().map(|&x| u64::from(x)).sum()),
            Packed::U32(v) => v.get(r).map_or(0, |s| s.iter().map(|&x| u64::from(x)).sum()),
            Packed::U64(v) => v.get(r).map_or(0, |s| s.iter().sum()),
        }
    }
}

impl Column {
    /// A column of `values`, one per unit.
    pub(crate) fn of(values: &[u64]) -> Column {
        let mut col = Column::default();
        col.push(Packed::new(values));
        col
    }

    /// `len` units of `value` each.
    pub(crate) fn repeat(value: u64, len: usize) -> Column {
        let mut col = Column::default();
        col.push(Packed::Same { value, len });
        col
    }

    /// Appends `other`'s units.
    pub(crate) fn append(&mut self, other: Column) {
        other.pieces.into_iter().for_each(|p| self.push(p));
    }

    fn push(&mut self, piece: Packed) {
        if piece.len() > 0 {
            self.pieces.push(piece);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.pieces.iter().map(Packed::len).sum()
    }

    /// The sums over consecutive runs of units, `lens` units each; a
    /// single unit's value is a run of one.
    pub(crate) fn sums(&self, lens: impl IntoIterator<Item = usize>) -> Vec<u64> {
        let mut pieces = self.pieces.iter();
        let (mut piece, mut at) = (pieces.next(), 0);
        lens.into_iter()
            .map(|mut n| {
                let mut total = 0;
                while let Some(p) = piece.filter(|_| n > 0) {
                    let take = n.min(p.len() - at);
                    total += p.sum(at..at + take);
                    (n, at) = (n - take, at + take);
                    if at == p.len() {
                        (piece, at) = (pieces.next(), 0);
                    }
                }
                total
            })
            .collect()
    }

    /// The sum over every unit.
    pub(crate) fn total(&self) -> u64 {
        self.pieces.iter().map(|p| p.sum(0..p.len())).sum()
    }

    /// The values of units `r`.
    pub(crate) fn range(&self, r: Range<usize>) -> Vec<u64> {
        let lens = std::iter::once(r.start).chain(std::iter::repeat_n(1, r.len()));
        self.sums(lens).into_iter().skip(1).collect()
    }
}

/// How an RDD's units become partitions on a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// One unit per loaded record; a cluster reads them as `2 ×
    /// total_slots` partitions of consecutive records.
    Loaded,
    /// One unit per partition.
    Partitioned,
}

/// Where an RDD's pending work starts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Source {
    /// Read and parse from HDFS: `input_bytes` over `records` records.
    Load { input_bytes: u64, records: u64 },
    /// Cached by an action: nothing left to pay.
    Cached,
    /// Fetched and deserialized from a shuffle: per unit, the resident bytes
    /// and the records it counts.
    Shuffle { mem: Column, records: Column },
}

/// One narrow transformation: per unit, its input records and the extra CPU
/// it charged.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Narrow {
    pub(crate) records: Column,
    pub(crate) extra_ns: Column,
}

/// An RDD's work since its last stage boundary: what the stage that closes
/// over it runs, and what it holds in memory.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Pending {
    pub(crate) layout: Layout,
    pub(crate) source: Source,
    pub(crate) narrow: Vec<Narrow>,
    /// Per unit: resident bytes of its current records.
    pub(crate) mem: Column,
    /// Per unit: its current records.
    pub(crate) records: Column,
    /// Full-scale HDFS bytes read but not yet attributed to a stage.
    pub(crate) hdfs_read: u64,
    pub(crate) multiplier: f64,
    /// Narrow-op chain length since the last materialization boundary
    /// (load or shuffle): the depth of a lineage recompute.
    pub(crate) lineage_depth: u32,
}

/// A [`Pending`] priced on one cluster, per partition.
pub(crate) struct Priced {
    pub(crate) pending_ns: Vec<SimNs>,
    pub(crate) mem_full: Vec<u64>,
    pub(crate) records: Vec<u64>,
}

/// The units of each partition, in order: consecutive runs of loaded
/// records, `2 × total_slots` runs in all, or one unit each.
fn partitions(layout: Layout, units: usize, cluster: &Cluster) -> Vec<usize> {
    match layout {
        Layout::Partitioned => vec![1; units],
        Layout::Loaded => {
            // Spark reads a dataset as 2 × total cores partitions.
            let parts = (cluster.total_slots() * 2).max(1);
            let chunk = units.div_ceil(parts).max(1);
            let mut lens: Vec<usize> =
                (0..units).step_by(chunk).map(|s| chunk.min(units - s)).collect();
            if lens.is_empty() {
                lens.push(0);
            }
            lens
        }
    }
}

impl Pending {
    /// Units of the RDD.
    fn units(&self) -> usize {
        self.mem.len()
    }

    /// Full-scale resident bytes, summed before scaling.
    pub(crate) fn mem_full_total(&self) -> u64 {
        (self.mem.total() as f64 * self.multiplier) as u64
    }

    /// The full-scale resident bytes of each of the cluster's partitions.
    fn mem_full(&self, cluster: &Cluster) -> Vec<u64> {
        let lens = partitions(self.layout, self.units(), cluster);
        let mult = self.multiplier;
        self.mem.sums(lens).into_iter().map(|m| (m as f64 * mult) as u64).collect()
    }

    /// The pending CPU and I/O, resident bytes and records of each of the
    /// cluster's partitions.
    pub(crate) fn price(&self, cluster: &Cluster) -> Priced {
        let (cost, node) = (&cluster.cost, &cluster.config.node);
        let mult = self.multiplier;
        let lens = partitions(self.layout, self.units(), cluster);
        let sums = |col: &Column| col.sums(lens.iter().copied());
        let mut pending_ns: Vec<SimNs> = match &self.source {
            Source::Load { input_bytes, records } => {
                let bytes_per_rec =
                    if *records == 0 { 0.0 } else { *input_bytes as f64 / *records as f64 };
                lens.iter()
                    .map(|&len| {
                        let len = len as u64;
                        let part_bytes = (len as f64 * bytes_per_rec) as u64;
                        let io = cost.io_ns(part_bytes, node.slot_disk_read_bw());
                        let cpu = cost.parse_ns(part_bytes) + cost.spark_records_ns(len);
                        let ns = io + (cpu as f64 * node.cpu_scale) as u64;
                        (ns as f64 * mult) as SimNs
                    })
                    .collect()
            }
            Source::Cached => vec![0; lens.len()],
            Source::Shuffle { mem, records } => sums(mem)
                .into_iter()
                .zip(sums(records))
                .map(|(mem, records)| {
                    let mem_f = (mem as f64 * mult) as u64;
                    let ser = (mem_f as f64 * cost.spark_shuffle_ser_fraction) as u64;
                    let n = (records as f64 * mult) as u64;
                    let cpu = cost.serialize_ns(ser) + cost.spark_records_ns(n);
                    cost.io_ns(ser, node.slot_disk_read_bw()) + (cpu as f64 * node.cpu_scale) as u64
                })
                .collect(),
        };
        for op in &self.narrow {
            for ((pending, records), extra) in
                pending_ns.iter_mut().zip(sums(&op.records)).zip(sums(&op.extra_ns))
            {
                let ns = cost.spark_records_ns(records) + extra;
                let ns = (ns as f64 * node.cpu_scale) as u64;
                *pending += (ns as f64 * mult) as SimNs;
            }
        }
        Priced { pending_ns, mem_full: self.mem_full(cluster), records: sums(&self.records) }
    }
}

/// A stage-closing step of a Spark application, or a driver-side charge.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SparkStep {
    /// `sample_collect`: the RDD's pending work plus a scan of its records,
    /// after which it is cached.
    Sample { name: String, phase: Phase, rdd: Pending },
    /// `group_by_key` (one input) or `join` (two): the inputs' pending work
    /// plus their shuffle write, checked against executor memory together
    /// with the shuffle's output, whose per-partition resident bytes `out`
    /// are at the first input's multiplier.
    Shuffle { name: String, phase: Phase, inputs: Vec<Pending>, out: Column },
    /// `collect`: the RDD's pending work.
    Collect { name: String, phase: Phase, rdd: Pending },
    /// A broadcast of `bytes` to every node.
    Broadcast { name: String, phase: Phase, bytes: u64 },
    /// `bytes` resident on every executor at once.
    FitsEveryNode { name: String, bytes: u64 },
}

impl SparkStep {
    /// The executor-memory check of this step on `cluster`: the one
    /// capacity a Spark step can run out of.
    pub(crate) fn out_of_memory(&self, cluster: &Cluster) -> Option<SimError> {
        match self {
            SparkStep::Shuffle { name, inputs, out, .. } => {
                let mem: Vec<Vec<u64>> = inputs.iter().map(|p| p.mem_full(cluster)).collect();
                let mem: Vec<&[u64]> = mem.iter().map(Vec::as_slice).collect();
                shuffle_fits(cluster, name, inputs, &mem, out).err()
            }
            SparkStep::FitsEveryNode { name, bytes } => {
                let per_node = vec![*bytes; cluster.config.nodes as usize];
                check_fits(cluster, name, &[&per_node]).err()
            }
            _ => None,
        }
    }
}

/// The shuffle's output resident bytes per partition, at the first input's
/// multiplier.
fn out_mem_full(inputs: &[Pending], out: &Column) -> Vec<u64> {
    let mult = inputs.first().map_or(1.0, |p| p.multiplier);
    out.sums(std::iter::repeat_n(1, out.len()))
        .into_iter()
        .map(|m| (m as f64 * mult) as u64)
        .collect()
}

/// A shuffle's memory check: its inputs and its output are live together.
fn shuffle_fits(
    cluster: &Cluster,
    name: &str,
    inputs: &[Pending],
    input_mem: &[&[u64]],
    out: &Column,
) -> Result<Vec<u64>, SimError> {
    let out_full = out_mem_full(inputs, out);
    let mut live = input_mem.to_vec();
    live.push(&out_full);
    check_fits(cluster, name, &live)?;
    Ok(out_full)
}

/// Each partition's pending cost plus its shuffle write: serialize and spill
/// to the *local disk* (Spark 1.x materializes shuffle blocks on disk even
/// for in-memory jobs), plus the cross-node network share.
fn shuffle_write(cluster: &Cluster, priced: &Priced) -> Vec<SimNs> {
    let (cost, node, nodes) = (&cluster.cost, cluster.config.node, cluster.config.nodes);
    let remote_fraction = if nodes > 1 { (nodes - 1) as f64 / nodes as f64 } else { 0.0 };
    priced
        .pending_ns
        .iter()
        .zip(&priced.mem_full)
        .map(|(pending, &m)| {
            let ser = (m as f64 * cost.spark_shuffle_ser_fraction) as u64;
            pending
                + (cost.serialize_ns(ser) as f64 * node.cpu_scale) as u64
                + cost.io_ns(ser, node.slot_disk_write_bw())
                + cost.io_ns((ser as f64 * remote_fraction) as u64, node.slot_net_bw())
        })
        .collect()
}

/// The simulated time of the stage last pushed to `trace`.
fn st_total(trace: &RunTrace) -> SimNs {
    trace.stages.last().map_or(0, |st| st.sim_ns)
}

/// The stage-closing steps of one Spark application, in order: its work,
/// run once. [`price`](SparkLedger::price) prices it on any cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparkLedger {
    pub(crate) steps: Vec<SparkStep>,
}

impl SparkLedger {
    /// Whether both ledgers record the same stages as far as the shorter
    /// one runs (an application's work stops early where every cluster it
    /// will be priced on runs out of memory).
    // sjc-lint: allow(dead-pub) — `every_system_records_the_same_ledger_on_every_paper_configuration` in tests/work_invariance.rs
    pub fn agrees_with(&self, other: &SparkLedger) -> bool {
        self.steps.iter().zip(&other.steps).all(|(a, b)| a == b)
    }

    /// Prices every step on `cluster`, appending its stages and recovery
    /// events to `trace`; fails at the first step the cluster fails.
    pub fn price(&self, cluster: &Cluster, trace: RunTrace) -> Result<RunTrace, SimError> {
        let mut pricer = Pricer::new(cluster, trace);
        for step in &self.steps {
            pricer.price(step)?;
        }
        Ok(pricer.trace)
    }
}

/// Prices Spark steps on one cluster, carrying the run's trace and its
/// checkpoint cadence from stage to stage.
struct Pricer<'a> {
    cluster: &'a Cluster,
    trace: RunTrace,
    /// Completed stages since the last durable checkpoint — drives the
    /// plan's checkpoint cadence and bounds lineage replay depth.
    stages_since_checkpoint: u32,
    /// Whether any checkpoint has been written this run.
    checkpointed: bool,
    /// Logical (pre-replication) bytes of the last durable checkpoint.
    checkpoint_bytes: u64,
}

impl<'a> Pricer<'a> {
    fn new(cluster: &'a Cluster, trace: RunTrace) -> Self {
        Pricer {
            cluster,
            trace,
            stages_since_checkpoint: 0,
            checkpointed: false,
            checkpoint_bytes: 0,
        }
    }

    fn price(&mut self, step: &SparkStep) -> Result<(), SimError> {
        let cluster = self.cluster;
        match step {
            SparkStep::Sample { name, phase, rdd } => {
                let p = rdd.price(cluster);
                let (cost, cpu_scale) = (&cluster.cost, cluster.config.node.cpu_scale);
                let pending: Vec<SimNs> = p
                    .pending_ns
                    .iter()
                    .zip(&p.records)
                    .map(|(&ns, &n)| {
                        ns + (cost.spark_records_ns(n) as f64 * cpu_scale * rdd.multiplier) as SimNs
                    })
                    .collect();
                let resident = p.mem_full.iter().sum();
                self.close_stage(
                    name,
                    *phase,
                    &pending,
                    rdd.hdfs_read,
                    0,
                    rdd.lineage_depth,
                    resident,
                )?;
                Ok(())
            }
            SparkStep::Shuffle { name, phase, inputs, out } => {
                let priced: Vec<Priced> = inputs.iter().map(|p| p.price(cluster)).collect();
                let pending: Vec<SimNs> =
                    priced.iter().flat_map(|p| shuffle_write(cluster, p)).collect();
                let mem: Vec<&[u64]> = priced.iter().map(|p| p.mem_full.as_slice()).collect();
                let out_full = shuffle_fits(cluster, name, inputs, &mem, out)?;
                let shuffle_bytes = priced.iter().flat_map(|p| &p.mem_full).sum();
                let hdfs = inputs.iter().map(|p| p.hdfs_read).sum();
                let depth = inputs.iter().map(|p| p.lineage_depth).max().unwrap_or(1);
                let resident = out_full.iter().sum();
                self.close_stage(name, *phase, &pending, hdfs, shuffle_bytes, depth, resident)?;
                Ok(())
            }
            SparkStep::Collect { name, phase, rdd } => {
                let p = rdd.price(cluster);
                let resident = p.mem_full.iter().sum();
                self.close_stage(
                    name,
                    *phase,
                    &p.pending_ns,
                    rdd.hdfs_read,
                    0,
                    rdd.lineage_depth,
                    resident,
                )?;
                Ok(())
            }
            SparkStep::Broadcast { name, phase, bytes } => {
                self.broadcast(name, *phase, *bytes);
                Ok(())
            }
            SparkStep::FitsEveryNode { .. } => match step.out_of_memory(cluster) {
                Some(err) => Err(err),
                None => Ok(()),
            },
        }
    }

    /// A broadcast: the driver streams `bytes` to each executor in parallel
    /// (torrent-style), so the wall time is one transfer.
    fn broadcast(&mut self, name: &str, phase: Phase, bytes: u64) {
        let nodes = self.cluster.config.nodes as u64;
        let cost = &self.cluster.cost;
        let node = &self.cluster.config.node;
        let mut st = StageTrace::new(name, StageKind::SparkStage, phase);
        st.sim_ns = cost.serialize_ns(bytes) + cost.io_ns(bytes, node.net_bw);
        st.shuffle_bytes = bytes * nodes;
        st.tasks = nodes;
        self.trace.push(st);
    }

    /// Closes a stage: schedules the per-partition pending durations onto
    /// the cluster, emits a [`StageTrace`], and returns its simulated time.
    ///
    /// The stage runs as waves through [`Cluster::wave`] on the run's global
    /// clock; with no fault planned that is one LPT wave. A node crash inside
    /// the stage window destroys the cached parent partitions that lived on
    /// it; unlike Hadoop (which re-runs one task), Spark recomputes those
    /// partitions through their **lineage** — the resubmitted wave costs `lineage_depth ×` the lost
    /// partitions' work, bounded by [`MAX_STAGE_RESUBMITS`]. When the plan's
    /// [`sjc_cluster::CheckpointPolicy`] is enabled, lineage replay
    /// truncates at the last durable checkpoint (at most
    /// `stages_since_checkpoint + 1` stages deep, the lost partitions'
    /// checkpointed parents re-read over the network), and `resident_bytes`
    /// — the stage's materialized output footprint — is what a checkpoint
    /// write at this stage persists.
    #[allow(clippy::too_many_arguments)]
    fn close_stage(
        &mut self,
        name: &str,
        phase: Phase,
        pending_ns: &[SimNs],
        hdfs_read: u64,
        shuffle_bytes: u64,
        lineage_depth: u32,
        resident_bytes: u64,
    ) -> Result<SimNs, SimError> {
        let cluster = self.cluster;
        let cost = &cluster.cost;
        let with_overhead: Vec<SimNs> =
            pending_ns.iter().map(|&p| p + cost.spark_task_overhead_ns).collect();
        let plan = &cluster.faults;
        let cores = cluster.config.node.cores;
        let nodes = cluster.config.nodes;
        let start = self.trace.total_ns() + cost.spark_job_startup_ns;
        let mut st = StageTrace::new(name, StageKind::SparkStage, phase);
        let mut events: Vec<RecoveryEvent> = Vec::new();
        let mut makespan = 0u64;
        let mut work = with_overhead;
        let mut resubmit: u32 = 0;
        loop {
            let dead_before = plan.dead_nodes_at(start + makespan);
            let sched = cluster.wave(&work, name, start + makespan, false)?;
            st.attempts += sched.attempts;
            st.speculative += sched.speculative;
            st.wasted_ns += sched.wasted_ns;
            events.extend(sched.events);
            makespan += sched.makespan;
            let dead_after = plan.dead_nodes_at(start + makespan);
            // sjc-lint: allow(hot-alloc) — crash-recovery bookkeeping: runs once per stage resubmission (≤ MAX_STAGE_RESUBMITS), not per task
            let newly: Vec<u32> =
                dead_after.iter().copied().filter(|n| !dead_before.contains(n)).collect();
            if newly.is_empty() {
                break;
            }
            // Cached partitions live round-robin across nodes; the ones on
            // the fresh casualties recompute through their lineage — at
            // most back to the last durable checkpoint.
            let full_depth = lineage_depth.max(1);
            let depth = if self.checkpointed {
                full_depth.min(self.stages_since_checkpoint + 1)
            } else {
                full_depth
            };
            // sjc-lint: allow(hot-alloc) — crash-recovery bookkeeping: the lost set becomes the next resubmission's work list (≤ MAX_STAGE_RESUBMITS rounds)
            let lost: Vec<SimNs> = pending_ns
                .iter()
                .enumerate()
                .filter(|(i, _)| newly.contains(&((*i as u32) % nodes)))
                .map(|(_, &p)| (p + cost.spark_task_overhead_ns).saturating_mul(depth as u64))
                .collect();
            if lost.is_empty() {
                break;
            }
            resubmit += 1;
            if resubmit > MAX_STAGE_RESUBMITS {
                return Err(SimError::NodeLost {
                    // sjc-lint: allow(hot-alloc) — cold error return: allocates once, then the run is over
                    stage: name.to_string(),
                    node: newly.first().copied().unwrap_or(0),
                });
            }
            let lost_work: SimNs = lost.iter().sum();
            st.wasted_ns += lost_work;
            // One event carries the whole resubmission: the attempt, the
            // lost partitions, the (checkpoint-truncated) replay depth, and
            // the full recompute cost as its wasted_ns.
            events.push(RecoveryEvent {
                // sjc-lint: allow(hot-alloc) — crash-recovery event: one per stage resubmission (≤ MAX_STAGE_RESUBMITS), not per task
                stage: name.to_string(),
                kind: RecoveryKind::StageResubmit {
                    attempt: resubmit,
                    partitions: lost.len() as u64,
                    lineage_depth: depth,
                },
                wasted_ns: lost_work,
            });
            // Truncated replay starts from checkpointed parents: the lost
            // partitions' share of the checkpoint comes back over the NIC.
            if depth < full_depth && self.checkpoint_bytes > 0 {
                let node = &cluster.config.node;
                let live = nodes.saturating_sub(dead_after.len() as u32).max(1);
                let reread = (self.checkpoint_bytes as f64 * lost.len() as f64
                    / pending_ns.len().max(1) as f64) as u64;
                let live_slots = (live as u64 * cores as u64).max(1);
                let extra = cost.io_ns(reread / live_slots, node.slot_net_bw());
                makespan += extra;
                st.bytes_reread += reread;
                events.push(RecoveryEvent {
                    // sjc-lint: allow(hot-alloc) — crash-recovery event: one per stage resubmission (≤ MAX_STAGE_RESUBMITS), not per task
                    stage: name.to_string(),
                    kind: RecoveryKind::CheckpointRestore { bytes: reread },
                    wasted_ns: extra,
                });
            }
            work = lost;
        }

        // Input blocks whose primary died before the stage started come
        // from remote replicas over the NIC.
        if let Some((reread, ev)) = cluster.replica_failover(name, start, hdfs_read) {
            makespan += ev.wasted_ns;
            st.bytes_reread = reread;
            events.push(ev);
        }

        // Checkpoint cadence: every `interval_stages` completed stages the
        // stage's resident output is persisted to HDFS through the
        // replication pipeline. The write is the insurance premium — it
        // costs critical-path time even when no fault ever fires.
        if plan.checkpoint.enabled() {
            if self.stages_since_checkpoint + 1 >= plan.checkpoint.interval_stages {
                if resident_bytes > 0 {
                    let replicated =
                        resident_bytes.saturating_mul(plan.checkpoint.replication.max(1) as u64);
                    let slots = (nodes as u64 * cores as u64).max(1);
                    let write_ns = cost.io_ns(replicated / slots, cluster.hdfs_write_bw());
                    makespan += write_ns;
                    st.hdfs_bytes_written += resident_bytes;
                    events.push(RecoveryEvent {
                        stage: name.to_string(),
                        kind: RecoveryKind::CheckpointWrite { bytes: resident_bytes },
                        wasted_ns: write_ns,
                    });
                }
                self.checkpointed = true;
                self.checkpoint_bytes = resident_bytes;
                self.stages_since_checkpoint = 0;
            } else {
                self.stages_since_checkpoint += 1;
            }
        }

        st.sim_ns = cost.spark_job_startup_ns + makespan;
        st.hdfs_bytes_read = hdfs_read;
        st.shuffle_bytes = shuffle_bytes;
        st.tasks = pending_ns.len() as u64;
        self.trace.push(st);
        self.trace.push_recovery(events);
        Ok(st_total(&self.trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_cluster::{ClusterConfig, CostModel, FaultPlan};

    fn pricer(cluster: &Cluster) -> Pricer<'_> {
        Pricer::new(cluster, RunTrace::new("spark"))
    }

    #[test]
    fn close_stage_emits_trace() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut ctx = pricer(&cluster);
        let ns =
            ctx.close_stage("s1", Phase::DistributedJoin, &[1000, 2000], 77, 88, 1, 0).unwrap();
        assert!(ns >= 2000);
        assert_eq!(ctx.trace.stages.len(), 1);
        assert_eq!(ctx.trace.stages[0].hdfs_bytes_read, 77);
        assert_eq!(ctx.trace.stages[0].shuffle_bytes, 88);
    }

    #[test]
    fn mid_stage_crash_costs_a_lineage_recompute() {
        let config = ClusterConfig::ec2(4);
        let startup = CostModel::default().spark_job_startup_ns;
        // Node 2 dies half a task into the first (and only) wave.
        let plan = FaultPlan::seeded(1, &config).crash_at(2, startup + 500_000);
        let clean = Cluster::new(config.clone());
        let faulted = Cluster::with_faults(config, plan);
        let pending = vec![1_000_000u64; 32];
        let run = |cluster: &Cluster, depth: u32| {
            let mut ctx = pricer(cluster);
            let ns = ctx
                .close_stage("s", Phase::DistributedJoin, &pending, 1 << 20, 0, depth, 0)
                .unwrap();
            (ns, ctx.trace)
        };
        let (base, t0) = run(&clean, 1);
        assert!(t0.recovery.is_empty(), "no faults, no recovery log");
        let (hit, t1) = run(&faulted, 1);
        assert!(hit > base, "the crash costs simulated time");
        // The resubmission is one event carrying both the lost partitions
        // and the recompute cost — never a zero-cost marker.
        let resubmits: Vec<_> = t1
            .recovery
            .iter()
            .filter(|e| matches!(e.kind, RecoveryKind::StageResubmit { .. }))
            .collect();
        assert!(!resubmits.is_empty(), "lost cached partitions resubmit: {:?}", t1.recovery);
        for e in &resubmits {
            assert!(e.wasted_ns > 0, "the resubmit event carries the recompute cost: {e:?}");
            if let RecoveryKind::StageResubmit { partitions, lineage_depth, .. } = e.kind {
                assert!(partitions > 0);
                assert_eq!(lineage_depth, 1);
            }
        }
        assert!(t1.total_wasted_ns() > 0);
        // A longer narrow-op chain makes the same crash strictly costlier —
        // the Hadoop-vs-Spark recovery asymmetry the fault model exists for.
        let (deep, _) = run(&faulted, 5);
        assert!(deep > hit, "lineage depth scales recovery cost");
    }

    #[test]
    fn a_durable_checkpoint_truncates_lineage_replay() {
        let config = ClusterConfig::ec2(4);
        let startup = CostModel::default().spark_job_startup_ns;
        let pending = vec![10_000_000_000u64; 32];
        let resident: u64 = 64 << 20;

        // Find where stage 1 ends fault-free, then schedule the crash well
        // inside stage 2's window (margins dwarf the checkpoint write).
        let clean = Cluster::new(config.clone());
        let stage1_end = {
            let mut ctx = pricer(&clean);
            ctx.close_stage("s1", Phase::DistributedJoin, &pending, 0, 0, 1, resident).unwrap();
            ctx.trace.total_ns()
        };
        let crash_at = stage1_end + startup + 5_000_000_000;

        let run = |ckpt_interval: u32| {
            let mut plan = FaultPlan::seeded(1, &config).crash_at(2, crash_at);
            if ckpt_interval > 0 {
                plan = plan.with_checkpoints(ckpt_interval, 3);
            }
            let cluster = Cluster::with_faults(config.clone(), plan);
            let mut ctx = pricer(&cluster);
            ctx.close_stage("s1", Phase::DistributedJoin, &pending, 0, 0, 1, resident).unwrap();
            ctx.close_stage("s2", Phase::DistributedJoin, &pending, 0, 0, 5, resident).unwrap();
            ctx.trace
        };

        let lineage = run(0);
        let ckpt = run(1);

        let depth_of = |t: &sjc_cluster::RunTrace| {
            t.recovery
                .iter()
                .find_map(|e| match e.kind {
                    RecoveryKind::StageResubmit { lineage_depth, .. } => Some(lineage_depth),
                    _ => None,
                })
                .expect("a resubmit happened")
        };
        // Without a checkpoint the crash replays the full 5-deep chain;
        // with one taken after every stage it replays only this stage.
        assert_eq!(depth_of(&lineage), 5);
        assert_eq!(depth_of(&ckpt), 1);
        assert!(
            ckpt.recovery.iter().any(|e| matches!(e.kind, RecoveryKind::CheckpointWrite { .. })),
            "the premium is metered: {:?}",
            ckpt.recovery
        );
        assert!(
            ckpt.recovery
                .iter()
                .any(|e| matches!(e.kind, RecoveryKind::CheckpointRestore { bytes } if bytes > 0)),
            "truncated replay re-reads checkpointed parents: {:?}",
            ckpt.recovery
        );
        // Checkpointed recovery is strictly cheaper end to end: replaying 1
        // stage instead of 5 dwarfs the write premium.
        assert!(
            ckpt.total_ns() < lineage.total_ns(),
            "checkpointing must win here: {} >= {}",
            ckpt.total_ns(),
            lineage.total_ns()
        );
        assert!(ckpt.total_wasted_ns() < lineage.total_wasted_ns());
    }

    #[test]
    fn disabled_checkpoint_interval_is_bit_identical() {
        // Interval 0 (= ∞) must not even change the code path taken.
        let config = ClusterConfig::ec2(4);
        let plan = FaultPlan::seeded(3, &config).crash_at(1, 2_000_000_000);
        let base = Cluster::with_faults(config.clone(), plan.clone());
        let inf = Cluster::with_faults(config, plan.with_checkpoints(0, 3));
        let pending = vec![5_000_000u64; 48];
        let run = |cluster: &Cluster| {
            let mut ctx = pricer(cluster);
            ctx.close_stage("s", Phase::DistributedJoin, &pending, 1 << 22, 9, 3, 1 << 26).unwrap();
            (ctx.trace.total_ns(), ctx.trace.recovery.len())
        };
        assert_eq!(run(&base), run(&inf));
    }
}
