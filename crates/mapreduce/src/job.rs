//! The native (typed) MapReduce engine.

use sjc_cluster::metrics::Phase;
use sjc_cluster::scheduler::{replicated_makespan, TaskSchedule};
use sjc_cluster::{
    Cluster, RecoveryEvent, RecoveryKind, SimError, SimHdfs, SimNs, StageKind, StageTrace,
};
use sjc_par::GroupKey;

use crate::input_format::MapTask;

/// How a job's work grows from generation scale to full scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleMode {
    /// Scans: the full run has `multiplier ×` as many block-sized map tasks
    /// of the same size (Hadoop's one-task-per-block).
    MoreTasks,
    /// Partition-bound tasks: the task count is fixed by configuration and
    /// each task's data grows by `multiplier` (reduce groups, and
    /// SpatialHadoop's partition-pair map tasks).
    BiggerTasks,
}

/// Configuration of one MapReduce job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    pub name: String,
    pub phase: Phase,
    /// Full-scale records ÷ generated records.
    pub multiplier: f64,
    /// Charge text-parse CPU for the input bytes (TSV/WKT ingestion).
    pub parse_input_text: bool,
    /// Charge an HDFS write (with replication) for the job output.
    pub write_output_to_hdfs: bool,
    /// How map-task work extrapolates, the same on a map-only and a
    /// map-reduce job; a [`ScaleMode::BiggerTasks`] task pays its fixed
    /// overhead once. Reduce groups always grow like `BiggerTasks`.
    pub map_scale: ScaleMode,
    /// When set, streaming reducers charge the interpreted-script
    /// per-record cost (see `CostModel::streaming_script_record_ns`) times
    /// this factor (the geometry-library share of the script's work scales
    /// with the engine's refinement factor).
    pub script_reducer: Option<f64>,
}

impl JobConfig {
    pub fn new(name: impl Into<String>, phase: Phase, multiplier: f64) -> Self {
        JobConfig {
            name: name.into(),
            phase,
            multiplier: multiplier.max(1.0),
            parse_input_text: true,
            write_output_to_hdfs: true,
            map_scale: ScaleMode::MoreTasks,
            script_reducer: None,
        }
    }

    /// Streaming reducers charge the script per-record cost times `factor`.
    pub fn script_reducer(mut self, factor: f64) -> Self {
        self.script_reducer = Some(factor);
        self
    }

    pub fn map_scale(mut self, mode: ScaleMode) -> Self {
        self.map_scale = mode;
        self
    }

    pub fn parse_input(mut self, yes: bool) -> Self {
        self.parse_input_text = yes;
        self
    }

    pub fn write_output(mut self, yes: bool) -> Self {
        self.write_output_to_hdfs = yes;
        self
    }
}

/// Collector passed to map functions.
#[derive(Debug)]
pub struct MapEmitter<K, V> {
    /// `(key, (value, share))`, the task's byte share set when it ends.
    pairs: Vec<(K, (V, u64))>,
    bytes: u64,
    extra_cpu_ns: SimNs,
}

impl<K, V> MapEmitter<K, V> {
    fn new() -> Self {
        MapEmitter { pairs: Vec::new(), bytes: 0, extra_cpu_ns: 0 }
    }

    /// Emits an intermediate pair; `bytes` is its serialized size (drives
    /// shuffle volume).
    pub fn emit(&mut self, key: K, value: V, bytes: u64) {
        self.pairs.push((key, (value, 0)));
        self.bytes += bytes;
    }

    /// Charges extra simulated CPU to the current task (e.g. R-tree probe
    /// costs computed by the spatial layer).
    pub fn charge(&mut self, ns: SimNs) {
        self.extra_cpu_ns += ns;
    }
}

/// Collector passed to reduce functions (and map-only map functions).
#[derive(Debug)]
pub struct ReduceEmitter<O> {
    out: Vec<O>,
    bytes: u64,
    extra_cpu_ns: SimNs,
}

impl<O> ReduceEmitter<O> {
    fn new() -> Self {
        ReduceEmitter { out: Vec::new(), bytes: 0, extra_cpu_ns: 0 }
    }

    /// Emits an output record of `bytes` serialized size.
    pub fn emit(&mut self, value: O, bytes: u64) {
        self.out.push(value);
        self.bytes += bytes;
    }

    /// Charges extra simulated CPU to the current task.
    pub fn charge(&mut self, ns: SimNs) {
        self.extra_cpu_ns += ns;
    }
}

/// Aggregate statistics of a finished job (generation-scale volumes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStats {
    pub map_tasks: u64,
    pub reduce_tasks: u64,
    pub input_bytes: u64,
    pub shuffle_bytes: u64,
    pub output_bytes: u64,
}

/// What one map task did, at generation scale. No cluster field moves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskWork {
    pub records: u64,
    pub input_bytes: u64,
    /// Bytes the task emitted (its spill, or its output).
    pub out_bytes: u64,
    /// CPU the map function charged on top of the framework's costs.
    pub extra_cpu_ns: SimNs,
}

/// What one reduce group did, at generation scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupWork {
    /// Values shuffled to the group.
    pub values: u64,
    /// Shuffled bytes: the sum of its pairs' byte shares.
    pub in_bytes: u64,
    /// Bytes the reducer emitted.
    pub out_bytes: u64,
    pub extra_cpu_ns: SimNs,
}

/// The work of one job, run once: everything pricing reads, nothing it
/// needs a cluster for. [`JobWork::price`] turns it into a stage on a
/// cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct JobWork {
    pub cfg: JobConfig,
    /// Map tasks, in task order.
    pub maps: Vec<TaskWork>,
    /// Reduce groups, in key order; `None` for a map-only job.
    pub groups: Option<Vec<GroupWork>>,
    pub stats: JobStats,
    /// A Hadoop Streaming job: its bytes pass through pipes, and each
    /// reducer's payload is checked against the node's pipe limit.
    pub streaming: bool,
}

/// Output of a map-reduce run: reduce outputs, per-group shuffled byte
/// sizes (for diagnostics), stats and the stage trace.
pub struct JobOutcome<O> {
    pub output: Vec<O>,
    /// Shuffled bytes per reduce group, in key order, generation scale.
    pub group_bytes: Vec<u64>,
    pub stats: JobStats,
    pub trace: StageTrace,
    /// Recovery actions taken while scheduling this job (empty under
    /// [`sjc_cluster::FaultPlan::none`]).
    pub recovery: Vec<RecoveryEvent>,
}

/// Cap on materialized full-scale task lists fed to the event scheduler.
const MAX_MATERIALIZED_TASKS: u64 = 1 << 16;

/// Materializes the full-scale task multiset (`durations` replicated
/// `copies` times) for the fault-aware scheduler. Once the list would
/// exceed [`MAX_MATERIALIZED_TASKS`], replicas batch into proportionally
/// longer tasks — total work is preserved exactly, only the granularity at
/// which crashes can interrupt it coarsens.
fn replicate_tasks(durations: &[SimNs], copies: u64) -> Vec<SimNs> {
    let total = (durations.len() as u64).saturating_mul(copies);
    let batch = total.div_ceil(MAX_MATERIALIZED_TASKS).max(1);
    let whole = copies / batch;
    let rem = copies % batch;
    let mut out = Vec::new();
    for &d in durations {
        for _ in 0..whole {
            out.push(d.saturating_mul(batch));
        }
        if rem > 0 {
            out.push(d.saturating_mul(rem));
        }
    }
    out
}

impl JobWork {
    /// Runs a map-only job's map function over every task and records what
    /// each task did; returns the work and the map output in task order.
    ///
    /// Map tasks execute in parallel on the host (`sjc-par`) and their
    /// results merge in task order, so the work is identical at every
    /// thread count.
    pub fn map_only<T: Sync, O: Send>(
        cfg: &JobConfig,
        tasks: Vec<MapTask<T>>,
        map: impl Fn(&T, &mut ReduceEmitter<O>) + Sync,
    ) -> (JobWork, Vec<O>) {
        let mut stats = JobStats { map_tasks: tasks.len() as u64, ..JobStats::default() };
        // Skew-aware dispatch: process fat tasks first (LPT by record count)
        // so one oversized partition cannot serialize the host-parallel tail;
        // results still land in task order, so nothing downstream changes.
        let ems: Vec<ReduceEmitter<O>> = sjc_par::par_map_weighted(
            &tasks,
            |task| task.records.len() as u64,
            |task| {
                let mut em = ReduceEmitter::new();
                for rec in &task.records {
                    map(rec, &mut em);
                }
                em
            },
        );
        let mut output = Vec::new();
        let mut maps = Vec::with_capacity(tasks.len());
        // sjc-lint: allow(serial-hot-loop) — output merge in task order; the map closures already ran in parallel above
        for (task, em) in tasks.iter().zip(ems) {
            stats.input_bytes += task.input_bytes;
            stats.output_bytes += em.bytes;
            maps.push(TaskWork {
                records: task.records.len() as u64,
                input_bytes: task.input_bytes,
                out_bytes: em.bytes,
                extra_cpu_ns: em.extra_cpu_ns,
            });
            output.extend(em.out);
        }
        let work = JobWork { cfg: cfg.clone(), maps, groups: None, stats, streaming: false };
        (work, output)
    }

    /// Runs a full map → shuffle → reduce job and records what every map
    /// task and reduce group did; returns the work and the reduce output
    /// in key order. Keys are grouped with a deterministic sort order.
    pub fn map_reduce<T: Sync, K, V, O>(
        cfg: &JobConfig,
        tasks: Vec<MapTask<T>>,
        map: impl Fn(&T, &mut MapEmitter<K, V>) + Sync,
        reduce: impl Fn(&K, &[V], &mut ReduceEmitter<O>) + Sync,
    ) -> (JobWork, Vec<O>)
    where
        K: GroupKey + Clone + Send + Sync,
        V: Send + Sync,
        O: Send,
    {
        JobWork::map_reduce_inner(cfg, tasks, &map, &reduce)
    }

    /// Host-parallel core: map tasks and reduce groups each run through
    /// `sjc_par` (order-preserving), the shuffle is one stable sort
    /// (`sjc_par::par_group`), and the records merge in task / key order —
    /// so the work is independent of the thread count.
    #[allow(clippy::type_complexity)]
    fn map_reduce_inner<T: Sync, K, V, O>(
        cfg: &JobConfig,
        tasks: Vec<MapTask<T>>,
        map: &(dyn Fn(&T, &mut MapEmitter<K, V>) + Sync),
        reduce: &(dyn Fn(&K, &[V], &mut ReduceEmitter<O>) + Sync),
    ) -> (JobWork, Vec<O>)
    where
        K: GroupKey + Clone + Send + Sync,
        V: Send + Sync,
        O: Send,
    {
        // ---- map phase ----
        let mut stats = JobStats { map_tasks: tasks.len() as u64, ..JobStats::default() };
        stats.input_bytes = tasks.iter().map(|t| t.input_bytes).sum();
        // LPT dispatch by record count: see `map_only` — processing order
        // changes, the task-order results do not.
        let mapped: Vec<MapEmitter<K, V>> = sjc_par::par_map_weighted(
            &tasks,
            |task| task.records.len() as u64,
            |task| {
                let mut em = MapEmitter::new();
                for rec in &task.records {
                    map(rec, &mut em);
                }
                // A task meters its spill, not its pairs: each pair carries an
                // equal integer share of the task's bytes.
                let share = em.bytes / em.pairs.len().max(1) as u64;
                for (_, (_, s)) in &mut em.pairs {
                    *s = share;
                }
                em
            },
        );
        stats.shuffle_bytes = mapped.iter().map(|em| em.bytes).sum();
        let maps: Vec<TaskWork> = tasks
            .iter()
            .zip(&mapped)
            .map(|(task, em)| TaskWork {
                records: task.records.len() as u64,
                input_bytes: task.input_bytes,
                out_bytes: em.bytes,
                extra_cpu_ns: em.extra_cpu_ns,
            })
            .collect();
        // The first task's buffer becomes the shuffle's, so a one-task job
        // hands its pairs over without a copy.
        let mut pairs = mapped.into_iter().map(|em| em.pairs);
        let mut shuffle = pairs.next().unwrap_or_default();
        pairs.for_each(|mut more| shuffle.append(&mut more));
        // Hadoop's shuffle sorts keys: keys ascending, each key's values in
        // task order, its payload the sum of its pairs' shares.
        let groups = sjc_par::par_group(shuffle);
        let group_bytes: Vec<u64> =
            groups.iter().map(|(_, run)| run.iter().map(|(_, share)| share).sum()).collect();
        let groups = groups.map_values(|(v, _)| v);
        let group_list: Vec<(&K, &[V])> = groups.iter().collect();

        // ---- reduce phase ----
        // Reduce groups are the spatial cells — the skew hazard the LPT
        // schedule exists for: one fat NYC-census cell dispatched last would
        // serialize the whole tail. Weight by group size; output order
        // (sorted key order) is unchanged by contract.
        let reduce_ems: Vec<ReduceEmitter<O>> = sjc_par::par_map_weighted(
            &group_list,
            |(_, vs)| vs.len() as u64,
            |&(k, vs)| {
                let mut em = ReduceEmitter::new();
                reduce(k, vs, &mut em);
                em
            },
        );
        let mut output = Vec::new();
        let mut reduces = Vec::with_capacity(group_list.len());
        // sjc-lint: allow(serial-hot-loop) — output merges in sorted key order; reduce closures already ran in parallel above
        for (((_, vs), &in_bytes), em) in group_list.iter().zip(&group_bytes).zip(reduce_ems) {
            stats.output_bytes += em.bytes;
            reduces.push(GroupWork {
                values: vs.len() as u64,
                in_bytes,
                out_bytes: em.bytes,
                extra_cpu_ns: em.extra_cpu_ns,
            });
            output.extend(em.out);
        }
        stats.reduce_tasks = group_list.len() as u64;
        let work =
            JobWork { cfg: cfg.clone(), maps, groups: Some(reduces), stats, streaming: false };
        (work, output)
    }

    /// Prices the job on `cluster`, the job starting at `start_ns` on the
    /// run's global clock: per-task durations from the cluster's cost
    /// model, bandwidths and per-core speed, the map and reduce waves on its
    /// slots ([`Cluster::wave`]), checkpoint writes, replica failover, and
    /// for a streaming job its pipe bytes and pipe check. A map-only job is
    /// the same job with an empty reduce wave and no shuffle. Pure
    /// arithmetic over the work and the cluster.
    pub fn price(
        &self,
        cluster: &Cluster,
        start_ns: SimNs,
    ) -> Result<(StageTrace, Vec<RecoveryEvent>), SimError> {
        let (cfg, stats) = (&self.cfg, &self.stats);
        let c = &cluster.cost;
        let node = cluster.config.node;
        let nodes = cluster.config.nodes;
        let slots = cluster.total_slots();
        let plan = &cluster.faults;
        let start = start_ns + c.hadoop_job_startup_ns;
        let reduces = self.groups.is_some();
        let (kind, map_stage) = if reduces {
            (StageKind::MapReduceJob, format!("{}/map", cfg.name))
        } else {
            (StageKind::MapOnlyJob, cfg.name.clone())
        };
        let durations: Vec<SimNs> =
            self.maps.iter().map(|task| map_task_duration(cluster, cfg, task, reduces)).collect();
        // Map wave. Under faults a map-reduce job runs with `rerun_on_crash`:
        // a completed map task whose host dies before the shuffle
        // re-executes (its output is gone). With an enabled checkpoint
        // policy the spilled map output is persisted to HDFS instead, so
        // those re-runs are unnecessary — the loss becomes a remote re-read.
        let rerun = reduces && !plan.checkpoint.enabled();
        let overhead = c.hadoop_task_overhead_ns;
        let map = match cfg.map_scale {
            ScaleMode::MoreTasks => {
                let with_overhead: Vec<SimNs> = durations.iter().map(|d| d + overhead).collect();
                if plan.is_none() {
                    let makespan = replicated_makespan(&with_overhead, slots, cfg.multiplier);
                    TaskSchedule { makespan, ..TaskSchedule::default() }
                } else {
                    let full =
                        replicate_tasks(&with_overhead, cfg.multiplier.round().max(1.0) as u64);
                    cluster.wave(&full, &map_stage, start, rerun)?
                }
            }
            ScaleMode::BiggerTasks => {
                let scaled: Vec<SimNs> = durations
                    .iter()
                    .map(|d| overhead + (*d as f64 * cfg.multiplier) as SimNs)
                    .collect();
                cluster.wave(&scaled, &map_stage, start, rerun)?
            }
        };
        let mut map_makespan = map.makespan;

        // Checkpointed map output: the write streams the full-scale spill
        // through the HDFS replication pipeline on the critical path, and
        // nodes that died within the map window cost a remote re-read of
        // their share of the checkpoint instead of re-executing their maps.
        // A map-only job shuffles nothing, so it checkpoints nothing.
        let mut ckpt_events: Vec<RecoveryEvent> = Vec::new();
        let mut ckpt_written: u64 = 0;
        let mut ckpt_reread: u64 = 0;
        let full_shuffle = (stats.shuffle_bytes as f64 * cfg.multiplier) as u64;
        if plan.checkpoint.enabled() && full_shuffle > 0 {
            let repl = plan.checkpoint.replication.max(1) as u64;
            let write_ns = c.io_ns(
                full_shuffle.saturating_mul(repl) / (slots as u64).max(1),
                cluster.hdfs_write_bw(),
            );
            map_makespan += write_ns;
            ckpt_written = full_shuffle;
            ckpt_events.push(RecoveryEvent {
                stage: cfg.name.clone(),
                kind: RecoveryKind::CheckpointWrite { bytes: full_shuffle },
                wasted_ns: write_ns,
            });
            let dead_before = plan.dead_nodes_at(start);
            let dead_after = plan.dead_nodes_at(start + map_makespan);
            let newly = dead_after.iter().filter(|n| !dead_before.contains(n)).count();
            if newly > 0 {
                let live = nodes.saturating_sub(dead_after.len() as u32).max(1);
                let reread = (full_shuffle as f64 * newly as f64 / nodes as f64) as u64;
                let live_slots = (live as u64 * node.cores as u64).max(1);
                let extra = c.io_ns(reread / live_slots, node.slot_net_bw());
                map_makespan += extra;
                ckpt_reread = reread;
                ckpt_events.push(RecoveryEvent {
                    stage: cfg.name.clone(),
                    kind: RecoveryKind::CheckpointRestore { bytes: reread },
                    wasted_ns: extra,
                });
            }
        }

        // ---- shuffle + reduce phase ----
        // Each group is one spatial partition: fixed count, data grows with
        // the multiplier.
        let remote_fraction = if nodes > 1 { (nodes - 1) as f64 / nodes as f64 } else { 0.0 };
        let write_bw = cluster.hdfs_write_bw();
        let reduce_durations: Vec<SimNs> = self
            .groups
            .iter()
            .flatten()
            .map(|g| {
                let full_bytes = (g.in_bytes as f64 * cfg.multiplier) as u64;
                let full_records = (g.values as f64 * cfg.multiplier) as u64;
                // Fetch spilled map output: disk read + cross-node transfer.
                let mut io = c.io_ns(full_bytes, node.slot_disk_read_bw());
                io += c.io_ns((full_bytes as f64 * remote_fraction) as u64, node.slot_net_bw());
                // Merge-sort the group (Hadoop sorts by key; within-partition
                // sorting of values is what the streaming dedup relies on).
                let mut cpu = c.sort_ns(full_records);
                cpu += c.hadoop_records_ns(full_records);
                cpu += (g.extra_cpu_ns as f64 * cfg.multiplier) as SimNs;
                if cfg.write_output_to_hdfs {
                    let out_full = (g.out_bytes as f64 * cfg.multiplier) as u64;
                    cpu += c.serialize_ns(out_full);
                    io += c.hdfs_write_ns(out_full, write_bw);
                }
                overhead + io + (cpu as f64 * node.cpu_scale) as SimNs
            })
            .collect();
        // Reduce wave: group durations are already full-scale; it starts on
        // the global clock where the map wave ended.
        let reduce = cluster.wave(
            &reduce_durations,
            &format!("{}/reduce", cfg.name),
            start + map_makespan,
            false,
        )?;

        let mut trace = StageTrace::new(cfg.name.clone(), kind, cfg.phase);
        trace.sim_ns = c.hadoop_job_startup_ns + map_makespan + reduce.makespan;
        trace.hdfs_bytes_read = (stats.input_bytes as f64 * cfg.multiplier) as u64;
        trace.shuffle_bytes = full_shuffle;
        if cfg.write_output_to_hdfs {
            trace.hdfs_bytes_written = (stats.output_bytes as f64 * cfg.multiplier) as u64;
        }
        trace.tasks = ((stats.map_tasks as f64) * cfg.multiplier) as u64 + stats.reduce_tasks;
        trace.hdfs_bytes_written += ckpt_written;

        let mut recovery = Vec::new();
        for s in [map, reduce] {
            trace.attempts += s.attempts;
            trace.speculative += s.speculative;
            trace.wasted_ns += s.wasted_ns;
            recovery.extend(s.events);
        }
        recovery.extend(ckpt_events);
        trace.bytes_reread = ckpt_reread;
        // Input blocks whose primary died before the job started come from
        // remote replicas.
        if let Some((reread, ev)) =
            cluster.replica_failover(&cfg.name, start, trace.hdfs_bytes_read)
        {
            trace.sim_ns += ev.wasted_ns;
            trace.bytes_reread += reread;
            recovery.push(ev);
        }
        if self.streaming {
            if let Some(err) = self.pipe_error(cluster) {
                return Err(err);
            }
            trace.pipe_bytes = self.pipe_bytes();
        }
        Ok((trace, recovery))
    }
}

/// A map task's duration: I/O at the slot's share of the node disk and
/// CPU scaled by the node's per-core speed. A map-reduce task (`spill`)
/// serializes its output to local disk (Hadoop always materializes); a
/// map-only task writes it to HDFS if the job is configured to.
fn map_task_duration(cluster: &Cluster, cfg: &JobConfig, task: &TaskWork, spill: bool) -> SimNs {
    let c = &cluster.cost;
    let node = &cluster.config.node;
    let mut io = c.io_ns(task.input_bytes, node.slot_disk_read_bw());
    let mut cpu = 0u64;
    if cfg.parse_input_text {
        cpu += c.parse_ns(task.input_bytes);
    }
    cpu += c.hadoop_records_ns(task.records);
    cpu += task.extra_cpu_ns;
    if spill {
        cpu += c.serialize_ns(task.out_bytes);
        io += c.io_ns(task.out_bytes, node.slot_disk_write_bw());
    }
    let mut ns = io + (cpu as f64 * node.cpu_scale) as SimNs;
    if !spill && cfg.write_output_to_hdfs {
        ns += (c.serialize_ns(task.out_bytes) as f64 * node.cpu_scale) as SimNs
            + c.hdfs_write_ns(task.out_bytes, cluster.hdfs_write_bw());
    }
    ns
}

/// Runs a job's work and prices it on one cluster, the job starting at time
/// zero. The engines record [`JobWork`] and price it later; this wrapper
/// serves the crate's tests and `benchmark/src/layers.rs`, whose calls
/// still hand it a [`SimHdfs`] that nothing reads.
pub struct MapReduceJob<'a> {
    pub(crate) cluster: &'a Cluster,
}

impl<'a> MapReduceJob<'a> {
    pub fn new(cluster: &'a Cluster, _hdfs: &mut SimHdfs) -> Self {
        MapReduceJob { cluster }
    }

    /// Runs a map-only job (no shuffle; output written to HDFS if
    /// configured) on this cluster: [`JobWork::map_only`], then
    /// [`JobWork::price`].
    pub fn map_only<T: Sync, O: Send>(
        &mut self,
        cfg: &JobConfig,
        tasks: Vec<MapTask<T>>,
        map: impl Fn(&T, &mut ReduceEmitter<O>) + Sync,
    ) -> Result<JobOutcome<O>, SimError> {
        let (work, output) = JobWork::map_only(cfg, tasks, map);
        self.outcome(work, output)
    }

    /// Runs a full map → shuffle → reduce job on this cluster:
    /// [`JobWork::map_reduce`], then [`JobWork::price`].
    pub fn map_reduce<T: Sync, K, V, O>(
        &mut self,
        cfg: &JobConfig,
        tasks: Vec<MapTask<T>>,
        map: impl Fn(&T, &mut MapEmitter<K, V>) + Sync,
        reduce: impl Fn(&K, &[V], &mut ReduceEmitter<O>) + Sync,
    ) -> Result<JobOutcome<O>, SimError>
    where
        K: GroupKey + Clone + Send + Sync,
        V: Send + Sync,
        O: Send,
    {
        let (work, output) = JobWork::map_reduce(cfg, tasks, map, reduce);
        self.outcome(work, output)
    }

    /// Prices `work` as a job starting at time zero and packs it with
    /// `output`.
    fn outcome<O>(&self, work: JobWork, output: Vec<O>) -> Result<JobOutcome<O>, SimError> {
        let (trace, recovery) = work.price(self.cluster, 0)?;
        let group_bytes = work.groups.iter().flatten().map(|g| g.in_bytes).collect();
        Ok(JobOutcome { output, group_bytes, stats: work.stats, trace, recovery })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_format::block_splits;
    use sjc_cluster::{ClusterConfig, FaultPlan};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::workstation())
    }

    #[test]
    fn word_count_semantics() {
        let cluster = cluster();
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let words = vec!["a", "b", "a", "c", "b", "a"];
        let tasks = block_splits(&words, 2.0, 4); // 2 words per task
        let cfg = JobConfig::new("wordcount", Phase::DistributedJoin, 1.0);
        let outcome = engine
            .map_reduce(
                &cfg,
                tasks,
                |w, em| em.emit(w.to_string(), 1u64, 2),
                |k, vs, em| em.emit((k.clone(), vs.iter().sum::<u64>()), 8),
            )
            .unwrap();
        let mut counts = outcome.output.clone();
        counts.sort();
        assert_eq!(counts, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
        assert_eq!(outcome.stats.map_tasks, 3);
        assert_eq!(outcome.stats.reduce_tasks, 3);
        assert!(outcome.trace.sim_ns >= cluster.cost.hadoop_job_startup_ns);
    }

    #[test]
    fn map_only_passthrough() {
        let cluster = cluster();
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let cfg = JobConfig::new("scan", Phase::IndexA, 1.0);
        let tasks = vec![MapTask::new(vec![1u32, 2, 3], 30)];
        let outcome = engine.map_only(&cfg, tasks, |r, em| em.emit(r * 10, 4)).unwrap();
        assert_eq!(outcome.output, vec![10, 20, 30]);
        assert_eq!(outcome.trace.hdfs_bytes_read, 30);
    }

    #[test]
    fn multiplier_scales_time_and_bytes() {
        let cluster = cluster();
        let run = |mult: f64| {
            let mut hdfs = SimHdfs::new(1);
            let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
            let cfg = JobConfig::new("scan", Phase::IndexA, mult);
            let records: Vec<u32> = (0..10_000).collect();
            let tasks = block_splits(&records, 100.0, 64 << 10);
            engine.map_only(&cfg, tasks, |r, em| em.emit(*r, 100)).unwrap()
        };
        let base = run(1.0);
        let scaled = run(100.0);
        // Compare data-dependent time (net of the fixed job startup).
        let startup = cluster.cost.hadoop_job_startup_ns;
        assert!(scaled.trace.sim_ns - startup > 10 * (base.trace.sim_ns - startup));
        assert_eq!(scaled.trace.hdfs_bytes_read, 100 * base.trace.hdfs_bytes_read);
        assert_eq!(base.output, scaled.output, "multiplier never changes results");
    }

    #[test]
    fn skewed_reduce_group_dominates_makespan() {
        let cluster = cluster();
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let cfg = JobConfig::new("skew", Phase::DistributedJoin, 1.0).write_output(false);
        // 1000 records: 90% to key 0, the rest spread over 9 keys.
        let records: Vec<u64> = (0..1000).collect();
        let tasks = block_splits(&records, 1000.0, 64 << 20);
        let outcome = engine
            .map_reduce(
                &cfg,
                tasks,
                |r, em| {
                    let key = if r % 10 == 0 { (r % 9) + 1 } else { 0 };
                    em.emit(key, *r, 1 << 20); // 1 MB per record
                },
                |_k, vs, em| em.emit(vs.len() as u64, 8),
            )
            .unwrap();
        let max = *outcome.group_bytes.iter().max().unwrap();
        let min = *outcome.group_bytes.iter().min().unwrap();
        assert!(max > 50 * min, "skew visible in group bytes");
    }

    #[test]
    fn bigger_tasks_scale_linearly_more_tasks_amortize() {
        let cluster = cluster();
        let overhead = cluster.cost.hadoop_task_overhead_ns;
        // 16 equal tasks of 100 records each.
        let tasks = || -> Vec<MapTask<u32>> {
            (0..16).map(|t| MapTask::new((t * 100..(t + 1) * 100).collect(), 100_000)).collect()
        };
        let run = |mode: ScaleMode, reduce: bool| {
            let mut hdfs = SimHdfs::new(1);
            let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
            let cfg = JobConfig::new("m", Phase::IndexA, 50.0).map_scale(mode).write_output(false);
            let trace = if reduce {
                let map = |r: &u32, em: &mut MapEmitter<u32, u32>| em.emit(r % 16, *r, 8);
                engine
                    .map_reduce(&cfg, tasks(), map, |_, vs, em| em.emit(vs.len(), 8))
                    .map(|o| o.trace)
            } else {
                engine.map_only(&cfg, tasks(), |r, em| em.emit(*r, 0)).map(|o| o.trace)
            };
            trace.unwrap().sim_ns
        };
        // BiggerTasks: 16 tasks × 50x data on 16 slots — one huge wave.
        // MoreTasks: 800 unit tasks on 16 slots — perfectly amortized; both
        // end up near total_work/slots, BiggerTasks only pays overhead once.
        // That holds on either job shape: the reduce wave is the same.
        for reduce in [false, true] {
            let more = run(ScaleMode::MoreTasks, reduce);
            let bigger = run(ScaleMode::BiggerTasks, reduce);
            let ratio = more as f64 / bigger as f64;
            assert!((0.5..2.0).contains(&ratio), "same area bound, got ratio {ratio}");
            assert_eq!(more - bigger, 49 * overhead, "map-reduce: {reduce}");
        }
    }

    #[test]
    fn replicated_task_lists_batch_but_preserve_work() {
        let durations = vec![10u64, 20, 30];
        let small = replicate_tasks(&durations, 3);
        assert_eq!(small.len(), 9);
        assert_eq!(small.iter().sum::<u64>(), 3 * 60);
        // Far over the cap: batching kicks in, total work is exact.
        let copies = 10 * MAX_MATERIALIZED_TASKS;
        let big = replicate_tasks(&durations, copies);
        assert!(big.len() as u64 <= MAX_MATERIALIZED_TASKS + durations.len() as u64);
        assert_eq!(big.iter().sum::<u64>(), copies * 60);
    }

    #[test]
    fn faulted_cluster_recovers_and_preserves_results() {
        let config = ClusterConfig::ec2(4);
        let clean = Cluster::new(config.clone());
        // Node 1 dies before the job starts; 5% of attempts hit transient
        // disk errors.
        let plan = FaultPlan::seeded(7, &config).with_disk_errors(0.05).crash_at(1, 1);
        let faulted = Cluster::with_faults(config, plan);
        let run = |cluster: &Cluster| {
            let mut hdfs = SimHdfs::new(4);
            let mut engine = MapReduceJob::new(cluster, &mut hdfs);
            let words: Vec<u64> = (0..4000).map(|i| i % 97).collect();
            let tasks = block_splits(&words, 16.0, 2 << 10);
            let cfg = JobConfig::new("wc", Phase::DistributedJoin, 4.0);
            engine
                .map_reduce(
                    &cfg,
                    tasks,
                    |w, em| em.emit(*w, 1u64, 8),
                    |k, vs, em| em.emit((*k, vs.len() as u64), 8),
                )
                .unwrap()
        };
        let base = run(&clean);
        let hit = run(&faulted);
        let mut a = base.output.clone();
        let mut b = hit.output.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "recovered runs return identical results");
        assert!(hit.trace.sim_ns > base.trace.sim_ns, "faults cost time");
        assert!(hit.trace.attempts > 0);
        assert!(!hit.recovery.is_empty(), "recovery actions are logged");
        assert!(hit.trace.bytes_reread > 0, "dead node forces remote re-reads");
        assert_eq!(base.trace.attempts, 0, "zero-fault path does not meter attempts");
    }

    #[test]
    fn checkpointed_map_output_turns_reruns_into_rereads() {
        let config = ClusterConfig::ec2(4);
        // Map-heavy, shuffle-light: big text inputs, 8-byte emissions. The
        // run is dominated by the map wave, so a crash at 60% of the
        // data-dependent time lands mid-map with plenty of completed tasks.
        let run = |plan: Option<FaultPlan>| {
            let cluster = match plan {
                Some(p) => Cluster::with_faults(config.clone(), p),
                None => Cluster::new(config.clone()),
            };
            let mut hdfs = SimHdfs::new(4);
            let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
            let words: Vec<u64> = (0..4000).map(|i| i % 97).collect();
            let tasks = block_splits(&words, 4096.0, 256 << 10);
            let cfg = JobConfig::new("wc", Phase::DistributedJoin, 4.0).write_output(false);
            engine
                .map_reduce(
                    &cfg,
                    tasks,
                    |w, em| em.emit(*w, 1u64, 8),
                    |k, vs, em| em.emit((*k, vs.len() as u64), 8),
                )
                .unwrap()
        };
        let base = run(None);
        let startup = Cluster::new(config.clone()).cost.hadoop_job_startup_ns;
        let crash_ns = startup + (base.trace.sim_ns - startup) * 3 / 5;
        let crash = FaultPlan::seeded(7, &config).crash_at(2, crash_ns);

        let rerun = run(Some(crash.clone()));
        assert!(
            rerun.recovery.iter().any(|e| matches!(e.kind, RecoveryKind::MapRerun { .. })),
            "without a checkpoint, completed maps on the dead host re-execute: {:?}",
            rerun.recovery
        );

        let ckpt = run(Some(crash.with_checkpoints(1, 3)));
        assert!(
            !ckpt.recovery.iter().any(|e| matches!(e.kind, RecoveryKind::MapRerun { .. })),
            "checkpointed map output never re-executes: {:?}",
            ckpt.recovery
        );
        assert!(ckpt
            .recovery
            .iter()
            .any(|e| matches!(e.kind, RecoveryKind::CheckpointWrite { bytes } if bytes > 0)));
        assert!(
            ckpt.recovery
                .iter()
                .any(|e| matches!(e.kind, RecoveryKind::CheckpointRestore { bytes } if bytes > 0)),
            "the dead host's share comes back as a re-read: {:?}",
            ckpt.recovery
        );
        assert!(ckpt.trace.bytes_reread > 0);
        assert!(ckpt.trace.hdfs_bytes_written > 0, "the checkpoint is metered through HDFS");
        // Re-reading a light shuffle beats re-running heavy maps.
        assert!(
            ckpt.trace.sim_ns < rerun.trace.sim_ns,
            "checkpointing must win on a map-heavy job: {} >= {}",
            ckpt.trace.sim_ns,
            rerun.trace.sim_ns
        );
        let mut a = base.output.clone();
        let mut b = ckpt.output.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "recovery path never changes results");
    }
}
