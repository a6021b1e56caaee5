//! Hadoop-Streaming mode: text lines piped through external processes.
//!
//! HadoopGIS is built on Hadoop Streaming: mappers and reducers are python
//! / C++ programs reading stdin and writing stdout. Relative to native jobs
//! this adds, per stage: pipe transfer of every byte in both directions,
//! text re-parsing and re-serialization (records have no binary
//! representation between stages), and a hard failure when one task's pipe
//! payload exceeds what the node can buffer — the paper's "broken pipeline
//! ... when the data that pipes through multiple processors is too big".
//!
//! **Lines are handles, lengths are real.** Every charge above is a
//! function of byte lengths only, so the job is generic over what carries
//! the text: anything with a [`TextLen`]. HadoopGIS formats each dataset's
//! TSV once, keeps each line's length, and passes `Copy` handles (a
//! record's index and its line's length) from mapper to shuffle to reducer;
//! each charged length is still the `len()` of a line the writer formats.
//! Mappers and reducers write into an `out(..)` sink instead of returning a
//! `Vec` per line. [`StreamingJob::map_only`] and
//! [`StreamingJob::map_reduce`] are `String`-and-`Vec` adapters over the
//! same core, kept for `benchmark/` only.

use sjc_cluster::{Cluster, CostModel, RecoveryEvent, SimError, SimNs, StageTrace};
use sjc_par::GroupKey;

use crate::input_format::MapTask;
use crate::job::{JobConfig, JobStats, JobWork, MapReduceJob};

/// Byte length of a value written as one field of a streaming line — the
/// only thing the simulator reads of a line, key or output.
pub trait TextLen {
    fn text_len(&self) -> usize;
}

impl TextLen for String {
    fn text_len(&self) -> usize {
        self.len()
    }
}

impl TextLen for &str {
    fn text_len(&self) -> usize {
        self.len()
    }
}

/// Result of a successful streaming job.
#[derive(Debug)]
pub struct StreamingOutcome<O = String> {
    /// Output lines (reduce output, or map output for map-only jobs).
    pub lines: Vec<O>,
    pub stats: JobStats,
    pub trace: StageTrace,
    /// Recovery actions the underlying engine took (empty without faults).
    pub recovery: Vec<RecoveryEvent>,
}

/// A streaming job runner borrowing the native engine.
pub struct StreamingJob<'a, 'b> {
    pub engine: &'b mut MapReduceJob<'a>,
}

/// What one external process costs for `in_bytes` of stdin and `out_bytes`
/// of stdout: the pipe traffic in both directions, plus its own text parse
/// of what it read.
fn process_ns(cost: &CostModel, in_bytes: u64, out_bytes: u64) -> SimNs {
    cost.pipe_ns(in_bytes + out_bytes) + cost.parse_ns(in_bytes)
}

impl JobWork {
    /// The work of a streaming map-only job: `mapper` writes the output
    /// lines of one input line into its sink, and every line pays its pipe
    /// and parse costs from `cost`. Returns the work and the output lines.
    pub fn map_only_lines<L, O>(
        cost: &CostModel,
        cfg: &JobConfig,
        tasks: Vec<MapTask<L>>,
        mapper: impl Fn(&L, &mut dyn FnMut(O)) + Sync,
    ) -> (JobWork, Vec<O>)
    where
        L: TextLen + Sync,
        O: TextLen + Send,
    {
        let (mut work, lines) = JobWork::map_only(cfg, tasks, |line: &L, em| {
            let in_bytes = line.text_len() as u64 + 1;
            let mut pipe_out = 0u64;
            mapper(line, &mut |out: O| {
                let b = out.text_len() as u64 + 1;
                pipe_out += b;
                em.emit(out, b);
            });
            em.charge(process_ns(cost, in_bytes, pipe_out));
        });
        work.streaming = true;
        (work, lines)
    }

    /// The work of a streaming map-reduce job: `mapper` writes `(key,
    /// value)` line pairs into its sink; `reducer` consumes one key's values
    /// (in map-task order) and writes output lines into its sink. Returns
    /// the work and the output lines in key order.
    pub fn map_reduce_lines<L, K, V, O>(
        cost: &CostModel,
        cfg: &JobConfig,
        tasks: Vec<MapTask<L>>,
        mapper: impl Fn(&L, &mut dyn FnMut(K, V)) + Sync,
        reducer: impl Fn(&K, &[V], &mut dyn FnMut(O)) + Sync,
    ) -> (JobWork, Vec<O>)
    where
        L: TextLen + Sync,
        K: TextLen + GroupKey + Clone + Send + Sync,
        V: TextLen + Send + Sync,
        O: TextLen + Send,
    {
        let (mut work, lines) = JobWork::map_reduce(
            cfg,
            tasks,
            |line: &L, em| {
                let in_bytes = line.text_len() as u64 + 1;
                let mut pipe_out = 0u64;
                mapper(line, &mut |k: K, v: V| {
                    let b = (k.text_len() + v.text_len() + 2) as u64;
                    pipe_out += b;
                    em.emit(k, v, b);
                });
                em.charge(process_ns(cost, in_bytes, pipe_out));
            },
            |key: &K, values: &[V], em| {
                let in_bytes: u64 =
                    values.iter().map(|v| (key.text_len() + v.text_len() + 2) as u64).sum();
                let mut out_bytes = 0u64;
                reducer(key, values, &mut |out: O| {
                    let b = out.text_len() as u64 + 1;
                    out_bytes += b;
                    em.emit(out, b);
                });
                em.charge(process_ns(cost, in_bytes, out_bytes));
                if let Some(factor) = cfg.script_reducer {
                    em.charge(
                        (values.len() as f64 * cost.streaming_script_record_ns * factor) as u64,
                    );
                }
            },
        );
        work.streaming = true;
        (work, lines)
    }

    /// The broken-pipe check of a streaming job's reducers on `cluster`:
    /// each reduce group is piped through one external process (stdin: the
    /// group's records; stdout: its results), at full scale the payload is
    /// multiplier × bigger, and the node's memory sets the limit. The first
    /// group in key order over the limit fails the job.
    pub fn pipe_error(&self, cluster: &Cluster) -> Option<SimError> {
        let limit = cluster.cost.streaming_pipe_limit(cluster.config.node.memory_bytes);
        let full = self
            .groups
            .iter()
            .flatten()
            .map(|g| ((g.in_bytes + g.out_bytes) as f64 * self.cfg.multiplier) as u64)
            .find(|&full| full > limit)?;
        Some(SimError::BrokenPipe {
            stage: self.cfg.name.clone(),
            payload_bytes: full,
            limit_bytes: limit,
        })
    }

    /// Full-scale bytes through the job's pipes: every input byte into a
    /// mapper, and for a map-reduce job every shuffled byte out of a mapper
    /// and into a reducer, and every output byte out.
    pub(crate) fn pipe_bytes(&self) -> u64 {
        let s = &self.stats;
        let shuffled = if self.groups.is_some() { 2 * s.shuffle_bytes } else { 0 };
        ((s.input_bytes + shuffled + s.output_bytes) as f64 * self.cfg.multiplier) as u64
    }
}

impl<'a, 'b> StreamingJob<'a, 'b> {
    pub fn new(engine: &'b mut MapReduceJob<'a>) -> Self {
        StreamingJob { engine }
    }

    /// Runs a streaming map-only job on the engine's cluster:
    /// [`JobWork::map_only_lines`], then [`JobWork::price`].
    pub fn map_only_lines<L, O>(
        &mut self,
        cfg: &JobConfig,
        tasks: Vec<MapTask<L>>,
        mapper: impl Fn(&L, &mut dyn FnMut(O)) + Sync,
    ) -> Result<StreamingOutcome<O>, SimError>
    where
        L: TextLen + Sync,
        O: TextLen + Send,
    {
        let (work, lines) = JobWork::map_only_lines(&self.engine.cluster.cost, cfg, tasks, mapper);
        self.outcome(work, lines)
    }

    /// Runs a streaming map-reduce job on the engine's cluster:
    /// [`JobWork::map_reduce_lines`], then [`JobWork::price`].
    ///
    /// Fails with [`SimError::BrokenPipe`] when any single reduce task's
    /// full-scale pipe payload exceeds the node's streaming limit.
    pub fn map_reduce_lines<L, K, V, O>(
        &mut self,
        cfg: &JobConfig,
        tasks: Vec<MapTask<L>>,
        mapper: impl Fn(&L, &mut dyn FnMut(K, V)) + Sync,
        reducer: impl Fn(&K, &[V], &mut dyn FnMut(O)) + Sync,
    ) -> Result<StreamingOutcome<O>, SimError>
    where
        L: TextLen + Sync,
        K: TextLen + GroupKey + Clone + Send + Sync,
        V: TextLen + Send + Sync,
        O: TextLen + Send,
    {
        let cost = &self.engine.cluster.cost;
        let (work, lines) = JobWork::map_reduce_lines(cost, cfg, tasks, mapper, reducer);
        self.outcome(work, lines)
    }

    fn outcome<O>(
        &mut self,
        work: JobWork,
        lines: Vec<O>,
    ) -> Result<StreamingOutcome<O>, SimError> {
        let (trace, recovery) = work.price(self.engine.cluster, 0)?;
        Ok(StreamingOutcome { lines, stats: work.stats, trace, recovery })
    }

    /// [`Self::map_only_lines`] over owned lines, the mapper returning a
    /// `Vec` per line. For `benchmark/src/layers.rs` only.
    pub fn map_only(
        &mut self,
        cfg: &JobConfig,
        tasks: Vec<MapTask<String>>,
        mapper: impl Fn(&str) -> Vec<String> + Sync,
    ) -> Result<StreamingOutcome, SimError> {
        self.map_only_lines(cfg, tasks, |l: &String, out| mapper(l).into_iter().for_each(out))
    }

    /// [`Self::map_reduce_lines`] over owned lines, mapper and reducer
    /// returning a `Vec` per call. For `benchmark/src/layers.rs` only.
    pub fn map_reduce(
        &mut self,
        cfg: &JobConfig,
        tasks: Vec<MapTask<String>>,
        mapper: impl Fn(&str) -> Vec<(String, String)> + Sync,
        reducer: impl Fn(&str, &[String]) -> Vec<String> + Sync,
    ) -> Result<StreamingOutcome, SimError> {
        self.map_reduce_lines(
            cfg,
            tasks,
            |l: &String, out| mapper(l).into_iter().for_each(|(k, v)| out(k, v)),
            |k: &String, vs: &[String], out| reducer(k, vs).into_iter().for_each(out),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_format::block_splits;
    use sjc_cluster::metrics::Phase;
    use sjc_cluster::{Cluster, ClusterConfig, SimHdfs};

    fn lines(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{i}\tpayload-{i}")).collect()
    }

    #[test]
    fn streaming_wordcount() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let mut job = StreamingJob::new(&mut engine);
        let input: Vec<String> = vec!["a b a".into(), "b a c".into()];
        let tasks = block_splits(&input, 6.0, 1 << 20);
        let cfg = JobConfig::new("wc", Phase::DistributedJoin, 1.0);
        let out = job
            .map_reduce(
                &cfg,
                tasks,
                |line| line.split(' ').map(|w| (w.to_string(), "1".to_string())).collect(),
                |k, vs| vec![format!("{k}\t{}", vs.len())],
            )
            .unwrap();
        let mut got = out.lines.clone();
        got.sort();
        assert_eq!(got, vec!["a\t3", "b\t2", "c\t1"]);
        assert!(out.trace.pipe_bytes > 0, "pipes are metered");
    }

    #[test]
    fn streaming_costs_more_than_native() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let input = lines(5000);
        let tasks = block_splits(&input, 16.0, 16 << 10);

        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let cfg = JobConfig::new("native", Phase::IndexA, 1.0);
        let native = engine
            .map_reduce(
                &cfg,
                tasks.clone(),
                // Same intermediate volume as the streaming variant below
                // (key digit + "1" + separators), so the comparison isolates
                // pipe/parse overheads rather than shuffle volume.
                |l: &String, em| em.emit(l.len() as u64 % 7, 1u64, 4),
                |_, vs, em| em.emit(vs.len(), 8),
            )
            .unwrap();

        let mut hdfs2 = SimHdfs::new(1);
        let mut engine2 = MapReduceJob::new(&cluster, &mut hdfs2);
        let mut sjob = StreamingJob::new(&mut engine2);
        let scfg = JobConfig::new("streaming", Phase::IndexA, 1.0);
        let streaming = sjob
            .map_reduce(
                &scfg,
                tasks,
                |l| vec![((l.len() % 7).to_string(), "1".to_string())],
                |_, vs| vec![vs.len().to_string()],
            )
            .unwrap();
        assert!(
            streaming.trace.sim_ns > native.trace.sim_ns,
            "streaming {} <= native {}",
            streaming.trace.sim_ns,
            native.trace.sim_ns
        );
    }

    #[test]
    fn oversized_group_breaks_the_pipe() {
        let cluster = Cluster::new(ClusterConfig::ec2(2));
        let mut hdfs = SimHdfs::new(2);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let mut job = StreamingJob::new(&mut engine);
        let input = lines(1000);
        let tasks = block_splits(&input, 20.0, 1 << 20);
        // Everything lands on one key; with a huge multiplier the group's
        // full-scale payload blows the 15 GB node's pipe limit.
        let cfg = JobConfig::new("hot", Phase::DistributedJoin, 2e7);
        let err = job
            .map_reduce(
                &cfg,
                tasks,
                |l| vec![("hot".to_string(), l.to_string())],
                |_, vs| vec![vs.len().to_string()],
            )
            .unwrap_err();
        match err {
            SimError::BrokenPipe { payload_bytes, limit_bytes, .. } => {
                assert!(payload_bytes > limit_bytes);
            }
            other => panic!("expected BrokenPipe, got {other:?}"),
        }
    }

    /// The `hot` job of `oversized_group_breaks_the_pipe` and the 64-key job
    /// of `same_job_survives_on_bigger_nodes`, through the `String` adapters
    /// and through the borrowed core.
    fn keyed_both_ways(
        cluster_cfg: ClusterConfig,
        mult: f64,
        keys: u64,
    ) -> [Result<StreamingOutcome, SimError>; 2] {
        let cluster = Cluster::new(cluster_cfg);
        let input = lines(1000);
        let cfg = JobConfig::new("keyed", Phase::DistributedJoin, mult);
        let id = |l: &str| l.split('\t').next().unwrap().parse::<u64>().unwrap();

        let mut hdfs = SimHdfs::new(cluster.config.nodes);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let owned = StreamingJob::new(&mut engine).map_reduce(
            &cfg,
            block_splits(&input, 20.0, 4 << 10),
            |l| vec![((id(l) % keys).to_string(), l.to_string())],
            |_, vs| vec![vs.len().to_string()],
        );

        let key_text: Vec<String> = (0..keys).map(|k| k.to_string()).collect();
        let borrowed_input: Vec<&str> = input.iter().map(String::as_str).collect();
        let mut hdfs = SimHdfs::new(cluster.config.nodes);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let borrowed = StreamingJob::new(&mut engine).map_reduce_lines(
            &cfg,
            block_splits(&borrowed_input, 20.0, 4 << 10),
            |&l: &&str, out| out(key_text[(id(l) % keys) as usize].as_str(), l),
            |_, vs: &[&str], out| out(vs.len().to_string()),
        );
        [owned, borrowed]
    }

    fn assert_same_outcome<A, B>(owned: &StreamingOutcome<A>, borrowed: &StreamingOutcome<B>)
    where
        A: PartialEq<B> + std::fmt::Debug,
        B: std::fmt::Debug,
    {
        assert_eq!(owned.lines, borrowed.lines);
        assert_eq!(owned.stats, borrowed.stats);
        assert!(owned.trace.pipe_bytes > 0);
        assert_eq!(format!("{:?}", owned.trace), format!("{:?}", borrowed.trace));
    }

    #[test]
    fn string_adapters_and_borrowed_core_charge_the_same() {
        // Word count: key and value are sub-slices of the line.
        let cluster = Cluster::new(ClusterConfig::workstation());
        let input: Vec<String> = vec!["a b a".into(), "b a c".into()];
        let cfg = JobConfig::new("wc", Phase::DistributedJoin, 1.0);
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let owned = StreamingJob::new(&mut engine)
            .map_reduce(
                &cfg,
                block_splits(&input, 6.0, 1 << 20),
                |line| line.split(' ').map(|w| (w.to_string(), "1".to_string())).collect(),
                |k, vs| vec![format!("{k}\t{}", vs.len())],
            )
            .unwrap();
        let borrowed_input: Vec<&str> = input.iter().map(String::as_str).collect();
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let borrowed = StreamingJob::new(&mut engine)
            .map_reduce_lines(
                &cfg,
                block_splits(&borrowed_input, 6.0, 1 << 20),
                |line: &&str, out| line.split(' ').for_each(|w| out(w, "1")),
                |k: &&str, vs: &[&str], out| out(format!("{k}\t{}", vs.len())),
            )
            .unwrap();
        assert_same_outcome(&owned, &borrowed);

        // A map-only job emitting a sub-slice of each line.
        let lines_in = lines(100);
        let cfg = JobConfig::new("ids", Phase::IndexA, 3.0);
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let owned = StreamingJob::new(&mut engine)
            .map_only(&cfg, block_splits(&lines_in, 16.0, 256), |l| {
                vec![l.split('\t').next().unwrap().to_string()]
            })
            .unwrap();
        let borrowed_input: Vec<&str> = lines_in.iter().map(String::as_str).collect();
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let borrowed = StreamingJob::new(&mut engine)
            .map_only_lines(&cfg, block_splits(&borrowed_input, 16.0, 256), |l: &&str, out| {
                out(l.split('\t').next().unwrap())
            })
            .unwrap();
        assert_same_outcome(&owned, &borrowed);

        // The 1 000-line keyed job, surviving ...
        let [owned, borrowed] = keyed_both_ways(ClusterConfig::workstation(), 3e5, 64);
        assert_same_outcome(&owned.unwrap(), &borrowed.unwrap());
        // ... and breaking: same stage, same group's payload, same limit.
        for (cluster_cfg, mult, keys) in
            [(ClusterConfig::ec2(2), 2e7, 1), (ClusterConfig::ec2(10), 3e5, 64)]
        {
            let [owned, borrowed] = keyed_both_ways(cluster_cfg, mult, keys);
            let (owned, borrowed) = (owned.unwrap_err(), borrowed.unwrap_err());
            assert!(matches!(owned, SimError::BrokenPipe { .. }), "{owned:?}");
            assert_eq!(format!("{owned:?}"), format!("{borrowed:?}"));
        }
    }

    #[test]
    fn same_job_survives_on_bigger_nodes() {
        // The identical workload that breaks EC2 nodes passes on the 128 GB
        // workstation — the paper's Table-3 HadoopGIS pattern.
        let input = lines(1000);
        // 1000 lines spread over 64 keys ≈ 290 B/group; ×3e5 ≈ 87 MB per
        // streaming reducer: above an EC2 node's ~16 MB pipe limit, below
        // the workstation's ~137 MB.
        let mult = 3e5;
        let run = |cfg_cluster: ClusterConfig| {
            let cluster = Cluster::new(cfg_cluster);
            let mut hdfs = SimHdfs::new(cluster.config.nodes);
            let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
            let mut job = StreamingJob::new(&mut engine);
            let tasks = block_splits(&input, 20.0, 1 << 20);
            let cfg = JobConfig::new("hot", Phase::DistributedJoin, mult);
            job.map_reduce(
                &cfg,
                tasks,
                |l| {
                    let id: u64 = l.split('\t').next().unwrap().parse().unwrap();
                    vec![((id % 64).to_string(), l.to_string())]
                },
                |_, vs| vec![vs.len().to_string()],
            )
            .map(|_| ())
        };
        assert!(run(ClusterConfig::ec2(10)).is_err(), "EC2 node breaks");
        assert!(run(ClusterConfig::workstation()).is_ok(), "WS node survives");
    }

    #[test]
    fn map_only_streaming_counts_pipe_bytes() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let mut job = StreamingJob::new(&mut engine);
        let input = lines(100);
        let tasks = block_splits(&input, 16.0, 1 << 20);
        let cfg = JobConfig::new("convert", Phase::IndexA, 1.0);
        let out = job.map_only(&cfg, tasks, |l| vec![l.to_uppercase()]).unwrap();
        assert_eq!(out.lines.len(), 100);
        assert!(out.trace.pipe_bytes > 0);
    }
}
