//! The calibrated cost model.
//!
//! Every constant below is tied to an observation in the paper (or a
//! well-known platform characteristic of 2014-era Hadoop/Spark deployments).
//! The simulation charges these costs against *extrapolated* data volumes —
//! the synthetic datasets are generated at a configurable scale factor with
//! full-scale volumes reported — so absolute simulated seconds land in the
//! same order of magnitude as the paper's tables, and ratios (the claims we
//! reproduce) are robust to the exact values.
//!
//! | Constant | Calibrated against |
//! |---|---|
//! | `hadoop_job_startup_ns` | §III.C: "Hadoop infrastructure overheads for small datasets ... may be high"; classic ~10-20 s MR job latency |
//! | `text_parse_ns_per_byte` | §II.A: HadoopGIS re-parses every record as text in every job |
//! | `streaming_pipe_ns_per_byte` | §II.A/C: Hadoop Streaming pipes all data through external processes |
//! | `record_overhead_hadoop_ns` vs `record_overhead_spark_ns` | Table 3: SpatialHadoop DJ vs SpatialSpark end-to-end gap |
//! | `hdfs_replication` | HDFS default 3-way replication; §II: SpatialHadoop/HadoopGIS write intermediates to HDFS |
//! | `streaming_pipe_limit_fraction` | Table 2/3 failure pattern: HadoopGIS "broken pipeline ... when the data that pipes through multiple processors is too big" |
//! | `spark_memory_fraction`, `spark_record_overhead_bytes`, `spark_vertex_bytes` | Table 2 failure pattern: SpatialSpark OOM on EC2-8/6, success on WS (128 GB) and EC2-10 (150 GB aggregate) |

use crate::SimNs;

/// All tunable constants of the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // ---- storage & network ----
    /// HDFS replication factor: every HDFS write is charged this many times.
    pub hdfs_replication: u32,
    /// Bandwidth of HDFS-to-local-filesystem copies (HadoopGIS's serial
    /// partition step copies sample files back and forth), bytes/s.
    pub local_copy_bw: f64,

    // ---- per-record / per-byte CPU ----
    /// Parsing text (TSV+WKT) into geometry objects, ns per byte.
    pub text_parse_ns_per_byte: f64,
    /// Serializing records back to text, ns per byte.
    pub serialize_ns_per_byte: f64,
    /// Moving a byte through a Hadoop-Streaming pipe (stdin/stdout of the
    /// external process), ns per byte — paid in *both* directions.
    pub streaming_pipe_ns_per_byte: f64,
    /// Fixed per-record framework overhead in Hadoop (object churn,
    /// key/value wrapping, spill bookkeeping), ns.
    pub record_overhead_hadoop_ns: f64,
    /// Fixed per-record framework overhead in Spark (closure dispatch on
    /// in-memory rows), ns.
    pub record_overhead_spark_ns: f64,
    /// One comparison in the MR shuffle sort (`n log2 n` comparisons), ns.
    pub sort_compare_ns: f64,
    /// Per-record framework overhead of a native (C++-style) execution
    /// engine with long-lived workers and zero-copy batches — the LDE
    /// extension system (the paper's own future work). An order of
    /// magnitude below the JVM engines.
    pub record_overhead_lde_ns: f64,
    /// SIMD lanes the LDE refinement kernel exploits (the paper: "capable
    /// of exploiting SIMD computing power on both multi-core CPUs and
    /// GPUs"); geometry refinement cost divides by this.
    pub lde_simd_lanes: f64,
    /// Per-record cost of an *interpreted* streaming reducer script
    /// (HadoopGIS's distributed-join reducer is Python driving GEOS through
    /// wrappers: parse line, build geometry, native call — milliseconds per
    /// record). Charged only on jobs that declare a script reducer; the
    /// `cat|sort|uniq` dedup reducer is C tools and does not pay it.
    pub streaming_script_record_ns: f64,

    // ---- framework fixed overheads ----
    /// MR job startup/teardown (JVM launches, scheduling), ns.
    pub hadoop_job_startup_ns: SimNs,
    /// Per-MR-task launch overhead, ns.
    pub hadoop_task_overhead_ns: SimNs,
    /// Spark job/stage submission overhead, ns.
    pub spark_job_startup_ns: SimNs,
    /// Per-Spark-task launch overhead, ns.
    pub spark_task_overhead_ns: SimNs,

    // ---- failure thresholds ----
    /// A single streaming task may pipe at most `node_memory × fraction`
    /// bytes before the external process dies (broken pipe).
    pub streaming_pipe_limit_fraction: f64,
    /// Fraction of node memory usable by Spark executors (the rest is OS,
    /// JVM and framework overhead).
    pub spark_memory_fraction: f64,
    /// Modeled JVM heap bytes per resident record (object headers, boxed
    /// fields, RDD/groupByKey list overhead).
    pub spark_record_overhead_bytes: f64,
    /// Modeled JVM heap bytes per geometry vertex (two doubles + array and
    /// boxing overhead).
    pub spark_vertex_bytes: f64,
    /// Serialized size of shuffled data as a fraction of its modeled
    /// JVM-resident size. Spark 1.x shuffles spill serialized blocks through
    /// the *local disk* even for "in-memory" jobs — on the single-disk
    /// workstation this is exactly what erases most of SpatialSpark's
    /// advantage on `taxi-nycb` (Table 2: 3098 s vs 3327 s).
    pub spark_shuffle_ser_fraction: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            hdfs_replication: 3,
            local_copy_bw: 150.0 * (1 << 20) as f64,

            text_parse_ns_per_byte: 200.0,
            serialize_ns_per_byte: 15.0,
            streaming_pipe_ns_per_byte: 10.0,
            record_overhead_hadoop_ns: 45_000.0,
            record_overhead_spark_ns: 7_000.0,
            sort_compare_ns: 150.0,
            record_overhead_lde_ns: 800.0,
            lde_simd_lanes: 4.0,
            streaming_script_record_ns: 2_500_000.0,

            hadoop_job_startup_ns: 15_000_000_000,
            hadoop_task_overhead_ns: 300_000_000,
            spark_job_startup_ns: 1_000_000_000,
            spark_task_overhead_ns: 20_000_000,

            streaming_pipe_limit_fraction: 0.0014,
            spark_memory_fraction: 0.60,
            spark_record_overhead_bytes: 196.0,
            spark_vertex_bytes: 18.0,
            spark_shuffle_ser_fraction: 1.0,
        }
    }
}

impl CostModel {
    /// Time to read `bytes` sequentially at `bw` bytes/s.
    pub fn io_ns(&self, bytes: u64, bw: f64) -> SimNs {
        (bytes as f64 / bw * 1e9) as SimNs
    }

    /// Time to write `bytes` to HDFS at `bw` (replication charged).
    pub fn hdfs_write_ns(&self, bytes: u64, bw: f64) -> SimNs {
        self.io_ns(bytes * self.hdfs_replication as u64, bw)
    }

    /// CPU time to parse `bytes` of text into records.
    pub fn parse_ns(&self, bytes: u64) -> SimNs {
        (bytes as f64 * self.text_parse_ns_per_byte) as SimNs
    }

    /// CPU time to serialize `bytes` of text output.
    pub fn serialize_ns(&self, bytes: u64) -> SimNs {
        (bytes as f64 * self.serialize_ns_per_byte) as SimNs
    }

    /// Cost of piping `bytes` through a streaming process (one direction).
    pub fn pipe_ns(&self, bytes: u64) -> SimNs {
        (bytes as f64 * self.streaming_pipe_ns_per_byte) as SimNs
    }

    /// Per-record framework overhead for `records` records in Hadoop.
    pub fn hadoop_records_ns(&self, records: u64) -> SimNs {
        (records as f64 * self.record_overhead_hadoop_ns) as SimNs
    }

    /// Per-record framework overhead for `records` records in Spark.
    pub fn spark_records_ns(&self, records: u64) -> SimNs {
        (records as f64 * self.record_overhead_spark_ns) as SimNs
    }

    /// Cost of sorting `records` records in the shuffle (`n log2 n`).
    pub fn sort_ns(&self, records: u64) -> SimNs {
        if records < 2 {
            return 0;
        }
        let n = records as f64;
        (n * n.log2() * self.sort_compare_ns) as SimNs
    }

    /// Maximum bytes a single streaming task may pipe on a node with
    /// `node_memory` bytes of RAM.
    pub fn streaming_pipe_limit(&self, node_memory: u64) -> u64 {
        (node_memory as f64 * self.streaming_pipe_limit_fraction) as u64
    }

    /// Usable Spark executor memory on a node with `node_memory` bytes.
    pub fn spark_usable_memory(&self, node_memory: u64) -> u64 {
        (node_memory as f64 * self.spark_memory_fraction) as u64
    }

    /// Modeled JVM-resident footprint of a dataset slice.
    pub fn spark_footprint_bytes(&self, records: u64, vertices: u64) -> u64 {
        (records as f64 * self.spark_record_overhead_bytes
            + vertices as f64 * self.spark_vertex_bytes) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_cost_is_linear_in_bytes() {
        let m = CostModel::default();
        let bw = 100.0 * (1 << 20) as f64;
        assert_eq!(m.io_ns(0, bw), 0);
        let one = m.io_ns(1 << 20, bw);
        let ten = m.io_ns(10 << 20, bw);
        assert!((ten as f64 / one as f64 - 10.0).abs() < 0.01);
    }

    #[test]
    fn hdfs_write_charges_replication() {
        let m = CostModel::default();
        let bw = 100.0 * (1 << 20) as f64;
        assert_eq!(m.hdfs_write_ns(1 << 20, bw), m.io_ns(3 << 20, bw));
    }

    #[test]
    fn sort_cost_is_superlinear() {
        let m = CostModel::default();
        assert_eq!(m.sort_ns(0), 0);
        assert_eq!(m.sort_ns(1), 0);
        let small = m.sort_ns(1000);
        let big = m.sort_ns(10_000);
        assert!(big > small * 10, "n log n grows faster than n");
    }

    #[test]
    fn hadoop_records_cost_more_than_spark() {
        let m = CostModel::default();
        assert!(m.hadoop_records_ns(1_000_000) > 3 * m.spark_records_ns(1_000_000));
    }

    #[test]
    fn failure_thresholds_scale_with_node_memory() {
        let m = CostModel::default();
        let ws_limit = m.streaming_pipe_limit(128 << 30);
        let ec2_limit = m.streaming_pipe_limit(15 << 30);
        assert!(ws_limit > 8 * ec2_limit);
        assert!(m.spark_usable_memory(15 << 30) < 15 << 30);
    }

    #[test]
    fn spark_footprint_reflects_record_and_vertex_mix() {
        let m = CostModel::default();
        // Point-heavy data: overhead dominated by record count.
        let points = m.spark_footprint_bytes(1_000_000, 1_000_000);
        // Polyline data: same record count, many more vertices.
        let lines = m.spark_footprint_bytes(1_000_000, 30_000_000);
        assert!(lines > points);
        // But per raw byte, points are *more* expensive (the mechanism that
        // lets edge-linearwater fit where taxi barely does).
        let point_bytes_raw = 1_000_000u64 * 40;
        let line_bytes_raw = 1_000_000u64 * 40 * 30;
        assert!(points as f64 / point_bytes_raw as f64 > lines as f64 / line_bytes_raw as f64);
    }
}
