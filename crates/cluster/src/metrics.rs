//! Run traces: the per-stage ledger of a simulated distributed job.
//!
//! A [`RunTrace`] records what Fig. 1 of the paper depicts qualitatively —
//! which stages each system executes and how each interacts with storage:
//! simulated seconds, HDFS bytes read/written, network shuffle bytes,
//! streaming-pipe bytes and task counts, per stage. The report layer prints
//! these traces as the Fig.-1 reproduction and uses stage tags to compute
//! the IA/IB/DJ breakdown of Table 3.

use crate::{ns_to_secs, SimNs};

/// What kind of execution a stage is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// A full MapReduce job (map + shuffle + reduce).
    MapReduceJob,
    /// A map-only MapReduce job.
    MapOnlyJob,
    /// A Spark stage (pipelined transformations ending at a shuffle/action).
    SparkStage,
    /// A serial program on a single machine (HadoopGIS's local partition
    /// generation).
    LocalSerial,
    /// An HDFS <-> local filesystem copy.
    FsCopy,
}

impl StageKind {
    pub fn label(&self) -> &'static str {
        match self {
            StageKind::MapReduceJob => "MR job",
            StageKind::MapOnlyJob => "map-only job",
            StageKind::SparkStage => "spark stage",
            StageKind::LocalSerial => "local serial",
            StageKind::FsCopy => "fs copy",
        }
    }
}

/// Phase tag used for the Table-3 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Indexing/partitioning the left input dataset (column IA).
    IndexA,
    /// Indexing/partitioning the right input dataset (column IB).
    IndexB,
    /// The distributed spatial join (column DJ).
    DistributedJoin,
}

/// One concrete recovery action taken during a faulted run — the entries of
/// `RunTrace::recovery`. With `FaultPlan::none()` no event is ever emitted.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryKind {
    /// A task attempt failed (transient disk error) and was re-launched.
    TaskRetry { task: u64, attempt: u32 },
    /// A speculative duplicate was launched for a straggling attempt; the
    /// loser's work is charged as waste.
    Speculation { task: u64 },
    /// A node crashed mid-stage, killing the tasks running on it.
    NodeCrash { node: u32, tasks_killed: u64 },
    /// Completed map outputs were lost with their host node before the
    /// shuffle could fetch them; the tasks re-ran on surviving slots.
    MapRerun { tasks: u64 },
    /// An HDFS read fell over from dead primaries to surviving replicas.
    ReplicaFailover { blocks: u64 },
    /// Spark resubmitted a stage after executor loss and recomputed the
    /// lost partitions from lineage. One event carries the whole action:
    /// `partitions` lost partitions were rebuilt by replaying
    /// `lineage_depth` narrow stages each (already truncated at the last
    /// durable checkpoint, if any), and the event's `wasted_ns` is the full
    /// recompute cost. Earlier versions split this into a costed
    /// `PartitionRecompute` plus a zero-cost `StageResubmit`, which
    /// double-listed the same action in the recovery ledger.
    StageResubmit { attempt: u32, partitions: u64, lineage_depth: u32 },
    /// A checkpoint of completed stage/wave output was written to HDFS;
    /// `wasted_ns` is the write's critical-path cost (the insurance
    /// premium), `bytes` the logical (pre-replication) checkpoint size.
    CheckpointWrite { bytes: u64 },
    /// Recovery was satisfied by re-reading checkpointed output instead of
    /// re-executing the work that produced it; `bytes` is the amount
    /// re-read (also metered in `StageTrace::bytes_reread`).
    CheckpointRestore { bytes: u64 },
    /// A replacement node came online `delay_ns` after `node` crashed and
    /// actually ran work (elastic re-scheduling regained the capacity).
    NodeReplaced { node: u32, delay_ns: SimNs },
}

/// A recovery event: what happened, in which stage, and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    pub stage: String,
    pub kind: RecoveryKind,
    /// Simulated nanoseconds of work wasted or re-spent by this action.
    pub wasted_ns: SimNs,
}

/// One stage of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTrace {
    pub name: String,
    pub kind: StageKind,
    pub phase: Phase,
    pub sim_ns: SimNs,
    pub hdfs_bytes_read: u64,
    pub hdfs_bytes_written: u64,
    pub shuffle_bytes: u64,
    pub pipe_bytes: u64,
    pub tasks: u64,
    /// Task attempts launched; equals `tasks` on a fault-free run, larger
    /// when retries or speculation fired (0 kept for stages that predate
    /// attempt accounting, i.e. non-scheduled serial stages).
    pub attempts: u64,
    /// Speculative duplicate attempts launched.
    pub speculative: u64,
    /// Simulated nanoseconds of thrown-away work (killed attempts, losing
    /// speculative copies, re-run map tasks, lineage recomputation).
    pub wasted_ns: SimNs,
    /// Input bytes read a second time during recovery (replica failover,
    /// map re-runs, partition recomputes).
    pub bytes_reread: u64,
}

impl StageTrace {
    pub fn new(name: impl Into<String>, kind: StageKind, phase: Phase) -> Self {
        StageTrace {
            name: name.into(),
            kind,
            phase,
            sim_ns: 0,
            hdfs_bytes_read: 0,
            hdfs_bytes_written: 0,
            shuffle_bytes: 0,
            pipe_bytes: 0,
            tasks: 0,
            attempts: 0,
            speculative: 0,
            wasted_ns: 0,
            bytes_reread: 0,
        }
    }

    pub fn seconds(&self) -> f64 {
        ns_to_secs(self.sim_ns)
    }

    /// Whether this stage touches HDFS at all — the quantity the paper's
    /// Fig.-1 analysis contrasts across systems.
    pub fn touches_hdfs(&self) -> bool {
        self.hdfs_bytes_read > 0 || self.hdfs_bytes_written > 0
    }
}

/// A complete run: ordered stages plus failure state.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    pub system: String,
    pub stages: Vec<StageTrace>,
    /// Recovery actions taken during the run, in stage order. Empty on every
    /// fault-free run.
    pub recovery: Vec<RecoveryEvent>,
}

impl RunTrace {
    pub fn new(system: impl Into<String>) -> Self {
        RunTrace { system: system.into(), stages: Vec::new(), recovery: Vec::new() }
    }

    pub fn push(&mut self, stage: StageTrace) {
        self.stages.push(stage);
    }

    /// Appends recovery events (tagging is the producer's job).
    pub fn push_recovery(&mut self, events: impl IntoIterator<Item = RecoveryEvent>) {
        self.recovery.extend(events);
    }

    /// Total task attempts across all stages (0 if nothing recorded them).
    pub fn total_attempts(&self) -> u64 {
        self.stages.iter().map(|s| s.attempts).sum()
    }

    /// Total simulated nanoseconds of wasted (recovered-around) work.
    pub fn total_wasted_ns(&self) -> SimNs {
        self.stages.iter().map(|s| s.wasted_ns).sum()
    }

    /// Total bytes read more than once during recovery.
    pub fn total_bytes_reread(&self) -> u64 {
        self.stages.iter().map(|s| s.bytes_reread).sum()
    }

    /// Total simulated time across all stages.
    pub fn total_ns(&self) -> SimNs {
        self.stages.iter().map(|s| s.sim_ns).sum()
    }

    pub fn total_seconds(&self) -> f64 {
        ns_to_secs(self.total_ns())
    }

    /// Simulated time of all stages tagged with `phase`.
    pub fn phase_ns(&self, phase: Phase) -> SimNs {
        self.stages.iter().filter(|s| s.phase == phase).map(|s| s.sim_ns).sum()
    }

    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        ns_to_secs(self.phase_ns(phase))
    }

    /// Total HDFS traffic (read + written).
    // sjc-lint: allow(dead-pub) — `hadoop_systems_interact_with_hdfs_much_more` in tests/trace_claims.rs checks the paper's HDFS-volume claim through it
    pub fn hdfs_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.hdfs_bytes_read + s.hdfs_bytes_written).sum()
    }

    /// Number of stages that interact with HDFS.
    pub fn hdfs_touching_stages(&self) -> usize {
        self.stages.iter().filter(|s| s.touches_hdfs()).count()
    }

    /// Renders the run as an ASCII timeline: one bar per stage, width
    /// proportional to its share of the total simulated time. Stages are
    /// sequential in all the reproduced systems (each job/stage is a
    /// barrier), so the bars concatenate into the run's critical path.
    pub fn timeline_string(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total = self.total_ns().max(1);
        let _ = writeln!(out, "{} — {:.1}s total", self.system, self.total_seconds());
        for s in &self.stages {
            let w = ((s.sim_ns as u128 * width as u128) / total as u128) as usize;
            let _ = writeln!(
                out,
                "  |{:<width$}| {:>7.1}s  {}",
                "█".repeat(w.max(if s.sim_ns > 0 { 1 } else { 0 })),
                s.seconds(),
                s.name,
                width = width
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, phase: Phase, ns: SimNs, read: u64, written: u64) -> StageTrace {
        let mut s = StageTrace::new(name, StageKind::MapReduceJob, phase);
        s.sim_ns = ns;
        s.hdfs_bytes_read = read;
        s.hdfs_bytes_written = written;
        s
    }

    #[test]
    fn totals_and_phases() {
        let mut t = RunTrace::new("test");
        t.push(stage("index A", Phase::IndexA, 2_000_000_000, 100, 50));
        t.push(stage("index B", Phase::IndexB, 1_000_000_000, 10, 5));
        t.push(stage("join", Phase::DistributedJoin, 3_000_000_000, 200, 0));
        assert_eq!(t.total_seconds(), 6.0);
        assert_eq!(t.phase_seconds(Phase::IndexA), 2.0);
        assert_eq!(t.phase_seconds(Phase::DistributedJoin), 3.0);
        assert_eq!(t.hdfs_bytes(), 365);
        assert_eq!(t.hdfs_touching_stages(), 3);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut t = RunTrace::new("x");
        t.push(stage("a", Phase::IndexA, 7, 0, 0));
        t.push(stage("b", Phase::IndexB, 9, 0, 0));
        t.push(stage("c", Phase::DistributedJoin, 11, 0, 0));
        let sum = t.phase_ns(Phase::IndexA)
            + t.phase_ns(Phase::IndexB)
            + t.phase_ns(Phase::DistributedJoin);
        assert_eq!(sum, t.total_ns());
    }

    #[test]
    fn timeline_bars_are_proportional() {
        let mut t = RunTrace::new("demo");
        t.push(stage("long", Phase::IndexA, 9_000_000_000, 0, 0));
        t.push(stage("short", Phase::IndexB, 1_000_000_000, 0, 0));
        let s = t.timeline_string(40);
        assert!(s.contains("demo"));
        let long_line = s.lines().find(|l| l.contains("long")).unwrap();
        let short_line = s.lines().find(|l| l.contains("short")).unwrap();
        let bars = |l: &str| l.chars().filter(|&c| c == '█').count();
        assert_eq!(bars(long_line), 36);
        assert_eq!(bars(short_line), 4);
    }

    #[test]
    fn memory_only_stage_does_not_touch_hdfs() {
        let mut s = StageTrace::new("groupByKey", StageKind::SparkStage, Phase::DistributedJoin);
        s.shuffle_bytes = 12345;
        assert!(!s.touches_hdfs());
    }

    #[test]
    fn recovery_accounting_defaults_to_zero() {
        // The fault-free invariant: fresh traces carry no recovery state, so
        // pre-fault-subsystem behaviour is preserved byte for byte.
        let mut t = RunTrace::new("x");
        t.push(stage("a", Phase::IndexA, 5, 0, 0));
        assert!(t.recovery.is_empty());
        assert_eq!(t.total_attempts(), 0);
        assert_eq!(t.total_wasted_ns(), 0);
        assert_eq!(t.total_bytes_reread(), 0);
    }

    #[test]
    fn recovery_events_accumulate() {
        let mut t = RunTrace::new("x");
        let mut s = stage("map", Phase::DistributedJoin, 10, 0, 0);
        s.attempts = 5;
        s.speculative = 1;
        s.wasted_ns = 7;
        s.bytes_reread = 64;
        t.push(s);
        t.push_recovery(vec![
            RecoveryEvent {
                stage: "map".into(),
                kind: RecoveryKind::TaskRetry { task: 2, attempt: 2 },
                wasted_ns: 3,
            },
            RecoveryEvent {
                stage: "map".into(),
                kind: RecoveryKind::NodeCrash { node: 1, tasks_killed: 1 },
                wasted_ns: 4,
            },
        ]);
        assert_eq!(t.recovery.len(), 2);
        assert_eq!(t.total_attempts(), 5);
        assert_eq!(t.total_wasted_ns(), 7);
        assert_eq!(t.total_bytes_reread(), 64);
    }
}
