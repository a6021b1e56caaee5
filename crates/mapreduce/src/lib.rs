//! # sjc-mapreduce — MapReduce over the cluster simulator
//!
//! A Hadoop-shaped execution engine: jobs of map tasks, a sort-based
//! shuffle, and reduce tasks, with all data movement charged to the
//! simulated clock of a [`sjc_cluster::Cluster`]. Two data-access modes
//! mirror the paper's contrast:
//!
//! * **native** ([`job`]) — typed records, caller-controlled splits
//!   (including SpatialHadoop's `getSplits` trick of pairing indexed block
//!   files into map tasks), no per-stage re-parsing;
//! * **streaming** ([`streaming`]) — records are lines of text piped through
//!   external processes: every stage pays parse + serialize + pipe costs,
//!   and a single task piping more than the node's limit fails with
//!   [`sjc_cluster::SimError::BrokenPipe`] — HadoopGIS's observed failure
//!   mode.
//!
//! **Extrapolation.** A job carries a workload `multiplier` (full-scale
//! records ÷ generated records). Map work scales as *more block-sized
//! splits* of the same size; reduce groups (spatial partitions, whose count
//! is fixed by configuration) scale as *bigger groups*. Task durations and
//! failure checks use the extrapolated volumes, so Table 2's full-dataset
//! failures emerge from the same mechanism at any generation scale.

pub mod input_format;
pub mod job;
pub mod streaming;

pub use input_format::{block_splits, MapTask};
pub use job::{
    GroupWork, JobConfig, JobStats, JobWork, MapEmitter, MapReduceJob, ReduceEmitter, TaskWork,
};
pub use streaming::{StreamingJob, StreamingOutcome, TextLen};
