//! # sjc-rdd — a Spark-like in-memory RDD engine
//!
//! The platform substrate under our SpatialSpark reproduction. Mirrors the
//! Spark 1.x execution model the paper evaluated:
//!
//! * typed, partitioned datasets ([`Rdd`]) whose narrow transformation
//!   (`flat_map_into`, and `flat_map` over it) *pipelines* — its CPU cost
//!   is recorded per unit (loaded record or shuffle partition) and is only
//!   turned into a stage makespan at the next shuffle or action (`collect`,
//!   or the cache-warming `sample_collect`);
//! * a [`SparkLedger`] of those stages: a context made with
//!   `SparkContext::for_work` records them with the cost model of the
//!   clusters it is given and reads nothing else of them but their memory,
//!   and the ledger prices on any of them afterwards ([`ledger`]);
//! * wide operations (`group_by_key`, `join`) that shuffle **in memory**
//!   ([`shuffle`]) — no HDFS writes between stages, the paper's core
//!   explanation for SpatialSpark's efficiency;
//! * [`broadcast`] variables shipped once per node (how SpatialSpark
//!   distributes its sampled partition R-tree);
//! * executor memory accounting ([`memory`]): every shuffle materialization
//!   checks the modeled JVM-resident footprint per executor against usable
//!   node memory and fails with [`sjc_cluster::SimError::OutOfMemory`] —
//!   "Spark is not able to spill data to external storage", the paper's
//!   observed SpatialSpark failure on EC2-8/6.
//!
//! Like the MapReduce engine, all computation is real; the simulated clock
//! and the memory ledger work on full-scale extrapolated volumes.

pub mod broadcast;
pub mod context;
pub mod ledger;
pub mod memory;
pub mod rdd;
pub mod record;
pub mod shuffle;

pub use broadcast::Broadcast;
pub use context::SparkContext;
pub use ledger::SparkLedger;
pub use rdd::Rdd;
pub use record::{SparkKey, SparkRecord};
