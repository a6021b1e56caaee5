//! # sjc-core — the generalized distributed spatial join framework
//!
//! The paper's first contribution is a generalized three-stage framework —
//! **preprocessing → global join → local join** — in which the designs of
//! HadoopGIS, SpatialHadoop and SpatialSpark can be expressed and compared
//! (its Fig. 1). This crate is that framework made executable:
//!
//! * [`framework`] — the common vocabulary: [`framework::GeoRecord`],
//!   [`framework::JoinPredicate`], [`framework::JoinInput`], the
//!   [`framework::DistributedSpatialJoin`] trait and [`framework::JoinOutput`];
//!   and the steps every engine repeats, each written once: gathering
//!   records by id (`JoinInput::pick`) and tagging records with partition
//!   cells ([`framework::CellIndex`]);
//! * [`common`] — the per-partition [`common::local_join`] (MBR filter by
//!   one of the paper's three algorithms, a de-duplication test, then exact
//!   refinement of the candidates the partition reports) and
//!   [`common::local_join_reported`], every engine's reference-point
//!   de-duplication rule on top of it; the
//!   quadratic [`common::direct_join`] reference, and the partitioner
//!   families;
//! * [`hadoopgis`] — Hadoop Streaming + GEOS + 6-step preprocessing +
//!   reducer-side local join (§II of the paper, Fig. 1(a));
//! * [`spatialhadoop`] — native Hadoop + JTS + 2-job preprocessing with
//!   indexed block files and `_master` metadata + `getSplits` global join +
//!   map-side local join (Fig. 1(b));
//! * [`spatialspark`] — Spark RDDs + JTS + in-memory sampling, broadcast
//!   partition index, `groupByKey`/`join` global join, indexed nested loop
//!   local join (Fig. 1(c)); plus the broadcast-based variant the paper
//!   defers to future work;
//! * [`lde`] — LDE-MC+, the native RPC + SIMD design the paper's conclusion
//!   previews, on the same partitioner and local join;
//! * [`ledger`] — work once, price per cluster: each system's `work` runs
//!   the real joins once into a [`ledger::WorkLedger`], which prices on any
//!   cluster without re-running them;
//! * [`ablation`] — design choices flipped one at a time: each study a table
//!   of `(label, system config)` rows, all rendered by [`ablation::report`];
//! * [`experiment`] — the paper's experiment grid (workloads × hardware ×
//!   systems) with failure capture and the IA/IB/DJ breakdown; a grid works
//!   each (system, workload) once and prices it on every configuration;
//! * [`report`] — printers that regenerate Table 1, Table 2, Table 3, the
//!   Fig. 1 dataflow traces, the in-text speedup analysis and the
//!   scalability and extension tables.
//!
//! The systems produce **identical result pair sets** on identical
//! inputs (cross-checked by integration tests); they differ — exactly as in
//! the paper — in *how* the work flows and what it costs.

pub mod ablation;
pub mod common;
pub mod experiment;
pub mod framework;
pub mod hadoopgis;
pub mod json;
pub mod lde;
pub mod ledger;
pub mod report;
pub mod spatialhadoop;
pub mod spatialspark;

pub use experiment::{ExperimentGrid, SystemKind, Workload};
pub use framework::{DistributedSpatialJoin, GeoRecord, JoinInput, JoinOutput, JoinPredicate};
