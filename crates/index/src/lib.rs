//! # sjc-index — spatial indexes, partitioners and local-join algorithms
//!
//! The building blocks that the three evaluated systems assemble differently:
//!
//! * [`rtree`] — an STR bulk-loaded packed R-tree (what SpatialHadoop embeds
//!   in its HDFS block files and SpatialSpark broadcasts, and what every
//!   indexed local join here builds), the only construction;
//! * [`partition`] — one [`partition::CellLocator`] over a cell list, and
//!   three choosers of that list (fixed grid, STR tiles from a sample,
//!   BSP/k-d splits from a sample — the SATO family), with the
//!   multi-assignment + reference-point de-duplication machinery that
//!   partitioned spatial joins require;
//! * [`join`] — the three *local join* algorithms named in the paper:
//!   indexed nested loop (SpatialSpark), plane sweep and synchronized R-tree
//!   traversal (SpatialHadoop). All produce identical candidate pair sets,
//!   which the test suite cross-validates.

pub mod entry;
pub mod join;
pub mod partition;
pub mod rtree;

pub use entry::IndexEntry;
pub use rtree::RTree;
