//! # sjc-data — synthetic geospatial datasets
//!
//! The paper evaluates on four public datasets (NYC taxi pickups, NYC census
//! blocks, TIGER `edges` and `linearwater`) totalling ~39 GB — unavailable
//! here and unnecessary for reproducing the experiments' *shape*. This crate
//! generates seeded synthetic datasets with matching spatial character:
//!
//! * [`taxi`] — clustered pickup points (hotspot mixture: a dense
//!   Manhattan-like core plus uniform background);
//! * [`census`] — a polygonal tessellation of the urban extent with
//!   density-adaptive block sizes (small blocks downtown);
//! * [`tiger`] — road-segment polylines (`edges`) and meandering water
//!   polylines (`linearwater`).
//!
//! **Scaling model.** A dataset generated at scale `s` keeps *densities*
//! constant and shrinks the *domain* (area × `s`), so per-record join
//! behaviour — selectivity, candidate pairs per record, partition occupancy
//! distribution — matches the full dataset, and all volumes extrapolate
//! linearly by `1/s`. The [`catalog`] carries the paper's Table-1 full-scale
//! record counts and byte sizes; [`catalog::ScaledDataset`] pairs generated
//! geometry with its extrapolation multiplier for the cost model.

pub mod cache;
pub mod catalog;
pub mod census;
pub mod rng;
pub mod taxi;
pub mod tiger;
pub mod tsv;

pub use cache::generate_cached;
pub use catalog::{DatasetId, DatasetSpec, ScaledDataset};
