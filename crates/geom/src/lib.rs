//! # sjc-geom — computational geometry engine
//!
//! A from-scratch substitute for the JTS / GEOS geometry libraries used by the
//! three systems evaluated in *"Spatial Join Query Processing in Cloud:
//! Analyzing Design Choices and Performance Comparisons"* (ICPP 2015).
//!
//! The crate provides:
//!
//! * geometry types: [`Point`], [`LineString`], [`Polygon`], the [`Geometry`]
//!   enum, and [`Mbr`] (minimum bounding rectangle / envelope);
//! * robust-enough planar predicates ([`predicates`]): orientation,
//!   segment–segment intersection with collinear handling;
//! * spatial relationship algorithms ([`algorithms`]): point-in-polygon,
//!   intersection tests for every geometry pairing;
//! * a [WKT](wkt) reader/writer, because all three evaluated systems exchange
//!   geometry as WKT text (HadoopGIS pipes it through Hadoop Streaming,
//!   SpatialHadoop/SpatialSpark parse it from TSV);
//! * an [`engine::GeometryEngine`] cost profile abstraction that models the
//!   paper's GEOS-vs-JTS performance gap: both profiles compute identical
//!   results, but the *charged* simulated cost per refinement call differs.
//!
//! All computation is `f64`-based with orientation-predicate style robustness;
//! the invariants that matter to spatial joins (symmetry of `intersects`,
//! MBR-containment of exact hits, translation invariance) are covered by
//! property tests.
//!
//! ```
//! use sjc_geom::wkt::parse_wkt;
//!
//! let block = parse_wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))").unwrap();
//! let pickup = parse_wkt("POINT (1 2)").unwrap();
//! assert!(block.intersects(&pickup));
//! assert!(!block.intersects(&parse_wkt("POINT (5 2)").unwrap()));
//! ```

pub mod algorithms;
pub mod engine;
pub mod geometry;
pub mod linestring;
pub mod mbr;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod wkt;

pub use engine::{EngineKind, GeometryEngine};
pub use geometry::Geometry;
pub use linestring::LineString;
pub use mbr::Mbr;
pub use point::Point;
pub use polygon::Polygon;
