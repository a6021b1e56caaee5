//! Spatial relationship algorithms: the *refinement* phase primitives.
//!
//! In the paper's terminology, a spatial join first *filters* candidate
//! pairs by MBR intersection, then *refines* using exact geometry. These
//! modules implement the refinement tests for every geometry pairing that
//! the two experiments exercise (point-in-polygon for `taxi × nycb`,
//! polyline-polyline intersection for `edges × linearwater`), plus distance
//! computation used by within-distance joins.

pub mod distance;
pub mod intersects;
pub mod point_in_polygon;

pub use distance::{point_segment_distance, point_to_linestring_distance};
pub use intersects::{
    chunk_envelopes, linestrings_intersect, linestrings_intersect_hinted,
    polygon_intersects_linestring, polygons_intersect, ChunkEnvelopes, CHUNK,
};
pub use point_in_polygon::point_in_polygon;
