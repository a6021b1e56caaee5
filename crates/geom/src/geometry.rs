//! The [`Geometry`] enum: dynamic dispatch over geometry kinds.
//!
//! The paper stresses that the evaluated systems support joins where "both
//! sides of a join can be any type of geospatial data"; this enum is the
//! uniform record type flowing through the distributed substrates.

use crate::algorithms::{
    intersects::{
        linestrings_intersect, linestrings_intersect_hinted, point_on_linestring,
        polygon_intersects_linestring, polygons_intersect,
    },
    point_in_polygon::point_in_polygon,
};
use crate::linestring::LineString;
use crate::mbr::Mbr;
use crate::point::Point;
use crate::polygon::Polygon;

/// A geometry value of any supported kind: the three simple kinds the
/// paper's two joins read (taxi points, census-block polygons, TIGER
/// polylines).
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    Point(Point),
    LineString(LineString),
    Polygon(Polygon),
}

impl Geometry {
    /// Tight MBR of the geometry.
    pub fn mbr(&self) -> Mbr {
        match self {
            Geometry::Point(p) => p.mbr(),
            Geometry::LineString(l) => l.mbr(),
            Geometry::Polygon(p) => p.mbr(),
        }
    }

    /// Exact `intersects` test — the standard refinement predicate. Covers
    /// every kind pairing and is symmetric by construction.
    pub fn intersects(&self, other: &Geometry) -> bool {
        use Geometry::*;
        match (self, other) {
            (Point(a), Point(b)) => a == b,
            (Point(p), LineString(l)) | (LineString(l), Point(p)) => point_on_linestring(l, p),
            (Point(p), Polygon(pg)) | (Polygon(pg), Point(p)) => point_in_polygon(pg, p),
            (LineString(a), LineString(b)) => linestrings_intersect(a, b),
            (LineString(l), Polygon(pg)) | (Polygon(pg), LineString(l)) => {
                polygon_intersects_linestring(pg, l)
            }
            (Polygon(a), Polygon(b)) => polygons_intersect(a, b),
        }
    }

    /// [`intersects`](Geometry::intersects) for a caller that already holds
    /// envelopes of both sides (a join record's filter MBR): the
    /// polyline–polyline test reuses them instead of rescanning vertices.
    /// `self_mbr` must contain `self`'s tight MBR; `other_chunks` is one
    /// envelope containing `other`'s, or, when `other` is a polyline, its
    /// [`chunk_envelopes`](crate::algorithms::chunk_envelopes). Every other
    /// pairing ignores the hints. The verdict is that of `intersects`.
    pub fn intersects_hinted(
        &self,
        self_mbr: &Mbr,
        other: &Geometry,
        other_chunks: &[Mbr],
    ) -> bool {
        match (self, other) {
            (Geometry::LineString(a), Geometry::LineString(b)) => {
                linestrings_intersect_hinted(a, self_mbr, b, other_chunks)
            }
            _ => self.intersects(other),
        }
    }

    /// Number of vertices — the size proxy for refinement cost.
    pub fn num_vertices(&self) -> usize {
        match self {
            Geometry::Point(_) => 1,
            Geometry::LineString(l) => l.num_points(),
            Geometry::Polygon(p) => p.num_vertices(),
        }
    }

    /// Approximate on-disk size of this geometry as WKT text, in bytes.
    /// Each vertex serializes to roughly two ~18-char decimal literals plus
    /// separators. Used by the cost model to charge I/O and parse costs
    /// without materializing strings.
    pub fn wkt_size_estimate(&self) -> u64 {
        let per_vertex = 40;
        let overhead = match self {
            Geometry::Point(_) => 8,       // "POINT ()"
            Geometry::LineString(_) => 13, // "LINESTRING ()"
            Geometry::Polygon(_) => 14,    // "POLYGON (())"
        };
        overhead + per_vertex * self.num_vertices() as u64
    }

    /// Short kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Geometry::Point(_) => "Point",
            Geometry::LineString(_) => "LineString",
            Geometry::Polygon(_) => "Polygon",
        }
    }

    /// Translated copy (test helper for invariance properties).
    pub fn translate(&self, dx: f64, dy: f64) -> Geometry {
        match self {
            Geometry::Point(p) => Geometry::Point(p.translate(dx, dy)),
            Geometry::LineString(l) => Geometry::LineString(l.translate(dx, dy)),
            Geometry::Polygon(p) => Geometry::Polygon(p.translate(dx, dy)),
        }
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}

impl From<LineString> for Geometry {
    fn from(l: LineString) -> Self {
        Geometry::LineString(l)
    }
}

impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Self {
        Geometry::Polygon(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn square(x0: f64, y0: f64, side: f64) -> Geometry {
        Geometry::Polygon(Polygon::new(pts(&[
            (x0, y0),
            (x0 + side, y0),
            (x0 + side, y0 + side),
            (x0, y0 + side),
        ])))
    }

    #[test]
    fn intersects_is_symmetric_across_kinds() {
        let geoms = vec![
            Geometry::Point(Point::new(0.5, 0.5)),
            Geometry::LineString(LineString::new(pts(&[(0.0, 0.0), (1.0, 1.0)]))),
            square(0.0, 0.0, 1.0),
            square(5.0, 5.0, 1.0),
        ];
        for a in &geoms {
            for b in &geoms {
                assert_eq!(a.intersects(b), b.intersects(a), "{} vs {}", a.kind(), b.kind());
            }
        }
    }

    #[test]
    fn exact_hit_implies_mbr_hit() {
        let a = Geometry::LineString(LineString::new(pts(&[(0.0, 0.0), (2.0, 2.0)])));
        let b = Geometry::LineString(LineString::new(pts(&[(0.0, 2.0), (2.0, 0.0)])));
        assert!(a.intersects(&b));
        assert!(a.mbr().intersects(&b.mbr()));
    }

    #[test]
    fn translation_invariance_of_intersects() {
        let a = Geometry::LineString(LineString::new(pts(&[(0.0, 0.0), (2.0, 2.0)])));
        let b = square(1.0, 1.0, 3.0);
        let hit = a.intersects(&b);
        let (dx, dy) = (123.0, -45.0);
        assert_eq!(a.translate(dx, dy).intersects(&b.translate(dx, dy)), hit);
    }

    #[test]
    fn wkt_size_estimate_scales_with_vertices() {
        let small = Geometry::Point(Point::new(0.0, 0.0));
        let big = Geometry::LineString(LineString::new(pts(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (3.0, 0.0),
        ])));
        assert!(big.wkt_size_estimate() > small.wkt_size_estimate());
    }
}
