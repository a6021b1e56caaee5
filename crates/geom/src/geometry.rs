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

/// A geometry value of any supported kind.
///
/// The three *simple* kinds cover the paper's experiments; the `Multi*`
/// kinds exist because real TIGER/census data contains them — every
/// operation decomposes a multi-geometry into its parts and combines the
/// part results (any-part for `intersects`, union for MBRs).
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    Point(Point),
    LineString(LineString),
    Polygon(Polygon),
    MultiPoint(Vec<Point>),
    MultiLineString(Vec<LineString>),
    MultiPolygon(Vec<Polygon>),
}

impl Geometry {
    /// Visits each simple part of a multi-geometry (or the geometry itself
    /// when simple) by reference, stopping early when the visitor returns
    /// `true`.
    fn any_part<'a>(&'a self, mut f: impl FnMut(Part<'a>) -> bool) -> bool {
        match self {
            Geometry::Point(p) => f(Part::Point(p)),
            Geometry::LineString(l) => f(Part::LineString(l)),
            Geometry::Polygon(p) => f(Part::Polygon(p)),
            Geometry::MultiPoint(ps) => ps.iter().any(|p| f(Part::Point(p))),
            Geometry::MultiLineString(ls) => ls.iter().any(|l| f(Part::LineString(l))),
            Geometry::MultiPolygon(ps) => ps.iter().any(|p| f(Part::Polygon(p))),
        }
    }

    /// Tight MBR of the geometry.
    pub fn mbr(&self) -> Mbr {
        match self {
            Geometry::Point(p) => p.mbr(),
            Geometry::LineString(l) => l.mbr(),
            Geometry::Polygon(p) => p.mbr(),
            Geometry::MultiPoint(ps) => Mbr::from_points(ps.iter()),
            Geometry::MultiLineString(ls) => {
                let mut m = Mbr::empty();
                for l in ls {
                    m.expand(&l.mbr());
                }
                m
            }
            Geometry::MultiPolygon(ps) => {
                let mut m = Mbr::empty();
                for p in ps {
                    m.expand(&p.mbr());
                }
                m
            }
        }
    }

    /// Exact `intersects` test — the standard refinement predicate. Covers
    /// every kind pairing and is symmetric by construction; multi-geometries
    /// intersect when any part does.
    pub fn intersects(&self, other: &Geometry) -> bool {
        self.any_part(|a| other.any_part(|b| a.intersects(b)))
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

    /// `contains` test for the pairings that occur in practice.
    ///
    /// Only polygon-contains-point is required by the paper's experiments;
    /// other combinations fall back to `intersects` semantics where
    /// containment is equivalent (point/point) or return `false` where a
    /// lower-dimensional geometry cannot contain a higher-dimensional one.
    pub fn contains(&self, other: &Geometry) -> bool {
        use Geometry::*;
        match (self, other) {
            (Polygon(pg), Point(p)) => point_in_polygon(pg, p),
            (Point(a), Point(b)) => a == b,
            (LineString(l), Point(p)) => point_on_linestring(l, p),
            (MultiPolygon(pgs), Point(p)) => pgs.iter().any(|pg| point_in_polygon(pg, p)),
            _ => false,
        }
    }

    /// Total arc length: polyline lengths and polygon perimeters summed
    /// over parts; 0 for points.
    pub fn length(&self) -> f64 {
        match self {
            Geometry::Point(_) | Geometry::MultiPoint(_) => 0.0,
            Geometry::LineString(l) => l.length(),
            Geometry::Polygon(p) => p.perimeter(),
            Geometry::MultiLineString(ls) => ls.iter().map(LineString::length).sum(),
            Geometry::MultiPolygon(ps) => ps.iter().map(Polygon::perimeter).sum(),
        }
    }

    /// Enclosed area: polygon areas summed over parts; 0 for points and
    /// polylines.
    pub fn area(&self) -> f64 {
        match self {
            Geometry::Polygon(p) => p.area(),
            Geometry::MultiPolygon(ps) => ps.iter().map(Polygon::area).sum(),
            _ => 0.0,
        }
    }

    /// Number of vertices — the size proxy for refinement cost.
    pub fn num_vertices(&self) -> usize {
        match self {
            Geometry::Point(_) => 1,
            Geometry::LineString(l) => l.num_points(),
            Geometry::Polygon(p) => p.num_vertices(),
            Geometry::MultiPoint(ps) => ps.len(),
            Geometry::MultiLineString(ls) => ls.iter().map(LineString::num_points).sum(),
            Geometry::MultiPolygon(ps) => ps.iter().map(Polygon::num_vertices).sum(),
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
            Geometry::Polygon(p) => 12 + 2 * (1 + p.holes().len()) as u64,
            Geometry::MultiPoint(ps) => 12 + 2 * ps.len() as u64,
            Geometry::MultiLineString(ls) => 17 + 2 * ls.len() as u64,
            Geometry::MultiPolygon(ps) => {
                14 + ps.iter().map(|p| 4 + 2 * p.holes().len() as u64).sum::<u64>()
            }
        };
        overhead + per_vertex * self.num_vertices() as u64
    }

    /// Short kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Geometry::Point(_) => "Point",
            Geometry::LineString(_) => "LineString",
            Geometry::Polygon(_) => "Polygon",
            Geometry::MultiPoint(_) => "MultiPoint",
            Geometry::MultiLineString(_) => "MultiLineString",
            Geometry::MultiPolygon(_) => "MultiPolygon",
        }
    }

    /// Translated copy (test helper for invariance properties).
    pub fn translate(&self, dx: f64, dy: f64) -> Geometry {
        match self {
            Geometry::Point(p) => Geometry::Point(p.translate(dx, dy)),
            Geometry::LineString(l) => Geometry::LineString(l.translate(dx, dy)),
            Geometry::Polygon(p) => Geometry::Polygon(p.translate(dx, dy)),
            Geometry::MultiPoint(ps) => {
                Geometry::MultiPoint(ps.iter().map(|p| p.translate(dx, dy)).collect())
            }
            Geometry::MultiLineString(ls) => {
                Geometry::MultiLineString(ls.iter().map(|l| l.translate(dx, dy)).collect())
            }
            Geometry::MultiPolygon(ps) => {
                Geometry::MultiPolygon(ps.iter().map(|p| p.translate(dx, dy)).collect())
            }
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

/// One simple part of a geometry, borrowed: what the pairwise predicates
/// dispatch on, so multi-geometries decompose without copying vertices.
#[derive(Clone, Copy)]
enum Part<'a> {
    Point(&'a Point),
    LineString(&'a LineString),
    Polygon(&'a Polygon),
}

impl Part<'_> {
    fn intersects(self, other: Part<'_>) -> bool {
        use Part::*;
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
    fn polygon_contains_point() {
        let sq = square(0.0, 0.0, 2.0);
        assert!(sq.contains(&Geometry::Point(Point::new(1.0, 1.0))));
        assert!(!sq.contains(&Geometry::Point(Point::new(3.0, 3.0))));
        assert!(
            !Geometry::Point(Point::new(1.0, 1.0)).contains(&sq),
            "point cannot contain polygon"
        );
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
    fn length_and_area_dispatch() {
        assert_eq!(Geometry::Point(Point::new(1.0, 1.0)).length(), 0.0);
        assert_eq!(Geometry::Point(Point::new(1.0, 1.0)).area(), 0.0);
        let line = Geometry::LineString(LineString::new(pts(&[(0.0, 0.0), (3.0, 4.0)])));
        assert_eq!(line.length(), 5.0);
        assert_eq!(line.area(), 0.0);
        let sq = square(0.0, 0.0, 2.0);
        assert_eq!(sq.area(), 4.0);
        assert_eq!(sq.length(), 8.0);
        let multi = Geometry::MultiPolygon(vec![
            Polygon::new(pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])),
            Polygon::new(pts(&[(5.0, 5.0), (7.0, 5.0), (7.0, 7.0), (5.0, 7.0)])),
        ]);
        assert_eq!(multi.area(), 1.0 + 4.0);
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
