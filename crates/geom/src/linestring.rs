//! Polyline (`LINESTRING`) type.

use crate::mbr::Mbr;
use crate::point::Point;

/// An open polyline — a sequence of at least two vertices.
///
/// This models the TIGER `edges` (road segments) and `linearwater`
/// (rivers/streams) records of the paper's second experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LineString {
    points: Vec<Point>,
}

impl LineString {
    /// Creates a polyline. Panics if fewer than two vertices are supplied —
    /// degenerate polylines never occur in well-formed spatial data and
    /// tolerating them would poison every downstream algorithm.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(points.len() >= 2, "LineString requires >= 2 vertices");
        LineString { points }
    }

    /// Fallible constructor for parsing paths.
    pub fn try_new(points: Vec<Point>) -> Option<Self> {
        if points.len() >= 2 {
            Some(LineString { points })
        } else {
            None
        }
    }

    /// The vertices.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of vertices.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Iterator over consecutive vertex pairs (the segments).
    pub fn segments(&self) -> impl Iterator<Item = (&Point, &Point)> {
        self.points.windows(2).filter_map(|w| match w {
            [a, b] => Some((a, b)),
            _ => None,
        })
    }

    /// Tight MBR over all vertices.
    pub fn mbr(&self) -> Mbr {
        Mbr::from_points(self.points.iter())
    }

    /// Total arc length.
    pub fn length(&self) -> f64 {
        self.segments().map(|(a, b)| a.distance(b)).sum()
    }

    /// Translated copy.
    pub fn translate(&self, dx: f64, dy: f64) -> LineString {
        LineString { points: self.points.iter().map(|p| p.translate(dx, dy)).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(coords: &[(f64, f64)]) -> LineString {
        LineString::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn length_of_l_shape() {
        let l = ls(&[(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]);
        assert_eq!(l.length(), 7.0);
        assert_eq!(l.segments().count(), 2);
    }

    #[test]
    fn mbr_covers_all_vertices() {
        let l = ls(&[(0.0, 1.0), (5.0, -2.0), (2.0, 3.0)]);
        assert_eq!(l.mbr(), Mbr::new(0.0, -2.0, 5.0, 3.0));
    }

    #[test]
    #[should_panic(expected = ">= 2 vertices")]
    fn rejects_single_vertex() {
        let _ = LineString::new(vec![Point::new(0.0, 0.0)]);
    }

    #[test]
    fn try_new_returns_none_for_short_input() {
        assert!(LineString::try_new(vec![Point::new(0.0, 0.0)]).is_none());
        assert!(LineString::try_new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]).is_some());
    }

    #[test]
    fn translate_preserves_length() {
        let l = ls(&[(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]);
        let t = l.translate(10.0, -5.0);
        assert!((t.length() - l.length()).abs() < 1e-12);
        assert_eq!(t.mbr(), l.mbr().translate(10.0, -5.0));
    }

    #[test]
    fn segments_iterator_pairs_consecutively() {
        let l = ls(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let segs: Vec<_> = l.segments().collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].1, segs[1].0);
    }
}
