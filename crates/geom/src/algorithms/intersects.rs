//! Exact intersection tests between composite geometries.
//!
//! These implement the refinement step of intersection-predicate joins.
//! The polyline–polyline test is the hot path of the paper's
//! `edges × linearwater` experiment: each candidate pair that survives the
//! MBR filter is decided here, and nine in ten of them are misses.
//!
//! # The window rule
//!
//! Two segments can only meet inside `a_mbr ∩ b_mbr` — the *window*. A
//! segment pair reaches `segments_intersect` only when the two segments'
//! closed bounding boxes overlap; each box lies inside its polyline's
//! envelope, so a shared point of the boxes lies in the window and both
//! boxes touch it. A segment whose box misses the window therefore takes
//! part in no tested pair and is dropped before the pair loop, with the
//! verdict unchanged. The rule is comparisons only (no arithmetic on
//! coordinates), so it holds exactly in `f64`.
//!
//! # The hint contract
//!
//! [`linestrings_intersect_hinted`] takes both envelopes from its caller —
//! the join's filter has just compared them — instead of rescanning the
//! vertices. Each hint must *contain* the polyline's tight envelope; it may
//! be looser (a buffered filter MBR is fine), which only widens the window.
//! A hint that cuts into its polyline is a caller bug, checked by a
//! `debug_assert!` under the `sanitize` feature.

use crate::algorithms::point_in_polygon::point_in_polygon;
use crate::linestring::LineString;
use crate::mbr::Mbr;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::predicates::segments_intersect;

/// Exact polyline–polyline intersection: computes each envelope once and
/// delegates to [`linestrings_intersect_hinted`].
pub fn linestrings_intersect(a: &LineString, b: &LineString) -> bool {
    linestrings_intersect_hinted(a, &a.mbr(), b, &b.mbr())
}

/// Exact polyline–polyline intersection, given an envelope of each side
/// (see the module docs for the hint contract).
///
/// Clips both polylines to the window `a_mbr ∩ b_mbr`: `b` is cut to the
/// run from its first to its last segment touching the window, `a`'s
/// segments are skipped when they miss it, and what is left goes through a
/// short-circuiting double loop with per-pair bounding-box rejection —
/// effectively the "indexed nested loop at the segment level" that JTS
/// performs for small geometries. For the synthetic TIGER-like data,
/// polylines have tens of vertices and the window keeps a handful of
/// segments per side, so a scan beats building a per-geometry index (which
/// is also why JTS only switches strategies for very large geometries).
pub fn linestrings_intersect_hinted(
    a: &LineString,
    a_mbr: &Mbr,
    b: &LineString,
    b_mbr: &Mbr,
) -> bool {
    #[cfg(feature = "sanitize")]
    debug_assert!(
        a_mbr.contains(&a.mbr()) && b_mbr.contains(&b.mbr()),
        "sanitize: envelope hint does not contain its polyline: {a_mbr:?} / {b_mbr:?}"
    );
    let window = a_mbr.intersection(b_mbr);
    if window.is_empty() {
        return false;
    }
    let misses_window = |p: &Point, q: &Point| {
        p.x.max(q.x) < window.min_x
            || p.x.min(q.x) > window.max_x
            || p.y.max(q.y) < window.min_y
            || p.y.min(q.y) > window.max_y
    };

    // b's run: segments first..=last span vertices first..=last + 1.
    let mut run: Option<(usize, usize)> = None;
    for (i, (q1, q2)) in b.segments().enumerate() {
        if !misses_window(q1, q2) {
            run = Some((run.map_or(i, |(first, _)| first), i));
        }
    }
    let Some(b_run) = run.and_then(|(first, last)| b.points().get(first..=last + 1)) else {
        return false;
    };

    for (p1, p2) in a.segments() {
        if misses_window(p1, p2) {
            continue;
        }
        let (sx0, sx1) = (p1.x.min(p2.x), p1.x.max(p2.x));
        let (sy0, sy1) = (p1.y.min(p2.y), p1.y.max(p2.y));
        for w in b_run.windows(2) {
            let [q1, q2] = w else { continue };
            if sx1 < q1.x.min(q2.x)
                || sx0 > q1.x.max(q2.x)
                || sy1 < q1.y.min(q2.y)
                || sy0 > q1.y.max(q2.y)
            {
                continue;
            }
            if segments_intersect(p1, p2, q1, q2) {
                return true;
            }
        }
    }
    false
}

/// Exact polygon–polyline intersection: true when any edge pair crosses or
/// the polyline lies entirely inside the polygon.
pub fn polygon_intersects_linestring(poly: &Polygon, line: &LineString) -> bool {
    if !poly.mbr().intersects(&line.mbr()) {
        return false;
    }
    for ring in poly.all_rings() {
        for (a, b) in crate::polygon::ring_edges(ring) {
            for (q1, q2) in line.segments() {
                if segments_intersect(a, b, q1, q2) {
                    return true;
                }
            }
        }
    }
    // No boundary crossing: the polyline is entirely inside or entirely
    // outside; one vertex decides which.
    line.points().first().is_some_and(|p| point_in_polygon(poly, p))
}

/// Exact polygon–polygon intersection: boundary crossing or containment of
/// either polygon in the other.
pub fn polygons_intersect(a: &Polygon, b: &Polygon) -> bool {
    if !a.mbr().intersects(&b.mbr()) {
        return false;
    }
    for ring_a in a.all_rings() {
        for (p1, p2) in crate::polygon::ring_edges(ring_a) {
            for ring_b in b.all_rings() {
                for (q1, q2) in crate::polygon::ring_edges(ring_b) {
                    if segments_intersect(p1, p2, q1, q2) {
                        return true;
                    }
                }
            }
        }
    }
    // No boundary crossing: either disjoint, or one contains the other.
    b.shell().first().is_some_and(|p| point_in_polygon(a, p))
        || a.shell().first().is_some_and(|p| point_in_polygon(b, p))
}

/// Exact point–polyline intersection (the point lies on the polyline).
pub fn point_on_linestring(line: &LineString, p: &Point) -> bool {
    use crate::predicates::{on_segment, orientation, Orientation};
    line.segments()
        .any(|(a, b)| orientation(a, b, p) == Orientation::Collinear && on_segment(a, b, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn ls(coords: &[(f64, f64)]) -> LineString {
        LineString::new(pts(coords))
    }

    #[test]
    fn crossing_polylines() {
        let a = ls(&[(0.0, 0.0), (2.0, 2.0)]);
        let b = ls(&[(0.0, 2.0), (2.0, 0.0)]);
        assert!(linestrings_intersect(&a, &b));
        assert!(linestrings_intersect(&b, &a), "symmetric");
    }

    #[test]
    fn parallel_polylines_disjoint() {
        let a = ls(&[(0.0, 0.0), (2.0, 0.0)]);
        let b = ls(&[(0.0, 1.0), (2.0, 1.0)]);
        assert!(!linestrings_intersect(&a, &b));
    }

    #[test]
    fn mbr_overlap_but_no_exact_intersection() {
        // The classic false positive that refinement must remove: MBRs
        // overlap, geometries do not touch.
        let a = ls(&[(0.0, 0.0), (1.0, 1.0)]);
        let b = ls(&[(0.0, 0.9), (0.05, 1.0)]);
        assert!(a.mbr().intersects(&b.mbr()));
        assert!(!linestrings_intersect(&a, &b));
    }

    #[test]
    fn touching_endpoints_intersect() {
        let a = ls(&[(0.0, 0.0), (1.0, 1.0)]);
        let b = ls(&[(1.0, 1.0), (2.0, 0.0)]);
        assert!(linestrings_intersect(&a, &b));
    }

    #[test]
    fn multi_segment_crossing_mid_way() {
        let road = ls(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let river = ls(&[(2.5, -1.0), (2.5, 1.0)]);
        assert!(linestrings_intersect(&road, &river));
    }

    #[test]
    fn polygon_crossed_by_linestring() {
        let sq = Polygon::new(pts(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]));
        assert!(polygon_intersects_linestring(&sq, &ls(&[(-1.0, 1.0), (3.0, 1.0)])));
    }

    #[test]
    fn polygon_containing_linestring() {
        let sq = Polygon::new(pts(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]));
        assert!(polygon_intersects_linestring(&sq, &ls(&[(1.0, 1.0), (2.0, 2.0)])));
    }

    #[test]
    fn polygon_disjoint_linestring() {
        let sq = Polygon::new(pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]));
        assert!(!polygon_intersects_linestring(&sq, &ls(&[(2.0, 2.0), (3.0, 3.0)])));
    }

    #[test]
    fn overlapping_polygons() {
        let a = Polygon::new(pts(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]));
        let b = Polygon::new(pts(&[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]));
        assert!(polygons_intersect(&a, &b));
        assert!(polygons_intersect(&b, &a));
    }

    #[test]
    fn nested_polygons_intersect() {
        let outer = Polygon::new(pts(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]));
        let inner = Polygon::new(pts(&[(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)]));
        assert!(polygons_intersect(&outer, &inner));
        assert!(polygons_intersect(&inner, &outer));
    }

    #[test]
    fn disjoint_polygons() {
        let a = Polygon::new(pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]));
        let b = Polygon::new(pts(&[(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0)]));
        assert!(!polygons_intersect(&a, &b));
    }

    #[test]
    fn point_on_linestring_detection() {
        let l = ls(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]);
        assert!(point_on_linestring(&l, &Point::new(1.0, 0.0)));
        assert!(point_on_linestring(&l, &Point::new(2.0, 1.0)));
        assert!(point_on_linestring(&l, &Point::new(2.0, 2.0)), "endpoint");
        assert!(!point_on_linestring(&l, &Point::new(1.0, 1.0)));
    }
}
