//! Point-in-polygon test (ray casting with boundary handling).

use crate::point::Point;
use crate::polygon::Polygon;
use crate::predicates::{on_segment, orientation, Orientation};

/// Crossing-number test of `p` against an unclosed ring: inside or on the
/// boundary.
fn point_in_ring(ring: &[Point], p: &Point) -> bool {
    let mut inside = false;
    for (a, b) in crate::polygon::ring_edges(ring) {
        // Only an edge whose y-extent reaches `p` can hold it or cross its
        // ray. The gate is `on_segment`'s y-part verbatim, which a boundary
        // hit needs and a crossing (`min <= p.y < max`) implies, so the
        // verdict is the ungated walk's; most edges stop here, before the
        // epsilon-guarded orientation.
        if !(p.y >= a.y.min(b.y) - f64::EPSILON && p.y <= a.y.max(b.y) + f64::EPSILON) {
            continue;
        }
        // Boundary check first: within the edge's extent and collinear.
        if on_segment(a, b, p) && orientation(a, b, p) == Orientation::Collinear {
            return true;
        }
        // Standard ray-casting parity rule: count edges crossing the
        // horizontal ray to +infinity. The half-open test (one endpoint
        // strictly above, the other not) handles vertices without double
        // counting.
        if (a.y > p.y) != (b.y > p.y) {
            let x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if x_cross > p.x {
                inside = !inside;
            }
        }
    }
    inside
}

/// Whether `p` lies inside `poly` (boundary counts as inside).
///
/// This is the refinement predicate of the paper's first experiment:
/// assigning each taxi pickup to the census block containing it.
pub fn point_in_polygon(poly: &Polygon, p: &Point) -> bool {
    point_in_ring(poly.shell(), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn unit_square() -> Polygon {
        Polygon::new(pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
    }

    #[test]
    fn center_is_inside() {
        assert!(point_in_polygon(&unit_square(), &Point::new(0.5, 0.5)));
    }

    #[test]
    fn far_point_is_outside() {
        assert!(!point_in_polygon(&unit_square(), &Point::new(5.0, 5.0)));
        assert!(!point_in_polygon(&unit_square(), &Point::new(-0.1, 0.5)));
    }

    #[test]
    fn boundary_counts_as_inside() {
        let sq = unit_square();
        assert!(point_in_polygon(&sq, &Point::new(0.0, 0.5)), "edge");
        assert!(point_in_polygon(&sq, &Point::new(1.0, 1.0)), "vertex");
        assert!(point_in_polygon(&sq, &Point::new(0.5, 0.0)), "bottom edge");
    }

    #[test]
    fn point_level_with_vertex_is_not_double_counted() {
        // Triangle with an apex: a horizontal ray through the apex's y must
        // not flip parity twice.
        let tri = Polygon::new(pts(&[(0.0, 0.0), (4.0, 0.0), (2.0, 2.0)]));
        assert!(!point_in_polygon(&tri, &Point::new(5.0, 2.0)), "right of apex, level with it");
        assert!(point_in_polygon(&tri, &Point::new(2.0, 1.0)));
    }

    #[test]
    fn concave_polygon() {
        // A "U" shape: the notch is outside.
        let u = Polygon::new(pts(&[
            (0.0, 0.0),
            (5.0, 0.0),
            (5.0, 5.0),
            (4.0, 5.0),
            (4.0, 1.0),
            (1.0, 1.0),
            (1.0, 5.0),
            (0.0, 5.0),
        ]));
        assert!(!point_in_polygon(&u, &Point::new(2.5, 3.0)), "inside the notch");
        assert!(point_in_polygon(&u, &Point::new(0.5, 3.0)), "left arm");
        assert!(point_in_polygon(&u, &Point::new(4.5, 3.0)), "right arm");
        assert!(point_in_polygon(&u, &Point::new(2.5, 0.5)), "base");
    }

    #[test]
    fn rings_of_fewer_than_three_vertices_hold_only_their_own_points() {
        // Polygons cannot be built on such rings; the walk still handles
        // them: no edges, one degenerate edge, and a segment walked both
        // ways (two crossings, even parity).
        let p = Point::new(0.5, 0.5);
        assert!(!point_in_ring(&[], &p));
        assert!(point_in_ring(&[p], &p), "on its one vertex");
        assert!(!point_in_ring(&pts(&[(0.0, 0.0)]), &p));
        let seg = pts(&[(0.0, 0.0), (1.0, 1.0)]);
        assert!(point_in_ring(&seg, &p), "on the segment");
        assert!(!point_in_ring(&seg, &Point::new(0.5, 0.25)));
        assert!(!point_in_ring(&seg, &Point::new(-1.0, 0.5)));
    }

    #[test]
    fn clockwise_ring_gives_same_answer() {
        let ccw = unit_square();
        let cw = Polygon::new(pts(&[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]));
        for &(x, y) in &[(0.5, 0.5), (2.0, 0.5), (0.0, 0.0), (-1.0, -1.0)] {
            let p = Point::new(x, y);
            assert_eq!(point_in_polygon(&ccw, &p), point_in_polygon(&cw, &p));
        }
    }
}
