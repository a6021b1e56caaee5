//! Low-level planar predicates: orientation and segment intersection.
//!
//! These are the primitives underneath every refinement test in the local
//! join stage. Orientation uses an epsilon-guarded cross product; exact
//! arithmetic is unnecessary here because the synthetic datasets are generated
//! on well-separated coordinates, and the spatial-join invariants we reproduce
//! (symmetry, MBR consistency) are property-tested.

use crate::point::Point;

/// Result of the orientation test for an ordered point triple `(a, b, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// `c` lies to the left of the directed line `a -> b` (counter-clockwise).
    CounterClockwise,
    /// `c` lies to the right of the directed line `a -> b` (clockwise).
    Clockwise,
    /// The three points are collinear (within tolerance).
    Collinear,
}

/// Relative tolerance scale used to absorb `f64` rounding in the cross
/// product. The guard is scaled by the magnitude of the operands so the
/// predicate behaves uniformly across coordinate ranges.
const EPS: f64 = 1e-12;

/// Cross product `(b - a) × (c - a)`; positive for counter-clockwise turns.
pub fn cross(a: &Point, b: &Point, c: &Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Orientation of the ordered triple `(a, b, c)`.
pub fn orientation(a: &Point, b: &Point, c: &Point) -> Orientation {
    let v = cross(a, b, c);
    // Scale tolerance by operand magnitude for uniform behaviour.
    let scale =
        (b.x - a.x).abs().max((b.y - a.y).abs()).max((c.x - a.x).abs()).max((c.y - a.y).abs());
    let tol = EPS * scale * scale;
    if v > tol {
        Orientation::CounterClockwise
    } else if v < -tol {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// Whether point `p` lies on the closed segment `a..=b`
/// (assumes `p` is already known collinear with `a, b`).
pub fn on_segment(a: &Point, b: &Point, p: &Point) -> bool {
    p.x >= a.x.min(b.x) - f64::EPSILON
        && p.x <= a.x.max(b.x) + f64::EPSILON
        && p.y >= a.y.min(b.y) - f64::EPSILON
        && p.y <= a.y.max(b.y) + f64::EPSILON
}

/// Closed segment–segment intersection test, including collinear overlap and
/// endpoint touching. This is the workhorse of the `edges × linearwater`
/// polyline-intersection experiment.
pub fn segments_intersect(p1: &Point, p2: &Point, q1: &Point, q2: &Point) -> bool {
    let o1 = orientation(p1, p2, q1);
    let o2 = orientation(p1, p2, q2);
    let o3 = orientation(q1, q2, p1);
    let o4 = orientation(q1, q2, p2);

    if o1 != o2
        && o3 != o4
        && o1 != Orientation::Collinear
        && o2 != Orientation::Collinear
        && o3 != Orientation::Collinear
        && o4 != Orientation::Collinear
    {
        return true; // proper crossing
    }

    // Special cases: an endpoint of one segment lies on the other segment.
    (o1 == Orientation::Collinear && on_segment(p1, p2, q1))
        || (o2 == Orientation::Collinear && on_segment(p1, p2, q2))
        || (o3 == Orientation::Collinear && on_segment(q1, q2, p1))
        || (o4 == Orientation::Collinear && on_segment(q1, q2, p2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn orientation_basic() {
        assert_eq!(
            orientation(&p(0.0, 0.0), &p(1.0, 0.0), &p(0.0, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(orientation(&p(0.0, 0.0), &p(1.0, 0.0), &p(0.0, -1.0)), Orientation::Clockwise);
        assert_eq!(orientation(&p(0.0, 0.0), &p(1.0, 1.0), &p(2.0, 2.0)), Orientation::Collinear);
    }

    #[test]
    fn orientation_flips_under_swap() {
        let (a, b, c) = (p(0.3, 0.7), p(2.1, -0.4), p(1.0, 3.0));
        assert_eq!(orientation(&a, &b, &c), Orientation::CounterClockwise);
        assert_eq!(orientation(&b, &a, &c), Orientation::Clockwise);
    }

    #[test]
    fn proper_crossing() {
        assert!(segments_intersect(&p(0.0, 0.0), &p(2.0, 2.0), &p(0.0, 2.0), &p(2.0, 0.0)));
    }

    #[test]
    fn disjoint_segments() {
        assert!(!segments_intersect(&p(0.0, 0.0), &p(1.0, 0.0), &p(0.0, 1.0), &p(1.0, 1.0)));
        assert!(!segments_intersect(&p(0.0, 0.0), &p(1.0, 1.0), &p(2.0, 2.0), &p(3.0, 3.5)));
    }

    #[test]
    fn endpoint_touch_counts_as_intersection() {
        assert!(segments_intersect(&p(0.0, 0.0), &p(1.0, 1.0), &p(1.0, 1.0), &p(2.0, 0.0)));
        // T-junction: endpoint in segment interior
        assert!(segments_intersect(&p(0.0, 0.0), &p(2.0, 0.0), &p(1.0, 0.0), &p(1.0, 1.0)));
    }

    #[test]
    fn collinear_overlap_intersects() {
        assert!(segments_intersect(&p(0.0, 0.0), &p(2.0, 0.0), &p(1.0, 0.0), &p(3.0, 0.0)));
        // Collinear but disjoint
        assert!(!segments_intersect(&p(0.0, 0.0), &p(1.0, 0.0), &p(2.0, 0.0), &p(3.0, 0.0)));
    }

    #[test]
    fn intersection_is_symmetric() {
        let (a, b, c, d) = (p(0.0, 0.0), p(2.0, 2.0), p(0.0, 2.0), p(2.0, 0.0));
        assert_eq!(segments_intersect(&a, &b, &c, &d), segments_intersect(&c, &d, &a, &b));
    }
}
