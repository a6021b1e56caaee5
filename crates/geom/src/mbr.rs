//! Minimum bounding rectangle (envelope) algebra.
//!
//! MBRs drive the *filter* phase of every spatial join in the paper: both the
//! global join (pairing partitions by MBR intersection) and the local join
//! (index probes before exact-geometry refinement).

use crate::point::Point;

/// An axis-aligned minimum bounding rectangle.
///
/// The empty MBR is represented with inverted bounds
/// (`min > max`, see [`Mbr::empty`]); every operation treats it as the
/// identity for [`Mbr::expand`] and as disjoint from everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbr {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Mbr {
    /// Creates an MBR from bounds. Bounds are normalized so that
    /// `min <= max` on each axis.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        let m = Mbr {
            min_x: min_x.min(max_x),
            min_y: min_y.min(max_y),
            max_x: min_x.max(max_x),
            max_y: min_y.max(max_y),
        };
        #[cfg(feature = "sanitize")]
        m.sanitize_check();
        m
    }

    /// Runtime invariant sanitizer (feature `sanitize`): a corrupt MBR is one
    /// carrying a NaN bound — inverted bounds are the legitimate empty
    /// encoding, but NaN poisons every comparison silently.
    #[cfg(feature = "sanitize")]
    #[inline]
    pub fn sanitize_check(&self) {
        debug_assert!(
            !(self.min_x.is_nan()
                || self.min_y.is_nan()
                || self.max_x.is_nan()
                || self.max_y.is_nan()),
            "sanitize: MBR with NaN bounds: {self:?}"
        );
    }

    /// The empty MBR: identity for [`expand`](Mbr::expand), intersects nothing.
    pub const fn empty() -> Self {
        Mbr {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// Whether this is the empty MBR.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Builds the tightest MBR covering `points`; empty input gives [`Mbr::empty`].
    pub fn from_points<'a, I: IntoIterator<Item = &'a Point>>(points: I) -> Self {
        let mut mbr = Mbr::empty();
        for p in points {
            mbr.expand_point(p);
        }
        mbr
    }

    /// Width along the x axis (0 for empty).
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_x - self.min_x
        }
    }

    /// Height along the y axis (0 for empty).
    pub fn height(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_y - self.min_y
        }
    }

    /// Area (0 for empty or degenerate MBRs).
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter, the classic R-tree "margin" measure.
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Center point. Meaningless for the empty MBR (returns non-finite values).
    pub fn center(&self) -> Point {
        Point::new((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)
    }

    /// Closed-boundary intersection test (touching rectangles intersect).
    #[inline]
    pub fn intersects(&self, other: &Mbr) -> bool {
        !(self.is_empty()
            || other.is_empty()
            || self.min_x > other.max_x
            || other.min_x > self.max_x
            || self.min_y > other.max_y
            || other.min_y > self.max_y)
    }

    /// Whether `other` lies entirely inside (or on the boundary of) `self`.
    #[inline]
    pub fn contains(&self, other: &Mbr) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x <= other.min_x
            && self.max_x >= other.max_x
            && self.min_y <= other.min_y
            && self.max_y >= other.max_y
    }

    /// Whether point `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        !self.is_empty()
            && p.x >= self.min_x
            && p.x <= self.max_x
            && p.y >= self.min_y
            && p.y <= self.max_y
    }

    /// Grows `self` to cover `other`.
    pub fn expand(&mut self, other: &Mbr) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = *other;
            #[cfg(feature = "sanitize")]
            self.sanitize_check();
            return;
        }
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
        #[cfg(feature = "sanitize")]
        self.sanitize_check();
    }

    /// Grows `self` to cover point `p`.
    pub fn expand_point(&mut self, p: &Point) {
        self.expand(&p.mbr());
    }

    /// The union of two MBRs (tightest MBR covering both).
    pub fn union(&self, other: &Mbr) -> Mbr {
        let mut m = *self;
        m.expand(other);
        #[cfg(feature = "sanitize")]
        debug_assert!(
            (self.is_empty() || m.contains(self)) && (other.is_empty() || m.contains(other)),
            "sanitize: union {m:?} must cover both {self:?} and {other:?}"
        );
        m
    }

    /// The intersection rectangle, or [`Mbr::empty`] when disjoint.
    pub fn intersection(&self, other: &Mbr) -> Mbr {
        if !self.intersects(other) {
            return Mbr::empty();
        }
        Mbr {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        }
    }

    /// Minimum distance between two MBRs (0 when intersecting).
    pub fn min_distance(&self, other: &Mbr) -> f64 {
        if self.is_empty() || other.is_empty() {
            return f64::INFINITY;
        }
        let dx = (other.min_x - self.max_x).max(self.min_x - other.max_x).max(0.0);
        let dy = (other.min_y - self.max_y).max(self.min_y - other.max_y).max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Expands bounds outward by `d` on each side (a buffer).
    // sjc-lint: allow(dead-pub) — `cell_index_tags_exactly_the_assigned_cells` and `refine_equivalence` build buffered probes and hints with it
    pub fn buffered(&self, d: f64) -> Mbr {
        if self.is_empty() {
            return *self;
        }
        Mbr {
            min_x: self.min_x - d,
            min_y: self.min_y - d,
            max_x: self.max_x + d,
            max_y: self.max_y + d,
        }
    }

    /// Translation by `(dx, dy)`.
    pub fn translate(&self, dx: f64, dy: f64) -> Mbr {
        if self.is_empty() {
            return *self;
        }
        Mbr {
            min_x: self.min_x + dx,
            min_y: self.min_y + dy,
            max_x: self.max_x + dx,
            max_y: self.max_y + dy,
        }
    }

    /// The "reference point" of an intersection used for duplicate avoidance
    /// in partitioned spatial joins: the lower-left corner of the
    /// intersection of two MBRs. A result pair is reported only by the
    /// partition containing this point, so pairs duplicated across partitions
    /// are emitted exactly once.
    pub fn reference_point(&self, other: &Mbr) -> Option<Point> {
        let inter = self.intersection(other);
        if inter.is_empty() {
            None
        } else {
            Some(Point::new(inter.min_x, inter.min_y))
        }
    }
}

impl Default for Mbr {
    fn default() -> Self {
        Mbr::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(a: f64, b: f64, c: f64, d: f64) -> Mbr {
        Mbr::new(a, b, c, d)
    }

    #[test]
    fn new_normalizes_inverted_bounds() {
        let r = Mbr::new(5.0, 7.0, 1.0, 2.0);
        assert_eq!((r.min_x, r.min_y, r.max_x, r.max_y), (1.0, 2.0, 5.0, 7.0));
    }

    #[test]
    fn empty_is_identity_for_expand() {
        let mut e = Mbr::empty();
        assert!(e.is_empty());
        let r = m(0.0, 0.0, 1.0, 1.0);
        e.expand(&r);
        assert_eq!(e, r);
        let mut r2 = r;
        r2.expand(&Mbr::empty());
        assert_eq!(r2, r);
    }

    #[test]
    fn empty_intersects_nothing() {
        let r = m(0.0, 0.0, 10.0, 10.0);
        assert!(!Mbr::empty().intersects(&r));
        assert!(!r.intersects(&Mbr::empty()));
        assert!(!Mbr::empty().intersects(&Mbr::empty()));
    }

    #[test]
    fn touching_rectangles_intersect() {
        let a = m(0.0, 0.0, 1.0, 1.0);
        let b = m(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        let c = m(1.0, 1.0, 2.0, 2.0); // corner touch
        assert!(a.intersects(&c));
    }

    #[test]
    fn disjoint_rectangles_do_not_intersect() {
        let a = m(0.0, 0.0, 1.0, 1.0);
        assert!(!a.intersects(&m(1.1, 0.0, 2.0, 1.0)));
        assert!(!a.intersects(&m(0.0, 1.1, 1.0, 2.0)));
    }

    #[test]
    fn containment() {
        let outer = m(0.0, 0.0, 10.0, 10.0);
        let inner = m(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer), "containment is reflexive");
    }

    #[test]
    fn intersection_geometry() {
        let a = m(0.0, 0.0, 4.0, 4.0);
        let b = m(2.0, 2.0, 6.0, 6.0);
        assert_eq!(a.intersection(&b), m(2.0, 2.0, 4.0, 4.0));
        assert!(a.intersection(&m(5.0, 5.0, 6.0, 6.0)).is_empty());
    }

    #[test]
    fn union_covers_both() {
        let a = m(0.0, 0.0, 1.0, 1.0);
        let b = m(3.0, -2.0, 4.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains(&a) && u.contains(&b));
        assert_eq!(u, m(0.0, -2.0, 4.0, 1.0));
    }

    #[test]
    fn area_margin_center() {
        let r = m(0.0, 0.0, 4.0, 2.0);
        assert_eq!(r.area(), 8.0);
        assert_eq!(r.margin(), 6.0);
        assert_eq!(r.center(), Point::new(2.0, 1.0));
        assert_eq!(Mbr::empty().area(), 0.0);
    }

    #[test]
    fn min_distance() {
        let a = m(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.min_distance(&m(0.5, 0.5, 2.0, 2.0)), 0.0);
        assert_eq!(a.min_distance(&m(3.0, 0.0, 4.0, 1.0)), 2.0);
        let diag = a.min_distance(&m(4.0, 5.0, 6.0, 7.0));
        assert!((diag - 5.0).abs() < 1e-12); // 3-4-5 triangle
    }

    #[test]
    fn buffered_expands_all_sides() {
        let r = m(0.0, 0.0, 1.0, 1.0).buffered(0.5);
        assert_eq!(r, m(-0.5, -0.5, 1.5, 1.5));
    }

    #[test]
    fn reference_point_is_lower_left_of_intersection() {
        let a = m(0.0, 0.0, 4.0, 4.0);
        let b = m(2.0, 1.0, 6.0, 6.0);
        assert_eq!(a.reference_point(&b), Some(Point::new(2.0, 1.0)));
        assert_eq!(b.reference_point(&a), Some(Point::new(2.0, 1.0)), "symmetric");
        assert_eq!(a.reference_point(&m(5.0, 5.0, 6.0, 6.0)), None);
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [Point::new(1.0, 5.0), Point::new(-2.0, 0.0), Point::new(3.0, 2.0)];
        let mbr = Mbr::from_points(pts.iter());
        assert_eq!(mbr, m(-2.0, 0.0, 3.0, 5.0));
        for p in &pts {
            assert!(mbr.contains_point(p));
        }
        assert!(Mbr::from_points(std::iter::empty()).is_empty());
    }
}
