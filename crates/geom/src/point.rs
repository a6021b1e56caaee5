//! 2-D point type.

use crate::mbr::Mbr;

/// A point in the plane with `f64` coordinates.
///
/// Points are the left side of the paper's `taxi × nycb` experiment
/// (taxi pickup locations tested against census-block polygons).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The degenerate MBR covering only this point.
    pub fn mbr(&self) -> Mbr {
        Mbr::new(self.x, self.y, self.x, self.y)
    }

    /// Component-wise translation.
    pub fn translate(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Returns `true` when both coordinates are finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_mbr_is_degenerate() {
        let p = Point::new(2.0, -7.0);
        let m = p.mbr();
        assert_eq!((m.min_x, m.min_y, m.max_x, m.max_y), (2.0, -7.0, 2.0, -7.0));
        assert!(m.contains_point(&p));
    }

    #[test]
    fn translate_moves_both_axes() {
        let p = Point::new(1.0, 2.0).translate(0.5, -0.5);
        assert_eq!(p, Point::new(1.5, 1.5));
    }

    #[test]
    fn finiteness_detects_nan() {
        assert!(Point::new(0.0, 1.0).is_finite());
        assert!(!Point::new(f64::NAN, 1.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
