//! Polygon type: an outer shell plus optional holes.

use crate::mbr::Mbr;
use crate::point::Point;
use crate::predicates::cross;

/// A simple polygon with an outer shell and zero or more holes.
///
/// Rings are stored *unclosed* internally (the closing vertex is implicit);
/// the constructor accepts either form. This models the census-block
/// (`nycb`) polygons of the paper's point-in-polygon experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    shell: Vec<Point>,
    holes: Vec<Vec<Point>>,
}

impl Polygon {
    /// Creates a polygon from an outer ring. Accepts closed or unclosed
    /// rings; panics when fewer than 3 distinct vertices remain.
    pub fn new(shell: Vec<Point>) -> Self {
        Polygon::with_holes(shell, Vec::new())
    }

    /// Creates a polygon with holes.
    pub fn with_holes(shell: Vec<Point>, holes: Vec<Vec<Point>>) -> Self {
        // sjc-lint: allow(no-panic-in-lib) — documented contract: this constructor panics on < 3 vertices; try_with_holes is the fallible API
        let shell = normalize_ring(shell).expect("polygon shell requires >= 3 vertices");
        let holes = holes
            .into_iter()
            // sjc-lint: allow(no-panic-in-lib) — documented contract: this constructor panics on < 3 vertices; try_with_holes is the fallible API
            .map(|h| normalize_ring(h).expect("polygon hole requires >= 3 vertices"))
            .collect();
        Polygon { shell, holes }
    }

    /// Fallible constructor used by the WKT parser.
    pub fn try_with_holes(shell: Vec<Point>, holes: Vec<Vec<Point>>) -> Option<Self> {
        let shell = normalize_ring(shell)?;
        let mut hs = Vec::with_capacity(holes.len());
        for h in holes {
            hs.push(normalize_ring(h)?);
        }
        Some(Polygon { shell, holes: hs })
    }

    /// The outer ring (unclosed).
    pub fn shell(&self) -> &[Point] {
        &self.shell
    }

    /// The holes (unclosed rings).
    pub fn holes(&self) -> &[Vec<Point>] {
        &self.holes
    }

    /// Tight MBR of the shell (holes cannot extend beyond it).
    pub fn mbr(&self) -> Mbr {
        Mbr::from_points(self.shell.iter())
    }

    /// Area of the polygon: |shell| minus |holes|.
    pub fn area(&self) -> f64 {
        let shell = ring_signed_area(&self.shell).abs();
        let holes: f64 = self.holes.iter().map(|h| ring_signed_area(h).abs()).sum();
        (shell - holes).max(0.0)
    }

    /// Perimeter of the shell ring (closing edge included).
    pub fn perimeter(&self) -> f64 {
        ring_perimeter(&self.shell)
    }

    /// Edge iterators for every ring (shell first, then holes).
    pub fn all_rings(&self) -> impl Iterator<Item = &[Point]> {
        std::iter::once(self.shell.as_slice()).chain(self.holes.iter().map(|h| h.as_slice()))
    }

    /// Total number of vertices across all rings (a size proxy used by the
    /// cost model: refinement cost scales with vertex count).
    pub fn num_vertices(&self) -> usize {
        self.shell.len() + self.holes.iter().map(Vec::len).sum::<usize>()
    }

    /// Translated copy.
    pub fn translate(&self, dx: f64, dy: f64) -> Polygon {
        Polygon {
            shell: self.shell.iter().map(|p| p.translate(dx, dy)).collect(),
            holes: self
                .holes
                .iter()
                .map(|h| h.iter().map(|p| p.translate(dx, dy)).collect())
                .collect(),
        }
    }
}

/// Iterator over a ring's closed edges. This is the one audited place that
/// walks ring vertices by position; every ring-edge loop in the crate goes
/// through it.
pub(crate) fn ring_edges(ring: &[Point]) -> impl Iterator<Item = (&Point, &Point)> {
    let n = ring.len();
    // sjc-lint: allow(no-panic-in-lib) — i < n and (i + 1) % n < n by construction
    (0..n).map(move |i| (&ring[i], &ring[(i + 1) % n]))
}

/// Shoelace signed area of an unclosed ring.
pub(crate) fn ring_signed_area(ring: &[Point]) -> f64 {
    if ring.len() < 3 {
        return 0.0;
    }
    let Some(&origin) = ring.first() else {
        return 0.0;
    };
    let mut acc = 0.0;
    for w in ring.windows(2) {
        if let [a, b] = w {
            acc += cross(&origin, a, b);
        }
    }
    acc / 2.0
}

fn ring_perimeter(ring: &[Point]) -> f64 {
    ring_edges(ring).map(|(a, b)| a.distance(b)).sum()
}

/// Strips an explicit closing vertex and validates vertex count.
fn normalize_ring(mut ring: Vec<Point>) -> Option<Vec<Point>> {
    if ring.len() >= 2 && ring.first() == ring.last() {
        ring.pop();
    }
    if ring.len() >= 3 {
        Some(ring)
    } else {
        None
    }
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
    fn area_of_unit_square() {
        assert_eq!(unit_square().area(), 1.0);
        assert_eq!(unit_square().perimeter(), 4.0);
    }

    #[test]
    fn closed_input_ring_is_normalized() {
        let closed =
            Polygon::new(pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]));
        assert_eq!(closed.shell().len(), 4);
        assert_eq!(closed.area(), 1.0);
    }

    #[test]
    fn winding_direction_signs_area() {
        let ccw = Polygon::new(pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]));
        let cw = Polygon::new(pts(&[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]));
        assert!(ring_signed_area(ccw.shell()) > 0.0);
        assert!(ring_signed_area(cw.shell()) < 0.0);
        assert_eq!(ccw.area(), cw.area());
    }

    #[test]
    fn hole_subtracts_area() {
        let donut = Polygon::with_holes(
            pts(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]),
            vec![pts(&[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)])],
        );
        assert_eq!(donut.area(), 16.0 - 4.0);
        assert_eq!(donut.num_vertices(), 8);
    }

    #[test]
    fn mbr_is_shell_mbr() {
        let tri = Polygon::new(pts(&[(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)]));
        assert_eq!(tri.mbr(), Mbr::new(0.0, 0.0, 4.0, 3.0));
    }

    #[test]
    #[should_panic(expected = ">= 3 vertices")]
    fn rejects_degenerate_shell() {
        let _ = Polygon::new(pts(&[(0.0, 0.0), (1.0, 1.0)]));
    }

    #[test]
    fn try_constructor_rejects_bad_hole() {
        let p = Polygon::try_with_holes(
            pts(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]),
            vec![pts(&[(0.1, 0.1), (0.2, 0.2)])],
        );
        assert!(p.is_none());
    }

    #[test]
    fn shell_edges_close_the_ring() {
        let sq = unit_square();
        let edges: Vec<_> = ring_edges(sq.shell()).collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[3].1, edges[0].0, "last edge returns to first vertex");
    }

    #[test]
    fn translate_preserves_area() {
        let sq = unit_square().translate(100.0, -42.0);
        assert_eq!(sq.area(), 1.0);
        assert_eq!(sq.mbr(), Mbr::new(100.0, -42.0, 101.0, -41.0));
    }
}
