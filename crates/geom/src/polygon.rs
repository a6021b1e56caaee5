//! Polygon type: one outer ring.

use crate::mbr::Mbr;
use crate::point::Point;

/// A simple polygon: one outer ring, no holes.
///
/// The ring is stored *unclosed* internally (the closing vertex is
/// implicit); the constructor accepts either form. This models the
/// census-block (`nycb`) polygons of the paper's point-in-polygon
/// experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    shell: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from an outer ring. Accepts closed or unclosed
    /// rings; panics when fewer than 3 distinct vertices remain.
    pub fn new(shell: Vec<Point>) -> Self {
        // sjc-lint: allow(no-panic-in-lib) — documented contract: this constructor panics on < 3 vertices; try_new is the fallible API
        Polygon::try_new(shell).expect("polygon shell requires >= 3 vertices")
    }

    /// Fallible constructor used by the WKT parser.
    pub fn try_new(shell: Vec<Point>) -> Option<Self> {
        normalize_ring(shell).map(|shell| Polygon { shell })
    }

    /// The outer ring (unclosed).
    pub fn shell(&self) -> &[Point] {
        &self.shell
    }

    /// Tight MBR of the ring.
    pub fn mbr(&self) -> Mbr {
        Mbr::from_points(self.shell.iter())
    }

    /// Number of vertices (a size proxy used by the cost model: refinement
    /// cost scales with vertex count).
    pub fn num_vertices(&self) -> usize {
        self.shell.len()
    }

    /// Translated copy.
    pub fn translate(&self, dx: f64, dy: f64) -> Polygon {
        Polygon { shell: self.shell.iter().map(|p| p.translate(dx, dy)).collect() }
    }
}

/// Iterator over a ring's closed edges: each vertex paired with its
/// successor, the last with the first (a one-vertex ring yields the one
/// degenerate edge). Every ring-edge loop in the crate goes through it.
pub(crate) fn ring_edges(ring: &[Point]) -> impl Iterator<Item = (&Point, &Point)> {
    let pairs = ring.windows(2).filter_map(|w| match w {
        [a, b] => Some((a, b)),
        _ => None,
    });
    pairs.chain(ring.last().zip(ring.first()))
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
    fn closed_input_ring_is_normalized() {
        let closed =
            Polygon::new(pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]));
        assert_eq!(closed.shell().len(), 4);
        assert_eq!(closed, unit_square());
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
    fn try_constructor_rejects_a_short_ring() {
        assert!(Polygon::try_new(pts(&[(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)])).is_none());
        assert!(Polygon::try_new(pts(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])).is_some());
    }

    #[test]
    fn shell_edges_close_the_ring() {
        let sq = unit_square();
        let edges: Vec<_> = ring_edges(sq.shell()).collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[3].1, edges[0].0, "last edge returns to first vertex");
    }

    #[test]
    fn translate_moves_the_envelope() {
        let sq = unit_square().translate(100.0, -42.0);
        assert_eq!(sq.num_vertices(), 4);
        assert_eq!(sq.mbr(), Mbr::new(100.0, -42.0, 101.0, -41.0));
    }
}
