//! Fixed uniform-grid partitioner.

use sjc_geom::{Mbr, Point};

use super::{CellId, SpatialPartitioner};

/// Partitions a fixed extent into an `nx × ny` uniform grid.
///
/// This is SpatialHadoop's `GRID` partitioning: simple, sample-free, but
/// skew-oblivious — dense areas (midtown Manhattan in the taxi data) land in
/// a single overloaded cell, which the ablation bench `ablation_partitioner`
/// quantifies.
#[derive(Debug, Clone)]
pub struct FixedGridPartitioner {
    extent: Mbr,
    nx: usize,
    ny: usize,
    cells: Vec<Mbr>,
}

impl FixedGridPartitioner {
    pub fn new(extent: Mbr, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "grid dimensions must be nonzero");
        assert!(!extent.is_empty(), "grid extent must be non-empty");
        let w = extent.width() / nx as f64;
        let h = extent.height() / ny as f64;
        let mut cells = Vec::with_capacity(nx * ny);
        for r in 0..ny {
            for c in 0..nx {
                cells.push(Mbr::new(
                    extent.min_x + c as f64 * w,
                    extent.min_y + r as f64 * h,
                    extent.min_x + (c + 1) as f64 * w,
                    extent.min_y + (r + 1) as f64 * h,
                ));
            }
        }
        FixedGridPartitioner { extent, nx, ny, cells }
    }

    /// Chooses a square-ish grid with roughly `target_cells` cells.
    pub fn with_target_cells(extent: Mbr, target_cells: usize) -> Self {
        let side = (target_cells.max(1) as f64).sqrt().round().max(1.0) as usize;
        FixedGridPartitioner::new(extent, side, side)
    }

    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    fn clamp_col(&self, x: f64) -> usize {
        let w = self.extent.width() / self.nx as f64;
        ((((x - self.extent.min_x) / w).floor() as isize).clamp(0, self.nx as isize - 1)) as usize
    }

    fn clamp_row(&self, y: f64) -> usize {
        let h = self.extent.height() / self.ny as f64;
        ((((y - self.extent.min_y) / h).floor() as isize).clamp(0, self.ny as isize - 1)) as usize
    }
}

impl SpatialPartitioner for FixedGridPartitioner {
    fn cells(&self) -> &[Mbr] {
        &self.cells
    }

    /// O(cells touched) arithmetic assignment instead of the generic scan.
    fn assign_into(&self, mbr: &Mbr, out: &mut Vec<CellId>) {
        let (c0, c1) = (self.clamp_col(mbr.min_x), self.clamp_col(mbr.max_x));
        let (r0, r1) = (self.clamp_row(mbr.min_y), self.clamp_row(mbr.max_y));
        out.clear();
        for r in r0..=r1 {
            out.extend((c0..=c1).map(|c| (r * self.nx + c) as CellId));
        }
    }

    /// O(1) owner: the cell whose half-open `[min, max)` range holds the
    /// point (clamped at the top/right edges so ownership stays total).
    fn owner(&self, p: &Point) -> CellId {
        (self.clamp_row(p.y) * self.nx + self.clamp_col(p.x)) as CellId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::dedup_owner_cell;

    fn grid() -> FixedGridPartitioner {
        FixedGridPartitioner::new(Mbr::new(0.0, 0.0, 10.0, 10.0), 5, 5)
    }

    #[test]
    fn cells_tile_extent() {
        let g = grid();
        assert_eq!(g.cells().len(), 25);
        let total: f64 = g.cells().iter().map(Mbr::area).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fast_assign_matches_generic_scan() {
        let g = grid();
        for mbr in [
            Mbr::new(0.5, 0.5, 1.0, 1.0),
            Mbr::new(1.5, 3.5, 6.5, 4.5),
            Mbr::new(9.9, 9.9, 15.0, 15.0),
            Mbr::new(-3.0, -3.0, -1.0, -1.0),
        ] {
            let mut fast = g.assign(&mbr);
            fast.sort_unstable();
            // Generic: every intersecting cell (plus nearest-fallback).
            let mut generic: Vec<CellId> = g
                .cells()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.intersects(&mbr))
                .map(|(i, _)| i as CellId)
                .collect();
            if generic.is_empty() {
                generic.push(g.nearest_cell(&mbr.center()));
            }
            generic.sort_unstable();
            assert_eq!(fast, generic, "mbr {mbr:?}");
        }
    }

    #[test]
    fn owner_unique_even_on_cell_borders() {
        let g = grid();
        // A point exactly on an interior border belongs to exactly one cell.
        let p = Point::new(2.0, 2.0);
        let o = g.owner(&p);
        let containing: Vec<CellId> = g
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.contains_point(&p))
            .map(|(i, _)| i as CellId)
            .collect();
        assert!(containing.contains(&o));
        assert!(containing.len() >= 2, "border point touches several cell MBRs");
    }

    #[test]
    fn boundary_pair_reported_once_across_grid() {
        let g = grid();
        let a = Mbr::new(1.8, 1.8, 2.2, 2.2); // straddles 4 cells
        let b = Mbr::new(1.9, 1.9, 2.4, 2.4);
        let shared: Vec<CellId> =
            g.assign(&a).into_iter().filter(|c| g.assign(&b).contains(c)).collect();
        assert!(shared.len() >= 2);
        let emitted = shared.iter().filter(|&&c| dedup_owner_cell(&g, c, &a, &b)).count();
        assert_eq!(emitted, 1);
    }

    #[test]
    fn top_right_edge_points_are_owned() {
        let g = grid();
        assert_eq!(g.owner(&Point::new(10.0, 10.0)), 24, "extent corner owned by last cell");
        let _ = g.owner(&Point::new(12.0, -5.0)); // outside: still total
    }
}
