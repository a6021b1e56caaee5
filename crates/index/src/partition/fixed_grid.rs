//! Fixed uniform-grid partitioner.

use sjc_geom::Mbr;

use super::{CellLocator, Located};

/// Partitions a fixed extent into an `nx × ny` uniform grid.
///
/// This is SpatialHadoop's `GRID` partitioning: simple, sample-free, but
/// skew-oblivious — dense areas (midtown Manhattan in the taxi data) land in
/// a single overloaded cell, which the ablation bench `ablation_partitioner`
/// quantifies. Cells are located by comparisons against their stored
/// bounds, as for every partitioner: the arithmetic `floor((x - min) / w)`
/// does not always agree with the rounded edges `min + c * w`, and a point
/// owned by a cell its record was never assigned to loses its pair.
#[derive(Debug, Clone)]
pub struct FixedGridPartitioner {
    cells: CellLocator,
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
        FixedGridPartitioner { cells: CellLocator::new(cells) }
    }

    /// Chooses a square-ish grid with roughly `target_cells` cells.
    pub fn with_target_cells(extent: Mbr, target_cells: usize) -> Self {
        let side = (target_cells.max(1) as f64).sqrt().round().max(1.0) as usize;
        FixedGridPartitioner::new(extent, side, side)
    }
}

impl Located for FixedGridPartitioner {
    fn locator(&self) -> &CellLocator {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{dedup_owner_cell, CellId, SpatialPartitioner};
    use sjc_geom::Point;

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
