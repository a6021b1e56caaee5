//! Fixed uniform-grid cells.

use sjc_geom::Mbr;

/// A square-ish uniform grid of roughly `target_cells` cells over `extent`,
/// row by row from the lower left.
///
/// This is SpatialHadoop's `GRID` partitioning: simple, sample-free, but
/// skew-oblivious — dense areas (midtown Manhattan in the taxi data) land in
/// a single overloaded cell, which the ablation bench `ablation_partitioner`
/// quantifies. Cells are located by comparisons against their stored
/// bounds, as for every cell list: the arithmetic `floor((x - min) / w)`
/// does not always agree with the rounded edges `min + c * w`, and a point
/// owned by a cell its record was never assigned to loses its pair.
pub fn grid_cells(extent: Mbr, target_cells: usize) -> Vec<Mbr> {
    assert!(!extent.is_empty(), "grid extent must be non-empty");
    let side = (target_cells.max(1) as f64).sqrt().round().max(1.0) as usize;
    let w = extent.width() / side as f64;
    let h = extent.height() / side as f64;
    let mut cells = Vec::with_capacity(side * side);
    for r in 0..side {
        for c in 0..side {
            cells.push(Mbr::new(
                extent.min_x + c as f64 * w,
                extent.min_y + r as f64 * h,
                extent.min_x + (c + 1) as f64 * w,
                extent.min_y + (r + 1) as f64 * h,
            ));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{dedup_owner_cell, CellId, CellLocator};
    use sjc_geom::Point;

    /// 5 × 5 cells over a 10 × 10 extent.
    fn grid() -> CellLocator {
        CellLocator::new(grid_cells(Mbr::new(0.0, 0.0, 10.0, 10.0), 25))
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
