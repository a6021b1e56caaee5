//! Spatial partitioners: cell lists and the one rule that locates them.
//!
//! The preprocessing stage of every system in the paper assigns data items
//! to spatial partitions. The three partitioner families differ only in
//! where they put the cell boundaries; each is a *chooser* returning a cell
//! list (`Vec<Mbr>`):
//!
//! * [`grid_cells`] — SpatialHadoop's original `GRID` scheme;
//! * [`str_tile_cells`] — STR tiles computed from a sample (what
//!   SpatialSpark's sampling-based partitioning produces);
//! * [`bsp_cells`] — recursive median splits over a sample (the
//!   SATO-flavoured balanced partitioning HadoopGIS derives from samples).
//!
//! One [`CellLocator`], built once over a list, answers every location
//! question: items whose MBR spans several cells are **multi-assigned**
//! (duplicated) to all of them, and the join de-duplicates results with the
//! reference-point rule ([`dedup_owner_cell`]), so the cells a record is
//! assigned to and the cell that owns a reference point are read from the
//! same rectangles. [`SpatialPartitioner`] and the three `*Partitioner`
//! types are thin names over a locator, kept for the `benchmark/` package.

mod bsp;
mod fixed_grid;
mod locator;
mod shim;
mod str_tiles;

pub use bsp::bsp_cells;
pub use fixed_grid::grid_cells;
pub use locator::CellLocator;
pub use shim::{BspPartitioner, FixedGridPartitioner, SpatialPartitioner, StrTilePartitioner};
pub use str_tiles::str_tile_cells;

use sjc_geom::Mbr;

/// Identifier of a spatial partition cell: an index into the cell list.
pub type CellId = u32;

/// The reference-point de-duplication rule.
///
/// A candidate pair `(a, b)` whose MBRs were both assigned to cell `cell_id`
/// is *reported* by that cell only when the cell owns the reference point
/// (the lower-left corner of `a.mbr ∩ b.mbr`). Since every point has exactly
/// one owner cell, each result pair is emitted exactly once even though both
/// records may be duplicated across many cells.
pub fn dedup_owner_cell(cells: &CellLocator, cell_id: CellId, a: &Mbr, b: &Mbr) -> bool {
    match a.reference_point(b) {
        Some(rp) => cells.owns(cell_id, &rp),
        None => false, // disjoint MBRs can never be a candidate pair
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use sjc_geom::Point;

    /// Two side-by-side cells for rule testing.
    fn two() -> CellLocator {
        CellLocator::new(vec![Mbr::new(0.0, 0.0, 1.0, 1.0), Mbr::new(1.0, 0.0, 2.0, 1.0)])
    }

    #[test]
    fn assign_duplicates_spanning_mbr() {
        let p = two();
        let spanning = Mbr::new(0.5, 0.2, 1.5, 0.8);
        assert_eq!(p.assign(&spanning), vec![0, 1]);
        assert_eq!(p.assign(&Mbr::new(0.1, 0.1, 0.2, 0.2)), vec![0]);
    }

    #[test]
    fn assign_never_empty() {
        let p = two();
        let far = Mbr::new(100.0, 100.0, 101.0, 101.0);
        let cells = p.assign(&far);
        assert_eq!(cells.len(), 1, "falls back to nearest cell");
    }

    #[test]
    fn owner_is_unique_on_shared_boundary() {
        let p = two();
        // x=1 belongs to both cell MBRs; the owner rule picks the lower id.
        assert_eq!(p.owner(&Point::new(1.0, 0.5)), 0);
    }

    #[test]
    fn dedup_emits_exactly_once() {
        let p = two();
        // Both records span the boundary → both assigned to cells 0 and 1.
        let a = Mbr::new(0.8, 0.2, 1.2, 0.4);
        let b = Mbr::new(0.9, 0.1, 1.4, 0.5);
        let emitted: Vec<CellId> =
            [0u32, 1u32].into_iter().filter(|&c| dedup_owner_cell(&p, c, &a, &b)).collect();
        assert_eq!(emitted.len(), 1, "pair reported by exactly one cell");
        // Reference point (0.9, 0.2) lies in cell 0.
        assert_eq!(emitted[0], 0);
    }

    #[test]
    fn dedup_rejects_disjoint_pairs() {
        let p = two();
        assert!(!dedup_owner_cell(
            &p,
            0,
            &Mbr::new(0.0, 0.0, 0.1, 0.1),
            &Mbr::new(0.9, 0.9, 1.0, 1.0)
        ));
    }
}
