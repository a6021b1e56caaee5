//! Spatial partitioners.
//!
//! The preprocessing stage of every system in the paper assigns data items
//! to spatial partitions. A partitioner exposes a set of cells (rectangles);
//! items whose MBR spans several cells are **multi-assigned** (duplicated),
//! and the join de-duplicates results with the reference-point rule
//! ([`dedup_owner_cell`]). Three partitioner families are provided:
//!
//! * [`FixedGridPartitioner`] — SpatialHadoop's original `GRID` scheme;
//! * [`StrTilePartitioner`] — STR tiles computed from a sample (what
//!   SpatialSpark's sampling-based partitioning produces);
//! * [`BspPartitioner`] — recursive median splits over a sample (the
//!   SATO-flavoured balanced partitioning HadoopGIS derives from samples).
//!
//! Every family answers `assign`/`owner`/`owns` through a [`CellLocator`]
//! built once over its cells, so the cells a record is assigned to and the
//! cell that owns a reference point are read from the same rectangles; the
//! trait's linear-scan defaults are the reference it is tested against.

mod bsp;
mod fixed_grid;
mod locator;
mod str_tiles;

pub use bsp::BspPartitioner;
pub use fixed_grid::FixedGridPartitioner;
pub use locator::CellLocator;
pub use str_tiles::StrTilePartitioner;

use sjc_geom::{Mbr, Point};

/// Identifier of a spatial partition cell.
pub type CellId = u32;

/// A spatial partitioner: a finite set of cells plus assignment rules.
pub trait SpatialPartitioner {
    /// The partition cell rectangles. Cell ids are indexes into this slice.
    fn cells(&self) -> &[Mbr];

    /// All cells an MBR must be assigned to (every cell it intersects).
    /// Never empty: geometries outside every cell fall back to the nearest
    /// cell, so no record is ever dropped in preprocessing.
    fn assign(&self, mbr: &Mbr) -> Vec<CellId> {
        let mut out = Vec::new();
        self.assign_into(mbr, &mut out);
        out
    }

    /// [`assign`](Self::assign) into a caller-owned buffer: `out` is
    /// cleared, then holds the assigned cells in ascending id order.
    fn assign_into(&self, mbr: &Mbr, out: &mut Vec<CellId>) {
        out.clear();
        out.extend(
            self.cells()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.intersects(mbr))
                .map(|(i, _)| i as CellId),
        );
        if out.is_empty() {
            out.push(self.nearest_cell(&mbr.center()));
        }
    }

    /// The canonical owner cell of a point: the lowest-id cell containing
    /// it, or the nearest cell if none contains it. Used by the
    /// reference-point de-duplication rule — every point must have exactly
    /// one owner.
    fn owner(&self, p: &Point) -> CellId {
        self.cells()
            .iter()
            .position(|c| c.contains_point(p))
            .map(|i| i as CellId)
            .unwrap_or_else(|| self.nearest_cell(p))
    }

    /// Whether `cell` owns `p`: exactly `owner(p) == cell`, which is the
    /// default. The reference-point rule asks it of every candidate pair,
    /// so a partitioner may answer most probes without locating the owner.
    fn owns(&self, cell: CellId, p: &Point) -> bool {
        self.owner(p) == cell
    }

    /// Nearest cell to a point by MBR distance (deterministic tie-break on id).
    fn nearest_cell(&self, p: &Point) -> CellId {
        let pm = p.mbr();
        let mut best = (f64::INFINITY, 0u32);
        for (i, c) in self.cells().iter().enumerate() {
            let d = c.min_distance(&pm);
            if d < best.0 {
                best = (d, i as CellId);
            }
        }
        best.1
    }
}

/// A partitioner that keeps its cells in a [`CellLocator`]: the one
/// [`SpatialPartitioner`] impl below answers every question from it.
pub(crate) trait Located {
    fn locator(&self) -> &CellLocator;
}

impl<T: Located> SpatialPartitioner for T {
    fn cells(&self) -> &[Mbr] {
        self.locator().cells()
    }

    fn assign_into(&self, mbr: &Mbr, out: &mut Vec<CellId>) {
        self.locator().assign_into(mbr, out)
    }

    fn owner(&self, p: &Point) -> CellId {
        self.locator().owner(p)
    }

    fn owns(&self, cell: CellId, p: &Point) -> bool {
        self.locator().owns(cell, p)
    }
}

/// The reference-point de-duplication rule.
///
/// A candidate pair `(a, b)` whose MBRs were both assigned to cell `cell_id`
/// is *reported* by that cell only when the cell owns the reference point
/// (the lower-left corner of `a.mbr ∩ b.mbr`). Since every point has exactly
/// one owner cell, each result pair is emitted exactly once even though both
/// records may be duplicated across many cells.
pub fn dedup_owner_cell<P: SpatialPartitioner + ?Sized>(
    partitioner: &P,
    cell_id: CellId,
    a: &Mbr,
    b: &Mbr,
) -> bool {
    match a.reference_point(b) {
        Some(rp) => partitioner.owns(cell_id, &rp),
        None => false, // disjoint MBRs can never be a candidate pair
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two side-by-side cells for rule testing.
    struct TwoCells {
        cells: Vec<Mbr>,
    }

    impl SpatialPartitioner for TwoCells {
        fn cells(&self) -> &[Mbr] {
            &self.cells
        }
    }

    fn two() -> TwoCells {
        TwoCells { cells: vec![Mbr::new(0.0, 0.0, 1.0, 1.0), Mbr::new(1.0, 0.0, 2.0, 1.0)] }
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
