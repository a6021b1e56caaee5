//! The partitioner names the `benchmark/` package still calls: each wraps
//! a [`CellLocator`] over its chooser's cells and forwards to it, with no
//! location logic of its own. The library passes `CellLocator`s.

use sjc_geom::{Mbr, Point};

use super::{bsp_cells, grid_cells, str_tile_cells, CellId, CellLocator};

/// A cell list behind a [`CellLocator`], as `&dyn` callers see it. Every
/// method forwards to [`locator`](Self::locator).
pub trait SpatialPartitioner {
    fn locator(&self) -> &CellLocator;

    fn cells(&self) -> &[Mbr] {
        self.locator().cells()
    }

    fn assign(&self, mbr: &Mbr) -> Vec<CellId> {
        self.locator().assign(mbr)
    }

    fn owner(&self, p: &Point) -> CellId {
        self.locator().owner(p)
    }

    fn nearest_cell(&self, p: &Point) -> CellId {
        self.locator().nearest_cell(p)
    }
}

/// [`grid_cells`], located.
#[derive(Debug, Clone)]
pub struct FixedGridPartitioner(CellLocator);

impl FixedGridPartitioner {
    pub fn with_target_cells(extent: Mbr, target_cells: usize) -> Self {
        FixedGridPartitioner(CellLocator::new(grid_cells(extent, target_cells)))
    }
}

/// [`str_tile_cells`], located.
#[derive(Debug, Clone)]
pub struct StrTilePartitioner(CellLocator);

impl StrTilePartitioner {
    pub fn from_sample(extent: Mbr, sample: Vec<Point>, target_cells: usize) -> Self {
        StrTilePartitioner(CellLocator::new(str_tile_cells(extent, sample, target_cells)))
    }
}

/// [`bsp_cells`], located.
#[derive(Debug, Clone)]
pub struct BspPartitioner(CellLocator);

impl BspPartitioner {
    pub fn from_sample(extent: Mbr, sample: Vec<Point>, target_cells: usize) -> Self {
        BspPartitioner(CellLocator::new(bsp_cells(extent, sample, target_cells)))
    }
}

impl SpatialPartitioner for FixedGridPartitioner {
    fn locator(&self) -> &CellLocator {
        &self.0
    }
}

impl SpatialPartitioner for StrTilePartitioner {
    fn locator(&self) -> &CellLocator {
        &self.0
    }
}

impl SpatialPartitioner for BspPartitioner {
    fn locator(&self) -> &CellLocator {
        &self.0
    }
}
