//! Binary-space-partitioning (k-d style) partitioner built from a sample.
//!
//! Recursive median splits along the wider axis until each region holds at
//! most `capacity` sample points. This is the SATO-flavoured balanced
//! partitioning that HadoopGIS derives from its sample MBRs (step 5 of the
//! paper's preprocessing pipeline runs exactly such a serial local program).

use sjc_geom::{Mbr, Point};

use super::{CellLocator, Located};

/// Sample-driven recursive median splits.
#[derive(Debug, Clone)]
pub struct BspPartitioner {
    cells: CellLocator,
}

impl BspPartitioner {
    /// Splits `extent` recursively so each leaf holds at most
    /// `sample.len() / target_cells` sample points (at least 1).
    pub fn from_sample(extent: Mbr, mut sample: Vec<Point>, target_cells: usize) -> Self {
        assert!(!extent.is_empty(), "extent must be non-empty");
        let capacity = (sample.len() / target_cells.max(1)).max(1);
        let mut cells = Vec::new();
        split(extent, &mut sample, capacity, 32, &mut cells);
        BspPartitioner { cells: CellLocator::new(cells) }
    }
}

fn split(
    region: Mbr,
    sample: &mut [Point],
    capacity: usize,
    depth_left: usize,
    out: &mut Vec<Mbr>,
) {
    if sample.len() <= capacity || depth_left == 0 {
        out.push(region);
        return;
    }
    let vertical = region.width() >= region.height(); // split the wider axis
    let mid = sample.len() / 2;
    if vertical {
        sample.select_nth_unstable_by(mid, |a, b| a.x.total_cmp(&b.x));
        // sjc-lint: allow(no-panic-in-lib) — mid = len/2 < len, and len > capacity >= 1 here
        let cut = sample[mid].x.clamp(region.min_x, region.max_x);
        // Degenerate cut (all duplicates at an edge): stop splitting.
        if cut <= region.min_x || cut >= region.max_x {
            out.push(region);
            return;
        }
        let (lo, hi) = sample.split_at_mut(mid);
        split(
            Mbr::new(region.min_x, region.min_y, cut, region.max_y),
            lo,
            capacity,
            depth_left - 1,
            out,
        );
        split(
            Mbr::new(cut, region.min_y, region.max_x, region.max_y),
            hi,
            capacity,
            depth_left - 1,
            out,
        );
    } else {
        sample.select_nth_unstable_by(mid, |a, b| a.y.total_cmp(&b.y));
        // sjc-lint: allow(no-panic-in-lib) — mid = len/2 < len, and len > capacity >= 1 here
        let cut = sample[mid].y.clamp(region.min_y, region.max_y);
        if cut <= region.min_y || cut >= region.max_y {
            out.push(region);
            return;
        }
        let (lo, hi) = sample.split_at_mut(mid);
        split(
            Mbr::new(region.min_x, region.min_y, region.max_x, cut),
            lo,
            capacity,
            depth_left - 1,
            out,
        );
        split(
            Mbr::new(region.min_x, cut, region.max_x, region.max_y),
            hi,
            capacity,
            depth_left - 1,
            out,
        );
    }
}

impl Located for BspPartitioner {
    fn locator(&self) -> &CellLocator {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::SpatialPartitioner;

    fn uniform_sample(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new((i * 37 % 101) as f64 / 101.0 * 10.0, (i * 53 % 97) as f64 / 97.0 * 10.0)
            })
            .collect()
    }

    #[test]
    fn cells_tile_extent_exactly() {
        let extent = Mbr::new(0.0, 0.0, 10.0, 10.0);
        let p = BspPartitioner::from_sample(extent, uniform_sample(512), 16);
        let total: f64 = p.cells().iter().map(Mbr::area).sum();
        assert!((total - extent.area()).abs() < 1e-6);
        for (i, a) in p.cells().iter().enumerate() {
            for b in p.cells().iter().skip(i + 1) {
                assert!(a.intersection(b).area() < 1e-9, "cells are interior-disjoint");
            }
        }
    }

    #[test]
    fn balanced_occupancy() {
        let sample = uniform_sample(1024);
        let p = BspPartitioner::from_sample(Mbr::new(0.0, 0.0, 10.0, 10.0), sample.clone(), 16);
        // Count sample points per cell by owner; the max/min ratio should be
        // modest for a median-split partitioner.
        let mut counts = vec![0usize; p.cells().len()];
        for pt in &sample {
            counts[p.owner(pt) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let nonzero_min = *counts.iter().filter(|&&c| c > 0).min().unwrap();
        assert!(
            max <= nonzero_min * 4,
            "median splits keep cells balanced: max={max} min={nonzero_min}"
        );
    }

    #[test]
    fn cell_count_close_to_target() {
        let p =
            BspPartitioner::from_sample(Mbr::new(0.0, 0.0, 10.0, 10.0), uniform_sample(1000), 16);
        let n = p.cells().len();
        assert!((8..=32).contains(&n), "wanted ~16, got {n}");
    }

    #[test]
    fn duplicate_points_terminate() {
        let sample: Vec<Point> = (0..1000).map(|_| Point::new(3.0, 3.0)).collect();
        let p = BspPartitioner::from_sample(Mbr::new(0.0, 0.0, 10.0, 10.0), sample, 64);
        assert!(!p.cells().is_empty());
        let total: f64 = p.cells().iter().map(Mbr::area).sum();
        assert!((total - 100.0).abs() < 1e-6, "degenerate splits still tile the extent");
    }

    #[test]
    fn empty_sample_gives_single_cell() {
        let extent = Mbr::new(0.0, 0.0, 1.0, 1.0);
        let p = BspPartitioner::from_sample(extent, Vec::new(), 10);
        assert_eq!(p.cells(), &[extent]);
    }
}
