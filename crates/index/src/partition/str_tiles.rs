//! STR tiles chosen from a sample.
//!
//! SpatialSpark's preprocessing samples one input dataset and derives
//! partition MBRs from the sample (§II.A of the paper). We reproduce this
//! with Sort-Tile-Recursive tiling: sort sample points by x, slice into
//! vertical strips, sort each strip by y, and cut into tiles of equal sample
//! occupancy. Tiles are then *expanded to tile the full domain* (strip
//! boundaries extended to the extent edges) so that assignment is total and
//! unseen data still lands in a cell.

use sjc_geom::{Mbr, Point};

/// ~`target_cells` STR tiles from `sample` points over `extent`.
///
/// The sample is consumed (sorted in place). Degenerate inputs (empty
/// sample) fall back to a single cell covering the extent.
pub fn str_tile_cells(extent: Mbr, mut sample: Vec<Point>, target_cells: usize) -> Vec<Mbr> {
    assert!(!extent.is_empty(), "extent must be non-empty");
    let target = target_cells.max(1);
    if sample.is_empty() || target == 1 {
        return vec![extent];
    }

    let num_strips = (target as f64).sqrt().ceil() as usize;
    let tiles_per_strip = target.div_ceil(num_strips);

    sample.sort_by(|a, b| a.x.total_cmp(&b.x));
    let strip_len = sample.len().div_ceil(num_strips);

    let mut cells = Vec::with_capacity(target);
    let mut strip_start = 0usize;
    let mut strip_index = 0usize;
    let mut prev_x_hi = extent.min_x;
    while strip_start < sample.len() {
        let strip_end = (strip_start + strip_len).min(sample.len());

        // Strip x-range: extend first/last strips to the extent edges;
        // interior boundaries fall midway between adjacent samples.
        let x_lo = if strip_index == 0 { extent.min_x } else { prev_x_hi };
        let x_hi = if strip_end == sample.len() {
            extent.max_x
        } else {
            // sjc-lint: allow(no-panic-in-lib) — 0 < strip_end < sample.len() in this branch
            ((sample[strip_end - 1].x + sample[strip_end].x) / 2.0).max(x_lo)
        };
        prev_x_hi = x_hi;

        // sjc-lint: allow(no-panic-in-lib) — strip bounds are clamped to sample.len() above
        let strip = &mut sample[strip_start..strip_end];
        strip.sort_by(|a, b| a.y.total_cmp(&b.y));

        let tile_len = strip.len().div_ceil(tiles_per_strip);
        let mut tile_start = 0usize;
        let mut prev_y = extent.min_y;
        while tile_start < strip.len() {
            let tile_end = (tile_start + tile_len).min(strip.len());
            let y_hi = if tile_end == strip.len() {
                extent.max_y
            } else {
                // sjc-lint: allow(no-panic-in-lib) — 0 < tile_end < strip.len() in this branch
                (strip[tile_end - 1].y + strip[tile_end].y) / 2.0
            };
            // Guard against zero-height tiles from duplicate y values.
            let y_hi = y_hi.max(prev_y);
            cells.push(Mbr::new(x_lo, prev_y, x_hi, y_hi));
            prev_y = y_hi;
            tile_start = tile_end;
        }
        strip_start = strip_end;
        strip_index += 1;
    }

    // The sample can only resolve ~one tile per sample point. When the
    // target asks for more cells (small samples, big clusters), split
    // *every* tile into the same number of sub-cells: sample-derived
    // tiles carry roughly equal data (that is what STR on the sample
    // achieves), so uniform subdivision preserves the balance while
    // adding the granularity that keeps every task slot busy. Empty
    // sub-cells are harmless.
    if cells.len() < target {
        let k = target.div_ceil(cells.len());
        let mut fine = Vec::with_capacity(cells.len() * k);
        for c in &cells {
            subdivide(*c, k, &mut fine);
        }
        cells = fine;
    }
    cells
}

/// Splits `cell` into `k` pieces by recursive halving along the wider axis.
fn subdivide(cell: Mbr, k: usize, out: &mut Vec<Mbr>) {
    if k <= 1 || cell.area() <= 0.0 {
        out.push(cell);
        return;
    }
    let lo_k = k / 2;
    let hi_k = k - lo_k;
    // Split position proportional to the child counts so pieces end up
    // near-equal even for odd k.
    let t = lo_k as f64 / k as f64;
    if cell.width() >= cell.height() {
        let cut = cell.min_x + cell.width() * t;
        subdivide(Mbr::new(cell.min_x, cell.min_y, cut, cell.max_y), lo_k, out);
        subdivide(Mbr::new(cut, cell.min_y, cell.max_x, cell.max_y), hi_k, out);
    } else {
        let cut = cell.min_y + cell.height() * t;
        subdivide(Mbr::new(cell.min_x, cell.min_y, cell.max_x, cut), lo_k, out);
        subdivide(Mbr::new(cell.min_x, cut, cell.max_x, cell.max_y), hi_k, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::CellLocator;

    fn tiles(extent: Mbr, sample: Vec<Point>, target_cells: usize) -> CellLocator {
        CellLocator::new(str_tile_cells(extent, sample, target_cells))
    }

    fn skewed_sample(n: usize) -> Vec<Point> {
        // 80% of points clustered in the lower-left 10% of the extent.
        (0..n)
            .map(|i| {
                if i % 5 != 0 {
                    Point::new((i % 97) as f64 / 97.0, (i % 89) as f64 / 89.0)
                } else {
                    Point::new(
                        1.0 + (i % 83) as f64 / 83.0 * 9.0,
                        1.0 + (i % 79) as f64 / 79.0 * 9.0,
                    )
                }
            })
            .collect()
    }

    #[test]
    fn tiles_cover_extent_without_gaps() {
        let extent = Mbr::new(0.0, 0.0, 10.0, 10.0);
        let p = tiles(extent, skewed_sample(500), 16);
        let total_area: f64 = p.cells().iter().map(Mbr::area).sum();
        assert!(
            (total_area - extent.area()).abs() < 1e-6,
            "tiles must tile the domain exactly, got {total_area}"
        );
    }

    #[test]
    fn cell_count_is_near_target() {
        let p = tiles(Mbr::new(0.0, 0.0, 10.0, 10.0), skewed_sample(1000), 16);
        let n = p.cells().len();
        assert!((12..=25).contains(&n), "wanted ~16 tiles, got {n}");
    }

    #[test]
    fn skew_produces_small_cells_in_dense_areas() {
        let p = tiles(Mbr::new(0.0, 0.0, 10.0, 10.0), skewed_sample(1000), 16);
        // The cell containing the dense corner should be smaller than the
        // cell containing the sparse far corner.
        let dense_cell = p.cells()[p.owner(&Point::new(0.5, 0.5)) as usize];
        let sparse_cell = p.cells()[p.owner(&Point::new(9.5, 9.5)) as usize];
        assert!(dense_cell.area() < sparse_cell.area());
    }

    #[test]
    fn empty_sample_gives_single_cell() {
        let extent = Mbr::new(0.0, 0.0, 5.0, 5.0);
        let p = tiles(extent, Vec::new(), 8);
        assert_eq!(p.cells(), &[extent]);
    }

    #[test]
    fn every_point_in_extent_has_an_owner() {
        let extent = Mbr::new(0.0, 0.0, 10.0, 10.0);
        let p = tiles(extent, skewed_sample(300), 9);
        for i in 0..100 {
            let pt = Point::new((i % 10) as f64 + 0.5, (i / 10) as f64 + 0.5);
            let owner = p.owner(&pt);
            assert!(p.cells()[owner as usize].contains_point(&pt));
        }
    }

    #[test]
    fn duplicate_coordinates_do_not_create_inverted_tiles() {
        let sample: Vec<Point> = (0..100).map(|_| Point::new(5.0, 5.0)).collect();
        let p = tiles(Mbr::new(0.0, 0.0, 10.0, 10.0), sample, 8);
        for c in p.cells() {
            assert!(!c.is_empty());
            assert!(c.max_x >= c.min_x && c.max_y >= c.min_y);
        }
    }
}
