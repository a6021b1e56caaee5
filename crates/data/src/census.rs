//! Census-block polygon generator.
//!
//! NYC census blocks tessellate the city with *density-adaptive* sizes:
//! tiny blocks in Manhattan, large ones in outer boroughs. We reproduce this
//! by BSP-splitting the domain over a sample drawn from the same hotspot
//! mixture as the taxi points — so blocks are small exactly where pickups
//! are dense, as in the real city — then turning each cell into an
//! irregular polygon (inset, jittered edge vertices). The gaps between
//! blocks play the role of streets; like the real data, not every pickup
//! point falls inside a block.

use crate::rng::StdRng;
use sjc_geom::{Geometry, Mbr, Point, Polygon};

/// Generates `n` census-block polygons tessellating `domain`.
pub fn generate(rng: &mut StdRng, domain: Mbr, n: usize) -> Vec<Geometry> {
    // Sample the population surface to drive adaptive splitting. Cap the
    // sample so generation stays linear for big n.
    let sample_size = (n * 12).clamp(256, 200_000);
    let sample: Vec<Point> = crate::taxi::generate(rng, domain, sample_size)
        .into_iter()
        .filter_map(|g| match g {
            Geometry::Point(p) => Some(p),
            _ => None, // the taxi generator emits only points
        })
        .collect();

    let cells = bsp_cells(domain, sample, n);
    cells.into_iter().map(|cell| Geometry::Polygon(cell_to_block(rng, cell))).collect()
}

/// Recursive median splits (duplicated from sjc-index's partitioner in
/// miniature to keep this crate independent of index internals; the split
/// rule is three lines).
fn bsp_cells(domain: Mbr, mut sample: Vec<Point>, target: usize) -> Vec<Mbr> {
    let capacity = (sample.len() / target.max(1)).max(1);
    let mut out = Vec::with_capacity(target);
    split(domain, &mut sample, capacity, 40, &mut out);
    out
}

fn split(region: Mbr, sample: &mut [Point], capacity: usize, depth: usize, out: &mut Vec<Mbr>) {
    if sample.len() <= capacity || depth == 0 {
        out.push(region);
        return;
    }
    let vertical = region.width() >= region.height();
    let mid = sample.len() / 2;
    if vertical {
        sample.select_nth_unstable_by(mid, |a, b| a.x.total_cmp(&b.x));
        // sjc-lint: allow(no-panic-in-lib) — mid = len/2 < len, and len > capacity >= 1 here
        let cut = sample[mid].x.clamp(region.min_x, region.max_x);
        if cut <= region.min_x || cut >= region.max_x {
            out.push(region);
            return;
        }
        let (lo, hi) = sample.split_at_mut(mid);
        split(
            Mbr::new(region.min_x, region.min_y, cut, region.max_y),
            lo,
            capacity,
            depth - 1,
            out,
        );
        split(
            Mbr::new(cut, region.min_y, region.max_x, region.max_y),
            hi,
            capacity,
            depth - 1,
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
            depth - 1,
            out,
        );
        split(
            Mbr::new(region.min_x, cut, region.max_x, region.max_y),
            hi,
            capacity,
            depth - 1,
            out,
        );
    }
}

/// Turns a BSP cell into an irregular block polygon: inset the rectangle by
/// a street margin, then walk its boundary placing jittered vertices.
fn cell_to_block(rng: &mut StdRng, cell: Mbr) -> Polygon {
    let margin = 0.04 * cell.width().min(cell.height());
    let inner = Mbr::new(
        cell.min_x + margin,
        cell.min_y + margin,
        cell.max_x - margin,
        cell.max_y - margin,
    );
    let jitter = margin * 0.8;
    let mut ring = Vec::with_capacity(12);

    // Three vertices per side (corner + two interior), jittered inward so
    // neighbouring blocks never overlap.
    let mut push = |x: f64, y: f64, rng: &mut StdRng| {
        let jx = rng.gen::<f64>() * jitter;
        let jy = rng.gen::<f64>() * jitter;
        // Jitter pushes toward the cell interior.
        let cx = (inner.min_x + inner.max_x) / 2.0;
        let cy = (inner.min_y + inner.max_y) / 2.0;
        ring.push(Point::new(x + if x < cx { jx } else { -jx }, y + if y < cy { jy } else { -jy }));
    };

    let xs = [
        inner.min_x,
        (2.0 * inner.min_x + inner.max_x) / 3.0,
        (inner.min_x + 2.0 * inner.max_x) / 3.0,
    ];
    let ys = [
        inner.min_y,
        (2.0 * inner.min_y + inner.max_y) / 3.0,
        (inner.min_y + 2.0 * inner.max_y) / 3.0,
    ];
    // Bottom edge (left to right), right edge (bottom to top), top edge
    // (right to left), left edge (top to bottom).
    for &x in &xs {
        push(x, inner.min_y, rng);
    }
    for &y in &ys {
        push(inner.max_x, y, rng);
    }
    for &x in xs.iter().rev() {
        push(x, inner.max_y, rng);
    }
    for &y in ys.iter().rev() {
        push(inner.min_x, y, rng);
    }
    Polygon::new(ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_geom::algorithms::point_in_polygon;

    fn blocks(n: usize) -> Vec<Polygon> {
        let mut rng = StdRng::seed_from_u64(11);
        generate(&mut rng, Mbr::new(0.0, 0.0, 1000.0, 1000.0), n)
            .into_iter()
            .map(|g| match g {
                Geometry::Polygon(p) => p,
                other => panic!("census generator must emit polygons, got {}", other.kind()),
            })
            .collect()
    }

    /// Shoelace area of a block's ring.
    fn area(p: &Polygon) -> f64 {
        let ring = p.shell();
        let next = ring.iter().cycle().skip(1);
        ring.iter().zip(next).map(|(a, b)| a.x * b.y - b.x * a.y).sum::<f64>().abs() / 2.0
    }

    #[test]
    fn emits_roughly_requested_count() {
        let b = blocks(100);
        assert!((70..=160).contains(&b.len()), "got {} blocks", b.len());
    }

    #[test]
    fn blocks_are_valid_and_disjoint() {
        let b = blocks(60);
        for p in &b {
            assert!(area(p) > 0.0);
            assert!(p.shell().len() >= 8);
        }
        // Interior-disjointness: centers of each block are inside no other block.
        for (i, p) in b.iter().enumerate() {
            let c = p.mbr().center();
            for (j, q) in b.iter().enumerate() {
                if i != j {
                    assert!(!point_in_polygon(q, &c), "block {i} center inside block {j}");
                }
            }
        }
    }

    #[test]
    fn dense_areas_have_smaller_blocks() {
        let b = blocks(200);
        // Blocks near the primary hotspot (0.35, 0.55 of domain) should be
        // smaller on average than blocks near the sparse corner.
        let hotspot = Point::new(350.0, 550.0);
        let corner = Point::new(950.0, 50.0);
        let nearest_area = |target: &Point| {
            b.iter()
                .min_by(|p, q| {
                    let dist = |c: Point| (c.x - target.x).hypot(c.y - target.y);
                    let (dp, dq) = (dist(p.mbr().center()), dist(q.mbr().center()));
                    dp.partial_cmp(&dq).unwrap()
                })
                .map(area)
                .unwrap()
        };
        assert!(nearest_area(&hotspot) < nearest_area(&corner), "downtown blocks must be smaller");
    }

    #[test]
    fn most_hotspot_points_fall_in_some_block() {
        // The tessellation must actually catch the population: generate taxi
        // points and verify a solid majority land inside blocks.
        let domain = Mbr::new(0.0, 0.0, 1000.0, 1000.0);
        let b = blocks(150);
        let mut rng = StdRng::seed_from_u64(99);
        let pts = crate::taxi::generate(&mut rng, domain, 2000);
        let inside = pts
            .iter()
            .filter(|g| {
                let p = match g {
                    Geometry::Point(p) => p,
                    _ => unreachable!(),
                };
                b.iter().any(|poly| point_in_polygon(poly, p))
            })
            .count();
        assert!(inside > 1400, "only {inside}/2000 points landed in blocks — streets too wide");
    }
}
