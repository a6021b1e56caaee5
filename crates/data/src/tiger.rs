//! TIGER-like polyline generators: road `edges` and `linearwater`.
//!
//! TIGER `edges` records are short street segments (a handful of vertices,
//! ~327 bytes/record per Table 1); `linearwater` records are long meandering
//! streams (~1.4 KB/record). The polyline-with-polyline join of the paper's
//! second experiment intersects the two. Roads follow a loose grid with
//! noise; waters meander with correlated direction changes — giving the
//! realistic pattern of many short candidates against few long ones.

use crate::rng::StdRng;
use sjc_geom::{Geometry, LineString, Mbr, Point};

/// Average vertex count of a road edge (TIGER edges ≈ 327 B/record ≈ 8
/// vertices of WKT text).
const EDGE_VERTICES: (usize, usize) = (3, 12);
/// Average vertex count of a water feature (~1.4 KB/record ≈ 35 vertices).
const WATER_VERTICES: (usize, usize) = (20, 50);

/// Generates `n` road-edge polylines: short, mostly axis-aligned walks.
pub fn generate_edges(rng: &mut StdRng, domain: Mbr, n: usize) -> Vec<Geometry> {
    // Street spacing derived from density: roads per unit area fixed, so
    // segment length scales with the domain like a real street grid.
    let seg_len = (domain.area() / (n as f64).max(1.0)).sqrt() * 0.8;
    // Per record after the vertex-count draw: axis + angle (2 draws, both
    // branches), then the walk (2 start draws + 2 per added vertex).
    par_walks(
        rng,
        n,
        EDGE_VERTICES,
        |verts| 2 + walk_draws(verts),
        move |r, verts| {
            // Roads prefer axis directions (a loose Manhattan grid).
            let axis = r.gen_bool(0.7);
            let base_angle = if axis {
                if r.gen_bool(0.5) {
                    0.0
                } else {
                    std::f64::consts::FRAC_PI_2
                }
            } else {
                r.gen::<f64>() * std::f64::consts::TAU
            };
            walk(r, domain, verts, seg_len / verts as f64, base_angle, 0.15)
        },
    )
}

/// Generates `n` water polylines: long correlated meanders.
pub fn generate_linearwater(rng: &mut StdRng, domain: Mbr, n: usize) -> Vec<Geometry> {
    // Waters are sparse but long: total length comparable to a road cell's
    // diagonal times a few.
    let seg_len = (domain.area() / (n as f64).max(1.0)).sqrt() * 1.5;
    // Per record after the vertex-count draw: one angle draw plus the walk.
    par_walks(
        rng,
        n,
        WATER_VERTICES,
        |verts| 1 + walk_draws(verts),
        move |r, verts| {
            let base_angle = r.gen::<f64>() * std::f64::consts::TAU;
            walk(r, domain, verts, seg_len / verts as f64 * 3.0, base_angle, 0.35)
        },
    )
}

/// Draws consumed by [`walk`]: start x/y plus angle-and-length per vertex.
fn walk_draws(verts: usize) -> u64 {
    2 + (verts.max(2) as u64 - 1) * 2
}

/// Two-phase parallel polyline generation, stream-exact with the old serial
/// loop: a serial pass snapshots the RNG per record — drawing only the
/// vertex count, then skipping that record's remaining draws in O(1) — and
/// the trigonometry-heavy walks rebuild concurrently from the snapshots.
/// Both the emitted geometry and `rng`'s final state are bit-identical to a
/// single-threaded scan.
fn par_walks(
    rng: &mut StdRng,
    n: usize,
    verts_range: (usize, usize),
    draws_after_verts: impl Fn(usize) -> u64,
    build: impl Fn(&mut StdRng, usize) -> LineString + Sync,
) -> Vec<Geometry> {
    let mut starts = Vec::with_capacity(n);
    for _ in 0..n {
        starts.push(rng.state());
        let verts = rng.gen_range(verts_range.0..=verts_range.1);
        rng.skip(draws_after_verts(verts));
    }
    sjc_par::par_map(&starts, |&s| {
        let mut r = StdRng::from_state(s);
        let verts = r.gen_range(verts_range.0..=verts_range.1);
        Geometry::LineString(build(&mut r, verts))
    })
}

/// A correlated random walk of `verts` vertices with mean step `step` and
/// per-step angular noise `wobble` (radians), clamped to the domain.
fn walk(
    rng: &mut StdRng,
    domain: Mbr,
    verts: usize,
    step: f64,
    mut angle: f64,
    wobble: f64,
) -> LineString {
    let mut x = domain.min_x + rng.gen::<f64>() * domain.width();
    let mut y = domain.min_y + rng.gen::<f64>() * domain.height();
    let mut pts = Vec::with_capacity(verts);
    pts.push(Point::new(x, y));
    for _ in 1..verts.max(2) {
        angle += (rng.gen::<f64>() - 0.5) * 2.0 * wobble;
        let len = step * (0.5 + rng.gen::<f64>());
        x = (x + len * angle.cos()).clamp(domain.min_x, domain.max_x);
        y = (y + len * angle.sin()).clamp(domain.min_y, domain.max_y);
        // Avoid zero-length duplicate vertices on the clamped boundary.
        let last = pts.last().copied().unwrap_or(Point::new(0.0, 0.0));
        if (last.x - x).abs() < 1e-9 && (last.y - y).abs() < 1e-9 {
            x = (x + step * 0.01).clamp(domain.min_x, domain.max_x);
            y = (y + step * 0.01).clamp(domain.min_y, domain.max_y);
            if (last.x - x).abs() < 1e-9 && (last.y - y).abs() < 1e-9 {
                // Fully cornered: nudge inward instead.
                x = (x - step * 0.02).clamp(domain.min_x, domain.max_x);
                y = (y - step * 0.02).clamp(domain.min_y, domain.max_y);
            }
        }
        pts.push(Point::new(x, y));
    }
    LineString::new(pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_geom::algorithms::linestrings_intersect;

    fn lines(gen: fn(&mut StdRng, Mbr, usize) -> Vec<Geometry>, n: usize) -> Vec<LineString> {
        let mut rng = StdRng::seed_from_u64(5);
        gen(&mut rng, Mbr::new(0.0, 0.0, 10_000.0, 10_000.0), n)
            .into_iter()
            .map(|g| match g {
                Geometry::LineString(l) => l,
                other => panic!("expected polylines, got {}", other.kind()),
            })
            .collect()
    }

    #[test]
    fn parallel_generation_matches_single_pass_stream() {
        // Ground truth: the pre-parallel generators — one RNG scan each.
        let serial_edges = |rng: &mut StdRng, domain: Mbr, n: usize| -> Vec<Geometry> {
            let seg_len = (domain.area() / (n as f64).max(1.0)).sqrt() * 0.8;
            (0..n)
                .map(|_| {
                    let verts = rng.gen_range(EDGE_VERTICES.0..=EDGE_VERTICES.1);
                    let axis = rng.gen_bool(0.7);
                    let base_angle = if axis {
                        if rng.gen_bool(0.5) {
                            0.0
                        } else {
                            std::f64::consts::FRAC_PI_2
                        }
                    } else {
                        rng.gen::<f64>() * std::f64::consts::TAU
                    };
                    Geometry::LineString(walk(
                        rng,
                        domain,
                        verts,
                        seg_len / verts as f64,
                        base_angle,
                        0.15,
                    ))
                })
                .collect()
        };
        let serial_water = |rng: &mut StdRng, domain: Mbr, n: usize| -> Vec<Geometry> {
            let seg_len = (domain.area() / (n as f64).max(1.0)).sqrt() * 1.5;
            (0..n)
                .map(|_| {
                    let verts = rng.gen_range(WATER_VERTICES.0..=WATER_VERTICES.1);
                    let base_angle = rng.gen::<f64>() * std::f64::consts::TAU;
                    Geometry::LineString(walk(
                        rng,
                        domain,
                        verts,
                        seg_len / verts as f64 * 3.0,
                        base_angle,
                        0.35,
                    ))
                })
                .collect()
        };
        let domain = Mbr::new(0.0, 0.0, 10_000.0, 10_000.0);
        for seed in [0u64, 5, 20150701] {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            assert_eq!(generate_edges(&mut a, domain, 500), serial_edges(&mut b, domain, 500));
            assert_eq!(a, b, "edges: final RNG state must match");
            assert_eq!(
                generate_linearwater(&mut a, domain, 200),
                serial_water(&mut b, domain, 200)
            );
            assert_eq!(a, b, "linearwater: final RNG state must match");
        }
    }

    #[test]
    fn edges_are_short_waters_are_long() {
        let edges = lines(generate_edges, 300);
        let waters = lines(generate_linearwater, 300);
        let length =
            |l: &LineString| l.segments().map(|(a, b)| (b.x - a.x).hypot(b.y - a.y)).sum::<f64>();
        let avg = |ls: &[LineString]| ls.iter().map(length).sum::<f64>() / ls.len() as f64;
        assert!(
            avg(&waters) > 3.0 * avg(&edges),
            "waters {:.0} vs edges {:.0}",
            avg(&waters),
            avg(&edges)
        );
        let avg_verts = |ls: &[LineString]| {
            ls.iter().map(LineString::num_points).sum::<usize>() as f64 / ls.len() as f64
        };
        assert!(avg_verts(&edges) < 13.0);
        assert!(avg_verts(&waters) > 19.0);
    }

    #[test]
    fn vertices_are_distinct_consecutively() {
        for l in lines(generate_linearwater, 100) {
            for (a, b) in l.segments() {
                assert_ne!(a, b, "zero-length segment");
            }
        }
    }

    #[test]
    fn roads_and_waters_actually_intersect() {
        // The experiment's selectivity must be nonzero: some road crosses
        // some water.
        let edges = lines(generate_edges, 500);
        let waters = lines(generate_linearwater, 50);
        let hits = edges
            .iter()
            .flat_map(|e| waters.iter().map(move |w| (e, w)))
            .filter(|(e, w)| linestrings_intersect(e, w))
            .count();
        assert!(hits > 10, "only {hits} road-water crossings — selectivity too low");
    }

    #[test]
    fn geometry_stays_in_domain() {
        let domain = Mbr::new(0.0, 0.0, 10_000.0, 10_000.0);
        for l in lines(generate_edges, 200).iter().chain(lines(generate_linearwater, 50).iter()) {
            assert!(domain.contains(&l.mbr()));
        }
    }
}
