//! Geometry-engine micro-benchmarks: the refinement primitives whose cost
//! the paper's §II.C attributes the GEOS/JTS gap to.

use sjc_bench::microbench::{black_box, Bench};
use sjc_data::rng::StdRng;
use sjc_geom::algorithms::{
    chunk_envelopes, linestrings_intersect, linestrings_intersect_hinted, point_in_polygon,
};
use sjc_geom::predicates::segments_intersect;
use sjc_geom::wkt::{parse_wkt, to_wkt};
use sjc_geom::{Geometry, LineString, Mbr, Point, Polygon};

fn ring(n: usize, radius: f64) -> Polygon {
    let pts = (0..n)
        .map(|i| {
            let theta = i as f64 / n as f64 * std::f64::consts::TAU;
            Point::new(radius * theta.cos(), radius * theta.sin())
        })
        .collect();
    Polygon::new(pts)
}

fn walk(rng: &mut StdRng, n: usize) -> LineString {
    let start = (rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0);
    walk_from(rng, n, start)
}

fn walk_from(rng: &mut StdRng, n: usize, (mut x, mut y): (f64, f64)) -> LineString {
    let pts = (0..n)
        .map(|_| {
            x += rng.gen::<f64>() * 2.0 - 1.0;
            y += rng.gen::<f64>() * 2.0 - 1.0;
            Point::new(x, y)
        })
        .collect();
    LineString::new(pts)
}

fn bench_point_in_polygon(b: &mut Bench) {
    for &n in &[4usize, 16, 64, 256] {
        let poly = ring(n, 10.0);
        let probes: Vec<Point> =
            (0..64).map(|i| Point::new((i % 16) as f64 - 8.0, (i / 16) as f64 - 8.0)).collect();
        b.bench_in("point_in_polygon", &n.to_string(), || {
            let mut hits = 0;
            for p in &probes {
                if point_in_polygon(black_box(&poly), black_box(p)) {
                    hits += 1;
                }
            }
            hits
        });
    }
}

fn bench_segment_intersection(b: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(1);
    let segs: Vec<(Point, Point)> = (0..256)
        .map(|_| {
            let a = Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0);
            let b = Point::new(a.x + rng.gen::<f64>() * 5.0, a.y + rng.gen::<f64>() * 5.0);
            (a, b)
        })
        .collect();
    b.bench("segment_intersection_256x256", || {
        let mut hits = 0u32;
        for (p1, p2) in &segs {
            for (q1, q2) in &segs {
                if segments_intersect(p1, p2, q1, q2) {
                    hits += 1;
                }
            }
        }
        hits
    });
}

fn bench_polyline_intersect(b: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(2);
    let roads: Vec<LineString> = (0..64).map(|_| walk(&mut rng, 8)).collect();
    let rivers: Vec<LineString> = (0..64).map(|_| walk(&mut rng, 35)).collect();
    b.bench("polyline_intersect_64x64", || {
        let mut hits = 0u32;
        for r in &roads {
            for w in &rivers {
                if linestrings_intersect(black_box(r), black_box(w)) {
                    hits += 1;
                }
            }
        }
        hits
    });
}

/// One exact test as the join's refinement sees it: a candidate pair whose
/// envelopes overlap, by outcome and size, with the right side handed over
/// as its chunk envelopes (`prepared`, what `local_join` does for a long
/// polyline), with both envelopes handed over (`hinted`, what it does for
/// a short one) or with both recomputed (`unhinted`).
fn bench_polyline_refine(b: &mut Bench) {
    const PAIRS: usize = 32;
    type Rec = (LineString, Mbr);
    type Pair = (Rec, Rec);
    let chunks = |pairs: &[Pair]| -> Vec<Vec<Mbr>> {
        pairs
            .iter()
            .map(|(_, (r, _))| {
                let mut out = Vec::new();
                chunk_envelopes(r, &mut out);
                out
            })
            .collect()
    };
    for &n in &[10usize, 64, 512] {
        let mut rng = StdRng::seed_from_u64(4 + n as u64);
        // A walk of n unit-ish steps wanders ~sqrt(n); start the partner
        // within that reach so both outcomes turn up.
        let reach = (n as f64).sqrt() * 2.0;
        let (mut hits, mut misses): (Vec<Pair>, Vec<Pair>) = (Vec::new(), Vec::new());
        while hits.len() < PAIRS || misses.len() < PAIRS {
            let l = walk_from(&mut rng, n, (0.0, 0.0));
            let offset = (rng.gen::<f64>() * reach, rng.gen::<f64>() * reach);
            let r = walk_from(&mut rng, n, offset);
            let (lm, rm) = (l.mbr(), r.mbr());
            if !lm.intersects(&rm) {
                continue; // the filter would have dropped it
            }
            let side = if linestrings_intersect(&l, &r) { &mut hits } else { &mut misses };
            if side.len() < PAIRS {
                side.push(((l, lm), (r, rm)));
            }
        }
        for (outcome, pairs) in [("hit", &hits), ("miss", &misses)] {
            let group = format!("polyline_refine_{outcome}");
            let prepared = chunks(pairs);
            b.bench_in(&group, &format!("{n}/prepared"), || {
                pairs
                    .iter()
                    .zip(&prepared)
                    .filter(|(((l, lm), (r, _)), rc)| {
                        linestrings_intersect_hinted(black_box(l), lm, black_box(r), rc)
                    })
                    .count()
            });
            b.bench_in(&group, &format!("{n}/hinted"), || {
                pairs
                    .iter()
                    .filter(|((l, lm), (r, rm))| {
                        linestrings_intersect_hinted(black_box(l), lm, black_box(r), &[*rm])
                    })
                    .count()
            });
            b.bench_in(&group, &format!("{n}/unhinted"), || {
                pairs
                    .iter()
                    .filter(|((l, _), (r, _))| linestrings_intersect(black_box(l), black_box(r)))
                    .count()
            });
        }
    }
}

fn bench_wkt_round_trip(b: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(3);
    let geoms: Vec<Geometry> = (0..100)
        .map(|i| match i % 3 {
            0 => Geometry::Point(Point::new(rng.gen(), rng.gen())),
            1 => Geometry::LineString(walk(&mut rng, 10)),
            _ => Geometry::Polygon(ring(12, 5.0)),
        })
        .collect();
    let texts: Vec<String> = geoms.iter().map(to_wkt).collect();
    b.bench("wkt_write_100", || geoms.iter().map(|g| to_wkt(black_box(g)).len()).sum::<usize>());
    b.bench("wkt_parse_100", || {
        texts.iter().map(|t| parse_wkt(black_box(t)).unwrap().num_vertices()).sum::<usize>()
    });
}

fn main() {
    let mut b = Bench::from_args();
    bench_point_in_polygon(&mut b);
    bench_segment_intersection(&mut b);
    bench_polyline_intersect(&mut b);
    bench_polyline_refine(&mut b);
    bench_wkt_round_trip(&mut b);
}
