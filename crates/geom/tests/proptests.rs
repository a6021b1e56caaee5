//! Property-based tests for the geometry engine (seeded `sjc-testkit` cases).

use sjc_geom::algorithms::point_in_polygon;
use sjc_geom::predicates::segments_intersect;
use sjc_geom::wkt::{parse_wkt, to_wkt, write_wkt};
use sjc_geom::{Geometry, LineString, Mbr, Point, Polygon};
use sjc_testkit::{cases, TestRng};

const N: usize = 256;

fn coord(rng: &mut TestRng) -> f64 {
    // Plain decimal range, no NaN/inf; covers negative and fractional values.
    // Rounded to 1/16 so translations and comparisons stay exact in f64.
    (rng.f64_in(-1000.0..1000.0) * 16.0).round() / 16.0
}

fn point(rng: &mut TestRng) -> Point {
    let x = coord(rng);
    let y = coord(rng);
    Point::new(x, y)
}

fn linestring(rng: &mut TestRng) -> LineString {
    let n = rng.usize_in(2..12);
    LineString::new((0..n).map(|_| point(rng)).collect())
}

/// A random convex-ish polygon: points on a jittered circle, sorted by angle.
fn polygon(rng: &mut TestRng) -> Polygon {
    let center = point(rng);
    let radius = rng.f64_in(10.0..200.0);
    let n = rng.usize_in(4..12);
    let ring: Vec<Point> = (0..n)
        .map(|i| {
            let j = rng.f64_in(0.5..1.0);
            let theta = (i as f64) / (n as f64) * std::f64::consts::TAU;
            Point::new(center.x + radius * j * theta.cos(), center.y + radius * j * theta.sin())
        })
        .collect();
    Polygon::new(ring)
}

fn geometry(rng: &mut TestRng) -> Geometry {
    match rng.usize_in(0..3) {
        0 => Geometry::Point(point(rng)),
        1 => Geometry::LineString(linestring(rng)),
        _ => Geometry::Polygon(polygon(rng)),
    }
}

#[test]
fn wkt_round_trip() {
    cases(0x6E01, N, |rng| {
        let g = geometry(rng);
        let text = to_wkt(&g);
        let parsed = parse_wkt(&text).expect("writer output must parse");
        assert_eq!(parsed, g);
    });
}

#[test]
fn write_wkt_appends_exactly_to_wkt_and_never_a_line_break() {
    // `geometry` draws all three kinds; a `\n`-terminated buffer of records is
    // split back with `split_terminator('\n')`, so no record may hold one.
    let mut kinds = std::collections::BTreeSet::new();
    cases(0x6E11, N, |rng| {
        let g = geometry(rng);
        let mut buf = String::from("17\t");
        write_wkt(&mut buf, &g);
        let text = to_wkt(&g);
        assert_eq!(buf, format!("17\t{text}"));
        assert!(!text.contains(['\n', '\r']), "line break in {text:?}");
        kinds.insert(g.kind());
    });
    assert_eq!(kinds.len(), 3, "drew {kinds:?}");
}

#[test]
fn wkt_parser_never_panics_on_garbage() {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 (),.-";
    cases(0x6E03, N, |rng| {
        let len = rng.usize_in(0..81);
        let input: String =
            (0..len).map(|_| ALPHABET[rng.usize_in(0..ALPHABET.len())] as char).collect();
        // Fuzz: arbitrary printable input either parses (and then
        // round-trips) or errors cleanly.
        if let Ok(g) = parse_wkt(&input) {
            let re = to_wkt(&g);
            assert_eq!(parse_wkt(&re).expect("writer output parses"), g);
        }
    });
}

#[test]
fn mbr_contains_all_linestring_vertices() {
    cases(0x6E05, N, |rng| {
        let l = linestring(rng);
        let mbr = l.mbr();
        for p in l.points() {
            assert!(mbr.contains_point(p));
        }
    });
}

#[test]
fn intersects_is_symmetric() {
    cases(0x6E06, N, |rng| {
        let a = geometry(rng);
        let b = geometry(rng);
        assert_eq!(a.intersects(&b), b.intersects(&a));
    });
}

#[test]
fn exact_intersection_implies_mbr_intersection() {
    cases(0x6E07, N, |rng| {
        let a = geometry(rng);
        let b = geometry(rng);
        if a.intersects(&b) {
            assert!(a.mbr().intersects(&b.mbr()), "refinement hit without filter hit: {a:?} {b:?}");
        }
    });
}

#[test]
fn intersects_is_translation_invariant() {
    cases(0x6E08, N, |rng| {
        let a = geometry(rng);
        let b = geometry(rng);
        // Round the shift to a power-of-two-friendly grid so f64 translation is exact.
        let dx = (rng.f64_in(-500.0..500.0) * 16.0).round() / 16.0;
        let dy = (rng.f64_in(-500.0..500.0) * 16.0).round() / 16.0;
        assert_eq!(a.intersects(&b), a.translate(dx, dy).intersects(&b.translate(dx, dy)));
    });
}

#[test]
fn segment_intersection_symmetry() {
    cases(0x6E09, N, |rng| {
        let (a, b, c, d) = (point(rng), point(rng), point(rng), point(rng));
        assert_eq!(segments_intersect(&a, &b, &c, &d), segments_intersect(&c, &d, &a, &b));
    });
}

#[test]
fn polygon_centroid_vertex_behaviour() {
    cases(0x6E0B, N, |rng| {
        let poly = polygon(rng);
        // Every vertex of the shell is on the boundary, hence "inside".
        for v in poly.shell() {
            assert!(point_in_polygon(&poly, v));
        }
        // A point far outside the MBR is never inside.
        let m = poly.mbr();
        let far = Point::new(m.max_x + 10.0, m.max_y + 10.0);
        assert!(!point_in_polygon(&poly, &far));
    });
}

#[test]
fn pip_consistent_with_mbr() {
    cases(0x6E0C, N, |rng| {
        let poly = polygon(rng);
        let p = point(rng);
        if point_in_polygon(&poly, &p) {
            assert!(poly.mbr().contains_point(&p));
        }
    });
}

#[test]
fn mbr_union_contains_operands() {
    cases(0x6E0E, N, |rng| {
        let m1 = Mbr::new(coord(rng), coord(rng), coord(rng), coord(rng));
        let m2 = Mbr::new(coord(rng), coord(rng), coord(rng), coord(rng));
        let u = m1.union(&m2);
        assert!(u.contains(&m1));
        assert!(u.contains(&m2));
    });
}

#[test]
fn mbr_intersection_contained_in_both() {
    cases(0x6E0F, N, |rng| {
        let m1 = Mbr::new(coord(rng), coord(rng), coord(rng), coord(rng));
        let m2 = Mbr::new(coord(rng), coord(rng), coord(rng), coord(rng));
        let i = m1.intersection(&m2);
        if !i.is_empty() {
            assert!(m1.contains(&i));
            assert!(m2.contains(&i));
            assert!(m1.intersects(&m2));
        } else {
            assert!(!m1.intersects(&m2));
        }
    });
}

#[test]
fn reference_point_unique_and_symmetric() {
    cases(0x6E10, N, |rng| {
        let m1 = Mbr::new(coord(rng), coord(rng), coord(rng), coord(rng));
        let m2 = Mbr::new(coord(rng), coord(rng), coord(rng), coord(rng));
        assert_eq!(m1.reference_point(&m2), m2.reference_point(&m1));
        if let Some(rp) = m1.reference_point(&m2) {
            assert!(m1.contains_point(&rp));
            assert!(m2.contains_point(&rp));
        }
    });
}
