//! Tests for multi-part geometries (MULTIPOINT / MULTILINESTRING /
//! MULTIPOLYGON): decomposition semantics, WKT round trips, and
//! interoperability with the simple kinds.

#![cfg(test)]

use crate::wkt::{parse_wkt, to_wkt};
use crate::{Geometry, LineString, Point, Polygon};

fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
    coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

fn square(x0: f64, y0: f64, side: f64) -> Polygon {
    Polygon::new(pts(&[(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]))
}

fn multi_polygon() -> Geometry {
    Geometry::MultiPolygon(vec![square(0.0, 0.0, 2.0), square(10.0, 10.0, 2.0)])
}

fn multi_line() -> Geometry {
    Geometry::MultiLineString(vec![
        LineString::new(pts(&[(0.0, 0.0), (2.0, 2.0)])),
        LineString::new(pts(&[(10.0, 0.0), (12.0, 2.0)])),
    ])
}

#[test]
fn mbr_unions_the_parts() {
    let m = multi_polygon().mbr();
    assert_eq!((m.min_x, m.min_y, m.max_x, m.max_y), (0.0, 0.0, 12.0, 12.0));
}

#[test]
fn intersects_when_any_part_hits() {
    let mp = multi_polygon();
    assert!(mp.intersects(&Geometry::Point(Point::new(1.0, 1.0))), "first part");
    assert!(mp.intersects(&Geometry::Point(Point::new(11.0, 11.0))), "second part");
    assert!(!mp.intersects(&Geometry::Point(Point::new(5.0, 5.0))), "the gap between parts");
}

#[test]
fn intersects_is_symmetric_with_simple_kinds() {
    let mp = multi_polygon();
    let ml = multi_line();
    let simple = [
        Geometry::Point(Point::new(1.0, 1.0)),
        Geometry::LineString(LineString::new(pts(&[(1.0, -1.0), (1.0, 3.0)]))),
        Geometry::Polygon(square(1.0, 1.0, 3.0)),
    ];
    for g in &simple {
        assert_eq!(mp.intersects(g), g.intersects(&mp), "{} vs MultiPolygon", g.kind());
        assert_eq!(ml.intersects(g), g.intersects(&ml), "{} vs MultiLineString", g.kind());
    }
}

/// Parts are visited by reference; the verdict is still the OR over parts of
/// the simple-kind verdict, in both argument orders and through the hinted
/// entry (which ignores its hints for multi kinds).
#[test]
fn multi_verdicts_equal_the_or_over_borrowed_parts() {
    let lines = vec![
        LineString::new(pts(&[(0.0, 0.0), (2.0, 2.0)])),
        LineString::new(pts(&[(10.0, 0.0), (12.0, 2.0)])),
    ];
    let line_probes = [
        (LineString::new(pts(&[(0.0, 2.0), (2.0, 0.0)])), true), // crosses the first part
        (LineString::new(pts(&[(10.0, 2.0), (12.0, 0.0)])), true), // crosses the last part
        (LineString::new(pts(&[(4.0, 0.0), (8.0, 2.0)])), false), // between the parts
    ];
    let ml = Geometry::MultiLineString(lines.clone());
    for (probe, expected) in line_probes {
        let g = Geometry::LineString(probe.clone());
        let by_parts = lines.iter().any(|l| Geometry::LineString(l.clone()).intersects(&g));
        assert_eq!(by_parts, expected);
        assert_eq!(ml.intersects(&g), expected);
        assert_eq!(g.intersects(&ml), expected);
        assert_eq!(ml.intersects_hinted(&ml.mbr(), &g, &[g.mbr()]), expected);
    }

    let squares = vec![square(0.0, 0.0, 2.0), square(10.0, 10.0, 2.0)];
    let mp = Geometry::MultiPolygon(squares.clone());
    for (p, expected) in [
        (Point::new(1.0, 1.0), true),
        (Point::new(12.0, 12.0), true), // a corner of the last part
        (Point::new(5.0, 5.0), false),
    ] {
        let g = Geometry::Point(p);
        let by_parts = squares.iter().any(|s| Geometry::Polygon(s.clone()).intersects(&g));
        assert_eq!(by_parts, expected);
        assert_eq!(mp.intersects(&g), expected);
        assert_eq!(g.intersects(&mp), expected);
        assert_eq!(g.intersects_hinted(&g.mbr(), &mp, &[mp.mbr()]), expected);
    }
}

#[test]
fn multi_vs_multi() {
    let mp = multi_polygon();
    let ml = multi_line();
    assert!(mp.intersects(&ml), "first line crosses first square");
    let far = Geometry::MultiPoint(pts(&[(50.0, 50.0), (60.0, 60.0)]));
    assert!(!mp.intersects(&far));
    assert!(far.intersects(&Geometry::Point(Point::new(50.0, 50.0))));
}

#[test]
fn contains_point_in_any_polygon_part() {
    let mp = multi_polygon();
    assert!(mp.contains(&Geometry::Point(Point::new(11.0, 11.0))));
    assert!(!mp.contains(&Geometry::Point(Point::new(5.0, 5.0))));
}

#[test]
fn vertex_counts_sum_over_parts() {
    assert_eq!(multi_polygon().num_vertices(), 8);
    assert_eq!(multi_line().num_vertices(), 4);
    assert_eq!(Geometry::MultiPoint(pts(&[(0.0, 0.0), (1.0, 1.0)])).num_vertices(), 2);
}

#[test]
fn wkt_round_trips() {
    for g in [multi_polygon(), multi_line(), Geometry::MultiPoint(pts(&[(1.5, -2.0), (3.0, 4.25)]))]
    {
        let text = to_wkt(&g);
        let parsed = parse_wkt(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(parsed, g, "round trip failed for {text}");
    }
}

#[test]
fn wkt_exact_forms() {
    let mp = Geometry::MultiPoint(pts(&[(1.0, 2.0), (3.0, 4.0)]));
    assert_eq!(to_wkt(&mp), "MULTIPOINT ((1 2), (3 4))");
    // Legacy bare-coordinate member syntax also parses.
    assert_eq!(parse_wkt("MULTIPOINT (1 2, 3 4)").unwrap(), mp);

    let ml = multi_line();
    assert_eq!(to_wkt(&ml), "MULTILINESTRING ((0 0, 2 2), (10 0, 12 2))");
    let mpoly = Geometry::MultiPolygon(vec![square(0.0, 0.0, 1.0)]);
    assert_eq!(to_wkt(&mpoly), "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)))");
}

#[test]
fn wkt_multipolygon_with_holes() {
    let donut = Polygon::with_holes(
        pts(&[(0.0, 0.0), (6.0, 0.0), (6.0, 6.0), (0.0, 6.0)]),
        vec![pts(&[(2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0)])],
    );
    let g = Geometry::MultiPolygon(vec![donut, square(10.0, 10.0, 1.0)]);
    let text = to_wkt(&g);
    assert_eq!(parse_wkt(&text).unwrap(), g);
}

#[test]
fn malformed_multis_are_rejected() {
    assert!(parse_wkt("MULTIPOINT ()").is_err());
    assert!(parse_wkt("MULTILINESTRING ((0 0))").is_err(), "1-vertex member");
    assert!(parse_wkt("MULTIPOLYGON (((0 0, 1 1)))").is_err(), "2-vertex ring");
    assert!(parse_wkt("MULTIPOINT (1 2").is_err(), "unbalanced");
}

#[test]
fn translation_moves_all_parts() {
    let g = multi_polygon().translate(100.0, 0.0);
    let m = g.mbr();
    assert_eq!((m.min_x, m.max_x), (100.0, 112.0));
}

#[test]
fn kind_names() {
    assert_eq!(multi_polygon().kind(), "MultiPolygon");
    assert_eq!(multi_line().kind(), "MultiLineString");
    assert_eq!(Geometry::MultiPoint(pts(&[(0.0, 0.0)])).kind(), "MultiPoint");
}

#[test]
fn exact_hit_implies_mbr_hit_for_multis() {
    let ml = multi_line();
    let probe = Geometry::LineString(LineString::new(pts(&[(11.0, 0.0), (11.0, 2.0)])));
    assert!(ml.intersects(&probe));
    assert!(ml.mbr().intersects(&probe.mbr()));
}
