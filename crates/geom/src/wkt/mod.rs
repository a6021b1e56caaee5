//! Well-Known Text (WKT) reader and writer.
//!
//! All three evaluated systems exchange geometry as WKT inside TSV lines:
//! HadoopGIS pipes WKT strings through Hadoop Streaming on *every* MR stage
//! (the paper identifies this repeated parsing as a major overhead), while
//! SpatialHadoop/SpatialSpark parse WKT once at load time. The parser here is
//! a hand-rolled recursive-descent tokenizer — no dependencies — supporting
//! the three kinds the evaluated datasets hold: `POINT`, `LINESTRING` and
//! `POLYGON` with one ring. Any other tag (`MULTI*` included), a polygon
//! with an inner ring and `EMPTY` are errors.

mod parser;
mod writer;

pub use parser::{parse_wkt, WktError};
pub use writer::{to_wkt, write_wkt};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Geometry, LineString, Point, Polygon};

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn round_trip_point() {
        let g = Geometry::Point(Point::new(1.5, -2.25));
        let text = to_wkt(&g);
        assert_eq!(text, "POINT (1.5 -2.25)");
        assert_eq!(parse_wkt(&text).unwrap(), g);
    }

    #[test]
    fn round_trip_linestring() {
        let g = Geometry::LineString(LineString::new(pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)])));
        let text = to_wkt(&g);
        assert_eq!(text, "LINESTRING (0 0, 1 1, 2 0.5)");
        assert_eq!(parse_wkt(&text).unwrap(), g);
    }

    #[test]
    fn round_trip_polygon() {
        let g = Geometry::Polygon(Polygon::new(pts(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)])));
        let text = to_wkt(&g);
        assert_eq!(text, "POLYGON ((0 0, 4 0, 4 4, 0 0))");
        assert_eq!(parse_wkt(&text).unwrap(), g);
    }

    #[test]
    fn multi_kinds_are_rejected() {
        for text in [
            "MULTIPOINT ((1 2), (3 4))",
            "MULTIPOINT (1 2, 3 4)",
            "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))",
        ] {
            assert!(matches!(parse_wkt(text), Err(WktError::UnknownTag(_))), "{text}");
        }
    }

    #[test]
    fn polygon_with_an_inner_ring_is_rejected() {
        let donut = "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 1))";
        assert!(matches!(parse_wkt(donut), Err(WktError::Malformed(_))));
        assert!(parse_wkt("POLYGON ((0 0, 4 0, 4 4, 0 0),)").is_err());
    }

    #[test]
    fn parser_closes_polygon_rings() {
        // WKT polygons are written closed; our internal representation is
        // unclosed — parsing must normalize.
        let g = parse_wkt("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))").unwrap();
        match g {
            Geometry::Polygon(p) => assert_eq!(p.shell().len(), 4),
            other => panic!("expected polygon, got {}", other.kind()),
        }
    }

    #[test]
    fn whitespace_and_case_tolerance() {
        assert!(parse_wkt("  point( 3   4 ) ").is_ok());
        assert!(parse_wkt("LineString(0 0,1 1)").is_ok());
    }

    #[test]
    fn scientific_notation_coordinates() {
        let g = parse_wkt("POINT (1e3 -2.5e-2)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(1000.0, -0.025)));
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(parse_wkt(""), Err(WktError::UnexpectedEnd)));
        assert!(parse_wkt("CIRCLE (0 0, 1)").is_err());
        assert!(parse_wkt("POINT (1)").is_err());
        assert!(parse_wkt("POINT (a b)").is_err());
        assert!(parse_wkt("LINESTRING (0 0)").is_err(), "single-vertex linestring");
        assert!(parse_wkt("POLYGON ((0 0, 1 1))").is_err(), "two-vertex ring");
        assert!(parse_wkt("POINT (1 2").is_err(), "unbalanced paren");
        assert!(parse_wkt("POINT (1 2) trailing").is_err(), "trailing garbage");
    }

    #[test]
    fn empty_geometries_rejected() {
        assert!(parse_wkt("POINT EMPTY").is_err());
        assert!(parse_wkt("POLYGON EMPTY").is_err());
    }
}
