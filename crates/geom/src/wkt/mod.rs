//! Well-Known Text (WKT) reader and writer.
//!
//! All three evaluated systems exchange geometry as WKT inside TSV lines:
//! HadoopGIS pipes WKT strings through Hadoop Streaming on *every* MR stage
//! (the paper identifies this repeated parsing as a major overhead), while
//! SpatialHadoop/SpatialSpark parse WKT once at load time. The parser here is
//! a hand-rolled recursive-descent tokenizer — no dependencies — supporting
//! `POINT`, `LINESTRING` and `POLYGON` (with holes), plus `EMPTY` detection.

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
    fn round_trip_polygon_with_hole() {
        let g = Geometry::Polygon(Polygon::with_holes(
            pts(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]),
            vec![pts(&[(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)])],
        ));
        let text = to_wkt(&g);
        assert!(text.starts_with("POLYGON (("));
        assert_eq!(parse_wkt(&text).unwrap(), g);
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
