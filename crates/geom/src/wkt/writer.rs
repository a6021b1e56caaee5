//! WKT serialization.

use std::fmt::Write as _;

use crate::point::Point;
use crate::Geometry;

/// Serializes a geometry to WKT. Coordinates print with Rust's shortest
/// round-trippable `f64` formatting, so `parse_wkt(to_wkt(g)) == g` exactly.
pub fn to_wkt(g: &Geometry) -> String {
    let mut out = String::with_capacity(g.wkt_size_estimate() as usize);
    write_wkt(&mut out, g);
    out
}

/// Appends the WKT of `g` to `out` — the same bytes [`to_wkt`] returns,
/// without a `String` per geometry. The text never contains a line break,
/// so a buffer of `\n`-terminated records splits back on `'\n'`.
pub fn write_wkt(out: &mut String, g: &Geometry) {
    match g {
        Geometry::Point(p) => {
            out.push_str("POINT (");
            write_coord(out, p);
            out.push(')');
        }
        Geometry::LineString(l) => {
            out.push_str("LINESTRING ");
            write_coord_list(out, l.points(), false);
        }
        Geometry::Polygon(poly) => {
            out.push_str("POLYGON (");
            write_coord_list(out, poly.shell(), true);
            out.push(')');
        }
    }
}

fn write_coord(out: &mut String, p: &Point) {
    // `{}` on f64 is the shortest representation that round-trips.
    let _ = write!(out, "{} {}", p.x, p.y);
}

/// Writes `(x y, x y, ...)`; when `close` is set, repeats the first vertex
/// at the end (WKT rings are explicitly closed).
fn write_coord_list(out: &mut String, pts: &[Point], close: bool) {
    out.push('(');
    for (i, p) in pts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_coord(out, p);
    }
    if close {
        if let Some(first) = pts.first() {
            out.push_str(", ");
            write_coord(out, first);
        }
    }
    out.push(')');
}
