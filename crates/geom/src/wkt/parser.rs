//! Recursive-descent WKT parser.

use std::fmt;

use crate::{Geometry, LineString, Point, Polygon};

/// Errors produced while parsing WKT text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WktError {
    /// Input ended before the geometry was complete.
    UnexpectedEnd,
    /// An unknown geometry tag (only POINT/LINESTRING/POLYGON are supported).
    UnknownTag(String),
    /// A coordinate failed to parse as `f64`.
    BadNumber(String),
    /// Structural problem (missing parenthesis, wrong arity, trailing text).
    Malformed(String),
    /// `EMPTY` geometries carry no coordinates and are rejected: the
    /// evaluated datasets never contain them and every downstream algorithm
    /// requires an MBR.
    Empty,
}

impl fmt::Display for WktError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WktError::UnexpectedEnd => write!(f, "unexpected end of WKT input"),
            WktError::UnknownTag(t) => write!(f, "unknown WKT geometry tag: {t:?}"),
            WktError::BadNumber(s) => write!(f, "invalid coordinate literal: {s:?}"),
            WktError::Malformed(m) => write!(f, "malformed WKT: {m}"),
            WktError::Empty => write!(f, "EMPTY geometries are not supported"),
        }
    }
}

impl std::error::Error for WktError {}

struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Cursor { rest: s }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn eof(&mut self) -> bool {
        self.skip_ws();
        self.rest.is_empty()
    }

    /// Consumes an ASCII identifier (geometry tag or EMPTY keyword).
    fn ident(&mut self) -> Result<String, WktError> {
        self.skip_ws();
        let end = self.rest.find(|c: char| !c.is_ascii_alphabetic()).unwrap_or(self.rest.len());
        if end == 0 {
            return Err(if self.rest.is_empty() {
                WktError::UnexpectedEnd
            } else {
                WktError::Malformed(format!("expected identifier at {:?}", head(self.rest)))
            });
        }
        let (tok, rest) = self.rest.split_at(end);
        self.rest = rest;
        Ok(tok.to_ascii_uppercase())
    }

    fn expect_char(&mut self, c: char) -> Result<(), WktError> {
        self.skip_ws();
        let mut chars = self.rest.chars();
        match chars.next() {
            Some(found) if found == c => {
                self.rest = chars.as_str();
                Ok(())
            }
            Some(_) => Err(WktError::Malformed(format!("expected {c:?} at {:?}", head(self.rest)))),
            None => Err(WktError::UnexpectedEnd),
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest.chars().next()
    }

    fn number(&mut self) -> Result<f64, WktError> {
        self.skip_ws();
        let end = self
            .rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
            .unwrap_or(self.rest.len());
        if end == 0 {
            return Err(if self.rest.is_empty() {
                WktError::UnexpectedEnd
            } else {
                WktError::BadNumber(head(self.rest).to_string())
            });
        }
        let (tok, rest) = self.rest.split_at(end);
        self.rest = rest;
        tok.parse::<f64>().map_err(|_| WktError::BadNumber(tok.to_string()))
    }

    /// `x y` coordinate pair.
    fn coord(&mut self) -> Result<Point, WktError> {
        let x = self.number()?;
        let y = self.number()?;
        Ok(Point::new(x, y))
    }

    /// `( x y, x y, ... )`
    fn coord_list(&mut self) -> Result<Vec<Point>, WktError> {
        self.expect_char('(')?;
        let mut out = vec![self.coord()?];
        while self.peek() == Some(',') {
            self.expect_char(',')?;
            out.push(self.coord()?);
        }
        self.expect_char(')')?;
        Ok(out)
    }
}

fn head(s: &str) -> &str {
    s.get(..s.len().min(16)).unwrap_or(s)
}

/// Parses one WKT geometry from `input`. Trailing non-whitespace is an error.
pub fn parse_wkt(input: &str) -> Result<Geometry, WktError> {
    let mut cur = Cursor::new(input);
    let tag = cur.ident()?;
    cur.skip_ws();
    if cur.rest.to_ascii_uppercase().starts_with("EMPTY") {
        return Err(WktError::Empty);
    }
    let geom = match tag.as_str() {
        "POINT" => {
            cur.expect_char('(')?;
            let p = cur.coord()?;
            cur.expect_char(')')?;
            Geometry::Point(p)
        }
        "LINESTRING" => {
            let pts = cur.coord_list()?;
            let ls = LineString::try_new(pts)
                .ok_or_else(|| WktError::Malformed("LINESTRING needs >= 2 vertices".into()))?;
            Geometry::LineString(ls)
        }
        "POLYGON" => {
            cur.expect_char('(')?;
            let shell = cur.coord_list()?;
            if cur.peek() == Some(',') {
                return Err(WktError::Malformed("POLYGON holes are not supported".into()));
            }
            cur.expect_char(')')?;
            let poly = Polygon::try_new(shell)
                .ok_or_else(|| WktError::Malformed("POLYGON ring needs >= 3 vertices".into()))?;
            Geometry::Polygon(poly)
        }
        other => return Err(WktError::UnknownTag(other.to_string())),
    };
    if !cur.eof() {
        return Err(WktError::Malformed(format!("trailing input: {:?}", head(cur.rest))));
    }
    Ok(geom)
}
