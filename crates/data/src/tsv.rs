//! TSV + WKT text serialization.
//!
//! All three systems ingest tab-separated text whose last field is WKT.
//! HadoopGIS's streaming pipes carry these lines between stages; what they
//! pay for is the text's volume, which the cost model's parse/serialize
//! constants meter. Its stages never parse a line back into a geometry:
//! they split off the leading id and look the record up.
//! [`parse_tsv_line`] is the reader the round-trip and garbage tests hold
//! [`to_tsv_text`] to.
//!
//! A dataset's text is one buffer, written once: the file HDFS would hold.
//! A line is a `split_terminator('\n')` slice of it, and HadoopGIS's
//! streaming jobs pass the slices around, so the volume a stage pipes is the
//! buffer's `len()`.

use std::fmt::Write as _;

use sjc_geom::wkt::{parse_wkt, write_wkt, WktError};
use sjc_geom::Geometry;

/// Serializes `(id, geometry)` records into one buffer of `id \t WKT \n`
/// lines.
pub fn to_tsv_text<'a, I>(records: I) -> String
where
    I: IntoIterator<Item = (u64, &'a Geometry)>,
{
    let mut text = String::new();
    for (id, g) in records {
        // Writing into a `String` cannot fail.
        let _ = write!(text, "{id}\t");
        write_wkt(&mut text, g);
        text.push('\n');
    }
    text
}

/// Parse error for a TSV record line.
#[derive(Debug, Clone, PartialEq)]
pub enum TsvError {
    MissingField(&'static str),
    BadId(String),
    BadWkt(WktError),
}

impl std::fmt::Display for TsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsvError::MissingField(name) => write!(f, "missing TSV field: {name}"),
            TsvError::BadId(s) => write!(f, "invalid record id: {s:?}"),
            TsvError::BadWkt(e) => write!(f, "invalid WKT: {e}"),
        }
    }
}

impl std::error::Error for TsvError {}

/// Parses an `id \t WKT` line back into a record.
// sjc-lint: allow(dead-pub) — `round_trip` and `tsv_parser_never_panics_on_garbage_or_truncated_lines` read `to_tsv_text`'s lines back through it
pub fn parse_tsv_line(line: &str) -> Result<(u64, Geometry), TsvError> {
    let mut fields = line.splitn(2, '\t');
    let id_str = fields.next().ok_or(TsvError::MissingField("id"))?;
    let wkt = fields.next().ok_or(TsvError::MissingField("wkt"))?;
    let id = id_str.trim().parse::<u64>().map_err(|_| TsvError::BadId(id_str.to_string()))?;
    let geom = parse_wkt(wkt).map_err(TsvError::BadWkt)?;
    Ok((id, geom))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_geom::{LineString, Point};

    #[test]
    fn round_trip() {
        let geoms = [
            Geometry::Point(Point::new(1.0, 2.0)),
            Geometry::LineString(LineString::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)])),
        ];
        let text = to_tsv_text(geoms.iter().enumerate().map(|(i, g)| (i as u64, g)));
        assert_eq!(text.split_terminator('\n').count(), 2);
        for (i, line) in text.split_terminator('\n').enumerate() {
            let (id, g) = parse_tsv_line(line).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&g, &geoms[i]);
        }
    }

    #[test]
    fn error_cases() {
        assert!(matches!(parse_tsv_line(""), Err(TsvError::MissingField(_))));
        assert!(matches!(parse_tsv_line("abc\tPOINT (1 2)"), Err(TsvError::BadId(_))));
        assert!(matches!(parse_tsv_line("1\tnot wkt"), Err(TsvError::BadWkt(_))));
        assert!(matches!(parse_tsv_line("17"), Err(TsvError::MissingField("wkt"))));
    }

    #[test]
    fn byte_accounting_includes_newlines() {
        let geoms = [Geometry::Point(Point::new(1.0, 2.0)), Geometry::Point(Point::new(3.5, 4.0))];
        let text = to_tsv_text(geoms.iter().enumerate().map(|(i, g)| (i as u64, g)));
        assert_eq!(text, "0\tPOINT (1 2)\n1\tPOINT (3.5 4)\n");
        let piped: usize = text.split_terminator('\n').map(|l| l.len() + 1).sum();
        assert_eq!(piped, text.len(), "every line's newline is in the buffer");
    }

    /// `parse_tsv_line` either errors or returns a record whose own line
    /// parses back to it.
    fn parses_or_errors_cleanly(line: &str) {
        if let Ok((id, g)) = parse_tsv_line(line) {
            let re = to_tsv_text([(id, &g)]);
            let back = parse_tsv_line(re.trim_end_matches('\n')).expect("writer output parses");
            assert_eq!(back, (id, g), "{line:?}");
        }
    }

    #[test]
    fn tsv_parser_never_panics_on_garbage_or_truncated_lines() {
        const ALPHABET: &[u8] = b"\t0123456789 (),.-+eEPOINTLSRGYMUXABC";
        sjc_testkit::cases(0x75F1, 512, |rng| {
            let len = rng.usize_in(0..81);
            let line: String =
                (0..len).map(|_| ALPHABET[rng.usize_in(0..ALPHABET.len())] as char).collect();
            parses_or_errors_cleanly(&line);
        });
        // Every prefix of real lines: a point, a polyline and a polygon
        // dataset's first few records.
        for id in [crate::DatasetId::Taxi, crate::DatasetId::Edges01, crate::DatasetId::Nycb] {
            let ds = crate::ScaledDataset::generate(id, 1e-4, 3);
            let text = to_tsv_text(ds.geoms.iter().take(4).enumerate().map(|(i, g)| (i as u64, g)));
            for line in text.split_terminator('\n') {
                assert!(parse_tsv_line(line).is_ok(), "{line:?}");
                (0..=line.len()).for_each(|k| parses_or_errors_cleanly(&line[..k]));
            }
        }
    }
}
