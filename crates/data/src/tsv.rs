//! TSV + WKT text serialization.
//!
//! All three systems ingest tab-separated text whose last field is WKT.
//! HadoopGIS's streaming pipes carry these lines between stages; what they
//! pay for is the text's volume, which the cost model's parse/serialize
//! constants meter. Its stages never parse a line back into a geometry,
//! and never read its bytes at all: a streaming line is a handle naming its
//! record and the byte length of its text.
//! [`parse_tsv_line`] is the reader the round-trip and garbage tests hold
//! [`to_tsv_text`] to.
//!
//! One writer, `write_tsv_line`, formats every line. [`to_tsv_text`]
//! joins its lines into the file HDFS would hold; [`tsv_line_lens`] keeps
//! only each line's length, which is all HadoopGIS's jobs charge, so the
//! lengths are those of the file's lines by construction. The lengths
//! belong to the stored dataset, not to one query: they are built once per
//! record set and shared by every holder of it.

use std::fmt::Write as _;

use sjc_geom::wkt::{parse_wkt, write_wkt, WktError};
use sjc_geom::Geometry;

use crate::records::{GeoRecord, Records};

/// Appends one record's `id \t WKT` line, without its newline, to `text`.
fn write_tsv_line(text: &mut String, id: u64, g: &Geometry) {
    // Writing into a `String` cannot fail.
    let _ = write!(text, "{id}\t");
    write_wkt(text, g);
}

/// Serializes `(id, geometry)` records into one buffer of `id \t WKT \n`
/// lines.
// sjc-lint: allow(dead-pub) — the file `tsv_line_lens` is held to in `round_trip`, `lens_are_the_texts_line_lengths` and `sjc_core`'s line-length tests
pub fn to_tsv_text<'a, I>(records: I) -> String
where
    I: IntoIterator<Item = (u64, &'a Geometry)>,
{
    let mut text = String::new();
    for (id, g) in records {
        write_tsv_line(&mut text, id, g);
        text.push('\n');
    }
    text
}

/// The byte length of each record's `id \t WKT` line in the file
/// [`to_tsv_text`] writes for `records`, without its newline, at the
/// record's index: the lines of the input file HadoopGIS reads off HDFS, of
/// which its streaming jobs charge only the lengths. The WKT sizes of the
/// synthetic geometry track the paper's Table-1 bytes/record closely, so
/// pipe and parse charges computed from these real line lengths are
/// faithful. Built on the first call for a record set, then shared by every
/// later call on any clone of it, so `records` are formatted once per set
/// however many inputs and runs read them.
pub fn tsv_line_lens(records: &Records) -> &[u32] {
    records.tsv_lens().get_or_init(|| memo_line_lens(records))
}

/// The value behind [`tsv_line_lens`]'s memo: a pure function of the
/// records (its name puts it under the `cache-purity` pass). Each line is
/// formatted into one reused buffer and only its length is kept. A line
/// needs fewer than 4 GiB of WKT for its length to fit a `u32`; a debug
/// build asserts it.
fn memo_line_lens(records: &[GeoRecord]) -> Vec<u32> {
    let mut line = String::new();
    records
        .iter()
        .map(|r| {
            line.clear();
            write_tsv_line(&mut line, r.id, &r.geom);
            let len = u32::try_from(line.len());
            debug_assert!(
                len.is_ok(),
                "a TSV line of {} bytes overflows its u32 length",
                line.len()
            );
            len.unwrap_or(u32::MAX)
        })
        .collect()
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

    #[test]
    fn lens_are_the_texts_line_lengths() {
        for id in [crate::DatasetId::Taxi, crate::DatasetId::Edges01, crate::DatasetId::Nycb] {
            let ds = crate::ScaledDataset::generate(id, 1e-4, 3);
            let text = to_tsv_text(ds.records.iter().map(|r| (r.id, &r.geom)));
            let want: Vec<u32> = text.split_terminator('\n').map(|l| l.len() as u32).collect();
            assert_eq!(tsv_line_lens(&ds.records), want, "{id:?}");
        }
        let records = Records::from(vec![
            GeoRecord::new(0, Geometry::Point(Point::new(1.0, 2.0))),
            GeoRecord::new(10, Geometry::Point(Point::new(3.5, 4.0))),
        ]);
        let lens = tsv_line_lens(&records);
        assert_eq!(lens, ["0\tPOINT (1 2)".len() as u32, "10\tPOINT (3.5 4)".len() as u32]);
    }

    #[test]
    fn lens_are_built_once_per_record_set() {
        let ds = crate::ScaledDataset::generate(crate::DatasetId::Taxi, 2e-5, 3);
        let holder = ds.records.clone();
        assert_eq!(holder.tsv_lines(), None, "nothing is formatted before the first call");
        let first = tsv_line_lens(&holder).as_ptr();
        assert_eq!(ds.records.tsv_lines(), Some(ds.len()), "the dataset's own handle sees it");
        assert_eq!(tsv_line_lens(&ds.records).as_ptr(), first);
        let copy = Records::from(ds.records.to_vec());
        assert_eq!(copy.tsv_lines(), None, "a fresh set over copied records starts empty");
        assert_ne!(tsv_line_lens(&copy).as_ptr(), first);
        assert_eq!(tsv_line_lens(&copy), tsv_line_lens(&holder));
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
            let text = to_tsv_text(ds.records.iter().take(4).map(|r| (r.id, &r.geom)));
            for line in text.split_terminator('\n') {
                assert!(parse_tsv_line(line).is_ok(), "{line:?}");
                (0..=line.len()).for_each(|k| parses_or_errors_cleanly(&line[..k]));
            }
        }
    }
}
