//! Dataset file I/O: TSV+WKT files on the real filesystem.
//!
//! The evaluated systems ingest tab-separated text with WKT geometry; these
//! helpers materialize synthetic datasets in that exact format (so external
//! tools can consume them) and load them back. Loading validates every line
//! — a malformed record aborts with its line number, as HDFS ingestion
//! tools do.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use sjc_geom::Geometry;

use crate::tsv::{parse_tsv_line, to_tsv_text, TsvError};

/// Errors from dataset file operations.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    /// Parse failure with its 1-based line number.
    Parse {
        line: usize,
        source: TsvError,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes geometries as `id \t WKT` lines. Returns the byte count written.
pub fn write_tsv(path: &Path, geoms: &[Geometry]) -> Result<u64, IoError> {
    let text = to_tsv_text(geoms.iter().enumerate().map(|(i, g)| (i as u64, g)));
    File::create(path)?.write_all(text.as_bytes())?;
    Ok(text.len() as u64)
}

/// Reads a TSV+WKT file back into `(id, geometry)` records.
pub fn read_tsv(path: &Path) -> Result<Vec<(u64, Geometry)>, IoError> {
    let reader = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let rec = parse_tsv_line(&line).map_err(|source| IoError::Parse { line: i + 1, source })?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetId, ScaledDataset};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sjc_io_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_a_generated_dataset() {
        let ds = ScaledDataset::generate(DatasetId::Linearwater01, 1e-3, 5);
        let path = tmp("roundtrip.tsv");
        let bytes = write_tsv(&path, &ds.geoms).unwrap();
        assert!(bytes > 0);
        let back = read_tsv(&path).unwrap();
        assert_eq!(back.len(), ds.len());
        for (i, (id, g)) in back.iter().enumerate() {
            assert_eq!(*id, i as u64);
            assert_eq!(g, &ds.geoms[i]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn written_bytes_match_file_size() {
        let ds = ScaledDataset::generate(DatasetId::Nycb, 1e-2, 5);
        let path = tmp("size.tsv");
        let bytes = write_tsv(&path, &ds.geoms).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_line_reports_its_number() {
        let path = tmp("bad.tsv");
        std::fs::write(&path, "0\tPOINT (1 2)\nnot a record\n").unwrap();
        match read_tsv(&path) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(read_tsv(Path::new("/definitely/not/here.tsv")), Err(IoError::Io(_))));
    }
}
