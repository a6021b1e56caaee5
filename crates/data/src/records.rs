//! A dataset's records, held once and shared.
//!
//! A generated dataset is immutable, so every join input made from it can
//! read the same records: [`Records`] is a reference-counted handle whose
//! clones share one copy of them. It also owns what is derived from the
//! records alone and read by more than one run, the byte length of each
//! record's TSV line ([`tsv_line_lens`](crate::tsv::tsv_line_lens)), so that
//! is computed once per record set, not once per input.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use sjc_geom::{Geometry, Mbr};

/// One spatial record: a dataset-local id, the geometry, and its
/// precomputed MBR. `mbr` must contain the geometry's tight envelope — the
/// filter and the hinted exact test both rely on it.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoRecord {
    pub id: u64,
    pub geom: Geometry,
    pub mbr: Mbr,
}

impl GeoRecord {
    pub fn new(id: u64, geom: Geometry) -> Self {
        let mbr = geom.mbr();
        GeoRecord { id, geom, mbr }
    }
}

/// An immutable, shared record set. It derefs to `[GeoRecord]` and iterates
/// by reference; a clone is a handle to the same records and the same
/// line-length memo. The records are a shared slice, so a record is one
/// pointer hop from the handle, as from a `Vec`.
#[derive(Clone)]
pub struct Records {
    recs: Arc<[GeoRecord]>,
    tsv_lens: Arc<OnceLock<Vec<u32>>>,
}

impl Records {
    /// The memo behind [`tsv_line_lens`](crate::tsv::tsv_line_lens).
    pub(crate) fn tsv_lens(&self) -> &OnceLock<Vec<u32>> {
        &self.tsv_lens
    }

    /// How many TSV line lengths the memo holds: `None` until the first
    /// [`tsv_line_lens`](crate::tsv::tsv_line_lens) call on any holder.
    pub fn tsv_lines(&self) -> Option<usize> {
        self.tsv_lens.get().map(Vec::len)
    }
}

/// A fresh set over `records`, with its own, empty memo.
impl From<Vec<GeoRecord>> for Records {
    fn from(records: Vec<GeoRecord>) -> Self {
        Records { recs: records.into(), tsv_lens: Arc::default() }
    }
}

/// A fresh set, with its own, empty memo, allocated once when the iterator
/// knows its length exactly (as `generate`'s does).
impl FromIterator<GeoRecord> for Records {
    fn from_iter<I: IntoIterator<Item = GeoRecord>>(records: I) -> Self {
        Records { recs: records.into_iter().collect(), tsv_lens: Arc::default() }
    }
}

impl Deref for Records {
    type Target = [GeoRecord];

    #[inline]
    fn deref(&self) -> &[GeoRecord] {
        &self.recs
    }
}

impl<'a> IntoIterator for &'a Records {
    type Item = &'a GeoRecord;
    type IntoIter = std::slice::Iter<'a, GeoRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Equal when the records are; the memo is derived from them.
impl PartialEq for Records {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Prints the records, as a `Vec` would.
impl fmt::Debug for Records {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_geom::Point;

    fn points(n: u64) -> Records {
        let recs = (0..n).map(|i| GeoRecord::new(i, Geometry::Point(Point::new(i as f64, 1.0))));
        Records::from(recs.collect::<Vec<_>>())
    }

    #[test]
    fn clones_share_the_records_and_fresh_sets_do_not() {
        let a = points(3);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        let c = points(3);
        assert_ne!(a.as_ptr(), c.as_ptr());
        assert_eq!(a, c, "equal records, equal sets");
        assert_eq!((&a).into_iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(a[2].mbr, Mbr::new(2.0, 1.0, 2.0, 1.0));
        assert_eq!(format!("{a:?}"), format!("{:?}", a.to_vec()));
    }
}
