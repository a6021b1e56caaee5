//! Struct-of-arrays MBR batch: the memory layout of the cache-conscious
//! join kernels.
//!
//! `&[IndexEntry]` stores one 40-byte record per rectangle, so a sweep that
//! only needs the x-interval of each candidate still drags the full record
//! through the cache. [`SoaBatch`] transposes a batch into five contiguous
//! column vectors (`xlo`/`xhi`/`ylo`/`yhi`/`id`), sorted by `xlo`, so the
//! forward plane-sweep's inner loop streams exactly the columns it touches
//! and the hardware prefetcher sees plain sequential reads (Tsitsigkos et
//! al., arXiv:1908.11740 §4 call this the "storage optimization"; it is
//! worth more than the algorithmic tweaks on modern cores).
//!
//! The sort is the same stable `total_cmp(min_x)` order `plane_sweep` uses,
//! so positions in a `SoaBatch` correspond 1:1 to positions in the sweep's
//! sorted entry array and the canonical-cost accounting of
//! [`super::stripe_sweep`] can binary-search these columns directly.

use crate::entry::IndexEntry;

/// A batch of MBRs in struct-of-arrays layout, sorted by `xlo` ascending
/// (stable in the input order on ties, exactly like the sweep's sort).
#[derive(Debug, Clone, Default)]
pub struct SoaBatch {
    /// `mbr.min_x` per rectangle, ascending.
    pub xlo: Vec<f64>,
    /// `mbr.max_x`, parallel to `xlo`.
    pub xhi: Vec<f64>,
    /// `mbr.min_y`, parallel to `xlo`.
    pub ylo: Vec<f64>,
    /// `mbr.max_y`, parallel to `xlo`.
    pub yhi: Vec<f64>,
    /// Caller-defined record id, parallel to `xlo`.
    pub id: Vec<u64>,
}

impl SoaBatch {
    /// Transposes `entries` into x-sorted columns.
    pub fn from_entries(entries: &[IndexEntry]) -> SoaBatch {
        let mut batch = SoaBatch::with_capacity(entries.len());
        // Entries already in `min_x` order (SpatialHadoop's blocks are
        // written that way) are the sort's identity permutation: one
        // comparison pass, then they are transposed as they stand.
        if entries.is_sorted_by(|a, b| a.mbr.min_x.total_cmp(&b.mbr.min_x).is_le()) {
            entries.iter().for_each(|e| batch.push(e));
            return batch;
        }
        // Sort a (key, position) permutation instead of the 40-byte records:
        // the comparator breaks key ties by original position, which is a
        // total order, so the unique sorted sequence equals what a stable
        // by-key sort of the records gives — at a third of the bytes moved.
        // The staging permutation is scratch-recycled: a local join builds
        // two batches per cell, so its capacity is reused cell after cell.
        let mut order: Vec<(f64, usize)> = sjc_par::scratch::take_vec();
        order.extend(entries.iter().enumerate().map(|(i, e)| (e.mbr.min_x, i)));
        sjc_par::par_sort_by(&mut order, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order.iter().filter_map(|&(_, i)| entries.get(i)).for_each(|e| batch.push(e));
        sjc_par::scratch::put_vec(order);
        batch
    }

    /// Appends one entry's row.
    fn push(&mut self, e: &IndexEntry) {
        self.xlo.push(e.mbr.min_x);
        self.xhi.push(e.mbr.max_x);
        self.ylo.push(e.mbr.min_y);
        self.yhi.push(e.mbr.max_y);
        self.id.push(e.id);
    }

    /// An empty batch with `n` rows of capacity in every column.
    pub fn with_capacity(n: usize) -> SoaBatch {
        SoaBatch {
            xlo: Vec::with_capacity(n),
            xhi: Vec::with_capacity(n),
            ylo: Vec::with_capacity(n),
            yhi: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
        }
    }

    /// Number of rectangles in the batch.
    pub fn len(&self) -> usize {
        self.xlo.len()
    }

    /// True when the batch holds no rectangles.
    pub fn is_empty(&self) -> bool {
        self.xlo.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_geom::Mbr;

    #[test]
    fn columns_are_sorted_and_parallel() {
        let entries = vec![
            IndexEntry::new(7, Mbr::new(3.0, 1.0, 4.0, 2.0)),
            IndexEntry::new(8, Mbr::new(1.0, 5.0, 9.0, 6.0)),
            IndexEntry::new(9, Mbr::new(2.0, 0.0, 2.5, 0.5)),
        ];
        let b = SoaBatch::from_entries(&entries);
        assert_eq!(b.len(), 3);
        assert_eq!(b.xlo, vec![1.0, 2.0, 3.0]);
        assert_eq!(b.id, vec![8, 9, 7]);
        assert_eq!(b.xhi, vec![9.0, 2.5, 4.0]);
        assert_eq!(b.ylo, vec![5.0, 0.0, 1.0]);
        assert_eq!(b.yhi, vec![6.0, 0.5, 2.0]);
    }

    #[test]
    fn ties_keep_input_order() {
        // Stable sort: equal xlo values keep their input order, matching
        // the entry array plane_sweep would build.
        let entries: Vec<IndexEntry> =
            (0..10).map(|i| IndexEntry::new(i, Mbr::new(1.0, i as f64, 2.0, i as f64))).collect();
        let b = SoaBatch::from_entries(&entries);
        assert_eq!(b.id, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn presorted_input_transposes_as_the_sort_would_order_it() {
        // Unsorted with ties takes the sorting path; the same rows already
        // in `min_x` order take the pass-through. Both give one batch.
        let entries: Vec<IndexEntry> = (0..40u64)
            .map(|i| IndexEntry::new(i, Mbr::new(((i * 7) % 5) as f64, i as f64, 9.0, 50.0)))
            .collect();
        let mut presorted = entries.clone();
        presorted.sort_by(|a, b| a.mbr.min_x.total_cmp(&b.mbr.min_x));
        let (a, b) = (SoaBatch::from_entries(&entries), SoaBatch::from_entries(&presorted));
        assert_eq!(
            (&a.xlo, &a.xhi, &a.ylo, &a.yhi, &a.id),
            (&b.xlo, &b.xhi, &b.ylo, &b.yhi, &b.id)
        );
        assert_eq!(a.id, presorted.iter().map(|e| e.id).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch() {
        let b = SoaBatch::from_entries(&[]);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
