//! Plane-sweep MBR join (Brinkhoff-style forward sweep).

use super::{CandidatePairs, JoinStats};
use crate::entry::IndexEntry;

/// Sorts both inputs by `min_x` and sweeps a vertical line left to right.
/// When the sweep reaches an entry, it scans forward in the *other* list
/// over every entry whose x-interval overlaps, testing y-intervals.
///
/// This is SpatialHadoop's default local join (§II.C): no index structure,
/// `O(n log n + k)`-ish behaviour on realistic data. It is the one sweep
/// kernel: `common::local_join` filters with it and SpatialHadoop's
/// getSplits takes its task order from it.
///
/// The sorts are stable, so equal `min_x` keep their input order, and the
/// left entry anchors first on a tie. The sweep ends when either list is
/// exhausted. `filter_tests` counts every scanned candidate.
pub fn plane_sweep(left: &[IndexEntry], right: &[IndexEntry]) -> CandidatePairs {
    if left.is_empty() || right.is_empty() {
        return CandidatePairs::default();
    }
    let mut l: Vec<IndexEntry> = left.to_vec();
    let mut r: Vec<IndexEntry> = right.to_vec();
    sjc_par::par_sort_by(&mut l, |a, b| a.mbr.min_x.total_cmp(&b.mbr.min_x));
    sjc_par::par_sort_by(&mut r, |a, b| a.mbr.min_x.total_cmp(&b.mbr.min_x));

    let mut pairs = Vec::new();
    let mut stats = JoinStats::default();
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(li), Some(rj)) = (l.get(i), r.get(j)) {
        let left_anchors = li.mbr.min_x <= rj.mbr.min_x;
        let (anchor, other, start) = if left_anchors { (li, &r, j) } else { (rj, &l, i) };
        for cand in other.get(start..).unwrap_or_default() {
            if cand.mbr.min_x > anchor.mbr.max_x {
                break;
            }
            stats.filter_tests += 1;
            if anchor.mbr.min_y <= cand.mbr.max_y && cand.mbr.min_y <= anchor.mbr.max_y {
                pairs.push(if left_anchors { (anchor.id, cand.id) } else { (cand.id, anchor.id) });
            }
        }
        if left_anchors {
            i += 1;
        } else {
            j += 1;
        }
    }
    CandidatePairs { pairs, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_geom::Mbr;

    #[test]
    fn anchors_from_both_sides_are_handled() {
        // Interleaved x-order so both branches of the sweep run.
        let left = vec![
            IndexEntry::new(0, Mbr::new(0.0, 0.0, 2.0, 2.0)),
            IndexEntry::new(1, Mbr::new(5.0, 0.0, 7.0, 2.0)),
        ];
        let right = vec![
            IndexEntry::new(10, Mbr::new(1.0, 1.0, 3.0, 3.0)),
            IndexEntry::new(11, Mbr::new(6.0, 1.0, 8.0, 3.0)),
            IndexEntry::new(12, Mbr::new(100.0, 100.0, 101.0, 101.0)),
        ];
        // Emission order: each pair when its anchor is swept; one test each.
        let got = plane_sweep(&left, &right);
        assert_eq!(got.pairs, vec![(0, 10), (1, 11)]);
        assert_eq!(got.stats.filter_tests, 2);
    }

    #[test]
    fn left_wins_a_min_x_tie_in_the_emission_order() {
        // L0 and R0 tie at x = 0. L0 anchors first and emits both of its
        // pairs before L1 is reached; were R0 to anchor first, it would
        // emit (1, 10) before (0, 11).
        let band = |x0: f64, x1: f64| Mbr::new(x0, 0.0, x1, 1.0);
        let left = vec![IndexEntry::new(0, band(0.0, 10.0)), IndexEntry::new(1, band(1.5, 2.0))];
        let right = vec![IndexEntry::new(10, band(0.0, 10.0)), IndexEntry::new(11, band(1.0, 2.0))];
        let got = plane_sweep(&left, &right);
        assert_eq!(got.pairs, vec![(0, 10), (0, 11), (1, 10), (1, 11)]);
        assert_eq!(got.stats.filter_tests, 4);
    }

    #[test]
    fn identical_min_x_values() {
        let left = vec![
            IndexEntry::new(0, Mbr::new(1.0, 0.0, 2.0, 1.0)),
            IndexEntry::new(1, Mbr::new(1.0, 5.0, 2.0, 6.0)),
        ];
        let right = vec![IndexEntry::new(10, Mbr::new(1.0, 0.5, 2.0, 5.5))];
        let mut got = plane_sweep(&left, &right).pairs;
        got.sort_unstable();
        assert_eq!(got, vec![(0, 10), (1, 10)]);
    }
}
