//! Local (per-partition) spatial join algorithms — the *filter* step.
//!
//! Inside one partition pair every system runs a serial MBR join to produce
//! candidate pairs, followed by geometric refinement. The paper names three
//! filter algorithms, all implemented here over `(id, mbr)` entries:
//!
//! * [`indexed_nested_loop`] — build an R-tree on one side, probe with the
//!   other (SpatialSpark's choice, natural in a functional language);
//! * [`plane_sweep`] — sort both sides by `min_x` and sweep
//!   (SpatialHadoop's default);
//! * [`sync_rtree`] — synchronized traversal of two R-trees
//!   (SpatialHadoop's alternative) .
//!
//! All kernels return identical pair sets; tests cross-validate them
//! against [`brute_force`]. Each also reports [`JoinStats`] so the cluster
//! simulator can charge index traversal and comparison costs.

mod indexed_nested_loop;
mod plane_sweep;
mod sync_rtree;

pub use indexed_nested_loop::indexed_nested_loop;
pub use plane_sweep::plane_sweep;
/// The sweep's former name, kept only because the `benchmark/` package
/// still imports it; it goes with the partitioner names of
/// `partition::shim`. The library calls [`plane_sweep`].
pub use plane_sweep::plane_sweep as stripe_sweep;
pub use sync_rtree::sync_rtree;

use crate::entry::IndexEntry;

/// Work counters for cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// MBR–MBR comparisons performed.
    pub filter_tests: u64,
    /// Index nodes visited (0 for plane sweep).
    pub index_nodes_visited: u64,
}

/// Result of a local MBR join: candidate `(left_id, right_id)` pairs plus
/// work counters.
#[derive(Debug, Clone, Default)]
pub struct CandidatePairs {
    pub pairs: Vec<(u64, u64)>,
    pub stats: JoinStats,
}

impl CandidatePairs {
    /// Pairs sorted for set comparison in tests.
    // sjc-lint: allow(dead-pub) — the kernel-against-brute-force comparisons of crates/index/tests/proptests.rs
    pub fn sorted_pairs(mut self) -> Vec<(u64, u64)> {
        self.pairs.sort_unstable();
        self.pairs
    }
}

/// Quadratic reference implementation: the oracle the kernel tests compare
/// against.
// sjc-lint: allow(dead-pub) — the oracle of `all_algorithms_agree_with_brute_force`, the plane-sweep input-class tests and the index proptests
pub fn brute_force(left: &[IndexEntry], right: &[IndexEntry]) -> CandidatePairs {
    let mut pairs = Vec::new();
    for a in left {
        for b in right {
            if a.mbr.intersects(&b.mbr) {
                pairs.push((a.id, b.id));
            }
        }
    }
    CandidatePairs {
        pairs,
        stats: JoinStats {
            filter_tests: (left.len() * right.len()) as u64,
            index_nodes_visited: 0,
        },
    }
}

#[cfg(test)]
pub(crate) mod testgen {
    use super::*;
    use sjc_geom::Mbr;

    /// Deterministic pseudo-random rectangles (LCG — no rand dependency in
    /// the hot path of unit tests).
    pub fn random_entries(seed: u64, n: usize, extent: f64, max_side: f64) -> Vec<IndexEntry> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|i| {
                let x = next() * extent;
                let y = next() * extent;
                let w = next() * max_side;
                let h = next() * max_side;
                IndexEntry::new(i as u64, Mbr::new(x, y, x + w, y + h))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testgen::random_entries;
    use super::*;
    use sjc_geom::Mbr;
    use sjc_testkit::{cases, TestRng};

    #[test]
    fn all_algorithms_agree_with_brute_force() {
        for seed in [1, 7, 42] {
            let left = random_entries(seed, 120, 100.0, 8.0);
            let right = random_entries(seed + 1000, 90, 100.0, 8.0);
            let expected = brute_force(&left, &right).sorted_pairs();
            assert_eq!(
                indexed_nested_loop(&left, &right).sorted_pairs(),
                expected,
                "INL seed {seed}"
            );
            assert_eq!(plane_sweep(&left, &right).sorted_pairs(), expected, "sweep seed {seed}");
            assert_eq!(sync_rtree(&left, &right).sorted_pairs(), expected, "sync seed {seed}");
        }
    }

    #[test]
    fn empty_inputs_yield_empty_results() {
        let some = random_entries(3, 10, 10.0, 2.0);
        for (l, r) in [(&some[..], &[][..]), (&[][..], &some[..]), (&[][..], &[][..])] {
            assert!(indexed_nested_loop(l, r).pairs.is_empty());
            assert!(plane_sweep(l, r).pairs.is_empty());
            assert!(sync_rtree(l, r).pairs.is_empty());
        }
    }

    #[test]
    fn stats_are_populated() {
        let left = random_entries(5, 60, 50.0, 5.0);
        let right = random_entries(6, 60, 50.0, 5.0);
        let inl = indexed_nested_loop(&left, &right);
        assert!(inl.stats.index_nodes_visited > 0);
        let sweep = plane_sweep(&left, &right);
        assert!(sweep.stats.filter_tests > 0);
        assert_eq!(sweep.stats.index_nodes_visited, 0);
    }

    #[test]
    fn plane_sweep_beats_brute_force_on_sparse_data() {
        // Sparse small rectangles: sweep should do far fewer comparisons.
        let left = random_entries(11, 500, 10_000.0, 1.0);
        let right = random_entries(12, 500, 10_000.0, 1.0);
        let bf = brute_force(&left, &right);
        let sweep = plane_sweep(&left, &right);
        assert_eq!(sweep.clone().sorted_pairs(), bf.clone().sorted_pairs());
        assert!(
            sweep.stats.filter_tests * 10 < bf.stats.filter_tests,
            "sweep {} vs brute {}",
            sweep.stats.filter_tests,
            bf.stats.filter_tests
        );
    }

    /// Mixed shapes: mostly small rectangles, some zero-width or
    /// zero-height, some as wide or as tall as the whole extent.
    fn mixed_entries(rng: &mut TestRng, n: usize, extent: f64) -> Vec<IndexEntry> {
        (0..n)
            .map(|id| {
                let x = rng.f64_in(0.0..extent);
                let y = rng.f64_in(0.0..extent);
                let w = match rng.u64_in(0..10) {
                    0 | 1 => 0.0,
                    2 => rng.f64_in(0.0..extent),
                    _ => rng.f64_in(0.0..extent / 20.0),
                };
                let h = match rng.u64_in(0..10) {
                    0 | 1 => 0.0,
                    2 | 3 => rng.f64_in(0.0..extent),
                    _ => rng.f64_in(0.0..extent / 20.0),
                };
                IndexEntry::new(id as u64, Mbr::new(x, y, x + w, y + h))
            })
            .collect()
    }

    #[test]
    fn plane_sweep_agrees_with_brute_force_on_degenerate_and_tall_rectangles() {
        // Zero-width and zero-height rectangles touch only at their edges;
        // tall and wide ones overlap most of the other side. Snapping some
        // rectangles to integer bounds makes `min_x` ties across the two
        // lists and edges that touch exactly, in x and in y, and an
        // occasional empty MBR (inverted bounds) must join nothing.
        cases(0x57122, 40, |rng| {
            let nl = rng.usize_in(0..400);
            let nr = rng.usize_in(0..400);
            let mut left = mixed_entries(rng, nl, 100.0);
            let mut right = mixed_entries(rng, nr, 100.0);
            for e in left.iter_mut().chain(right.iter_mut()) {
                if rng.bool_with(0.3) {
                    let m = e.mbr;
                    e.mbr = Mbr::new(
                        m.min_x.round(),
                        m.min_y.round(),
                        m.max_x.round(),
                        m.max_y.round(),
                    );
                }
            }
            if rng.bool_with(0.2) {
                left.push(IndexEntry::new(9999, Mbr::empty()));
            }
            if rng.bool_with(0.2) {
                right.push(IndexEntry::new(9998, Mbr::empty()));
            }
            let expected = brute_force(&left, &right).sorted_pairs();
            let got = plane_sweep(&left, &right);
            assert!(got.stats.filter_tests >= got.pairs.len() as u64);
            assert_eq!(got.sorted_pairs(), expected);
        });
    }

    #[test]
    fn plane_sweep_reports_each_pair_of_an_identical_rectangle_tie_storm_once() {
        // Every rectangle identical: every `min_x` ties, every pair overlaps.
        // Left anchors win the ties, so each left entry scans the whole
        // right list and no right entry anchors.
        let rect = Mbr::new(2.0, 1.0, 3.0, 9.0);
        let left: Vec<IndexEntry> = (0..20).map(|i| IndexEntry::new(i, rect)).collect();
        let right: Vec<IndexEntry> = (100..115).map(|i| IndexEntry::new(i, rect)).collect();
        let got = plane_sweep(&left, &right);
        assert_eq!(got.stats.filter_tests, 20 * 15);
        let pairs = got.sorted_pairs();
        assert_eq!(pairs, brute_force(&left, &right).sorted_pairs());
        assert_eq!(pairs.len(), 20 * 15);
    }

    #[test]
    fn plane_sweep_joins_nothing_with_empty_mbrs() {
        let some = random_entries(3, 40, 10.0, 2.0);
        let empties: Vec<IndexEntry> = (0..5).map(|i| IndexEntry::new(i, Mbr::empty())).collect();
        for (l, r) in [(&empties[..], &some[..]), (&some[..], &empties[..])] {
            let got = plane_sweep(l, r);
            assert!(got.pairs.is_empty());
            assert!(brute_force(l, r).pairs.is_empty());
        }
    }
}
