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
//! On top of the paper's algorithms, [`stripe_sweep`] is the repo's own
//! cache-conscious kernel: a struct-of-arrays ([`SoaBatch`]) forward sweep
//! over skew-aware y-stripes with reference-point de-duplication. It
//! returns the sweep's exact pair set *and* the sweep's exact [`JoinStats`]
//! (canonical-cost accounting), so it serves as the default host kernel
//! without moving simulated time.
//!
//! All kernels return identical pair sets; tests cross-validate them
//! against [`brute_force`]. Each also reports [`JoinStats`] so the cluster
//! simulator can charge index traversal and comparison costs.

mod indexed_nested_loop;
mod plane_sweep;
mod soa;
mod stripe_sweep;
mod sync_rtree;

pub use indexed_nested_loop::indexed_nested_loop;
pub use plane_sweep::plane_sweep;
pub use soa::SoaBatch;
pub use stripe_sweep::stripe_sweep;
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
    pub fn sorted_pairs(mut self) -> Vec<(u64, u64)> {
        self.pairs.sort_unstable();
        self.pairs
    }
}

/// Quadratic reference implementation: the oracle the kernel tests compare
/// against.
// sjc-lint: allow(dead-pub) — the oracle of `all_algorithms_agree_with_brute_force`, the stripe-sweep tests and the index proptests
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
            assert_eq!(stripe_sweep(&left, &right).sorted_pairs(), expected, "stripe seed {seed}");
        }
    }

    #[test]
    fn empty_inputs_yield_empty_results() {
        let some = random_entries(3, 10, 10.0, 2.0);
        for (l, r) in [(&some[..], &[][..]), (&[][..], &some[..]), (&[][..], &[][..])] {
            assert!(indexed_nested_loop(l, r).pairs.is_empty());
            assert!(plane_sweep(l, r).pairs.is_empty());
            assert!(sync_rtree(l, r).pairs.is_empty());
            assert!(stripe_sweep(l, r).pairs.is_empty());
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
}
