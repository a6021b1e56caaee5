//! Machinery shared by the three system implementations.

use sjc_geom::algorithms::ChunkEnvelopes;
use sjc_geom::{Geometry, GeometryEngine, LineString, Mbr, Point};
use sjc_index::entry::IndexEntry;
use sjc_index::join::{indexed_nested_loop, stripe_sweep, sync_rtree, CandidatePairs};
#[cfg(feature = "sanitize")]
use sjc_index::partition::dedup_owner_cell;
use sjc_index::partition::{bsp_cells, grid_cells, str_tile_cells, CellLocator, OwnerTest};

use crate::framework::{GeoRecord, JoinPredicate};

/// Which local (per-partition) join algorithm a system runs — the paper's
/// three filter algorithms (§II.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalJoinAlgo {
    /// Build an R-tree on one side, probe with the other (SpatialSpark).
    IndexedNestedLoop,
    /// Synchronized traversal of two R-trees (SpatialHadoop's alternative).
    SyncRTree,
    /// The plane sweep (SpatialHadoop's default in the paper), run as the
    /// striped SoA forward sweep `sjc_index::join::stripe_sweep`: the
    /// classic sweep's exact pair set and exact `JoinStats`
    /// (canonical-cost accounting), faster on the host.
    #[default]
    StripeSweep,
}

/// Cost ledger of one local join execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalJoinCost {
    /// Simulated ns spent in the MBR filter (index traversal + comparisons).
    pub filter_ns: u64,
    /// Simulated ns spent in exact-geometry refinement.
    pub refine_ns: u64,
    /// Candidate pairs produced by the filter.
    pub candidates: u64,
}

/// Runs the filter + refinement of one partition pair.
///
/// `left`/`right` are the partition's records; `keep` is the
/// de-duplication predicate deciding whether *this* partition reports a
/// given MBR pair (the reference-point rule is [`local_join_reported`];
/// pass `|_, _| true` when the caller guarantees no duplication), asked of
/// every candidate before its exact test. Returns `(left_id, right_id)` pairs using the records'
/// dataset-global ids.
pub fn local_join(
    engine: &GeometryEngine,
    predicate: JoinPredicate,
    algo: LocalJoinAlgo,
    left: &[&GeoRecord],
    right: &[&GeoRecord],
    keep: impl Fn(&Mbr, &Mbr) -> bool + Sync,
) -> (Vec<(u64, u64)>, LocalJoinCost) {
    let mut cost = LocalJoinCost::default();
    if left.is_empty() || right.is_empty() {
        return (Vec::new(), cost);
    }

    // Filter: local ids are positions into the slices.
    let l_entries: Vec<IndexEntry> =
        left.iter().enumerate().map(|(i, r)| IndexEntry::new(i as u64, r.mbr)).collect();
    let r_entries: Vec<IndexEntry> =
        right.iter().enumerate().map(|(i, r)| IndexEntry::new(i as u64, r.mbr)).collect();

    let CandidatePairs { pairs, stats } = match algo {
        LocalJoinAlgo::IndexedNestedLoop => indexed_nested_loop(&l_entries, &r_entries),
        LocalJoinAlgo::SyncRTree => sync_rtree(&l_entries, &r_entries),
        LocalJoinAlgo::StripeSweep => stripe_sweep(&l_entries, &r_entries),
    };
    cost.candidates = pairs.len() as u64;
    cost.filter_ns = stats.filter_tests * engine.filter_cost_ns()
        + stats.index_nodes_visited * engine.filter_cost_ns();

    // Built once, before refinement, and read by both paths below.
    let chunks = right_chunks(right, &pairs);

    // De-dup first: a candidate this partition does not report is still
    // charged its refinement — the modelled systems refine, then
    // de-duplicate — but its exact test is not run. Below a threshold each candidate is decided,
    // charged and collected in one pass; above it the candidate list is
    // decided in parallel — per-pair work is pure, `sjc_par::par_map`
    // preserves input order, and the summed costs are exact integer adds,
    // so results and simulated time stay bit-identical to the serial path.
    const PAR_THRESHOLD: usize = 4096;
    // (refine ns, kept pair)
    type Refined = (u64, Option<(u64, u64)>);
    let refine_one = |&(li, ri): &(u64, u64)| -> Refined {
        let l = left[li as usize]; // sjc-lint: allow(no-panic-in-lib) — filter emits indices into these exact slices
        let r = right[ri as usize]; // sjc-lint: allow(no-panic-in-lib) — filter emits indices into these exact slices
        if !keep(&l.mbr, &r.mbr) {
            return (predicate.refine_cost_ns(engine, l, r), None);
        }
        let (hit, ns) = predicate.evaluate_records(engine, l, r, chunks.get(ri as usize));
        (ns, hit.then_some((l.id, r.id)))
    };
    let mut out = Vec::new();
    let tally = |(ns, kept): Refined| {
        cost.refine_ns += ns;
        out.extend(kept);
    };
    if pairs.len() >= PAR_THRESHOLD {
        sjc_par::par_map(&pairs, refine_one).into_iter().for_each(tally);
    } else {
        pairs.iter().map(refine_one).for_each(tally);
    }
    (out, cost)
}

/// [`local_join`] under the reference-point rule: a candidate is reported
/// only if every cell of `owners` (one per grid the task's records were
/// partitioned by) owns the pair's reference point, the lower-left corner
/// of the two MBRs' intersection. The filter emits only pairs whose MBRs
/// intersect, so that corner is `(max min_x, max min_y)`, computed once
/// per candidate.
pub fn local_join_reported(
    engine: &GeometryEngine,
    predicate: JoinPredicate,
    algo: LocalJoinAlgo,
    left: &[&GeoRecord],
    right: &[&GeoRecord],
    owners: &[OwnerTest<'_>],
) -> (Vec<(u64, u64)>, LocalJoinCost) {
    local_join(engine, predicate, algo, left, right, |a, b| {
        #[cfg(feature = "sanitize")]
        debug_assert!(a.intersects(b), "sanitize: candidate MBRs {a:?} and {b:?} are disjoint");
        let rp = Point::new(a.min_x.max(b.min_x), a.min_y.max(b.min_y));
        owners.iter().all(|t| {
            let owns = t.owns(&rp);
            #[cfg(feature = "sanitize")]
            debug_assert_eq!(
                owns,
                dedup_owner_cell(t.locator(), t.cell(), a, b),
                "sanitize: cell {} reporting {a:?} x {b:?}",
                t.cell()
            );
            owns
        })
    })
}

/// Chunk envelopes of the right side's polylines that appear in a candidate
/// of `pairs`; none when the right side holds no polyline.
fn right_chunks(right: &[&GeoRecord], pairs: &[(u64, u64)]) -> ChunkEnvelopes {
    fn line(r: &GeoRecord) -> Option<&LineString> {
        match &r.geom {
            Geometry::LineString(l) => Some(l),
            _ => None,
        }
    }
    if !right.iter().any(|r| line(r).is_some()) {
        return ChunkEnvelopes::default();
    }
    let mut wanted = vec![false; right.len()];
    for &(_, ri) in pairs {
        if let Some(w) = wanted.get_mut(ri as usize) {
            *w = true;
        }
    }
    ChunkEnvelopes::build(right.iter().zip(wanted).map(|(r, w)| line(r).filter(|_| w)))
}

/// Reference quadratic join over whole inputs (tests / tiny data).
pub fn direct_join(
    engine: &GeometryEngine,
    predicate: JoinPredicate,
    left: &[GeoRecord],
    right: &[GeoRecord],
) -> Vec<(u64, u64)> {
    let l: Vec<&GeoRecord> = left.iter().collect();
    let r: Vec<&GeoRecord> = right.iter().collect();
    local_join(engine, predicate, LocalJoinAlgo::default(), &l, &r, |_, _| true).0
}

/// Which spatial partitioner family a system derives from its sample —
/// the SATO-style design choice the `ablation_partitioner` bench sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Sample-free uniform grid (SpatialHadoop's original GRID).
    FixedGrid,
    /// Sort-Tile-Recursive tiles from sample points.
    StrTiles,
    /// Recursive median splits from sample points.
    Bsp,
}

impl PartitionerKind {
    /// The family's cells over `domain` from `sample` centers, located.
    pub fn build(&self, domain: Mbr, sample: Vec<Point>, target_cells: usize) -> CellLocator {
        CellLocator::new(match self {
            PartitionerKind::FixedGrid => grid_cells(domain, target_cells),
            PartitionerKind::StrTiles => str_tile_cells(domain, sample, target_cells),
            PartitionerKind::Bsp => bsp_cells(domain, sample, target_cells),
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            PartitionerKind::FixedGrid => "fixed-grid",
            PartitionerKind::StrTiles => "STR tiles",
            PartitionerKind::Bsp => "BSP",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_geom::{Geometry, LineString, Point};

    fn rec(id: u64, x: f64, y: f64) -> GeoRecord {
        GeoRecord::new(id, Geometry::Point(Point::new(x, y)))
    }

    fn line(id: u64, pts: &[(f64, f64)]) -> GeoRecord {
        GeoRecord::new(
            id,
            Geometry::LineString(LineString::new(
                pts.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            )),
        )
    }

    #[test]
    fn all_algorithms_refine_identically() {
        let engine = GeometryEngine::jts();
        let left: Vec<GeoRecord> =
            (0..30).map(|i| line(i, &[(i as f64, 0.0), (i as f64 + 5.0, 5.0)])).collect();
        let right: Vec<GeoRecord> =
            (0..30).map(|i| line(i, &[(i as f64 + 5.0, 0.0), (i as f64, 5.0)])).collect();
        let l: Vec<&GeoRecord> = left.iter().collect();
        let r: Vec<&GeoRecord> = right.iter().collect();
        let mut results: Vec<Vec<(u64, u64)>> = [
            LocalJoinAlgo::IndexedNestedLoop,
            LocalJoinAlgo::SyncRTree,
            LocalJoinAlgo::StripeSweep,
        ]
        .iter()
        .map(|&algo| {
            let (mut pairs, _) =
                local_join(&engine, JoinPredicate::Intersects, algo, &l, &r, |_, _| true);
            pairs.sort_unstable();
            pairs
        })
        .collect();
        let first = results.remove(0);
        assert!(!first.is_empty());
        for other in results {
            assert_eq!(other, first);
        }
    }

    #[test]
    fn refinement_removes_mbr_false_positives() {
        let engine = GeometryEngine::jts();
        // Two diagonal lines whose MBRs overlap but geometries don't touch.
        let left = [line(0, &[(0.0, 0.0), (10.0, 10.0)])];
        let right = [line(0, &[(0.0, 9.0), (0.5, 10.0)])];
        let l: Vec<&GeoRecord> = left.iter().collect();
        let r: Vec<&GeoRecord> = right.iter().collect();
        let (pairs, cost) = local_join(
            &engine,
            JoinPredicate::Intersects,
            LocalJoinAlgo::StripeSweep,
            &l,
            &r,
            |_, _| true,
        );
        assert_eq!(cost.candidates, 1, "filter produces the false positive");
        assert!(pairs.is_empty(), "refinement removes it");
        assert!(cost.refine_ns > 0);
    }

    #[test]
    fn partitioner_kinds_build_total_partitioners() {
        use sjc_geom::{Mbr, Point};
        let domain = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let sample: Vec<Point> =
            (0..200).map(|i| Point::new((i * 37 % 101) as f64, (i * 53 % 97) as f64)).collect();
        for kind in [PartitionerKind::FixedGrid, PartitionerKind::StrTiles, PartitionerKind::Bsp] {
            let p = kind.build(domain, sample.clone(), 16);
            assert!(!p.cells().is_empty(), "{}", kind.name());
            // Total assignment: every probe gets at least one cell and a
            // valid owner.
            for i in 0..50 {
                let probe = Point::new((i * 7 % 100) as f64, (i * 11 % 100) as f64);
                assert!(!p.assign(&probe.mbr()).is_empty());
                let o = p.owner(&probe);
                assert!((o as usize) < p.cells().len());
            }
        }
        assert_eq!(PartitionerKind::FixedGrid.name(), "fixed-grid");
    }

    #[test]
    fn dedup_predicate_suppresses_pairs() {
        let engine = GeometryEngine::jts();
        let left = [rec(7, 1.0, 1.0)];
        let right = [line(9, &[(0.0, 0.0), (2.0, 2.0)])];
        let l: Vec<&GeoRecord> = left.iter().collect();
        let r: Vec<&GeoRecord> = right.iter().collect();
        let (kept, cost) = local_join(
            &engine,
            JoinPredicate::Intersects,
            LocalJoinAlgo::StripeSweep,
            &l,
            &r,
            |_, _| false,
        );
        assert!(kept.is_empty(), "the suppressed hit is not output");
        let (all, reported) = local_join(
            &engine,
            JoinPredicate::Intersects,
            LocalJoinAlgo::StripeSweep,
            &l,
            &r,
            |_, _| true,
        );
        assert_eq!(all, vec![(7, 9)]);
        assert_eq!(cost.refine_ns, reported.refine_ns, "the suppressed pair is still charged");
        assert!(cost.refine_ns > 0);
    }

    #[test]
    fn direct_join_uses_global_ids() {
        let engine = GeometryEngine::jts();
        let left = vec![rec(100, 1.0, 1.0), rec(200, 50.0, 50.0)];
        let right = vec![line(300, &[(0.0, 0.0), (2.0, 2.0)])];
        let pairs = direct_join(&engine, JoinPredicate::Intersects, &left, &right);
        assert_eq!(pairs, vec![(100, 300)]);
    }
}
