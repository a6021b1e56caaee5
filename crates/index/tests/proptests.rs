//! Property-based tests for indexes, partitioners and local joins (seeded
//! `sjc-testkit` cases).

use sjc_geom::{Mbr, Point};
use sjc_index::entry::IndexEntry;
use sjc_index::join::{brute_force, indexed_nested_loop, plane_sweep, sync_rtree};
use sjc_index::partition::{
    dedup_owner_cell, BspPartitioner, FixedGridPartitioner, SpatialPartitioner, StrTilePartitioner,
};
use sjc_index::RTree;
use sjc_testkit::{cases, TestRng};

const N: usize = 128;

fn mbr(rng: &mut TestRng, extent: f64, max_side: f64) -> Mbr {
    let x = rng.f64_in(0.0..extent);
    let y = rng.f64_in(0.0..extent);
    let w = rng.f64_in(0.0..max_side);
    let h = rng.f64_in(0.0..max_side);
    Mbr::new(x, y, x + w, y + h)
}

fn entries(rng: &mut TestRng, n: std::ops::Range<usize>) -> Vec<IndexEntry> {
    let len = rng.usize_in(n);
    (0..len).map(|i| IndexEntry::new(i as u64, mbr(rng, 100.0, 10.0))).collect()
}

fn points(rng: &mut TestRng, n: std::ops::Range<usize>) -> Vec<Point> {
    let len = rng.usize_in(n);
    (0..len).map(|_| Point::new(rng.f64_in(0.0..100.0), rng.f64_in(0.0..100.0))).collect()
}

#[test]
fn rtree_query_equals_linear_scan() {
    cases(0x1D01, N, |rng| {
        let es = entries(rng, 0..200);
        let q = mbr(rng, 120.0, 30.0);
        let tree = RTree::bulk_load_str(es.clone());
        tree.check_invariants().unwrap();
        let mut got = tree.query(&q);
        got.sort_unstable();
        let mut expected: Vec<u64> =
            es.iter().filter(|e| e.mbr.intersects(&q)).map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

/// `visits` is the count of `query_counting`'s walk, for random, point,
/// inverted and extent-covering windows over STR trees of up to 2 000
/// entries (a leaf root, and three levels and more).
#[test]
fn rtree_visits_equal_query_counting() {
    cases(0x1D07, N, |rng| {
        let es = entries(rng, 0..2001);
        let tree = RTree::bulk_load_str(es);
        let p = Point::new(rng.f64_in(-10.0..120.0), rng.f64_in(-10.0..120.0));
        let (x, y) = (rng.f64_in(0.0..100.0), rng.f64_in(0.0..100.0));
        let windows = [
            mbr(rng, 120.0, 30.0),
            p.mbr(),
            Mbr { min_x: x + rng.f64_in(0.1..20.0), min_y: y, max_x: x, max_y: y + 5.0 },
            Mbr { min_x: x, min_y: y + rng.f64_in(0.1..20.0), max_x: x + 5.0, max_y: y },
            Mbr::new(-1.0, -1.0, 200.0, 200.0),
        ];
        let mut hits = Vec::new();
        for w in &windows {
            let walked = tree.query_counting(w, &mut hits);
            assert_eq!(tree.visits(w), walked, "{w:?} over {} entries", tree.len());
        }
        let all = Mbr::new(-1.0, -1.0, 200.0, 200.0);
        assert_eq!(tree.visits(&all), tree.num_nodes());
    });
}

#[test]
fn join_algorithms_produce_identical_pairs() {
    cases(0x1D03, N, |rng| {
        let l = entries(rng, 0..80);
        let r = entries(rng, 0..80);
        let expected = brute_force(&l, &r).sorted_pairs();
        assert_eq!(indexed_nested_loop(&l, &r).sorted_pairs(), expected.clone());
        assert_eq!(plane_sweep(&l, &r).sorted_pairs(), expected.clone());
        assert_eq!(sync_rtree(&l, &r).sorted_pairs(), expected);
    });
}

#[test]
fn partitioners_assign_every_mbr() {
    cases(0x1D04, N, |rng| {
        let sample = points(rng, 0..200);
        let m = mbr(rng, 100.0, 20.0);
        let extent = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let parts: Vec<Box<dyn SpatialPartitioner>> = vec![
            Box::new(FixedGridPartitioner::new(extent, 4, 4)),
            Box::new(StrTilePartitioner::from_sample(extent, sample.clone(), 9)),
            Box::new(BspPartitioner::from_sample(extent, sample, 9)),
        ];
        for p in &parts {
            let cells = p.assign(&m);
            assert!(!cells.is_empty(), "assignment must be total");
            for &c in &cells {
                assert!((c as usize) < p.cells().len());
            }
        }
    });
}

#[test]
fn owner_is_deterministic_and_contained() {
    // An 11 × 11 grid whose stored x-edges `min_x + c * w` are rounded away
    // from where `floor((x - min_x) / w)` cuts: probed at every edge and one
    // ulp below every edge but the first.
    let grid = FixedGridPartitioner::new(Mbr::new(-27.173, 0.0, 55.685, 11.0), 11, 11);
    let mut edges: Vec<f64> = grid.cells().iter().flat_map(|c| [c.min_x, c.max_x]).collect();
    edges.sort_by(f64::total_cmp);
    edges.dedup();
    let mut near_edges: Vec<f64> = edges.iter().skip(1).map(|x| x.next_down()).collect();
    near_edges.extend(&edges);
    cases(0x1D05, N, |rng| {
        let sample = points(rng, 1..200);
        let p = Point::new(rng.f64_in(0.0..100.0), rng.f64_in(0.0..100.0));
        let extent = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let parts: Vec<Box<dyn SpatialPartitioner>> = vec![
            Box::new(FixedGridPartitioner::new(extent, 5, 5)),
            Box::new(StrTilePartitioner::from_sample(extent, sample.clone(), 8)),
            Box::new(BspPartitioner::from_sample(extent, sample, 8)),
        ];
        let y = rng.f64_in(0.0..11.0);
        let on_edges: Vec<Point> = near_edges.iter().map(|&x| Point::new(x, y)).collect();
        let inputs = parts.iter().map(|part| (part.as_ref(), vec![p]));
        for (part, probes) in inputs.chain([(&grid as &dyn SpatialPartitioner, on_edges)]) {
            for q in probes {
                let o1 = part.owner(&q);
                let o2 = part.owner(&q);
                assert_eq!(o1, o2);
                // Points inside the extent are owned by a containing cell.
                assert!(part.cells()[o1 as usize].contains_point(&q), "owner {o1} of {q:?}");
            }
        }
    });
}

#[test]
fn partitioned_join_with_dedup_equals_direct_join() {
    cases(0x1D06, N, |rng| {
        let l = entries(rng, 0..60);
        let r = entries(rng, 0..60);
        let sample = points(rng, 0..100);
        // End-to-end exactly-once property: multi-assign both sides to
        // cells, join within each cell with dedup, compare with the direct
        // join of the full inputs.
        let extent = Mbr::new(0.0, 0.0, 110.0, 110.0);
        let partitioner = StrTilePartitioner::from_sample(extent, sample, 6);

        let mut by_cell_l: Vec<Vec<IndexEntry>> = vec![Vec::new(); partitioner.cells().len()];
        let mut by_cell_r: Vec<Vec<IndexEntry>> = vec![Vec::new(); partitioner.cells().len()];
        for e in &l {
            for c in partitioner.assign(&e.mbr) {
                by_cell_l[c as usize].push(*e);
            }
        }
        for e in &r {
            for c in partitioner.assign(&e.mbr) {
                by_cell_r[c as usize].push(*e);
            }
        }

        let mut result: Vec<(u64, u64)> = Vec::new();
        for cell in 0..partitioner.cells().len() {
            let local = plane_sweep(&by_cell_l[cell], &by_cell_r[cell]);
            for (a, b) in local.pairs {
                let am = l[a as usize].mbr;
                let bm = r[b as usize].mbr;
                if dedup_owner_cell(&partitioner, cell as u32, &am, &bm) {
                    result.push((a, b));
                }
            }
        }
        result.sort_unstable();

        let expected = brute_force(&l, &r).sorted_pairs();
        assert_eq!(result, expected);
    });
}
