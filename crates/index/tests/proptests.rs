//! Property-based tests for indexes, partitioners and local joins (seeded
//! `sjc-testkit` cases).

use sjc_geom::{Mbr, Point};
use sjc_index::entry::IndexEntry;
use sjc_index::join::{brute_force, indexed_nested_loop, plane_sweep, sync_rtree};
use sjc_index::partition::{bsp_cells, dedup_owner_cell, grid_cells, str_tile_cells, CellLocator};
use sjc_index::rtree::Node;
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
        let mut got = Vec::new();
        tree.query_into(&q, &mut got);
        got.sort_unstable();
        let mut expected: Vec<u64> =
            es.iter().filter(|e| e.mbr.intersects(&q)).map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

/// The MBRs of `tree`'s inner nodes, read by walking it.
fn inner_mbrs(tree: &RTree) -> Vec<Mbr> {
    let (mut out, mut stack) = (Vec::new(), vec![tree.root_id()]);
    while let Some(id) = stack.pop() {
        if let Node::Inner { mbr, children } = tree.node_ref(id) {
            out.push(*mbr);
            stack.extend(children.iter().copied());
        }
    }
    out
}

/// `v` and the floats one ulp either side of it.
fn ulps(v: f64) -> [f64; 3] {
    [v.next_down(), v, v.next_up()]
}

/// The inner nodes' flat sum (`InnerNodes::visits`) is the count of
/// `query_counting`'s walk, over STR trees whose root is a leaf, one inner
/// node, or three levels and more (500 to 2 000 entries), for random,
/// empty, inverted and domain-covering windows, and for points on every
/// inner node's edges and one ulp either side of them.
#[test]
fn inner_node_sum_equals_query_counting() {
    let (mut leaf_roots, mut one_inner, mut deep, mut on_edges) = (0, 0, 0, 0);
    cases(0x1D07, N, |rng| {
        let sizes = [1..17, 17..200, 500..2001];
        let size = sizes[rng.usize_in(0..3)].clone();
        let es = entries(rng, size);
        let tree = RTree::bulk_load_str(es);
        let inner = tree.inner_nodes();
        let mbrs = inner_mbrs(&tree);
        match mbrs.len() {
            0 => leaf_roots += 1,
            1 => one_inner += 1,
            _ if tree.len() >= 500 => deep += 1,
            _ => {}
        }
        let (x, y) = (rng.f64_in(0.0..100.0), rng.f64_in(0.0..100.0));
        let mut windows = vec![
            mbr(rng, 120.0, 30.0),
            Point::new(rng.f64_in(-10.0..120.0), rng.f64_in(-10.0..120.0)).mbr(),
            Mbr::empty(),
            Mbr { min_x: x + rng.f64_in(0.1..20.0), min_y: y, max_x: x, max_y: y + 5.0 },
            Mbr { min_x: x, min_y: y + rng.f64_in(0.1..20.0), max_x: x + 5.0, max_y: y },
            Mbr::new(-1.0, -1.0, 200.0, 200.0),
        ];
        for m in &mbrs {
            let mid = m.center();
            for px in [m.min_x, m.max_x].into_iter().flat_map(ulps) {
                windows.extend(
                    [m.min_y, mid.y, m.max_y]
                        .into_iter()
                        .flat_map(ulps)
                        .map(|py| Point::new(px, py).mbr()),
                );
            }
            for py in [m.min_y, m.max_y].into_iter().flat_map(ulps) {
                windows.push(Point::new(mid.x, py).mbr());
            }
        }
        on_edges += windows.len() - 6;
        let mut hits = Vec::new();
        for w in &windows {
            let walked = tree.query_counting(w, &mut hits);
            assert_eq!(inner.visits(w), walked, "{w:?} over {} entries", tree.len());
        }
        let all = Mbr::new(-1.0, -1.0, 200.0, 200.0);
        assert_eq!(inner.visits(&all), tree.num_nodes());
        assert_eq!(inner.visits(&Mbr::empty()), 0);
    });
    assert!(leaf_roots > 0 && one_inner > 0 && deep > 0, "{leaf_roots} / {one_inner} / {deep}");
    assert!(on_edges > 10_000, "edge probes: {on_edges}");
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
        let parts = [
            grid_cells(extent, 16),
            str_tile_cells(extent, sample.clone(), 9),
            bsp_cells(extent, sample, 9),
        ]
        .map(CellLocator::new);
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
    let grid = CellLocator::new(grid_cells(Mbr::new(-27.173, 0.0, 55.685, 11.0), 121));
    let mut edges: Vec<f64> = grid.cells().iter().flat_map(|c| [c.min_x, c.max_x]).collect();
    edges.sort_by(f64::total_cmp);
    edges.dedup();
    let mut near_edges: Vec<f64> = edges.iter().skip(1).map(|x| x.next_down()).collect();
    near_edges.extend(&edges);
    cases(0x1D05, N, |rng| {
        let sample = points(rng, 1..200);
        let p = Point::new(rng.f64_in(0.0..100.0), rng.f64_in(0.0..100.0));
        let extent = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let parts = [
            grid_cells(extent, 25),
            str_tile_cells(extent, sample.clone(), 8),
            bsp_cells(extent, sample, 8),
        ]
        .map(CellLocator::new);
        let y = rng.f64_in(0.0..11.0);
        let on_edges: Vec<Point> = near_edges.iter().map(|&x| Point::new(x, y)).collect();
        let inputs = parts.iter().map(|part| (part, vec![p]));
        for (part, probes) in inputs.chain([(&grid, on_edges)]) {
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
        let partitioner = CellLocator::new(str_tile_cells(extent, sample, 6));

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
