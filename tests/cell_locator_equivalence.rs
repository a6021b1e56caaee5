//! `CellLocator` — the one point/rectangle location structure, over the
//! cells of `grid_cells`, `str_tile_cells`, `bsp_cells` and SpatialHadoop's
//! adopted cell lists — must answer `owner`, `owns`, `assign`,
//! `assign_into` and `assign_each` exactly as the linear scans it
//! replaced, ties and fallbacks included. The reference-point rule every
//! engine runs, `local_join_reported` over one `OwnerTest` per grid, is
//! held to the linear owner on pairs whose reference point lies on and
//! beside every cell edge.
//!
//! The linear scans are kept here verbatim (the `ref_*` functions, as they
//! stood before the locator existed), so this file stays a fixed reference
//! whatever the library does. The engines' tagging,
//! `sjc_core::framework::CellIndex::tag`, is held to the same reference,
//! and the R-tree nodes it charges to the count a walk of the STR R-tree
//! over the cells visits (`RTree::query_counting`). The partitioner names
//! the `benchmark/` package calls are held to `CellLocator::new` over their
//! choosers' cells, and `PartitionerKind::build` to its family's chooser.

use sjc_core::common::{local_join_reported, LocalJoinAlgo, PartitionerKind};
use sjc_core::framework::{CellIndex, GeoRecord, JoinPredicate};
use sjc_geom::{Geometry, GeometryEngine, Mbr, Point, Polygon};
use sjc_index::entry::IndexEntry;
use sjc_index::partition::{
    bsp_cells, grid_cells, str_tile_cells, BspPartitioner, CellId, CellLocator,
    FixedGridPartitioner, OwnerTest, SpatialPartitioner, StrTilePartitioner,
};
use sjc_index::rtree::MAX_ENTRIES;
use sjc_index::RTree;
use sjc_testkit::{cases, TestRng};

fn ref_assign(cells: &[Mbr], mbr: &Mbr) -> Vec<CellId> {
    let mut out: Vec<CellId> = cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.intersects(mbr))
        .map(|(i, _)| i as CellId)
        .collect();
    if out.is_empty() {
        out.push(ref_nearest_cell(cells, &mbr.center()));
    }
    out
}

fn ref_owner(cells: &[Mbr], p: &Point) -> CellId {
    cells
        .iter()
        .position(|c| c.contains_point(p))
        .map(|i| i as CellId)
        .unwrap_or_else(|| ref_nearest_cell(cells, p))
}

fn ref_nearest_cell(cells: &[Mbr], p: &Point) -> CellId {
    let pm = p.mbr();
    let mut best = (f64::INFINITY, 0u32);
    for (i, c) in cells.iter().enumerate() {
        let d = c.min_distance(&pm);
        if d < best.0 {
            best = (d, i as CellId);
        }
    }
    best.1
}

const EXTENT: Mbr = Mbr { min_x: -20.0, min_y: 5.0, max_x: 80.0, max_y: 65.0 };

/// An extent over which an 11 × 11 grid's stored x-edges `min_x + c * w`
/// are not where `floor((x - min_x) / w)` cuts.
const ROUNDED: Mbr = Mbr { min_x: -27.173, min_y: 0.0, max_x: 55.685, max_y: 11.0 };

fn point_in(rng: &mut TestRng, m: &Mbr) -> Point {
    Point::new(rng.f64_in(m.min_x..m.max_x), rng.f64_in(m.min_y..m.max_y))
}

/// Skewed, duplicate-heavy or tiny — the shapes that make STR emit
/// zero-height tiles and fall back to `subdivide`, and BSP stop early.
fn sample(rng: &mut TestRng) -> Vec<Point> {
    match rng.usize_in(0..4) {
        0 => (0..rng.usize_in(0..6)).map(|_| point_in(rng, &EXTENT)).collect(),
        1 => {
            // Nine in ten points inside one percent of the extent.
            let dense = Mbr::new(0.0, 10.0, 10.0, 16.0);
            (0..rng.usize_in(200..1500))
                .map(|_| {
                    let within = if rng.bool_with(0.9) { &dense } else { &EXTENT };
                    point_in(rng, within)
                })
                .collect()
        }
        2 => {
            // A handful of distinct integer coordinates, each many times.
            (0..rng.usize_in(50..800))
                .map(|_| Point::new(rng.u64_in(0..5) as f64 * 10.0, rng.u64_in(1..4) as f64 * 10.0))
                .collect()
        }
        _ => (0..rng.usize_in(100..2000)).map(|_| point_in(rng, &EXTENT)).collect(),
    }
}

/// An adopted list with none of a tiling's guarantees: overlaps, gaps,
/// zero-area members, one empty member, ids in no spatial order.
fn arbitrary_cells(rng: &mut TestRng) -> Vec<Mbr> {
    let mut cells: Vec<Mbr> = (0..rng.usize_in(1..40))
        .map(|_| {
            let p = point_in(rng, &EXTENT);
            // Snapped sizes, so edges coincide across cells now and then.
            let (w, h) = (rng.u64_in(0..4) as f64 * 7.5, rng.u64_in(0..4) as f64 * 5.0);
            Mbr::new(p.x.round(), p.y.round(), p.x.round() + w, p.y.round() + h)
        })
        .collect();
    cells.insert(rng.usize_in(0..cells.len() + 1), Mbr::empty());
    cells
}

#[derive(Default)]
struct Seen {
    ties_of_two: usize,
    ties_of_four: usize,
    owner_fallbacks: usize,
    assign_fallbacks: usize,
    multi_cell_assigns: usize,
    zero_extent_cells: usize,
    subdivided: usize,
}

fn check_point(p: &CellLocator, pt: Point, seen: &mut Seen) {
    let cells = p.cells();
    let owner = ref_owner(cells, &pt);
    assert_eq!(p.owner(&pt), owner, "owner of {pt:?} over {} cells", cells.len());
    // `owns` for the owner, every cell containing the point, both ends of
    // the id range and one id past it — not every id, which would make
    // this the slowest test of the suite.
    let last = cells.len().saturating_sub(1) as CellId;
    let mut ids = vec![owner, 0, last, last + 1];
    let containing = cells.iter().enumerate().filter(|(_, c)| c.contains_point(&pt));
    ids.extend(containing.map(|(i, _)| i as CellId));
    let ties = ids.len() - 4;
    ids.sort_unstable();
    ids.dedup();
    for id in ids {
        assert_eq!(p.owns(id, &pt), id == owner, "owns({id}, {pt:?}) over {} cells", cells.len());
    }
    match ties {
        0 => seen.owner_fallbacks += 1,
        1 => {}
        2 | 3 => seen.ties_of_two += 1,
        _ => seen.ties_of_four += 1,
    }
    check_rect(p, pt.mbr(), seen);
}

fn check_rect(p: &CellLocator, m: Mbr, seen: &mut Seen) {
    let cells = p.cells();
    let expected = ref_assign(cells, &m);
    assert_eq!(p.assign(&m), expected, "assign of {m:?} over {} cells", cells.len());
    // The buffer arrives dirty and must leave holding only the answer.
    let mut buf = vec![CellId::MAX; 3];
    p.assign_into(&m, &mut buf);
    assert_eq!(buf, expected, "assign_into of {m:?} over {} cells", cells.len());
    buf.clear();
    p.assign_each(&m, |c| buf.push(c));
    assert_eq!(buf, expected, "assign_each of {m:?} over {} cells", cells.len());
    if !cells.iter().any(|c| c.intersects(&m)) {
        seen.assign_fallbacks += 1;
    } else if expected.len() > 1 {
        seen.multi_cell_assigns += 1;
    }
}

fn check_partitioner(p: &CellLocator, rng: &mut TestRng, seen: &mut Seen) {
    let cells = p.cells().to_vec();
    seen.zero_extent_cells +=
        cells.iter().filter(|c| !c.is_empty() && (c.width() == 0.0 || c.height() == 0.0)).count();

    // Every corner and edge midpoint of every cell: the shared boundaries
    // of two cells and the shared corners of four.
    for c in cells.iter().filter(|c| !c.is_empty()) {
        let mid = c.center();
        for x in [c.min_x, mid.x, c.max_x] {
            for y in [c.min_y, mid.y, c.max_y] {
                check_point(p, Point::new(x, y), seen);
            }
        }
        // The cell itself, and the cell grown and shrunk a little.
        check_rect(p, *c, seen);
        check_rect(p, c.buffered(0.25), seen);
        check_rect(p, Mbr::new(mid.x, mid.y, c.max_x, c.max_y), seen);
    }

    let around = EXTENT.buffered(15.0);
    for _ in 0..60 {
        check_point(p, point_in(rng, &around), seen);
        // Small, medium and extent-sized rectangles, some poking outside.
        let a = point_in(rng, &around);
        let reach = [0.5, 8.0, 120.0][rng.usize_in(0..3)];
        check_rect(p, Mbr::new(a.x, a.y, a.x + rng.f64_in(0.0..reach), a.y + reach / 2.0), seen);
    }
    // Wholly outside, on each side and past each corner.
    for (dx, dy) in [(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (-1.0, -1.0), (1.0, 1.0)] {
        let far = Point::new(30.0 + dx * 500.0, 35.0 + dy * 500.0);
        check_point(p, far, seen);
        check_rect(p, Mbr::new(far.x, far.y, far.x + 3.0, far.y + 3.0), seen);
    }
    // Inverted bounds are the empty MBR: it meets no cell, so assignment
    // falls back to the cell nearest its (finite) center.
    check_rect(p, Mbr { min_x: 40.0, min_y: 20.0, max_x: 10.0, max_y: 30.0 }, seen);
    check_rect(p, Mbr { min_x: 10.0, min_y: 50.0, max_x: 40.0, max_y: 30.0 }, seen);
}

#[test]
fn located_partitioners_match_the_linear_scans() {
    let mut seen = Seen::default();
    cases(0x10CA_7012, 16, |rng| {
        for target in [1usize, 2, 64, 128, 512] {
            let pts = sample(rng);
            let resolvable = pts.len();
            let str_tiles = CellLocator::new(str_tile_cells(EXTENT, pts.clone(), target));
            if str_tiles.cells().len() > resolvable.max(1) {
                seen.subdivided += 1;
            }
            check_partitioner(&str_tiles, rng, &mut seen);
            check_partitioner(&CellLocator::new(bsp_cells(EXTENT, pts, target)), rng, &mut seen);
        }
        // Compatible-grid mode adopts another dataset's cells as they are;
        // an adopted list need not tile anything.
        check_partitioner(&CellLocator::new(arbitrary_cells(rng)), rng, &mut seen);
    });
    // The grid takes no sample: each shape once.
    let mut rng = TestRng::new(0x6121_D000);
    for extent in [EXTENT, ROUNDED] {
        for target in [1usize, 2, 64, 128, 512] {
            let grid = CellLocator::new(grid_cells(extent, target));
            check_partitioner(&grid, &mut rng, &mut seen);
        }
    }
    // The interesting cases all occurred.
    assert!(seen.ties_of_two > 1000, "two-cell boundary ties: {}", seen.ties_of_two);
    assert!(seen.ties_of_four > 1000, "four-cell corner ties: {}", seen.ties_of_four);
    assert!(seen.owner_fallbacks > 1000, "nearest-cell owners: {}", seen.owner_fallbacks);
    assert!(seen.assign_fallbacks > 1000, "nearest-cell assignments: {}", seen.assign_fallbacks);
    assert!(seen.multi_cell_assigns > 1000, "multi-cell assignments: {}", seen.multi_cell_assigns);
    assert!(seen.zero_extent_cells > 0, "no zero-width or zero-height cell was generated");
    assert!(seen.subdivided > 0, "STR never had to subdivide");
}

/// Degenerate lists the constructors cannot produce but an adopted list may.
fn degenerate_lists() -> [Vec<Mbr>; 5] {
    let dot = Mbr::new(3.0, 4.0, 3.0, 4.0);
    [
        vec![dot],
        vec![dot, dot],
        vec![Mbr::empty()],
        vec![Mbr::empty(), dot, Mbr::new(3.0, 0.0, 3.0, 9.0)],
        vec![Mbr::new(0.0, 4.0, 9.0, 4.0), Mbr::new(3.0, 0.0, 3.0, 9.0)],
    ]
}

#[test]
fn degenerate_cell_lists_are_total() {
    let mut seen = Seen::default();
    let mut rng = TestRng::new(7);
    for cells in degenerate_lists() {
        check_partitioner(&CellLocator::new(cells), &mut rng, &mut seen);
    }
}

/// `v` and the floats one ulp either side of it.
fn ulps(v: f64) -> [f64; 3] {
    [v.next_down(), v, v.next_up()]
}

/// Point probes, the records of a point dataset, which the locator
/// answers with one search per axis: on every x- and y-edge of every cell
/// and one ulp either side of it, at cell midpoints, outside the extent,
/// and with infinite coordinates, over STR, BSP and grid cells, the
/// degenerate lists and adopted lists. `assign_into`, `assign_each` and
/// `CellIndex::tag` each hand out exactly `ref_assign`'s cells. (A NaN
/// point has no MBR the sanitizer accepts; the locator's unit tests hold
/// its guided search to the binary search at NaN.)
#[test]
fn point_probes_match_the_linear_scan() {
    let mut rng = TestRng::new(0x9017_0C11);
    let mut lists: Vec<Vec<Mbr>> = degenerate_lists().into();
    for target in [1usize, 2, 64, 128, 512] {
        let pts = sample(&mut rng);
        lists.push(str_tile_cells(EXTENT, pts.clone(), target));
        lists.push(bsp_cells(EXTENT, pts, target));
        lists.push(grid_cells(EXTENT, target));
        lists.push(grid_cells(ROUNDED, target));
    }
    lists.extend((0..8).map(|_| arbitrary_cells(&mut rng)));
    let specials = [f64::INFINITY, f64::NEG_INFINITY, -1e9, 1e9];
    let (mut points, mut on_edges, mut nonfinite, mut fallbacks, mut tagged) = (0, 0, 0, 0, 0);
    for cells in lists {
        let located = CellLocator::new(cells.clone());
        // The R-tree over the cells takes no empty member.
        let index = cells.iter().all(|c| !c.is_empty()).then(|| CellIndex::new(located.clone()));
        let mut probe = |x: f64, y: f64| {
            let m = Point::new(x, y).mbr();
            let expected = ref_assign(&cells, &m);
            let mut got = vec![CellId::MAX; 2];
            located.assign_into(&m, &mut got);
            assert_eq!(got, expected, "assign_into of ({x}, {y}) over {} cells", cells.len());
            got.clear();
            located.assign_each(&m, |c| got.push(c));
            assert_eq!(got, expected, "assign_each of ({x}, {y}) over {} cells", cells.len());
            if let Some(index) = &index {
                got.clear();
                index.tag(&m, |c| got.push(c));
                assert_eq!(got, expected, "tag of ({x}, {y}) over {} cells", cells.len());
                tagged += 1;
            }
            // The point path serves exactly the probes whose MBR is one point.
            if m.min_x == m.max_x && m.min_y == m.max_y {
                points += 1;
            }
            if !x.is_finite() || !y.is_finite() {
                nonfinite += 1;
            }
            if !cells.iter().any(|c| c.intersects(&m)) {
                fallbacks += 1;
            }
        };
        for c in cells.iter().filter(|c| !c.is_empty()) {
            let mid = c.center();
            for x in [c.min_x, c.max_x].into_iter().flat_map(ulps) {
                for y in [c.min_y, mid.y, c.max_y].into_iter().flat_map(ulps) {
                    probe(x, y);
                    on_edges += 1;
                }
            }
            for y in [c.min_y, c.max_y].into_iter().flat_map(ulps) {
                probe(mid.x, y);
                on_edges += 1;
            }
            for v in specials {
                probe(v, mid.y);
                probe(mid.x, v);
                probe(v, v);
            }
        }
        for v in specials {
            probe(f64::INFINITY, v);
            probe(v, f64::NEG_INFINITY);
        }
    }
    assert!(points > 100_000, "point probes: {points}");
    assert!(tagged > 100_000, "tagged point probes: {tagged}");
    assert!(on_edges > 100_000, "probes on and beside edges: {on_edges}");
    assert!(nonfinite > 1000, "infinite probes: {nonfinite}");
    assert!(fallbacks > 1000, "nearest-cell fallbacks: {fallbacks}");
}

/// A rectangle record: its geometry is its MBR.
fn rect(id: u64, min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> GeoRecord {
    let corners = [(min_x, min_y), (max_x, min_y), (max_x, max_y), (min_x, max_y)];
    GeoRecord::new(
        id,
        Geometry::Polygon(Polygon::new(corners.map(|(x, y)| Point::new(x, y)).into())),
    )
}

/// Whether `local_join_reported` reports the one candidate `a x b` under
/// `owners` (the rectangles always intersect, so refinement keeps it).
fn reported(
    engine: &GeometryEngine,
    a: &GeoRecord,
    b: &GeoRecord,
    owners: &[OwnerTest<'_>],
) -> bool {
    let algo = LocalJoinAlgo::StripeSweep;
    let (pairs, cost) =
        local_join_reported(engine, JoinPredicate::Intersects, algo, &[a], &[b], owners);
    assert_eq!(cost.candidates, 1, "{:?} x {:?}", a.mbr, b.mbr);
    !pairs.is_empty()
}

/// Pair probes for the reference-point rule, whose ownership bugs live on
/// cell edges: candidate pairs whose reference point — the lower-left
/// corner of the MBRs' intersection, its x from one record and its y from
/// the other — lies on every x- and y-edge of every cell and one ulp either
/// side of it, over STR, BSP, grid and degenerate cells and adopted lists
/// that overlap (where `sole` and `filled` certify nothing). For each
/// point, `owner_test(id).owns`, `owns` and the linear owner agree for the
/// owner, every containing cell, both ends of the id range and one id past
/// it; `local_join_reported` reports the pair exactly when the one cell it
/// is asked of owns the point, in either order of the records, and, with
/// two owners (a second grid, as in SpatialHadoop's two-grid tasks),
/// exactly when both do.
#[test]
fn reference_points_on_cell_edges_are_owned_as_the_linear_scan_owns_them() {
    let engine = GeometryEngine::jts();
    let mut rng = TestRng::new(0x0E1D_9E5F);
    let mut lists: Vec<Vec<Mbr>> = degenerate_lists().into();
    for (target, grid) in [(1usize, 1), (2, 2), (64, 64), (512, 128)] {
        let pts = sample(&mut rng);
        lists.push(str_tile_cells(EXTENT, pts.clone(), target));
        lists.push(bsp_cells(EXTENT, pts, target));
        lists.push(grid_cells(EXTENT, grid));
        lists.push(grid_cells(ROUNDED, grid));
    }
    lists.extend((0..8).map(|_| arbitrary_cells(&mut rng)));
    let second = CellLocator::new(grid_cells(EXTENT, 16));
    let (mut pairs, mut points, mut ties) = (0, 0, 0);
    for cells in lists {
        let located = CellLocator::new(cells.clone());
        let last = cells.len().saturating_sub(1) as CellId;
        let mut probe = |x: f64, y: f64| {
            let p = Point::new(x, y);
            let owner = ref_owner(&cells, &p);
            let mut ids = vec![owner, 0, last, last + 1];
            let containing = cells.iter().enumerate().filter(|(_, c)| c.contains_point(&p));
            ids.extend(containing.map(|(i, _)| i as CellId));
            ties += usize::from(ids.len() > 5);
            ids.sort_unstable();
            ids.dedup();
            for &id in &ids {
                let want = id == owner;
                assert_eq!(located.owner_test(id).owns(&p), want, "owner_test({id}).owns({p:?})");
                assert_eq!(located.owns(id, &p), want, "owns({id}, {p:?})");
            }
            // The reference point's x from one record and its y from the
            // other.
            let a = rect(1, x, y - 1.0, x + 2.0, y + 1.0);
            let b = rect(2, x - 1.0, y, x + 1.0, y + 2.0);
            let other = ids.iter().copied().find(|&id| id != owner).unwrap_or(owner + 1);
            for (l, r, id) in [(&a, &b, owner), (&b, &a, owner), (&a, &b, other)] {
                let one = [located.owner_test(id)];
                assert_eq!(reported(&engine, l, r, &one), id == owner, "cell {id} at {p:?}");
                pairs += 1;
            }
            let owner2 = ref_owner(second.cells(), &p);
            let other2 = (owner2 + 1) % second.cells().len() as CellId;
            for (id, id2) in [(owner, owner2), (owner, other2), (other, owner2)] {
                let two = [located.owner_test(id), second.owner_test(id2)];
                let want = id == owner && id2 == owner2;
                assert_eq!(reported(&engine, &a, &b, &two), want, "cells {id}, {id2} at {p:?}");
                pairs += 1;
            }
            points += 1;
        };
        for c in cells.iter().filter(|c| !c.is_empty()) {
            let mid = c.center();
            let ys = [c.min_y, c.max_y].into_iter().flat_map(ulps);
            for x in [c.min_x, c.max_x].into_iter().flat_map(ulps) {
                ys.clone().chain([mid.y]).for_each(|y| probe(x, y));
            }
            ys.for_each(|y| probe(mid.x, y));
        }
    }
    assert!(pairs > 100_000, "pair probes: {pairs}");
    assert!(points > 50_000, "reference points: {points}");
    assert!(ties > 1000, "reference points on shared edges: {ties}");
}

/// `named` holds `located`'s cells and answers `owner`, `nearest_cell` and
/// `assign` as it does: on every corner and edge midpoint of every cell,
/// and at random points around the extent, some outside it.
fn assert_same_answers(named: &dyn SpatialPartitioner, located: &CellLocator, rng: &mut TestRng) {
    let cells = located.cells();
    assert_eq!(named.cells(), cells);
    let mut probes = Vec::new();
    for c in cells.iter().filter(|c| !c.is_empty()) {
        let mid = c.center();
        for x in [c.min_x, mid.x, c.max_x] {
            probes.extend([c.min_y, mid.y, c.max_y].map(|y| Point::new(x, y)));
        }
    }
    let around = EXTENT.buffered(15.0);
    probes.extend((0..100).map(|_| point_in(rng, &around)));
    for p in &probes {
        assert_eq!(named.owner(p), located.owner(p), "owner of {p:?}");
        assert_eq!(named.nearest_cell(p), located.nearest_cell(p), "nearest cell to {p:?}");
        let m = Mbr::new(p.x, p.y, p.x + rng.f64_in(0.0..8.0), p.y + rng.f64_in(0.0..8.0));
        assert_eq!(named.assign(&m), located.assign(&m), "assign of {m:?}");
    }
}

/// The partitioner names the `benchmark/` package calls are
/// `CellLocator::new` over their choosers' cells, cell for cell and answer
/// for answer.
#[test]
fn named_partitioners_are_their_choosers_located() {
    cases(0x5A1A_0C11, 6, |rng| {
        for target in [1usize, 2, 64, 128] {
            let pts = sample(rng);
            let grid = FixedGridPartitioner::with_target_cells(EXTENT, target);
            assert_same_answers(&grid, &CellLocator::new(grid_cells(EXTENT, target)), rng);
            let tiles = StrTilePartitioner::from_sample(EXTENT, pts.clone(), target);
            let chosen = str_tile_cells(EXTENT, pts.clone(), target);
            assert_same_answers(&tiles, &CellLocator::new(chosen), rng);
            let bsp = BspPartitioner::from_sample(EXTENT, pts.clone(), target);
            assert_same_answers(&bsp, &CellLocator::new(bsp_cells(EXTENT, pts, target)), rng);
        }
    });
}

/// Each `PartitionerKind` builds exactly its family's cells, in order.
#[test]
fn partitioner_kinds_build_their_choosers_cells() {
    cases(0xB01D_0C11, 8, |rng| {
        for target in [1usize, 2, 16, 128, 512] {
            let pts = sample(rng);
            let chosen = [
                (PartitionerKind::FixedGrid, grid_cells(EXTENT, target)),
                (PartitionerKind::StrTiles, str_tile_cells(EXTENT, pts.clone(), target)),
                (PartitionerKind::Bsp, bsp_cells(EXTENT, pts.clone(), target)),
            ];
            for (kind, cells) in chosen {
                let built = kind.build(EXTENT, pts.clone(), target);
                assert_eq!(built.cells(), cells, "{} at {target} cells", kind.name());
            }
        }
    });
}

/// `CellIndex::tag` — how SpatialHadoop, SpatialSpark and LDE tag records
/// with cells — answers `assign`, ascending: inside the extent, on shared
/// cell edges and corners, wholly outside it (the nearest-cell fallback),
/// and on every probe again buffered by a random margin.
///
/// The count `tag` returns — what each engine charges a probe — is the
/// nodes a walk of the STR R-tree over the cells visits, for every probe:
/// one (the root) when the root is a leaf, three levels at 512 cells, and
/// none for an inverted window.
#[test]
fn cell_index_tags_exactly_the_assigned_cells() {
    let (mut edge_probes, mut fallbacks, mut multi) = (0, 0, 0);
    let (mut leaf_roots, mut three_levels, mut inverted) = (0, 0, 0);
    cases(0x7A61_0DE5, 8, |rng| {
        for target in [1usize, 16, 128, 512] {
            let pts = sample(rng);
            for kind in
                [PartitionerKind::FixedGrid, PartitionerKind::StrTiles, PartitionerKind::Bsp]
            {
                let index = CellIndex::new(kind.build(EXTENT, pts.clone(), target));
                let p = index.locator();
                let entries =
                    p.cells().iter().enumerate().map(|(i, c)| IndexEntry::new(i as u64, *c));
                let tree = RTree::bulk_load_str(entries.collect());
                match tree.num_nodes() {
                    1 => leaf_roots += 1,
                    n if n > MAX_ENTRIES + 1 => three_levels += 1,
                    _ => {}
                }
                let mut probes = Vec::new();
                for c in p.cells().iter().filter(|c| !c.is_empty()) {
                    let mid = c.center();
                    for x in [c.min_x, mid.x, c.max_x] {
                        for y in [c.min_y, mid.y, c.max_y] {
                            probes.push(Point::new(x, y).mbr());
                        }
                    }
                    probes.push(*c);
                }
                edge_probes += probes.len();
                let around = EXTENT.buffered(15.0);
                for _ in 0..40 {
                    let a = point_in(rng, &around);
                    let reach = [0.5, 8.0, 120.0][rng.usize_in(0..3)];
                    probes.push(Mbr::new(
                        a.x,
                        a.y,
                        a.x + rng.f64_in(0.0..reach),
                        a.y + reach / 2.0,
                    ));
                }
                for (dx, dy) in [(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (1.0, 1.0)] {
                    let far = Point::new(30.0 + dx * 500.0, 35.0 + dy * 500.0);
                    probes.push(Mbr::new(far.x, far.y, far.x + 3.0, far.y + 3.0));
                }
                let r = [0.1, 2.5, 25.0][rng.usize_in(0..3)];
                let buffered: Vec<Mbr> = probes.iter().map(|m| m.buffered(r)).collect();
                probes.extend(buffered);
                // Inverted bounds: an empty window, which visits no node.
                probes.push(Mbr { min_x: 40.0, min_y: 20.0, max_x: 10.0, max_y: 30.0 });
                probes.push(Mbr { min_x: 10.0, min_y: 50.0, max_x: 40.0, max_y: 30.0 });

                let (mut hits, mut walked) = (Vec::new(), Vec::new());
                for m in &probes {
                    let visits = tree.query_counting(m, &mut walked);
                    hits.clear();
                    let tagged = index.tag(m, |c| hits.push(c));
                    assert_eq!(tagged, visits, "{} visits for {m:?}", kind.name());
                    if m.is_empty() {
                        assert_eq!(tagged, 0, "{} visits for inverted {m:?}", kind.name());
                        inverted += 1;
                    } else {
                        assert!(tagged > 0, "{} visits no node for {m:?}", kind.name());
                    }
                    // Ascending by contract: no sort before comparing.
                    let linear = ref_assign(p.cells(), m);
                    assert_eq!(hits, linear, "{} tag of {m:?}", kind.name());
                    assert_eq!(p.assign(m), linear, "{} assign of {m:?}", kind.name());
                    if !p.cells().iter().any(|c| c.intersects(m)) {
                        fallbacks += 1;
                    } else if hits.len() > 1 {
                        multi += 1;
                    }
                }
            }
        }
    });
    assert!(edge_probes > 1000, "edge and corner probes: {edge_probes}");
    assert!(fallbacks > 100, "nearest-cell tags: {fallbacks}");
    assert!(multi > 1000, "multi-cell tags: {multi}");
    assert!(leaf_roots > 0 && three_levels > 0, "tree shapes: {leaf_roots} / {three_levels}");
    assert!(inverted > 0, "inverted windows: {inverted}");
}
