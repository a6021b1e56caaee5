//! The window-clipped polyline kernel decides exactly what the double loop
//! it replaced decided, and the join built on it returns exactly what it
//! returned; the y-gated point-in-ring walk decides exactly what the
//! ungated walk decided.
//!
//! `reference_linestrings_intersect` is a verbatim copy of
//! `sjc_geom::algorithms::linestrings_intersect` as it stood before the
//! envelope hint existed; it lives here so the library keeps one
//! implementation and the old one survives only as the thing to compare
//! against. The prepared entry — `b` handed over as its chunk envelopes —
//! is held to it too, with a table of polylines cut at chunk seams.
//! `reference_point_in_polygon` is likewise the point-in-polygon test as it
//! stood before its ring walk skipped the edges away from the point's
//! height.

use sjc_core::common::{local_join, LocalJoinAlgo};
use sjc_core::experiment::Workload;
use sjc_core::framework::{GeoRecord, JoinPredicate};
use sjc_geom::algorithms::{
    chunk_envelopes, linestrings_intersect, linestrings_intersect_hinted, point_in_polygon, CHUNK,
};
use sjc_geom::predicates::{on_segment, orientation, segments_intersect, Orientation};
use sjc_geom::{Geometry, GeometryEngine, LineString, Mbr, Point, Polygon};
use sjc_index::entry::IndexEntry;
use sjc_index::join::plane_sweep;
use sjc_testkit::{cases, TestRng};

fn reference_linestrings_intersect(a: &LineString, b: &LineString) -> bool {
    if !a.mbr().intersects(&b.mbr()) {
        return false;
    }
    for (p1, p2) in a.segments() {
        // Per-segment bounding box against b's envelope first.
        let (sx0, sx1) = (p1.x.min(p2.x), p1.x.max(p2.x));
        let (sy0, sy1) = (p1.y.min(p2.y), p1.y.max(p2.y));
        let bm = b.mbr();
        if sx1 < bm.min_x || sx0 > bm.max_x || sy1 < bm.min_y || sy0 > bm.max_y {
            continue;
        }
        for (q1, q2) in b.segments() {
            if sx1 < q1.x.min(q2.x)
                || sx0 > q1.x.max(q2.x)
                || sy1 < q1.y.min(q2.y)
                || sy0 > q1.y.max(q2.y)
            {
                continue;
            }
            if segments_intersect(p1, p2, q1, q2) {
                return true;
            }
        }
    }
    false
}

fn ls(coords: &[(f64, f64)]) -> LineString {
    LineString::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
}

fn chunks(line: &LineString) -> Vec<Mbr> {
    let mut out = Vec::new();
    chunk_envelopes(line, &mut out);
    out
}

/// Every way into the kernel — unhinted, hinted with the tight envelopes,
/// hinted with looser ones, prepared (the second side as its chunk
/// envelopes, tight or buffered, under a tight or a loose first hint),
/// through `Geometry`, each in both argument orders — must give the
/// reference verdict. Returns that verdict.
fn assert_all_entries_agree(a: &LineString, b: &LineString, slack: (f64, f64)) -> bool {
    let expected = reference_linestrings_intersect(a, b);
    assert_eq!(reference_linestrings_intersect(b, a), expected, "reference is symmetric");

    let (ta, tb) = (a.mbr(), b.mbr());
    let (la, lb) = (ta.buffered(slack.0), tb.buffered(slack.1));
    let ctx = |what: &str| format!("{what}: {a:?} vs {b:?}");
    assert_eq!(linestrings_intersect(a, b), expected, "{}", ctx("unhinted"));
    assert_eq!(linestrings_intersect(b, a), expected, "{}", ctx("unhinted, swapped"));
    assert_eq!(linestrings_intersect_hinted(a, &ta, b, &[tb]), expected, "{}", ctx("tight"));
    assert_eq!(
        linestrings_intersect_hinted(b, &tb, a, &[ta]),
        expected,
        "{}",
        ctx("tight, swapped")
    );
    assert_eq!(linestrings_intersect_hinted(a, &la, b, &[lb]), expected, "{}", ctx("loose"));
    assert_eq!(
        linestrings_intersect_hinted(b, &lb, a, &[la]),
        expected,
        "{}",
        ctx("loose, swapped")
    );
    assert_eq!(linestrings_intersect_hinted(a, &la, b, &[tb]), expected, "{}", ctx("loose/tight"));

    let (ca, cb) = (chunks(a), chunks(b));
    let buffered = |c: &[Mbr], by: f64| c.iter().map(|m| m.buffered(by)).collect::<Vec<_>>();
    let (lca, lcb) = (buffered(&ca, slack.0), buffered(&cb, slack.1));
    for (what, hint, b_chunks) in
        [("prepared", &ta, &cb), ("prepared, loose hint", &la, &cb), ("prepared, loose", &la, &lcb)]
    {
        assert_eq!(linestrings_intersect_hinted(a, hint, b, b_chunks), expected, "{}", ctx(what));
    }
    for (what, hint, a_chunks) in [
        ("prepared, swapped", &tb, &ca),
        ("prepared, loose hint, swapped", &lb, &ca),
        ("prepared, loose, swapped", &lb, &lca),
    ] {
        assert_eq!(linestrings_intersect_hinted(b, hint, a, a_chunks), expected, "{}", ctx(what));
    }

    let (ga, gb) = (Geometry::LineString(a.clone()), Geometry::LineString(b.clone()));
    assert_eq!(ga.intersects(&gb), expected, "{}", ctx("Geometry::intersects"));
    assert_eq!(ga.intersects_hinted(&la, &gb, &[lb]), expected, "{}", ctx("Geometry hinted"));
    assert_eq!(
        gb.intersects_hinted(&tb, &ga, &[ta]),
        expected,
        "{}",
        ctx("Geometry hinted, swapped")
    );
    assert_eq!(ga.intersects_hinted(&ta, &gb, &cb), expected, "{}", ctx("Geometry prepared"));
    expected
}

/// A random walk of `n` vertices from `start`; `step` draws one coordinate
/// delta, so a coarse integer `step` yields axis-parallel, zero-length,
/// collinear and endpoint-sharing segments by the dozen.
fn walk(
    rng: &mut TestRng,
    n: usize,
    start: (f64, f64),
    step: impl Fn(&mut TestRng) -> f64,
) -> LineString {
    let (mut x, mut y) = start;
    let mut pts = Vec::with_capacity(n);
    for _ in 0..n {
        pts.push(Point::new(x, y));
        x += step(rng);
        y += step(rng);
    }
    LineString::new(pts)
}

#[test]
fn random_float_walks_match_the_reference() {
    let (mut hits, mut total) = (0u32, 0u32);
    cases(0x5EED_0017, 4000, |rng| {
        let (na, nb) = (rng.usize_in(2..40), rng.usize_in(2..40));
        let mut float_walk = |n| {
            let start = (rng.f64_in(0.0..10.0), rng.f64_in(0.0..10.0));
            walk(rng, n, start, |r| r.f64_in(-1.0..1.0))
        };
        let (a, b) = (float_walk(na), float_walk(nb));
        let slack = (rng.f64_in(0.0..3.0), rng.f64_in(0.0..3.0));
        hits += u32::from(assert_all_entries_agree(&a, &b, slack));
        total += 1;
    });
    assert!(hits > total / 20 && hits < total - total / 20, "vacuous mix: {hits} of {total} hit");
}

#[test]
fn coarse_integer_grid_walks_match_the_reference() {
    let (mut hits, mut total) = (0u32, 0u32);
    cases(0x71E5_0017, 6000, |rng| {
        let side = rng.u64_in(3..9) as f64;
        let (na, nb) = (rng.usize_in(2..8), rng.usize_in(2..8));
        let mut grid_walk = |n| {
            let start = (rng.u64_in(0..9) as f64 % side, rng.u64_in(0..9) as f64 % side);
            walk(rng, n, start, |r| r.u64_in(0..3) as f64 - 1.0)
        };
        let (a, b) = (grid_walk(na), grid_walk(nb));
        let slack = (rng.u64_in(0..3) as f64, rng.u64_in(0..3) as f64);
        hits += u32::from(assert_all_entries_agree(&a, &b, slack));
        total += 1;
    });
    assert!(hits > total / 20 && hits < total - total / 20, "vacuous mix: {hits} of {total} hit");
}

#[test]
fn adversarial_cases_match_the_reference() {
    // (a, b, expected) — expected is asserted too, so a reference that went
    // wrong with the kernel would not pass unnoticed.
    let table: Vec<(&str, LineString, LineString, bool)> = vec![
        ("shared endpoint", ls(&[(0.0, 0.0), (1.0, 1.0)]), ls(&[(1.0, 1.0), (2.0, 0.0)]), true),
        (
            "shared interior vertex",
            ls(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]),
            ls(&[(1.0, 3.0), (1.0, 1.0), (3.0, 3.0)]),
            true,
        ),
        ("T-junction", ls(&[(0.0, 0.0), (4.0, 0.0)]), ls(&[(2.0, 0.0), (2.0, 3.0)]), true),
        ("T-junction, short", ls(&[(0.0, 0.0), (4.0, 0.0)]), ls(&[(2.0, 0.5), (2.0, 3.0)]), false),
        ("collinear overlap", ls(&[(0.0, 0.0), (3.0, 0.0)]), ls(&[(2.0, 0.0), (5.0, 0.0)]), true),
        ("collinear touch", ls(&[(0.0, 0.0), (2.0, 0.0)]), ls(&[(2.0, 0.0), (5.0, 0.0)]), true),
        ("collinear gap", ls(&[(0.0, 0.0), (2.0, 0.0)]), ls(&[(3.0, 0.0), (5.0, 0.0)]), false),
        (
            "collinear diagonal overlap",
            ls(&[(0.0, 0.0), (2.0, 2.0)]),
            ls(&[(1.0, 1.0), (3.0, 3.0)]),
            true,
        ),
        ("axis-parallel cross", ls(&[(0.0, 1.0), (2.0, 1.0)]), ls(&[(1.0, 0.0), (1.0, 2.0)]), true),
        ("parallel, apart", ls(&[(0.0, 0.0), (2.0, 0.0)]), ls(&[(0.0, 1.0), (2.0, 1.0)]), false),
        ("zero-length on line", ls(&[(1.0, 1.0), (1.0, 1.0)]), ls(&[(0.0, 0.0), (2.0, 2.0)]), true),
        (
            "zero-length off line",
            ls(&[(1.0, 0.0), (1.0, 0.0)]),
            ls(&[(0.0, 0.0), (2.0, 2.0)]),
            false,
        ),
        (
            "two zero-length, same",
            ls(&[(1.0, 1.0), (1.0, 1.0)]),
            ls(&[(1.0, 1.0), (1.0, 1.0)]),
            true,
        ),
        (
            "envelopes touch on an edge, lines meet there",
            ls(&[(0.0, 0.0), (1.0, 1.0), (0.0, 2.0)]),
            ls(&[(2.0, 0.0), (1.0, 1.0), (2.0, 2.0)]),
            true,
        ),
        (
            "envelopes touch on an edge, lines do not",
            ls(&[(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]),
            ls(&[(2.0, 0.0), (1.0, 1.0), (2.0, 2.0)]),
            false,
        ),
        (
            "envelopes touch on a corner, lines meet there",
            ls(&[(0.0, 0.0), (1.0, 1.0)]),
            ls(&[(1.0, 1.0), (2.0, 2.0)]),
            true,
        ),
        (
            "envelopes touch on a corner, lines do not",
            ls(&[(0.0, 1.0), (1.0, 0.0)]),
            ls(&[(1.0, 2.0), (2.0, 1.0)]),
            false,
        ),
        ("envelopes disjoint", ls(&[(0.0, 0.0), (1.0, 1.0)]), ls(&[(5.0, 5.0), (6.0, 6.0)]), false),
        (
            "envelope nested, no contact",
            ls(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]),
            ls(&[(4.0, 4.0), (6.0, 6.0)]),
            false,
        ),
        (
            "only the last segment of the long side reaches the window",
            ls(&[(0.0, 9.0), (1.0, 9.0), (2.0, 9.0), (3.0, 9.0), (3.0, 0.0)]),
            ls(&[(2.5, 1.0), (3.5, 1.0)]),
            true,
        ),
        (
            "run with a gap: first and last segments touch, the middle leaves the window",
            ls(&[(0.0, 0.0), (1.0, 0.0), (1.0, 5.0), (2.0, 5.0), (2.0, 0.0), (3.0, 0.0)]),
            ls(&[(0.5, -1.0), (0.5, 1.0), (2.5, 1.0), (2.5, -1.0)]),
            true,
        ),
    ];
    for (name, a, b, expected) in &table {
        for slack in [(0.0, 0.0), (0.5, 0.0), (0.0, 7.0), (100.0, 100.0)] {
            assert_eq!(assert_all_entries_agree(a, b, slack), *expected, "{name}");
        }
    }
}

/// Coarse integer walks long enough to span two and three chunks, so ties,
/// zero-length and collinear segments land on chunk seams by the dozen.
#[test]
fn coarse_grid_walks_across_chunk_seams_match_the_reference() {
    let (mut hits, mut total) = (0u32, 0u32);
    cases(0x5EA3_0038, 3000, |rng| {
        let side = rng.u64_in(3..9) as f64;
        let (na, nb) = (rng.usize_in(2..8), rng.usize_in(CHUNK..3 * CHUNK + 3));
        let mut grid_walk = |n| {
            let start = (rng.u64_in(0..9) as f64 % side, rng.u64_in(0..9) as f64 % side);
            walk(rng, n, start, |r| r.u64_in(0..3) as f64 - 1.0)
        };
        let (a, b) = (grid_walk(na), grid_walk(nb));
        let slack = (rng.u64_in(0..3) as f64, rng.u64_in(0..3) as f64);
        hits += u32::from(assert_all_entries_agree(&a, &b, slack));
        total += 1;
    });
    assert!(hits > total / 20 && hits < total - total / 20, "vacuous mix: {hits} of {total} hit");
}

/// A staircase of `segments` unit steps: vertex `i` is `(i, i mod 2)`.
fn staircase(segments: usize) -> LineString {
    LineString::new((0..=segments).map(|i| Point::new(i as f64, (i % 2) as f64)).collect())
}

/// The prepared entry where chunks meet: lengths either side of one and
/// two chunks, and contacts placed exactly on a seam vertex.
#[test]
fn chunk_seam_cases_match_the_reference() {
    let c = CHUNK as f64;
    let mut table: Vec<(String, LineString, LineString, bool)> = Vec::new();
    for segments in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1] {
        let b = staircase(segments);
        let last = segments as f64 - 0.5;
        // Segment CHUNK - 1 ends chunk 0 and segment CHUNK starts chunk 1.
        let (end0, start1) = (c - 0.5, c + 0.5);
        for (what, a, hit) in [
            ("crosses the first segment", ls(&[(0.5, -1.0), (0.5, 2.0)]), true),
            (
                "crosses the last segment of chunk 0",
                ls(&[(end0, -1.0), (end0, 2.0)]),
                segments >= CHUNK,
            ),
            (
                "crosses the first segment of chunk 1",
                ls(&[(start1, -1.0), (start1, 2.0)]),
                segments > CHUNK,
            ),
            ("crosses the last segment", ls(&[(last, -1.0), (last, 2.0)]), true),
            ("stops short of the last segment", ls(&[(last, 0.8), (last, 1.0)]), false),
            ("runs past the end", ls(&[(segments as f64 + 0.5, -1.0), (last + 1.0, 2.0)]), false),
        ] {
            table.push((format!("{segments} segments, {what}"), a, b.clone(), hit));
        }
    }
    // Vertex CHUNK, (CHUNK, 0), ends chunk 0 and starts chunk 1.
    let seam = staircase(2 * CHUNK);
    table.push(("touches the seam vertex".into(), ls(&[(c, -1.0), (c, 0.0)]), seam.clone(), true));
    table.push((
        "stops just short of the seam vertex".into(),
        ls(&[(c, -1.0), (c, -1e-300)]),
        seam.clone(),
        false,
    ));
    table.push((
        "crosses at the seam vertex".into(),
        ls(&[(c - 1.0, -1.0), (c + 1.0, 1.0)]),
        seam,
        true,
    ));
    // A repeated vertex makes a zero-length segment: the last of chunk 0,
    // then the first of chunk 1.
    for at in [CHUNK - 1, CHUNK] {
        let mut pts: Vec<(f64, f64)> =
            (0..=2 * CHUNK).map(|i| (i as f64, (i % 2) as f64)).collect();
        let dup = pts[at];
        pts.insert(at, dup);
        let b = ls(&pts);
        let (x, y) = dup;
        table.push((
            format!("zero-length segment {at}, touched"),
            ls(&[(x, y), (x, y)]),
            b.clone(),
            true,
        ));
        table.push((
            format!("zero-length segment {at}, missed"),
            ls(&[(x + 0.1, y), (x + 0.1, y)]),
            b,
            false,
        ));
    }
    // Collinear overlaps along a straight line through the seam.
    let line = ls(&(0..=2 * CHUNK + 1).map(|i| (i as f64, 0.0)).collect::<Vec<_>>());
    for (what, a, hit) in [
        ("collinear overlap across the seam", ls(&[(c - 1.5, 0.0), (c + 1.5, 0.0)]), true),
        ("collinear overlap ending on the seam", ls(&[(c, 0.0), (c, 0.0)]), true),
        ("collinear, a hair above the seam", ls(&[(c - 1.5, 1e-9), (c + 1.5, 1e-9)]), false),
    ] {
        table.push((what.into(), a, line.clone(), hit));
    }
    for (name, a, b, expected) in &table {
        for slack in [(0.0, 0.0), (0.5, 0.0), (0.0, 0.25), (100.0, 100.0)] {
            assert_eq!(assert_all_entries_agree(a, b, slack), *expected, "{name}");
        }
    }
}

/// A hint that cuts into its polyline is a caller bug; under the suite's
/// `sanitize` feature the kernel says so instead of answering wrongly.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "envelope hint does not contain its polyline")]
fn a_hint_smaller_than_the_polyline_trips_the_sanitizer() {
    let a = ls(&[(0.0, 0.0), (2.0, 2.0)]);
    let b = ls(&[(0.0, 2.0), (2.0, 0.0)]);
    let cut = Mbr::new(0.0, 0.0, 0.5, 0.5);
    let _ = linestrings_intersect_hinted(&a, &cut, &b, &[b.mbr()]);
}

/// FNV-1a over the pair vector in emission order: pins order as well as
/// content.
fn pair_hash(pairs: &[(u64, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(l, r) in pairs {
        for byte in l.to_le_bytes().into_iter().chain(r.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `local_join` on an `edges × linearwater` slice: pair vector and all three
/// `LocalJoinCost` fields per algorithm, pinned to the numbers the double
/// loop produced (measured at the parent commit with this same test body).
///
/// Two sizes, because `local_join` refines either side of its 4096-candidate
/// threshold differently (one refine-count-collect pass below it, `par_map`
/// then a fold above it), and two `keep` rules, because a suppressed pair
/// is still charged.
#[test]
fn local_join_on_a_polyline_slice_is_pinned() {
    let (l, r) = Workload::edge_linearwater().prepare(2e-4, 23);
    let left: Vec<&GeoRecord> = l.records.iter().collect();
    let right: Vec<&GeoRecord> = r.records.iter().collect();
    let engine = GeometryEngine::jts();

    assert_eq!((left.len(), right.len()), (14_546, 1_171));
    // The filter's output and the refinement ledger do not depend on the
    // filter algorithm; its own cost and its emission order do.
    // (left, right, refine_ns, candidates, results, [(algo, pair hash, filter_ns)])
    let pinned = [
        (
            &left[..],
            &right[..],
            55_316_586u64,
            84_511u64,
            7_196u64,
            [
                (LocalJoinAlgo::IndexedNestedLoop, 0x08d8_61d7_e25c_a336u64, 6_148_928u64),
                (LocalJoinAlgo::SyncRTree, 0x2e74_d2ea_b70e_0512, 6_609_632),
                (LocalJoinAlgo::PlaneSweep, 0x95cc_400f_e1dc_bc96, 10_379_536),
            ],
        ),
        (
            &left[..2_000],
            &right[..350],
            2_254_818,
            3_455,
            294,
            [
                (LocalJoinAlgo::IndexedNestedLoop, 0x5ed6_53bf_10fd_03df, 616_384),
                (LocalJoinAlgo::SyncRTree, 0xa6b8_b28e_cc9b_087b, 661_408),
                (LocalJoinAlgo::PlaneSweep, 0x8cee_0e37_1a77_cfa3, 421_536),
            ],
        ),
    ];
    let [(.., above, _, _), (.., below, _, _)] = pinned;
    assert!(below < 4096 && 4096 <= above, "one slice on either side of the threshold");
    for (left, right, refine_ns, candidates, results, per_algo) in pinned {
        for (algo, hash, filter_ns) in per_algo {
            let (pairs, cost) =
                local_join(&engine, JoinPredicate::Intersects, algo, left, right, |_, _| true);
            let ledger = (cost.filter_ns, cost.refine_ns, cost.candidates);
            assert_eq!(
                (algo, pairs.len() as u64, pair_hash(&pairs), ledger),
                (algo, results, hash, (filter_ns, refine_ns, candidates))
            );
            let (kept, cost) =
                local_join(&engine, JoinPredicate::Intersects, algo, left, right, |_, _| false);
            let suppressed = (cost.filter_ns, cost.refine_ns, cost.candidates);
            assert_eq!((algo, kept.len(), suppressed), (algo, 0, ledger));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReferenceRingSide {
    Inside,
    Outside,
    OnBoundary,
}

/// The ring's closed edges as the `%`-indexed walk produced them.
fn reference_ring_edges(ring: &[Point]) -> impl Iterator<Item = (&Point, &Point)> {
    let n = ring.len();
    (0..n).map(move |i| (&ring[i], &ring[(i + 1) % n]))
}

fn reference_point_in_ring(ring: &[Point], p: &Point) -> ReferenceRingSide {
    let mut inside = false;
    for (a, b) in reference_ring_edges(ring) {
        // Boundary check first: collinear with and within the edge's extent.
        if orientation(a, b, p) == Orientation::Collinear && on_segment(a, b, p) {
            return ReferenceRingSide::OnBoundary;
        }
        // Standard ray-casting parity rule: count edges crossing the
        // horizontal ray to +infinity. The half-open test (one endpoint
        // strictly above, the other not) handles vertices without double
        // counting.
        if (a.y > p.y) != (b.y > p.y) {
            let x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if x_cross > p.x {
                inside = !inside;
            }
        }
    }
    if inside {
        ReferenceRingSide::Inside
    } else {
        ReferenceRingSide::Outside
    }
}

fn reference_point_in_polygon(poly: &Polygon, p: &Point) -> bool {
    reference_point_in_ring(poly.shell(), p) != ReferenceRingSide::Outside
}

fn ring(coords: &[(f64, f64)]) -> Vec<Point> {
    coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

/// `v` and its two neighbouring floats.
fn ulps(v: f64) -> [f64; 3] {
    [v.next_down(), v, v.next_up()]
}

/// The probes that sit on or next to `poly`'s edges: every vertex and edge
/// midpoint with ±1 ulp in x and y around it (which covers the horizontal
/// and vertical edges' lines), and each edge's gate bounds
/// `min(a.y, b.y) - EPSILON` and `max(a.y, b.y) + EPSILON` (±1 ulp) at
/// both endpoints' x and the midpoint's.
fn boundary_probes(poly: &Polygon) -> Vec<Point> {
    let mut probes = Vec::new();
    for (a, b) in reference_ring_edges(poly.shell()) {
        let mid = Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
        for c in [a, &mid] {
            for x in ulps(c.x) {
                for y in ulps(c.y) {
                    probes.push(Point::new(x, y));
                }
            }
        }
        let gate = [a.y.min(b.y) - f64::EPSILON, a.y.max(b.y) + f64::EPSILON];
        for x in [a.x, b.x, mid.x] {
            for y in gate.into_iter().flat_map(ulps) {
                probes.push(Point::new(x, y));
            }
        }
    }
    probes
}

/// Holds the kernel to the reference on `probes` against `poly`; returns
/// how many probes are inside.
fn assert_pip_agrees(what: &str, poly: &Polygon, probes: &[Point]) -> usize {
    let mut inside = 0;
    for p in probes {
        let expected = reference_point_in_polygon(poly, p);
        assert_eq!(point_in_polygon(poly, p), expected, "{what}: {p:?} in {poly:?}");
        inside += usize::from(expected);
    }
    inside
}

#[test]
fn ring_walk_matches_the_reference_on_and_near_every_edge() {
    let square = ring(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
    let table: Vec<(&str, Polygon)> = vec![
        ("unit square", Polygon::new(square.clone())),
        ("clockwise square", Polygon::new(square.iter().rev().copied().collect())),
        ("triangle", Polygon::new(ring(&[(0.0, 0.0), (4.0, 0.0), (2.0, 2.0)]))),
        (
            "concave U",
            Polygon::new(ring(&[
                (0.0, 0.0),
                (5.0, 0.0),
                (5.0, 5.0),
                (4.0, 5.0),
                (4.0, 1.0),
                (1.0, 1.0),
                (1.0, 5.0),
                (0.0, 5.0),
            ])),
        ),
        (
            "census-sized block",
            Polygon::new(ring(&[
                (-73.99, 40.75),
                (-73.988, 40.7502),
                (-73.9875, 40.751),
                (-73.9878, 40.7521),
                (-73.989, 40.7525),
                (-73.9902, 40.7519),
                (-73.9906, 40.751),
                (-73.9901, 40.7503),
            ])),
        ),
        ("sub-epsilon sliver", Polygon::new(ring(&[(0.0, 0.0), (1.0, 1e-17), (0.5, 2e-17)]))),
        ("repeated vertex", Polygon::new(ring(&[(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))),
        ("one distinct vertex", Polygon::new(ring(&[(0.5, 0.5); 4]))),
        ("two distinct vertices", Polygon::new(ring(&[(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)]))),
        ("zero area, collinear", Polygon::new(ring(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))),
        ("zero area, back and forth", Polygon::new(ring(&[(0.0, 0.0), (2.0, 2.0), (1.0, 1.0)]))),
        ("infinite vertex", Polygon::new(ring(&[(0.0, 0.0), (f64::INFINITY, 0.5), (0.0, 1.0)]))),
        ("NaN vertex", Polygon::new(ring(&[(0.0, 0.0), (1.0, f64::NAN), (0.0, 1.0)]))),
    ];
    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5, 1.0, 0.0];
    let mut odd_probes = Vec::new();
    for x in odd {
        for y in odd {
            odd_probes.push(Point::new(x, y));
        }
    }
    let (mut inside, mut total) = (0, 0);
    for (what, poly) in &table {
        let probes = boundary_probes(poly);
        inside += assert_pip_agrees(what, poly, &probes);
        inside += assert_pip_agrees(what, poly, &odd_probes);
        total += probes.len() + odd_probes.len();
    }
    assert!(inside > total / 4 && inside < total - total / 4, "vacuous mix: {inside} of {total}");

    // Named cases, so a reference that went wrong with the kernel would not
    // pass unnoticed.
    let concave = &table[3].1;
    let eps = f64::EPSILON;
    for (p, expected) in [
        ((2.5, 3.0), false),                // inside the notch
        ((2.5, 1.0), true),                 // on the notch's floor
        ((4.0, 3.0), true),                 // on the notch's right edge
        ((4.0f64.next_down(), 3.0), false), // one ulp into the notch: EPSILON rounds away at 4
        ((0.5, 3.0), true),                 // in the left arm
    ] {
        let p = Point::new(p.0, p.1);
        assert_eq!(point_in_polygon(concave, &p), expected, "concave U at {p:?}");
        assert_eq!(reference_point_in_polygon(concave, &p), expected, "reference at {p:?}");
    }
    let square = &table[0].1;
    for (p, expected) in [
        ((0.5, -eps), true), // the bottom edge's gate bound, collinear within tolerance
        ((0.5, 1.0 + eps), true), // the top edge's gate bound
        ((0.5, (-eps).next_down()), false),
        ((0.5, (1.0 + eps).next_up()), false),
    ] {
        let p = Point::new(p.0, p.1);
        assert_eq!(point_in_polygon(square, &p), expected, "square at {p:?}");
    }
}

#[test]
fn ring_walk_matches_the_reference_on_random_rings() {
    cases(0x5EED_0039, 600, |rng| {
        // A star-shaped ring around a random centre, so every ring is
        // simple, with some vertices snapped to a coarse grid to make
        // horizontal and vertical edges.
        let n = rng.usize_in(3..24);
        let (cx, cy) = (rng.f64_in(-2.0..2.0), rng.f64_in(-2.0..2.0));
        let snap = rng.bool_with(0.5);
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let theta = (i as f64 + rng.f64_in(0.0..0.9)) / n as f64 * std::f64::consts::TAU;
                let r = rng.f64_in(0.2..1.5);
                let (x, y) = (cx + r * theta.cos(), cy + r * theta.sin());
                if snap {
                    ((x * 4.0).round() / 4.0, (y * 4.0).round() / 4.0)
                } else {
                    (x, y)
                }
            })
            .map(|(x, y)| Point::new(x, y))
            .collect();
        let Some(poly) = Polygon::try_new(pts) else {
            return;
        };
        let mut probes = boundary_probes(&poly);
        for _ in 0..32 {
            probes.push(Point::new(rng.f64_in(cx - 2.0..cx + 2.0), rng.f64_in(cy - 2.0..cy + 2.0)));
        }
        assert_pip_agrees("random star", &poly, &probes);
    });
}

/// Every candidate of the point-in-polygon benchmark workload (`taxi ×
/// nycb` at 4e-4, the benchmark's default seed) gets the reference's
/// verdict.
#[test]
fn ring_walk_matches_the_reference_on_the_taxi_nycb_candidates() {
    let (l, r) = Workload::taxi_nycb().prepare(4e-4, 20150701);
    let entries = |recs: &[GeoRecord]| -> Vec<IndexEntry> {
        recs.iter().enumerate().map(|(i, r)| IndexEntry::new(i as u64, r.mbr)).collect()
    };
    let pairs = plane_sweep(&entries(&l.records), &entries(&r.records)).pairs;
    let mut inside = 0u64;
    for &(li, ri) in &pairs {
        let (Some(lr), Some(rr)) = (l.records.get(li as usize), r.records.get(ri as usize)) else {
            panic!("the filter emits positions into its inputs");
        };
        let (Geometry::Point(p), Geometry::Polygon(poly)) = (&lr.geom, &rr.geom) else {
            panic!("taxi × nycb pairs a point with a polygon");
        };
        let expected = reference_point_in_polygon(poly, p);
        assert_eq!(point_in_polygon(poly, p), expected, "taxi {} in nycb {}", lr.id, rr.id);
        inside += u64::from(expected);
    }
    assert_eq!((pairs.len() as u64, inside), (55_681, 48_986));
}
