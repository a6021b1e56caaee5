//! The window-clipped polyline kernel decides exactly what the double loop
//! it replaced decided, and the join built on it returns exactly what it
//! returned.
//!
//! `reference_linestrings_intersect` is a verbatim copy of
//! `sjc_geom::algorithms::linestrings_intersect` as it stood before the
//! envelope hint existed; it lives here so the library keeps one
//! implementation and the old one survives only as the thing to compare
//! against. The prepared entry — `b` handed over as its chunk envelopes —
//! is held to it too, with a table of polylines cut at chunk seams.

use sjc_core::common::{local_join, LocalJoinAlgo};
use sjc_core::experiment::Workload;
use sjc_core::framework::{GeoRecord, JoinPredicate};
use sjc_geom::algorithms::{
    chunk_envelopes, linestrings_intersect, linestrings_intersect_hinted, CHUNK,
};
use sjc_geom::predicates::segments_intersect;
use sjc_geom::{Geometry, GeometryEngine, LineString, Mbr, Point};
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
                (LocalJoinAlgo::StripeSweep, 0x4f77_c61e_ab0d_dc12, 10_379_536),
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
                (LocalJoinAlgo::StripeSweep, 0xbf31_a7c2_3c6d_e72b, 421_536),
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
