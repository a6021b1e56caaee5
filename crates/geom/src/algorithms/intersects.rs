//! Exact intersection tests between composite geometries.
//!
//! These implement the refinement step of intersection-predicate joins.
//! The polyline–polyline test is the hot path of the paper's
//! `edges × linearwater` experiment: each candidate pair that survives the
//! MBR filter is decided here, and nine in ten of them are misses.
//!
//! # The window rule
//!
//! Two segments can only meet inside `a_mbr ∩ b_mbr` — the *window*. A
//! segment pair reaches `segments_intersect` only when the two segments'
//! closed bounding boxes overlap; each box lies inside its polyline's
//! envelope, so a shared point of the boxes lies in the window and both
//! boxes touch it. A segment whose box misses the window therefore takes
//! part in no tested pair and is dropped before the pair loop, with the
//! verdict unchanged. The rule is comparisons only (no arithmetic on
//! coordinates), so it holds exactly in `f64`.
//!
//! # Chunk envelopes
//!
//! The rule holds for any envelope of any run of `b`'s segments, not only
//! for `b`'s whole envelope. On `edges × linearwater` at 1e-3, 87 % of the
//! exact tests (383 541 of 441 911) have no `linearwater` segment inside the
//! window, yet a whole-envelope window made each of them read all ≈ 35
//! vertices to learn that: 15.4 M vertex reads for 37 526 hits. So `b`
//! comes as a list of [`CHUNK`]-segment envelopes ([`chunk_envelopes`]);
//! a chunk whose envelope misses `a_mbr` is skipped unread, and each chunk
//! that meets it runs the window scan with the window `a_mbr ∩ chunk`.
//! One chunk, the envelope of all of `b`, is the plain window scan.
//!
//! # The hint contract
//!
//! [`linestrings_intersect_hinted`] takes the envelopes from its caller —
//! the join's filter has just compared them — instead of rescanning the
//! vertices. `a`'s hint must *contain* `a`'s tight envelope, and each of
//! `b`'s chunk envelopes must contain the boxes of its segments; either may
//! be looser, which only widens a window.
//! An envelope that cuts into its segments is a caller bug, checked by a
//! `debug_assert!` under the `sanitize` feature.

use crate::algorithms::point_in_polygon::point_in_polygon;
use crate::linestring::LineString;
use crate::mbr::Mbr;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::predicates::segments_intersect;

/// Segments per chunk envelope. On `polyline_1t`, 4 was slower and 16 no
/// faster beyond noise (EXPERIMENTS.md, "Chunk envelopes for the long
/// polyline").
pub const CHUNK: usize = 8;

/// Appends `line`'s chunk envelopes to `out`: envelope `k` bounds segments
/// `k·CHUNK .. (k+1)·CHUNK` (vertices `k·CHUNK ..= (k+1)·CHUNK`), the last
/// one what is left. Their union is `line`'s tight envelope.
pub fn chunk_envelopes(line: &LineString, out: &mut Vec<Mbr>) {
    let pts = line.points();
    let mut first = 0;
    while first + 1 < pts.len() {
        let end = (first + CHUNK + 1).min(pts.len());
        let Some((p, rest)) = pts.get(first..end).and_then(<[Point]>::split_first) else { break };
        // A straight min/max fold: `Mbr::from_points` normalises every
        // vertex into an `Mbr` first, which doubles the cost of a build.
        let mut m = Mbr { min_x: p.x, min_y: p.y, max_x: p.x, max_y: p.y };
        for q in rest {
            m.min_x = m.min_x.min(q.x);
            m.min_y = m.min_y.min(q.y);
            m.max_x = m.max_x.max(q.x);
            m.max_y = m.max_y.max(q.y);
        }
        out.push(m);
        first += CHUNK;
    }
}

/// The vertices of chunk `k` of `n` over `pts`: chunk `k` starts at segment
/// `k·CHUNK` and ends where chunk `k + 1` starts; the last runs to the end.
fn chunk_points(pts: &[Point], k: usize, n: usize) -> &[Point] {
    let first = k * CHUNK;
    let end = if k + 1 == n { pts.len() } else { first + CHUNK + 1 };
    pts.get(first..end).unwrap_or(&[])
}

/// The chunk envelopes of a sequence of polylines in one flat buffer, for
/// those with more than [`CHUNK`] segments (one chunk is the envelope the
/// caller already holds). A join builds it for one side of a partition and
/// drops it after refinement.
#[derive(Debug, Default)]
pub struct ChunkEnvelopes {
    mbrs: Vec<Mbr>,
    /// `ends[i]`: one past entry `i`'s last envelope in `mbrs`, up to the
    /// last entry that has any.
    ends: Vec<usize>,
}

impl ChunkEnvelopes {
    /// Envelopes for each `Some` entry with more than [`CHUNK`] segments.
    pub fn build<'a>(lines: impl IntoIterator<Item = Option<&'a LineString>>) -> Self {
        let mut env = ChunkEnvelopes::default();
        for (i, line) in lines.into_iter().enumerate() {
            if let Some(line) = line.filter(|l| l.num_points() > CHUNK + 1) {
                env.ends.resize(i, env.mbrs.len());
                chunk_envelopes(line, &mut env.mbrs);
                env.ends.push(env.mbrs.len());
            }
        }
        env
    }

    /// Entry `i`'s chunk envelopes; empty when it has none.
    pub fn get(&self, i: usize) -> &[Mbr] {
        let Some(&end) = self.ends.get(i) else { return &[] };
        let start = i.checked_sub(1).and_then(|j| self.ends.get(j)).map_or(0, |&s| s);
        self.mbrs.get(start..end).unwrap_or(&[])
    }
}

/// Exact polyline–polyline intersection: computes each envelope once and
/// delegates to [`linestrings_intersect_hinted`] with one chunk.
pub fn linestrings_intersect(a: &LineString, b: &LineString) -> bool {
    linestrings_intersect_hinted(a, &a.mbr(), b, &[b.mbr()])
}

/// Exact polyline–polyline intersection, given an envelope of `a` and
/// either one envelope of all of `b` or `b`'s [`chunk_envelopes`] (see the
/// module docs for the hint contract).
///
/// Chunks whose envelope misses `a_mbr` are skipped. Within a chunk that
/// meets it, both sides are clipped to the window `a_mbr ∩ chunk`: the
/// chunk is cut to the run from its first to its last segment touching the
/// window, `a`'s segments are skipped when they miss it, and what is left
/// goes through a short-circuiting double loop with per-pair bounding-box
/// rejection — effectively the "indexed nested loop at the segment level"
/// that JTS performs for small geometries. Every segment of `b` lies in
/// exactly one chunk, so the pairs that reach `segments_intersect` are
/// those of the plain double loop, with the same arguments.
pub fn linestrings_intersect_hinted(
    a: &LineString,
    a_mbr: &Mbr,
    b: &LineString,
    b_chunks: &[Mbr],
) -> bool {
    let n = b_chunks.len();
    #[cfg(feature = "sanitize")]
    {
        debug_assert!(
            a_mbr.contains(&a.mbr()),
            "sanitize: envelope hint does not contain its polyline: {a_mbr:?}"
        );
        let segments = b.num_points().saturating_sub(1);
        debug_assert!(
            n == 1 || n == segments.div_ceil(CHUNK),
            "sanitize: {n} chunk envelopes for {segments} segments"
        );
        for (k, chunk) in b_chunks.iter().enumerate() {
            let own = Mbr::from_points(chunk_points(b.points(), k, n));
            debug_assert!(
                chunk.contains(&own),
                "sanitize: chunk envelope does not contain its segments: {k}: {chunk:?} / {own:?}"
            );
        }
    }
    b_chunks.iter().enumerate().any(|(k, chunk)| {
        let window = a_mbr.intersection(chunk);
        !window.is_empty() && window_scan(a, &window, chunk_points(b.points(), k, n))
    })
}

/// The window scan over `a` and the polyline through `b_pts`, both clipped
/// to `window`.
fn window_scan(a: &LineString, window: &Mbr, b_pts: &[Point]) -> bool {
    let misses_window = |p: &Point, q: &Point| {
        p.x.max(q.x) < window.min_x
            || p.x.min(q.x) > window.max_x
            || p.y.max(q.y) < window.min_y
            || p.y.min(q.y) > window.max_y
    };

    // b's run: segments first..=last span vertices first..=last + 1.
    let mut run: Option<(usize, usize)> = None;
    for (i, w) in b_pts.windows(2).enumerate() {
        let [q1, q2] = w else { continue };
        if !misses_window(q1, q2) {
            run = Some((run.map_or(i, |(first, _)| first), i));
        }
    }
    let Some(b_run) = run.and_then(|(first, last)| b_pts.get(first..=last + 1)) else {
        return false;
    };

    for (p1, p2) in a.segments() {
        if misses_window(p1, p2) {
            continue;
        }
        let (sx0, sx1) = (p1.x.min(p2.x), p1.x.max(p2.x));
        let (sy0, sy1) = (p1.y.min(p2.y), p1.y.max(p2.y));
        for w in b_run.windows(2) {
            let [q1, q2] = w else { continue };
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

/// Exact polygon–polyline intersection: true when any edge pair crosses or
/// the polyline lies entirely inside the polygon.
pub fn polygon_intersects_linestring(poly: &Polygon, line: &LineString) -> bool {
    if !poly.mbr().intersects(&line.mbr()) {
        return false;
    }
    for ring in poly.all_rings() {
        for (a, b) in crate::polygon::ring_edges(ring) {
            for (q1, q2) in line.segments() {
                if segments_intersect(a, b, q1, q2) {
                    return true;
                }
            }
        }
    }
    // No boundary crossing: the polyline is entirely inside or entirely
    // outside; one vertex decides which.
    line.points().first().is_some_and(|p| point_in_polygon(poly, p))
}

/// Exact polygon–polygon intersection: boundary crossing or containment of
/// either polygon in the other.
pub fn polygons_intersect(a: &Polygon, b: &Polygon) -> bool {
    if !a.mbr().intersects(&b.mbr()) {
        return false;
    }
    for ring_a in a.all_rings() {
        for (p1, p2) in crate::polygon::ring_edges(ring_a) {
            for ring_b in b.all_rings() {
                for (q1, q2) in crate::polygon::ring_edges(ring_b) {
                    if segments_intersect(p1, p2, q1, q2) {
                        return true;
                    }
                }
            }
        }
    }
    // No boundary crossing: either disjoint, or one contains the other.
    b.shell().first().is_some_and(|p| point_in_polygon(a, p))
        || a.shell().first().is_some_and(|p| point_in_polygon(b, p))
}

/// Exact point–polyline intersection (the point lies on the polyline).
pub fn point_on_linestring(line: &LineString, p: &Point) -> bool {
    use crate::predicates::{on_segment, orientation, Orientation};
    line.segments()
        .any(|(a, b)| orientation(a, b, p) == Orientation::Collinear && on_segment(a, b, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn ls(coords: &[(f64, f64)]) -> LineString {
        LineString::new(pts(coords))
    }

    fn chunks_of(line: &LineString) -> Vec<Mbr> {
        let mut out = Vec::new();
        chunk_envelopes(line, &mut out);
        out
    }

    #[test]
    fn chunk_envelopes_cover_their_segments_and_union_to_the_envelope() {
        // x grows with every vertex, so an envelope that dropped one would
        // miss it.
        for n in 2..=3 * CHUNK + 2 {
            let line = LineString::new(
                (0..n).map(|i| Point::new(i as f64, (i * i % 13) as f64)).collect(),
            );
            let chunks = chunks_of(&line);
            assert_eq!(chunks.len(), (n - 1).div_ceil(CHUNK), "{n} vertices");
            for (i, (p, q)) in line.segments().enumerate() {
                let seg = Mbr::from_points([p, q]);
                assert!(chunks[i / CHUNK].contains(&seg), "segment {i} of {n} vertices");
            }
            let union = chunks.iter().fold(Mbr::empty(), |u, c| u.union(c));
            assert_eq!(union, line.mbr(), "{n} vertices");
        }
    }

    #[test]
    fn chunk_buffer_holds_only_long_polylines() {
        let long = |n: usize| ls(&(0..n).map(|i| (i as f64, 0.0)).collect::<Vec<_>>());
        let (nine, ten, many) = (long(CHUNK + 1), long(CHUNK + 2), long(3 * CHUNK + 1));
        let lines = [None, Some(&ten), Some(&nine), Some(&many), None, Some(&many)];
        let env = ChunkEnvelopes::build(lines[..5].iter().copied());
        let counts: Vec<usize> = (0..lines.len() + 2).map(|i| env.get(i).len()).collect();
        assert_eq!(counts, [0, 2, 0, 3, 0, 0, 0, 0]);
        assert_eq!(env.get(1)[1], Mbr::new(8.0, 0.0, 9.0, 0.0));
        assert_eq!(env.get(3), &chunks_of(&many)[..]);
        assert_eq!(ChunkEnvelopes::build(lines[..3].iter().copied()).get(1), &chunks_of(&ten)[..]);
        assert!(ChunkEnvelopes::build([None, Some(&nine)]).get(1).is_empty());
    }

    #[test]
    fn crossing_polylines() {
        let a = ls(&[(0.0, 0.0), (2.0, 2.0)]);
        let b = ls(&[(0.0, 2.0), (2.0, 0.0)]);
        assert!(linestrings_intersect(&a, &b));
        assert!(linestrings_intersect(&b, &a), "symmetric");
    }

    #[test]
    fn parallel_polylines_disjoint() {
        let a = ls(&[(0.0, 0.0), (2.0, 0.0)]);
        let b = ls(&[(0.0, 1.0), (2.0, 1.0)]);
        assert!(!linestrings_intersect(&a, &b));
    }

    #[test]
    fn mbr_overlap_but_no_exact_intersection() {
        // The classic false positive that refinement must remove: MBRs
        // overlap, geometries do not touch.
        let a = ls(&[(0.0, 0.0), (1.0, 1.0)]);
        let b = ls(&[(0.0, 0.9), (0.05, 1.0)]);
        assert!(a.mbr().intersects(&b.mbr()));
        assert!(!linestrings_intersect(&a, &b));
    }

    #[test]
    fn touching_endpoints_intersect() {
        let a = ls(&[(0.0, 0.0), (1.0, 1.0)]);
        let b = ls(&[(1.0, 1.0), (2.0, 0.0)]);
        assert!(linestrings_intersect(&a, &b));
    }

    #[test]
    fn multi_segment_crossing_mid_way() {
        let road = ls(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let river = ls(&[(2.5, -1.0), (2.5, 1.0)]);
        assert!(linestrings_intersect(&road, &river));
    }

    #[test]
    fn polygon_crossed_by_linestring() {
        let sq = Polygon::new(pts(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]));
        assert!(polygon_intersects_linestring(&sq, &ls(&[(-1.0, 1.0), (3.0, 1.0)])));
    }

    #[test]
    fn polygon_containing_linestring() {
        let sq = Polygon::new(pts(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]));
        assert!(polygon_intersects_linestring(&sq, &ls(&[(1.0, 1.0), (2.0, 2.0)])));
    }

    #[test]
    fn polygon_disjoint_linestring() {
        let sq = Polygon::new(pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]));
        assert!(!polygon_intersects_linestring(&sq, &ls(&[(2.0, 2.0), (3.0, 3.0)])));
    }

    #[test]
    fn overlapping_polygons() {
        let a = Polygon::new(pts(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]));
        let b = Polygon::new(pts(&[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]));
        assert!(polygons_intersect(&a, &b));
        assert!(polygons_intersect(&b, &a));
    }

    #[test]
    fn nested_polygons_intersect() {
        let outer = Polygon::new(pts(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]));
        let inner = Polygon::new(pts(&[(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)]));
        assert!(polygons_intersect(&outer, &inner));
        assert!(polygons_intersect(&inner, &outer));
    }

    #[test]
    fn disjoint_polygons() {
        let a = Polygon::new(pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]));
        let b = Polygon::new(pts(&[(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0)]));
        assert!(!polygons_intersect(&a, &b));
    }

    #[test]
    fn point_on_linestring_detection() {
        let l = ls(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]);
        assert!(point_on_linestring(&l, &Point::new(1.0, 0.0)));
        assert!(point_on_linestring(&l, &Point::new(2.0, 1.0)));
        assert!(point_on_linestring(&l, &Point::new(2.0, 2.0)), "endpoint");
        assert!(!point_on_linestring(&l, &Point::new(1.0, 1.0)));
    }
}
