//! Exact point/rectangle location over a fixed cell list.
//!
//! A linear scan over every cell would answer each question — once or
//! twice per *candidate pair* for `owns`, once per record for `assign`.
//! [`CellLocator`] answers them from a structure built once per cell list.
//!
//! The distinct x-edges of the cells cut the x-axis into *elementary
//! regions*: each edge value itself, and each open interval between two
//! neighbouring edges. No cell boundary falls inside a region, so a cell's
//! closed x-range holds either all of a region or none of it, and "the
//! cells whose x-range holds `v`" is one precomputed ascending list per
//! region. Each open interval — where all but a measure-zero set of probes
//! land — carries the same decomposition of the y-axis over its own cells,
//! whose lists are then exactly "the cells containing `(x, y)`": the first
//! entry is the owner. A probe on an x-edge tests that edge's (short) list
//! directly.
//!
//! Location uses **comparisons only**: a binary search over the edge
//! values themselves, never arithmetic to pick the answer. A probe on a
//! shared boundary lands in the edge's own region, whose list names every
//! cell touching it, so boundary ties, zero-width cells and probes outside
//! every cell resolve exactly as the linear scans resolve them (lowest id
//! wins; nearest cell otherwise). `tests/cell_locator_equivalence.rs`
//! holds the two to each other.
//!
//! A point probe (an MBR with `min == max`, most records of a point
//! dataset) searches each axis once: its x-region, then, in an open
//! x-interval, its y-region, whose list is the answer; a rectangle finds
//! both ends of its range on each axis. Each search is guided: per axis, a
//! table over equal-width buckets of the edges' span gives, for the
//! bucket a value falls in, the edges that can hold the answer (those in
//! the same bucket), and the binary search runs over those alone. The
//! table only picks where a search starts; the comparisons with the edge
//! values decide, so a guided answer equals the unguided binary search's
//! for every value, NaN and ±inf included (the bucket arithmetic only has
//! to keep order, which subtraction, scaling and truncation do).
//!
//! Assignment hands its cells to a callback, ascending
//! ([`CellLocator::assign_each`]): inside one x-region the cells come
//! straight from a region's list, and only an MBR crossing x-regions
//! collects, sorts and deduplicates them in a scratch buffer.
//!
//! `owns(cell, p)` — the reference-point test, asked of every candidate
//! pair through an [`OwnerTest`] built once per task — is mostly answered
//! without a search, from two certificates read off the axes once:
//!
//! * `sole[c]`: no other cell's closed rectangle meets `c`'s open interior,
//!   so a point strictly inside `c` has `c` as its only containing cell,
//!   hence its owner;
//! * `filled`: a box the closed union of the cells covers, so a point in it
//!   has a containing owner, and a cell not containing the point is not it.
//!
//! Any other probe (a cell boundary, outside `filled`, NaN, a cell of an
//! overlapping adopted list) asks `owner`.

use std::ops::Range;

use sjc_geom::{Mbr, Point};

use super::CellId;

/// A fixed cell list with O(log n) exact location: the one partitioner
/// value, whichever chooser (or adopted list) the cells came from.
#[derive(Debug, Clone)]
pub struct CellLocator {
    cells: Vec<Mbr>,
    /// Axis 0 is the x-axis over every non-empty cell; axis `1 + i` is the
    /// y-axis over the cells of the `i`-th open x-interval.
    axes: Axes,
    /// Per cell: no other cell's closed rectangle meets its open interior.
    sole: Vec<bool>,
    /// A box inside the closed union of the cells ([`Mbr::empty`] if none
    /// is certified).
    filled: Mbr,
}

/// A sequence of axes stored back to back in a few vectors, however many
/// axes there are: a partitioner lives as long as a system run, and dozens
/// of small long-lived allocations scattered through the heap cost more
/// resident memory (in what they keep the allocator from reusing) than
/// they hold.
#[derive(Debug, Clone, Default)]
struct Axes {
    /// Per axis, where its edges and its guide table start: axis `k` owns
    /// `edges[at[k].edge..at[k + 1].edge]` and `buckets[at[k].bucket..at[k + 1].bucket]`.
    at: Vec<AxisAt>,
    /// Per axis, the sorted distinct range bounds of its cells.
    edges: Vec<f64>,
    /// An axis of `n` edges has `2n - 1` regions and owns `2n` entries
    /// here, from twice its first edge on: its region `r` lists
    /// `members[starts[r]..starts[r + 1]]`, ascending.
    starts: Vec<u32>,
    members: Vec<CellId>,
    /// Per axis, its guide table over `nb` equal-width buckets
    /// ([`bucket`]): `nb + 1` entries, entry `b` counting the edges whose
    /// bucket is below `b`. An axis without a guide (fewer than two or more
    /// than `u16::MAX` edges, or an edge that is not finite) has an empty
    /// table.
    buckets: Vec<u16>,
}

/// Where an axis starts in [`Axes`], and its guide's bucket arithmetic.
#[derive(Debug, Clone, Copy)]
struct AxisAt {
    edge: u32,
    bucket: u32,
    origin: f64,
    scale: f64,
}

/// The bucket of `v` among `last + 1`: `(v - origin) * scale`, truncated
/// and clamped. Subtraction, multiplication by a positive `scale` and
/// truncation each keep order, so `v <= w` gives `bucket(v) <= bucket(w)`
/// for every `v` and `w`; NaN and -inf fall in bucket 0, +inf in the last.
fn bucket(v: f64, origin: f64, scale: f64, last: usize) -> usize {
    (((v - origin) * scale) as usize).min(last)
}

/// Buckets per edge in a guide table. Partitions follow the data, so the
/// edges crowd where it is dense (a city centre); at this many buckets
/// per edge the buckets there still hold an edge or two, and the search a
/// bucket leaves is a step or none.
const BUCKETS_PER_EDGE: usize = 16;

/// One axis cut into elementary regions — region `2i` is the edge
/// `edges[i]`, region `2i + 1` the open interval up to `edges[i + 1]` —
/// with, per region, the cells whose closed range on this axis holds it,
/// and the axis's guide table with its bucket arithmetic ([`AxisAt`]).
#[derive(Debug, Clone, Copy)]
struct Axis<'a> {
    edges: &'a [f64],
    starts: &'a [u32],
    members: &'a [CellId],
    origin: f64,
    scale: f64,
    table: &'a [u16],
}

impl<'a> Axis<'a> {
    /// An axis without regions' lists or a guide: what `Axes::push` cuts.
    fn bare(edges: &'a [f64]) -> Self {
        Axis { edges, starts: &[], members: &[], origin: 0.0, scale: 0.0, table: &[] }
    }

    /// How many edges lie below `v` (none, for NaN): a binary search by
    /// comparisons over the edges in `v`'s guide bucket. Every edge before
    /// them lies in a lower bucket, so below `v`; every edge after them in
    /// a higher one, so above `v`. Without a guide, over the whole axis.
    fn below(&self, v: f64) -> usize {
        let b = bucket(v, self.origin, self.scale, self.table.len().saturating_sub(2));
        let span = match (self.table.get(b), self.table.get(b + 1)) {
            (Some(&lo), Some(&hi)) => usize::from(lo)..usize::from(hi),
            _ => 0..self.edges.len(),
        };
        let within = self.edges.get(span.clone()).unwrap_or(self.edges);
        let found = within.partition_point(|&e| e < v);
        #[cfg(feature = "sanitize")]
        debug_assert_eq!(
            span.start + found,
            self.edges.partition_point(|&e| e < v),
            "sanitize: guided search for {v}"
        );
        span.start + found
    }

    /// One past the region holding `v`, counting "below every edge" as 0 —
    /// so that region is `raw - 1`, and a `v` above every edge yields one
    /// past the last region. NaN counts as below every edge.
    fn raw_region(&self, v: f64) -> usize {
        let below = self.below(v);
        // `edges[below]` is the first edge not below `v`: it equals `v`
        // exactly when it is not above it either.
        let on_edge = self.edges.get(below).is_some_and(|&e| e <= v);
        2 * below + usize::from(on_edge)
    }

    /// The regions meeting the closed interval `[lo, hi]` (`lo <= hi`).
    fn regions(&self, lo: f64, hi: f64) -> Range<usize> {
        let count = (2 * self.edges.len()).saturating_sub(1);
        self.raw_region(lo).saturating_sub(1)..self.raw_region(hi).min(count)
    }

    /// The region holding `v`; none for a `v` outside every edge.
    fn region(&self, v: f64) -> Option<usize> {
        self.raw_region(v).checked_sub(1).filter(|&r| r + 1 < self.starts.len())
    }

    /// The cells holding region `r`.
    fn list(&self, r: usize) -> &'a [CellId] {
        match (self.starts.get(r), self.starts.get(r + 1)) {
            (Some(&from), Some(&to)) => self.members.get(from as usize..to as usize),
            _ => None,
        }
        .unwrap_or(&[])
    }
}

impl Axes {
    /// Appends the axis decomposing the ranges `(id, lo, hi)` (ids
    /// ascending, `lo <= hi`). `edges` and `cursors` are scratch.
    fn push(&mut self, spans: &[(CellId, f64, f64)], edges: &mut Vec<f64>, cursors: &mut Vec<u32>) {
        edges.clear();
        edges.extend(spans.iter().flat_map(|&(_, lo, hi)| [lo, hi]));
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        let axis = Axis::bare(edges);
        // A range bounded by edges holds exactly the regions it meets.
        // Count per region, prefix-sum, fill: ids arrive ascending, so
        // every list comes out ascending.
        cursors.clear();
        cursors.resize(2 * edges.len(), 0);
        for &(_, lo, hi) in spans {
            let held = axis.regions(lo, hi);
            for count in cursors.get_mut(held.start + 1..held.end + 1).into_iter().flatten() {
                *count += 1;
            }
        }
        let mut end = self.members.len() as u32;
        for cursor in cursors.iter_mut() {
            end += *cursor;
            *cursor = end;
        }
        self.push_at(edges);
        self.edges.extend_from_slice(edges);
        self.starts.extend_from_slice(cursors);
        self.members.resize(end as usize, 0);
        for &(id, lo, hi) in spans {
            for cursor in cursors.get_mut(axis.regions(lo, hi)).into_iter().flatten() {
                if let Some(slot) = self.members.get_mut(*cursor as usize) {
                    *slot = id;
                }
                *cursor += 1;
            }
        }
    }

    /// Appends the [`AxisAt`] of the axis over `edges` (sorted, distinct)
    /// and its guide table: [`BUCKETS_PER_EDGE`] buckets per edge over the
    /// edges' span from the first edge. No guide unless the edges are
    /// finite, at least two, at most `u16::MAX` of them, and span a width
    /// whose scale is finite.
    fn push_at(&mut self, edges: &[f64]) {
        let (lo, hi) =
            (edges.first().copied().unwrap_or(0.0), edges.last().copied().unwrap_or(0.0));
        let last = (BUCKETS_PER_EDGE * edges.len()).saturating_sub(1);
        let scale = (last + 1) as f64 / (hi - lo);
        let counted = edges.len() <= usize::from(u16::MAX);
        let guided =
            counted && lo.is_finite() && hi.is_finite() && scale.is_finite() && scale > 0.0;
        let (origin, scale) = if guided { (lo, scale) } else { (0.0, 0.0) };
        let (edge, bucket_at) = (self.edges.len() as u32, self.buckets.len() as u32);
        self.at.push(AxisAt { edge, bucket: bucket_at, origin, scale });
        if !guided {
            return;
        }
        let mut below = 0;
        for b in 0..=last + 1 {
            while edges.get(below).is_some_and(|&e| bucket(e, origin, scale, last) < b) {
                below += 1;
            }
            self.buckets.push(below as u16);
        }
    }

    /// Axis `k`, if that many were pushed.
    fn get(&self, k: usize) -> Option<Axis<'_>> {
        let at = self.at.get(k)?;
        let (to, table_end) = match self.at.get(k + 1) {
            Some(next) => (next.edge as usize, next.bucket as usize),
            None => (self.edges.len(), self.buckets.len()),
        };
        let from = at.edge as usize;
        Some(Axis {
            edges: self.edges.get(from..to)?,
            starts: self.starts.get(2 * from..2 * to)?,
            members: &self.members,
            origin: at.origin,
            scale: at.scale,
            table: self.buckets.get(at.bucket as usize..table_end)?,
        })
    }
}

impl CellLocator {
    /// Indexes `cells`; cell ids stay the positions in the given list.
    pub fn new(cells: Vec<Mbr>) -> Self {
        let (mut axes, mut edges, mut cursors) = (Axes::default(), Vec::new(), Vec::new());
        let live = cells.iter().enumerate().filter(|(_, c)| !c.is_empty());
        let mut spans: Vec<_> = live.map(|(i, c)| (i as CellId, c.min_x, c.max_x)).collect();
        axes.push(&spans, &mut edges, &mut cursors);
        let x_edges = axes.edges.len();
        for interval in 0..x_edges.saturating_sub(1) {
            spans.clear();
            let column = axes.get(0).map(|x| x.list(2 * interval + 1)).unwrap_or_default().iter();
            spans.extend(
                column.filter_map(|&id| cells.get(id as usize).map(|c| (id, c.min_y, c.max_y))),
            );
            axes.push(&spans, &mut edges, &mut cursors);
        }
        let mut located = CellLocator { cells, axes, sole: Vec::new(), filled: Mbr::empty() };
        (located.sole, located.filled) = located.certify();
        located
    }

    /// The `owns` certificates (`sole`, `filled`), read off the axes.
    fn certify(&self) -> (Vec<bool>, Mbr) {
        let x = self.columns();
        let mut sole: Vec<bool> =
            self.cells.iter().map(|c| c.min_x < c.max_x && c.min_y < c.max_y).collect();
        let mut clear = |id: CellId| {
            if let Some(s) = sole.get_mut(id as usize) {
                *s = false;
            }
        };
        // A zero-width cell on x-edge `e` meets the interior of the cells
        // whose open x-range holds `e` and whose open y-range its y-range
        // meets. It is in no open x-interval, so the columns below miss it.
        for d in self.cells.iter().filter(|d| d.min_x == d.max_x && !d.is_empty()) {
            let on_edge = x.region(d.min_x).map(|r| x.list(r)).unwrap_or_default();
            for (id, c) in self.members(on_edge) {
                let inside = c.min_x < d.min_x && d.min_x < c.max_x;
                if inside && d.min_y < c.max_y && c.min_y < d.max_y {
                    clear(id);
                }
            }
        }
        // Every other cell meeting `c`'s interior shares a region with it
        // in some open x-interval: an open y-interval (inside the open
        // interior of every cell holding it), or a y-edge strictly inside
        // `c`'s y-range. Meanwhile the columns certify `filled` if each
        // one's y-axis spans the same range with no open y-interval empty.
        let mut span = None;
        let mut covered = x.edges.len() > 1;
        for column in (1..(2 * x.edges.len()).saturating_sub(1)).step_by(2) {
            let Some(rows) = self.rows_under(column) else {
                covered = false;
                continue;
            };
            for r in 0..(2 * rows.edges.len()).saturating_sub(1) {
                let list = rows.list(r);
                if r % 2 == 1 {
                    covered &= !list.is_empty();
                }
                if list.len() < 2 {
                    continue;
                }
                let v = rows.edges.get(r / 2).copied().unwrap_or(f64::NAN);
                for (id, c) in self.members(list) {
                    if r % 2 == 1 || (c.min_y < v && v < c.max_y) {
                        clear(id);
                    }
                }
            }
            match (rows.edges.first(), rows.edges.last()) {
                (Some(&lo), Some(&hi)) => covered &= *span.get_or_insert((lo, hi)) == (lo, hi),
                _ => covered = false,
            }
        }
        let filled = match (x.edges.first(), x.edges.last(), span) {
            (Some(&x0), Some(&x1), Some((y0, y1))) if covered => Mbr::new(x0, y0, x1, y1),
            _ => Mbr::empty(),
        };
        (sole, filled)
    }

    /// The x-axis (always pushed first; without edges when no cell is live).
    fn columns(&self) -> Axis<'_> {
        self.axes.get(0).unwrap_or(Axis::bare(&[]))
    }

    fn cell(&self, id: CellId) -> Option<&Mbr> {
        self.cells.get(id as usize)
    }

    /// The cells of a region's list, with their ids.
    fn members<'a>(&'a self, list: &'a [CellId]) -> impl Iterator<Item = (CellId, &'a Mbr)> {
        list.iter().filter_map(|&id| Some((id, self.cell(id)?)))
    }

    /// The y-axis under x-region `column`, when that is an open interval.
    fn rows_under(&self, column: usize) -> Option<Axis<'_>> {
        self.axes.get(1 + column / 2).filter(|_| column % 2 == 1)
    }

    /// The cell rectangles. Cell ids are indexes into this slice.
    pub fn cells(&self) -> &[Mbr] {
        &self.cells
    }

    /// All cells an MBR must be assigned to (every cell whose closed
    /// rectangle it meets), ascending. Never empty: an MBR outside every
    /// cell falls back to the cell nearest its center, so no record is
    /// ever dropped in preprocessing.
    pub fn assign(&self, mbr: &Mbr) -> Vec<CellId> {
        let mut out = Vec::new();
        self.assign_into(mbr, &mut out);
        out
    }

    /// [`assign`](Self::assign) into a caller-owned buffer: `out` is
    /// cleared, then holds the assigned cells in ascending id order.
    pub fn assign_into(&self, mbr: &Mbr, out: &mut Vec<CellId>) {
        out.clear();
        self.assign_each(mbr, |id| out.push(id));
    }

    /// Hands each cell [`assign`](Self::assign) returns to `each`, in
    /// ascending id order, without a buffer unless the MBR crosses more
    /// than one x-region.
    pub fn assign_each(&self, mbr: &Mbr, mut each: impl FnMut(CellId)) {
        #[cfg(feature = "sanitize")]
        let mut handed = Vec::new();
        let mut each = |id| {
            #[cfg(feature = "sanitize")]
            handed.push(id);
            each(id)
        };
        if !self.meets(mbr, &mut each) {
            each(self.nearest_cell(&mbr.center()));
        }
        #[cfg(feature = "sanitize")]
        debug_assert_eq!(handed, linear::assign(self, mbr), "sanitize: assign({mbr:?})");
    }

    /// Hands each cell whose closed rectangle `mbr` meets to `each`,
    /// ascending; whether there was one.
    fn meets(&self, mbr: &Mbr, each: &mut impl FnMut(CellId)) -> bool {
        let x = self.columns();
        let meeting = |&id: &CellId| self.cell(id).is_some_and(|c| c.intersects(mbr));
        // A point (most records of a point dataset) searches each axis once.
        if mbr.min_x == mbr.max_x && mbr.min_y == mbr.max_y {
            let Some(column) = x.region(mbr.min_x) else { return false };
            return match self.rows_under(column) {
                Some(rows) => {
                    let cells = rows.region(mbr.min_y).map(|r| rows.list(r)).unwrap_or_default();
                    hand(cells.iter().copied(), each)
                }
                None => hand(x.list(column).iter().copied().filter(meeting), each),
            };
        }
        // An inverted MBR is empty and meets nothing, whatever its bounds.
        let columns = if mbr.is_empty() { 0..0 } else { x.regions(mbr.min_x, mbr.max_x) };
        match (columns.len(), self.rows_under(columns.start)) {
            (0, _) => false,
            // Inside one x-region: its cells, ascending. Inside one region
            // on both axes (most records), that region's list is the answer.
            (1, Some(rows)) => match rows.regions(mbr.min_y, mbr.max_y) {
                within if within.len() == 1 => hand(rows.list(within.start).iter().copied(), each),
                _ => hand(x.list(columns.start).iter().copied().filter(meeting), each),
            },
            (1, None) => hand(x.list(columns.start).iter().copied().filter(meeting), each),
            // Otherwise test the cells of every x-region crossed; an edge
            // region repeats cells of the intervals beside it, so sort and
            // deduplicate them first.
            _ => sjc_par::scratch::with_vec(|cells: &mut Vec<CellId>| {
                for column in columns {
                    cells.extend(x.list(column).iter().copied().filter(meeting));
                }
                cells.sort_unstable();
                cells.dedup();
                hand(cells.iter().copied(), each)
            }),
        }
    }

    /// The canonical owner cell of a point: the lowest-id cell whose closed
    /// rectangle contains it, else the nearest cell. The reference-point
    /// rule needs exactly one owner for every point.
    pub fn owner(&self, p: &Point) -> CellId {
        let x = self.columns();
        let located = x.region(p.x).and_then(|column| match self.rows_under(column) {
            Some(rows) => rows.list(rows.region(p.y)?).first().copied(),
            None => {
                let mut on_edge = x.list(column).iter().copied();
                on_edge.find(|&id| self.cell(id).is_some_and(|c| c.contains_point(p)))
            }
        });
        let owner = located.unwrap_or_else(|| self.nearest_cell(p));
        #[cfg(feature = "sanitize")]
        debug_assert_eq!(owner, linear::owner(self, p), "sanitize: owner({p:?})");
        owner
    }

    /// Whether `cell` owns `p`: exactly `owner(p) == cell`, answered by
    /// [`owner_test`](Self::owner_test).
    pub fn owns(&self, cell: CellId, p: &Point) -> bool {
        let owns = self.owner_test(cell).owns(p);
        #[cfg(feature = "sanitize")]
        debug_assert_eq!(owns, linear::owner(self, p) == cell, "sanitize: owns({cell}, {p:?})");
        owns
    }

    /// The reference-point test of one cell, with the cell's rectangle and
    /// both certificates read once: the reference-point rule asks it of
    /// every candidate pair of the cell's task, so it is built once per
    /// task, not once per pair.
    pub fn owner_test(&self, cell: CellId) -> OwnerTest<'_> {
        OwnerTest {
            locator: self,
            cell,
            rect: self.cell(cell).copied().unwrap_or_else(Mbr::empty),
            sole: self.sole.get(cell as usize).is_some_and(|&s| s),
            filled: self.filled,
        }
    }

    /// The cell nearest a point by MBR distance, lowest id on a tie: the
    /// fallback of every question no cell answers by containment.
    pub fn nearest_cell(&self, p: &Point) -> CellId {
        let pm = p.mbr();
        let mut best = (f64::INFINITY, 0u32);
        for (i, c) in self.cells.iter().enumerate() {
            let d = c.min_distance(&pm);
            if d < best.0 {
                best = (d, i as CellId);
            }
        }
        best.1
    }
}

/// Whether one cell owns a point ([`CellLocator::owner_test`]): exactly
/// [`CellLocator::owns`] for that cell. Most probes are answered from the
/// certificates without locating the owner.
#[derive(Debug, Clone, Copy)]
pub struct OwnerTest<'a> {
    locator: &'a CellLocator,
    cell: CellId,
    /// The cell's rectangle ([`Mbr::empty`] for an id past the list).
    rect: Mbr,
    sole: bool,
    filled: Mbr,
}

impl OwnerTest<'_> {
    /// Whether the cell owns `p`: a point strictly inside a `sole` cell is
    /// its own; a point in `filled` outside the cell has a containing owner
    /// that is not this cell; any other point asks `owner`.
    pub fn owns(&self, p: &Point) -> bool {
        let c = &self.rect;
        if self.sole && c.min_x < p.x && p.x < c.max_x && c.min_y < p.y && p.y < c.max_y {
            true
        } else if self.filled.contains_point(p) && !c.contains_point(p) {
            false
        } else {
            // `owner` runs its own sanitizer check.
            self.locator.owner(p) == self.cell
        }
    }

    /// The located cell list this test reads.
    pub fn locator(&self) -> &CellLocator {
        self.locator
    }

    /// The cell this test answers for.
    pub fn cell(&self) -> CellId {
        self.cell
    }
}

/// Hands `cells` to `each`; whether there was one.
fn hand(cells: impl Iterator<Item = CellId>, each: &mut impl FnMut(CellId)) -> bool {
    cells.fold(false, |_, id| {
        each(id);
        true
    })
}

/// Runtime invariant sanitizer (feature `sanitize`): linear scans over the
/// same cells, which every located answer must equal.
#[cfg(feature = "sanitize")]
mod linear {
    use super::{CellId, CellLocator, Mbr, Point};

    pub(super) fn assign(located: &CellLocator, mbr: &Mbr) -> Vec<CellId> {
        let mut out: Vec<CellId> = located
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.intersects(mbr))
            .map(|(i, _)| i as CellId)
            .collect();
        if out.is_empty() {
            out.push(located.nearest_cell(&mbr.center()));
        }
        out
    }

    pub(super) fn owner(located: &CellLocator, p: &Point) -> CellId {
        let containing = located.cells.iter().position(|c| c.contains_point(p));
        containing.map_or_else(|| located.nearest_cell(p), |i| i as CellId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{bsp_cells, str_tile_cells};

    const EXTENT: Mbr = Mbr { min_x: -20.0, min_y: 5.0, max_x: 80.0, max_y: 65.0 };

    fn spread(n: usize) -> Vec<Point> {
        let at = |i: usize, m: usize, lo: f64, len: f64| lo + (i * 37 % m) as f64 / m as f64 * len;
        (0..n).map(|i| Point::new(at(i, 101, -20.0, 100.0), at(i * 3, 97, 5.0, 60.0))).collect()
    }

    /// A few distinct coordinates, each many times: STR emits zero-height
    /// tiles and zero-width strips, BSP stops early.
    fn duplicates(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new((i % 5) as f64 * 10.0, (i % 3) as f64 * 10.0 + 10.0)).collect()
    }

    /// `owns` answers correctly whether or not its fast path fires — the
    /// fallback is `owner` — so the certificates are held here directly:
    /// every positive-area cell of an STR, BSP or subdivided tiling is
    /// sole, and the tiling's extent is filled.
    #[test]
    fn tilings_certify_every_cell_and_their_extent() {
        let (mut subdivided, mut degenerate) = (0, 0);
        for sample in [spread(2000), spread(3), duplicates(400), Vec::new()] {
            for target in [1usize, 2, 64, 512] {
                let str_tiles = str_tile_cells(EXTENT, sample.clone(), target);
                if str_tiles.len() > sample.len().max(1) {
                    subdivided += 1;
                }
                let bsp = bsp_cells(EXTENT, sample.clone(), target);
                for cells in [str_tiles, bsp] {
                    degenerate += cells.iter().filter(|c| c.area() == 0.0).count();
                    let located = CellLocator::new(cells.clone());
                    assert_eq!(located.filled, EXTENT, "{} cells", cells.len());
                    for (id, (c, &sole)) in cells.iter().zip(&located.sole).enumerate() {
                        assert_eq!(sole, c.area() > 0.0, "cell {id} = {c:?}");
                    }
                }
            }
        }
        assert!(subdivided > 0, "STR never had to subdivide");
        assert!(degenerate > 0, "no zero-width or zero-height tile was generated");
    }

    /// The guide only picks where a search starts: on every axis of STR,
    /// BSP, grid, overlapping and extreme lists, at every edge and one ulp
    /// either side, between edges, at NaN, ±0 and ±inf, the guided search
    /// answers the binary search over the whole axis. Every axis of two or
    /// more finite edges over a finite span has a guide.
    #[test]
    fn guided_search_is_the_binary_search() {
        let (mut guided, mut probes) = (0, 0);
        let lists = [
            str_tile_cells(EXTENT, spread(2000), 512),
            bsp_cells(EXTENT, spread(2000), 128),
            str_tile_cells(EXTENT, duplicates(400), 64),
            crate::partition::grid_cells(EXTENT, 512),
            vec![Mbr::new(0.0, 0.0, 2.0, 2.0), Mbr::new(1.0, 1.0, 3.0, 3.0)],
            // A span too small for a finite scale, and one too wide.
            vec![Mbr::new(0.0, 0.0, 5e-324, 1.0)],
            vec![Mbr::new(-1e308, 0.0, 1e308, 1.0)],
            vec![Mbr::new(f64::NEG_INFINITY, 0.0, 1.0, f64::INFINITY)],
        ];
        for cells in lists {
            let located = CellLocator::new(cells);
            for k in 0..located.axes.at.len() {
                let axis = located.axes.get(k).expect("every pushed axis");
                let edges = axis.edges;
                let mut at = vec![f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
                for (i, &e) in edges.iter().enumerate() {
                    at.extend([e.next_down(), e, e.next_up()]);
                    at.extend(edges.get(i + 1).map(|&f| e / 2.0 + f / 2.0));
                }
                for v in at {
                    assert_eq!(
                        axis.below(v),
                        edges.partition_point(|&e| e < v),
                        "{v} in {edges:?}"
                    );
                    probes += 1;
                }
                let finite = edges.first().zip(edges.last()).is_some_and(|(lo, hi)| {
                    lo.is_finite() && hi.is_finite() && (hi - lo).is_finite() && hi - lo > 1e-300
                });
                assert_eq!(!axis.table.is_empty(), finite, "guide over {edges:?}");
                guided += usize::from(finite);
            }
        }
        assert!(guided > 100, "guided axes: {guided}");
        assert!(probes > 5000, "probes: {probes}");
    }

    #[test]
    fn overlaps_gaps_and_needles_certify_nothing_false() {
        let (a, b) = (Mbr::new(0.0, 0.0, 2.0, 2.0), Mbr::new(1.0, 1.0, 3.0, 3.0));
        let located = CellLocator::new(vec![a, b, Mbr::new(5.0, 0.0, 6.0, 1.0)]);
        assert_eq!(located.sole, [false, false, true]);
        assert!(located.filled.is_empty(), "a gap and a ragged top fill nothing");
        // A zero-width or zero-height needle through a cell's interior.
        for needle in [Mbr::new(1.0, -1.0, 1.0, 0.5), Mbr::new(-1.0, 1.0, 0.5, 1.0)] {
            let located = CellLocator::new(vec![a, needle]);
            assert_eq!(located.sole, [false, false]);
        }
        // A needle along a shared boundary leaves both neighbours sole.
        let right = Mbr::new(2.0, 0.0, 4.0, 2.0);
        let located = CellLocator::new(vec![a, Mbr::new(2.0, 0.0, 2.0, 2.0), right]);
        assert_eq!(located.sole, [true, false, true]);
        assert_eq!(located.filled, Mbr::new(0.0, 0.0, 4.0, 2.0));
    }
}
