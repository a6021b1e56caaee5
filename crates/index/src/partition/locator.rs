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
//! values themselves, never arithmetic to pick a bucket. A probe on a
//! shared boundary lands in the edge's own region, whose list names every
//! cell touching it, so boundary ties, zero-width cells and probes outside
//! every cell resolve exactly as the linear scans resolve them (lowest id
//! wins; nearest cell otherwise). `tests/cell_locator_equivalence.rs`
//! holds the two to each other.
//!
//! `owns(cell, p)` — the reference-point test, asked of every candidate
//! pair — is mostly answered without a search, from two certificates read
//! off the axes once:
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

/// A sequence of axes stored back to back in four vectors, however many
/// axes there are: a partitioner lives as long as a system run, and dozens
/// of small long-lived allocations scattered through the heap cost more
/// resident memory (in what they keep the allocator from reusing) than
/// they hold.
#[derive(Debug, Clone, Default)]
struct Axes {
    /// Axis `k` owns `edges[first_edge[k]..first_edge[k + 1]]`.
    first_edge: Vec<u32>,
    /// Per axis, the sorted distinct range bounds of its cells.
    edges: Vec<f64>,
    /// An axis of `n` edges has `2n - 1` regions and owns `2n` entries
    /// here, from twice its first edge on: its region `r` lists
    /// `members[starts[r]..starts[r + 1]]`, ascending.
    starts: Vec<u32>,
    members: Vec<CellId>,
}

/// One axis cut into elementary regions — region `2i` is the edge
/// `edges[i]`, region `2i + 1` the open interval up to `edges[i + 1]` —
/// with, per region, the cells whose closed range on this axis holds it.
#[derive(Debug, Clone, Copy)]
struct Axis<'a> {
    edges: &'a [f64],
    starts: &'a [u32],
    members: &'a [CellId],
}

/// One past the region of `edges` holding `v`, counting "below every edge"
/// as 0 — so that region is `raw - 1`, and a `v` above every edge yields
/// one past the last region. NaN counts as below every edge.
fn raw_region(edges: &[f64], v: f64) -> usize {
    let below = edges.partition_point(|&e| e < v);
    // `edges[below]` is the first edge not below `v`: it equals `v` exactly
    // when it is not above it either.
    let on_edge = edges.get(below).is_some_and(|&e| e <= v);
    2 * below + usize::from(on_edge)
}

/// The regions of `edges` meeting the closed interval `[lo, hi]`
/// (`lo <= hi`).
fn regions(edges: &[f64], lo: f64, hi: f64) -> Range<usize> {
    let count = (2 * edges.len()).saturating_sub(1);
    raw_region(edges, lo).saturating_sub(1)..raw_region(edges, hi).min(count)
}

impl<'a> Axis<'a> {
    /// The region holding `v`; none for a `v` outside every edge.
    fn region(&self, v: f64) -> Option<usize> {
        raw_region(self.edges, v).checked_sub(1).filter(|&r| r + 1 < self.starts.len())
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
        // A range bounded by edges holds exactly the regions it meets.
        // Count per region, prefix-sum, fill: ids arrive ascending, so
        // every list comes out ascending.
        cursors.clear();
        cursors.resize(2 * edges.len(), 0);
        for &(_, lo, hi) in spans {
            let held = regions(edges, lo, hi);
            for count in cursors.get_mut(held.start + 1..held.end + 1).into_iter().flatten() {
                *count += 1;
            }
        }
        let mut end = self.members.len() as u32;
        for cursor in cursors.iter_mut() {
            end += *cursor;
            *cursor = end;
        }
        self.first_edge.push(self.edges.len() as u32);
        self.edges.extend_from_slice(edges);
        self.starts.extend_from_slice(cursors);
        self.members.resize(end as usize, 0);
        for &(id, lo, hi) in spans {
            for cursor in cursors.get_mut(regions(edges, lo, hi)).into_iter().flatten() {
                if let Some(slot) = self.members.get_mut(*cursor as usize) {
                    *slot = id;
                }
                *cursor += 1;
            }
        }
    }

    /// Axis `k`, if that many were pushed.
    fn get(&self, k: usize) -> Option<Axis<'_>> {
        let from = *self.first_edge.get(k)? as usize;
        let to = self.first_edge.get(k + 1).map_or(self.edges.len(), |&e| e as usize);
        Some(Axis {
            edges: self.edges.get(from..to)?,
            starts: self.starts.get(2 * from..2 * to)?,
            members: &self.members,
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
        self.axes.get(0).unwrap_or(Axis { edges: &[], starts: &[], members: &[] })
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
        let x = self.columns();
        // An inverted MBR is empty and meets nothing, whatever its bounds.
        let columns = if mbr.is_empty() { 0..0 } else { regions(x.edges, mbr.min_x, mbr.max_x) };
        let one_region = match (columns.len(), self.rows_under(columns.start)) {
            (1, Some(rows)) => {
                let within = regions(rows.edges, mbr.min_y, mbr.max_y);
                (within.len() == 1).then(|| rows.list(within.start))
            }
            _ => None,
        };
        match one_region {
            // Inside one region on both axes (most records): its list is
            // the answer.
            Some(cells) => out.extend_from_slice(cells),
            // Otherwise test the cells of every x-region crossed; an edge
            // region repeats cells of the intervals beside it.
            None => {
                for column in columns.clone() {
                    let cells = x.list(column).iter();
                    out.extend(
                        cells.filter(|&&id| self.cell(id).is_some_and(|c| c.intersects(mbr))),
                    );
                }
                if columns.len() > 1 {
                    out.sort_unstable();
                    out.dedup();
                }
            }
        }
        if out.is_empty() {
            out.push(self.nearest_cell(&mbr.center()));
        }
        #[cfg(feature = "sanitize")]
        debug_assert_eq!(*out, linear::assign(self, mbr), "sanitize: assign({mbr:?})");
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

    /// Whether `cell` owns `p`: exactly `owner(p) == cell`. The
    /// reference-point rule asks it of every candidate pair, so most probes
    /// are answered from the certificates without locating the owner.
    pub fn owns(&self, cell: CellId, p: &Point) -> bool {
        let decided = self.cell(cell).and_then(|c| {
            let sole = self.sole.get(cell as usize).is_some_and(|&s| s);
            let inside = c.min_x < p.x && p.x < c.max_x && c.min_y < p.y && p.y < c.max_y;
            if sole && inside {
                Some(true)
            } else if self.filled.contains_point(p) && !c.contains_point(p) {
                Some(false)
            } else {
                None
            }
        });
        match decided {
            Some(owns) => {
                #[cfg(feature = "sanitize")]
                debug_assert_eq!(
                    owns,
                    linear::owner(self, p) == cell,
                    "sanitize: owns({cell}, {p:?})"
                );
                owns
            }
            // `owner` runs its own sanitizer check.
            None => self.owner(p) == cell,
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
