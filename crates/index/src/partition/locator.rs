//! Exact point/rectangle location over a fixed cell list.
//!
//! The trait defaults of [`SpatialPartitioner`] scan every cell per call —
//! once or twice per *refined hit* for `owner`, once per record for
//! `assign`. [`CellLocator`] answers the same questions from a structure
//! built once per partitioner.
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

use std::ops::Range;

use sjc_geom::{Mbr, Point};

use super::{CellId, SpatialPartitioner};

/// A fixed cell list with O(log n) exact location. Itself a partitioner, so
/// an adopted cell list needs no wrapper; the sample-driven partitioners
/// hold one and delegate.
#[derive(Debug, Clone)]
pub struct CellLocator {
    cells: Vec<Mbr>,
    /// Axis 0 is the x-axis over every non-empty cell; axis `1 + i` is the
    /// y-axis over the cells of the `i`-th open x-interval.
    axes: Axes,
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
        CellLocator { cells, axes }
    }

    /// The x-axis (always pushed first; without edges when no cell is live).
    fn columns(&self) -> Axis<'_> {
        self.axes.get(0).unwrap_or(Axis { edges: &[], starts: &[], members: &[] })
    }

    fn cell(&self, id: CellId) -> Option<&Mbr> {
        self.cells.get(id as usize)
    }

    /// The y-axis under x-region `column`, when that is an open interval.
    fn rows_under(&self, column: usize) -> Option<Axis<'_>> {
        self.axes.get(1 + column / 2).filter(|_| column % 2 == 1)
    }
}

impl SpatialPartitioner for CellLocator {
    fn cells(&self) -> &[Mbr] {
        &self.cells
    }

    fn assign_into(&self, mbr: &Mbr, out: &mut Vec<CellId>) {
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
        debug_assert_eq!(*out, Linear(&self.cells).assign(mbr), "sanitize: assign({mbr:?})");
    }

    fn owner(&self, p: &Point) -> CellId {
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
        debug_assert_eq!(owner, Linear(&self.cells).owner(p), "sanitize: owner({p:?})");
        owner
    }
}

/// Runtime invariant sanitizer (feature `sanitize`): the trait's linear
/// scans over the same cells, which every located answer must equal.
#[cfg(feature = "sanitize")]
struct Linear<'a>(&'a [Mbr]);

#[cfg(feature = "sanitize")]
impl SpatialPartitioner for Linear<'_> {
    fn cells(&self) -> &[Mbr] {
        self.0
    }
}
