//! R-tree window queries.

use sjc_geom::Mbr;

use super::{Node, NodeId, RTree};

impl RTree {
    /// The ids of all entries whose MBR intersects `window`, into a
    /// reusable buffer (avoids per-probe allocation in the hot local-join
    /// loop).
    pub fn query_into(&self, window: &Mbr, out: &mut Vec<u64>) {
        self.query_counting(window, out);
    }

    /// Window query that also counts visited nodes — the per-probe traversal
    /// cost the simulator charges (HadoopGIS pays this per *record* against
    /// its sample R-tree; the paper calls this out as memory intensive).
    pub fn query_counting(&self, window: &Mbr, out: &mut Vec<u64>) -> usize {
        out.clear();
        if window.is_empty() {
            return 0;
        }
        1 + self.walk(self.root, window, out)
    }

    /// Pushes the ids under `id` whose MBR meets `window` and returns the
    /// nodes visited below `id`: a depth-first walk that takes the last
    /// child first, the order of a stack of pushed children, by recursion
    /// as deep as the tree, so no stack is allocated.
    fn walk(&self, id: NodeId, window: &Mbr, out: &mut Vec<u64>) -> usize {
        match self.node(id) {
            Node::Leaf { mbr, entries } => {
                if mbr.intersects(window) {
                    out.extend(entries.iter().filter(|e| e.mbr.intersects(window)).map(|e| e.id));
                }
                0
            }
            Node::Inner { mbr, children } if mbr.intersects(window) => {
                let below: usize = children.iter().rev().map(|&c| self.walk(c, window, out)).sum();
                children.len() + below
            }
            Node::Inner { .. } => 0,
        }
    }

    /// The nodes [`query_counting`](Self::query_counting) visits for
    /// `window`, without reading a leaf entry. The walk pops the root, then
    /// every child of an inner node whose MBR meets the window: the count
    /// is one plus the fan-out of those inner nodes (0 for an empty
    /// window). Every leaf sits at one depth (see
    /// [`check_invariants`](Self::check_invariants)), so the leaves are
    /// counted from their parents and never read.
    pub fn visits(&self, window: &Mbr) -> usize {
        if window.is_empty() {
            return 0;
        }
        let (mut height, mut id) = (0, self.root);
        while let Node::Inner { children, .. } = self.node(id) {
            height += 1;
            match children.first() {
                Some(&first) => id = first,
                None => break,
            }
        }
        1 + self.visits_below(self.root, height, window)
    }

    /// The nodes the walk pops below `id`, `height` levels above the
    /// leaves: recursion as deep as the tree, so no stack is allocated.
    fn visits_below(&self, id: NodeId, height: usize, window: &Mbr) -> usize {
        match self.node(id) {
            Node::Inner { mbr, children } if mbr.intersects(window) => {
                let below = match height {
                    0 | 1 => 0,
                    _ => children.iter().map(|&c| self.visits_below(c, height - 1, window)).sum(),
                };
                children.len() + below
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::IndexEntry;

    fn tree() -> RTree {
        let entries: Vec<IndexEntry> = (0..400)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                IndexEntry::new(i as u64, Mbr::new(x, y, x + 0.9, y + 0.9))
            })
            .collect();
        RTree::bulk_load_str(entries)
    }

    fn brute_force(window: &Mbr) -> Vec<u64> {
        (0..400u64)
            .filter(|&i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                Mbr::new(x, y, x + 0.9, y + 0.9).intersects(window)
            })
            .collect()
    }

    #[test]
    fn query_matches_brute_force() {
        let t = tree();
        for window in [
            Mbr::new(0.0, 0.0, 1.0, 1.0),
            Mbr::new(5.5, 5.5, 9.2, 7.1),
            Mbr::new(-10.0, -10.0, -1.0, -1.0),
            Mbr::new(0.0, 0.0, 100.0, 100.0),
            Mbr::new(19.95, 19.95, 25.0, 25.0),
        ] {
            let mut got = Vec::new();
            t.query_into(&window, &mut got);
            got.sort_unstable();
            let mut expected = brute_force(&window);
            expected.sort_unstable();
            assert_eq!(got, expected, "window {window:?}");
        }
    }

    #[test]
    fn empty_window_returns_nothing() {
        let mut out = vec![7];
        tree().query_into(&Mbr::empty(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn counting_query_visits_fewer_nodes_for_small_windows() {
        let t = tree();
        let mut buf = Vec::new();
        let small = t.query_counting(&Mbr::new(0.0, 0.0, 1.0, 1.0), &mut buf);
        let large = t.query_counting(&Mbr::new(0.0, 0.0, 100.0, 100.0), &mut buf);
        assert!(small < large);
        assert!(large <= t.num_nodes());
    }

    /// The stack-based walk the recursion replaced, as a free function:
    /// ids in its order, and the nodes it pops.
    fn stack_walk(t: &RTree, window: &Mbr) -> (Vec<u64>, usize) {
        let (mut out, mut visited) = (Vec::new(), 0);
        if window.is_empty() {
            return (out, 0);
        }
        let mut stack = vec![t.root];
        while let Some(id) = stack.pop() {
            visited += 1;
            match t.node(id) {
                Node::Leaf { mbr, entries } => {
                    if mbr.intersects(window) {
                        for e in entries {
                            if e.mbr.intersects(window) {
                                out.push(e.id);
                            }
                        }
                    }
                }
                Node::Inner { mbr, children } => {
                    if mbr.intersects(window) {
                        stack.extend(children.iter().copied());
                    }
                }
            }
        }
        (out, visited)
    }

    /// The recursive walk finds what the stack walk found, in its order,
    /// and `visits` counts what both visit.
    #[test]
    fn recursion_keeps_the_stack_walks_order_and_count() {
        let t = tree();
        let mut buf = Vec::new();
        for window in [
            Mbr::new(0.0, 0.0, 1.0, 1.0),
            Mbr::new(5.5, 5.5, 9.2, 7.1),
            Mbr::new(-10.0, -10.0, -1.0, -1.0),
            Mbr::new(0.0, 0.0, 100.0, 100.0),
            Mbr { min_x: 3.0, min_y: 3.0, max_x: 1.0, max_y: 1.0 },
        ] {
            let visited = t.query_counting(&window, &mut buf);
            assert_eq!((buf.clone(), visited), stack_walk(&t, &window), "{window:?}");
            assert_eq!(t.visits(&window), visited, "visits for {window:?}");
        }
    }

    #[test]
    fn query_into_reuses_buffer() {
        let t = tree();
        let mut buf = vec![999; 8];
        t.query_into(&Mbr::new(0.0, 0.0, 0.5, 0.5), &mut buf);
        assert!(!buf.contains(&999), "buffer must be cleared first");
    }
}
