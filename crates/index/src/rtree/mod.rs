//! Packed R-tree, built by Sort-Tile-Recursive bulk loading.
//!
//! [`RTree::bulk_load_str`] is the one way to build a tree: the bulk loader
//! SpatialHadoop uses when writing indexed HDFS blocks and SpatialSpark uses
//! for its broadcast partition index. Every system's local join that builds
//! a tree — HadoopGIS's indexed nested loop included — packs it with STR.
//!
//! Nodes live in a flat arena (`Vec<Node>`), children referenced by index —
//! cache-friendly and trivially serializable for the simulated block files.

mod node;
mod query;
mod str_bulk;

pub use node::{Node, NodeId};
pub use query::InnerNodes;

use sjc_geom::Mbr;

use crate::entry::IndexEntry;

/// Maximum entries per node (fan-out). 16 is a typical disk-page-free
/// in-memory choice; SpatialHadoop uses degree ~25 for 64MB blocks, but the
/// structure is insensitive to the exact constant.
pub const MAX_ENTRIES: usize = 16;

/// A packed R-tree over `(id, mbr)` entries.
#[derive(Debug, Clone)]
pub struct RTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    pub(crate) len: usize,
}

impl RTree {
    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// MBR of the whole tree (empty MBR for an empty tree).
    pub fn mbr(&self) -> Mbr {
        self.node(self.root).mbr()
    }

    /// Total node count (diagnostics / cost accounting: one simulated page
    /// access per visited node).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The audited arena access: every `NodeId` is minted by the bulk loader
    /// in this module and points into `self.nodes`, so the index cannot miss.
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        // sjc-lint: allow(no-panic-in-lib) — NodeIds are minted by this module and always index the arena
        &self.nodes[id.0]
    }

    /// Root node id — exposed for synchronized dual-tree traversal.
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// Raw node access — exposed for synchronized dual-tree traversal.
    pub fn node_ref(&self, id: NodeId) -> &Node {
        self.node(id)
    }

    /// Validates structural invariants; used by tests.
    ///
    /// * every inner node's MBR equals the union of its children's MBRs;
    /// * every leaf's MBR equals the union of its entries' MBRs;
    /// * all leaves are at the same depth;
    /// * node occupancy is within `[1, MAX_ENTRIES]`.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.len == 0 {
            return Ok(());
        }
        let mut leaf_depths = Vec::new();
        self.check_node(self.root, 0, &mut leaf_depths)?;
        let Some(&first) = leaf_depths.first() else {
            return Err("non-empty tree has no leaves".into());
        };
        if leaf_depths.iter().any(|&d| d != first) {
            return Err(format!("leaves at mixed depths: {leaf_depths:?}"));
        }
        Ok(())
    }

    fn check_node(
        &self,
        id: NodeId,
        depth: usize,
        leaf_depths: &mut Vec<usize>,
    ) -> Result<(), String> {
        match self.node(id) {
            Node::Leaf { mbr, entries } => {
                if entries.is_empty() || entries.len() > MAX_ENTRIES {
                    return Err(format!("leaf occupancy {} out of range", entries.len()));
                }
                let mut union = Mbr::empty();
                for e in entries {
                    union.expand(&e.mbr);
                }
                if union != *mbr {
                    return Err("leaf MBR is not the union of entry MBRs".into());
                }
                leaf_depths.push(depth);
            }
            Node::Inner { mbr, children } => {
                if children.is_empty() || children.len() > MAX_ENTRIES {
                    return Err(format!("inner occupancy {} out of range", children.len()));
                }
                let mut union = Mbr::empty();
                for &c in children {
                    union.expand(&self.node(c).mbr());
                    self.check_node(c, depth + 1, leaf_depths)?;
                }
                if union != *mbr {
                    return Err("inner MBR is not the union of child MBRs".into());
                }
            }
        }
        Ok(())
    }

    /// Runtime invariant sanitizer (feature `sanitize`): entries handed to
    /// the bulk loader must carry a real MBR — an inverted/empty box would be
    /// invisible to every query and silently drop join results.
    #[cfg(feature = "sanitize")]
    pub(crate) fn sanitize_entry(entry: &IndexEntry) {
        debug_assert!(
            !entry.mbr.is_empty(),
            "sanitize: R-tree entry {} has an inverted/empty MBR {:?}",
            entry.id,
            entry.mbr
        );
        entry.mbr.sanitize_check();
    }

    /// Runtime invariant sanitizer (feature `sanitize`): full structural
    /// check (node fill in `[1, MAX_ENTRIES]`, parent MBRs equal the union
    /// of their children, uniform leaf depth). O(n); the bulk loader calls
    /// it once per tree.
    #[cfg(feature = "sanitize")]
    pub(crate) fn sanitize_tree(&self) {
        if let Err(e) = self.check_invariants() {
            debug_assert!(false, "sanitize: R-tree invariants violated: {e}");
        }
    }

    /// All entries, in arbitrary order (test helper).
    pub fn entries(&self) -> Vec<IndexEntry> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match self.node(id) {
                Node::Leaf { entries, .. } => out.extend(entries.iter().copied()),
                Node::Inner { children, .. } => stack.extend(children.iter().copied()),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_entries(n: usize) -> Vec<IndexEntry> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                IndexEntry::new(i as u64, Mbr::new(x, y, x + 0.5, y + 0.5))
            })
            .collect()
    }

    #[test]
    fn bulk_load_invariants_hold() {
        for n in [0, 1, 5, 16, 17, 100, 1000] {
            let t = RTree::bulk_load_str(grid_entries(n));
            assert_eq!(t.len(), n);
            t.check_invariants().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn str_packing_is_compact() {
        // One leaf for a tiny input. 1000 entries at fan-out 16 need at
        // least 63 leaves, 4 inner nodes and a root; STR's slicing leaves a
        // little slack, never a sparse tree.
        assert_eq!(RTree::bulk_load_str(grid_entries(10)).num_nodes(), 1);
        let large = RTree::bulk_load_str(grid_entries(1000)).num_nodes();
        assert!((68..=72).contains(&large), "{large} nodes");
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = RTree::bulk_load_str(Vec::new());
        assert!(t.is_empty());
        assert!(t.mbr().is_empty());
        let mut out = Vec::new();
        t.query_into(&Mbr::new(0.0, 0.0, 1.0, 1.0), &mut out);
        assert!(out.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn entries_round_trip() {
        let input = grid_entries(77);
        let t = RTree::bulk_load_str(input.clone());
        let mut ids: Vec<u64> = t.entries().iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..77).collect::<Vec<u64>>());
    }
}
