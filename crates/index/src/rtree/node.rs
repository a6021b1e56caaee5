//! R-tree node representation (flat arena).

use sjc_geom::Mbr;

use crate::entry::IndexEntry;

/// Index of a node in the tree's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// An R-tree node: a leaf holding entries, or an inner node holding children.
#[derive(Debug, Clone)]
pub enum Node {
    Leaf { mbr: Mbr, entries: Vec<IndexEntry> },
    Inner { mbr: Mbr, children: Vec<NodeId> },
}

impl Node {
    pub fn mbr(&self) -> Mbr {
        match self {
            Node::Leaf { mbr, .. } | Node::Inner { mbr, .. } => *mbr,
        }
    }
}
