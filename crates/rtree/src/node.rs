//! R-tree node representation: preorder-numbered nodes holding either
//! child MBR entries or point entries.

use std::fmt;
use tnn_geom::{Point, Rect};

/// Identifier of an R-tree node.
///
/// Node ids equal the **depth-first preorder rank** of the node, which the
/// broadcast layer uses directly as the node's page offset inside an index
/// segment. The root is always `NodeId(0)`, and every parent's id precedes
/// all of its descendants' ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root node id.
    pub const ROOT: NodeId = NodeId(0);

    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a data object (its rank in the original dataset order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// An internal-node entry: the child's MBR plus its id (on air, the id is
/// the child's arrival pointer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildEntry {
    /// MBR of the child subtree.
    pub mbr: Rect,
    /// Preorder id of the child node.
    pub child: NodeId,
}

/// A leaf entry: a data point plus the id of the object it locates (on
/// air, the id resolves to the object's data-page pointer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEntry {
    /// Location of the object.
    pub point: Point,
    /// The object this entry points at.
    pub object: ObjectId,
}

/// The payload of a node.
#[derive(Debug, Clone, PartialEq)]
pub enum Entries {
    /// Internal node: child entries in packing order.
    Internal(Vec<ChildEntry>),
    /// Leaf node: point entries in packing order.
    Leaf(Vec<LeafEntry>),
}

/// One R-tree node. In the broadcast model a node occupies exactly one
/// page.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Minimal bounding rectangle of everything below this node.
    pub mbr: Rect,
    /// Level above the leaves: leaves have level 0, the root has
    /// `height − 1`.
    pub level: u32,
    /// Child or point entries.
    pub entries: Entries,
}

impl Node {
    /// `true` for leaf nodes.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        matches!(self.entries, Entries::Leaf(_))
    }

    /// Number of entries (children or points).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.entries {
            Entries::Internal(cs) => cs.len(),
            Entries::Leaf(ps) => ps.len(),
        }
    }

    /// `true` when the node has no entries (never the case in a packed
    /// tree; kept for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Child entries, or `None` for leaves.
    #[inline]
    pub fn children(&self) -> Option<&[ChildEntry]> {
        match &self.entries {
            Entries::Internal(cs) => Some(cs),
            Entries::Leaf(_) => None,
        }
    }

    /// Leaf entries, or `None` for internal nodes.
    #[inline]
    pub fn points(&self) -> Option<&[LeafEntry]> {
        match &self.entries {
            Entries::Internal(_) => None,
            Entries::Leaf(ps) => Some(ps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_accessors() {
        let leaf = Node {
            mbr: Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            level: 0,
            entries: Entries::Leaf(vec![LeafEntry {
                point: Point::new(0.5, 0.5),
                object: ObjectId(3),
            }]),
        };
        assert!(leaf.is_leaf());
        assert_eq!(leaf.len(), 1);
        assert!(!leaf.is_empty());
        assert!(leaf.children().is_none());
        assert_eq!(leaf.points().unwrap()[0].object, ObjectId(3));

        let inner = Node {
            mbr: Rect::from_coords(0.0, 0.0, 2.0, 2.0),
            level: 1,
            entries: Entries::Internal(vec![ChildEntry {
                mbr: Rect::from_coords(0.0, 0.0, 1.0, 1.0),
                child: NodeId(1),
            }]),
        };
        assert!(!inner.is_leaf());
        assert_eq!(inner.children().unwrap().len(), 1);
        assert!(inner.points().is_none());
    }

    #[test]
    fn id_display_and_index() {
        assert_eq!(NodeId(5).to_string(), "n5");
        assert_eq!(ObjectId(9).to_string(), "o9");
        assert_eq!(NodeId(5).index(), 5);
        assert_eq!(ObjectId(9).index(), 9);
        assert_eq!(NodeId::ROOT, NodeId(0));
    }
}
