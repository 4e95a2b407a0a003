//! The packed R-tree container and its structural invariants.

use crate::{build, Entries, Node, NodeId, ObjectId, PackingAlgorithm, RTreeError, RTreeParams};
use tnn_geom::{Point, Rect};

/// The workspace's deterministic 64-bit fingerprint fold: FNV-1a over
/// whole `u64` words, each multiply followed by a xor-shift so that the
/// high bits of a word reach the low bits of the state. Every step is a
/// bijection of the state, so two sequences of the same length that
/// differ in exactly one word always fingerprint differently.
///
/// Hand-rolled rather than `DefaultHasher`: the std hasher's algorithm is
/// unspecified and may change between releases, while these values
/// identify environments across processes.
///
/// ```
/// use tnn_rtree::fingerprint;
///
/// assert_ne!(fingerprint([1, 2]), fingerprint([2, 1]));
/// assert_ne!(fingerprint([1 << 63]), fingerprint([0]));
/// ```
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(FNV_OFFSET, mix)
}

/// The FNV-1a offset basis: the fingerprint of no words.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One step of [`fingerprint`].
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    h ^ (h >> 32)
}

/// An immutable, bulk-loaded R-tree over 2-D points.
///
/// Nodes are stored in **depth-first preorder**: `nodes[0]` is the root and
/// a node's id is its preorder rank, which doubles as the node's page
/// offset inside a broadcast index segment (see `tnn-broadcast`).
///
/// ```
/// use tnn_geom::Point;
/// use tnn_rtree::{RTree, RTreeParams, PackingAlgorithm};
///
/// let pts: Vec<Point> = (0..100)
///     .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
///     .collect();
/// let tree = RTree::build(&pts, RTreeParams::for_page_capacity(64),
///                         PackingAlgorithm::Str).unwrap();
/// let nn = tree.nearest_neighbor(Point::new(4.2, 4.9)).unwrap();
/// assert_eq!(nn.point, Point::new(4.0, 5.0));
/// ```
#[derive(Debug, Clone)]
pub struct RTree {
    nodes: Vec<Node>,
    num_objects: usize,
    height: u32,
    params: RTreeParams,
    packing: PackingAlgorithm,
}

impl RTree {
    /// Bulk-loads a tree from bare points; object ids are assigned from the
    /// slice order (`points[i]` gets `ObjectId(i)`).
    pub fn build(
        points: &[Point],
        params: RTreeParams,
        algo: PackingAlgorithm,
    ) -> Result<Self, RTreeError> {
        let pairs: Vec<(Point, ObjectId)> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, ObjectId(i as u32)))
            .collect();
        build::build_tree(&pairs, params, algo)
    }

    /// Bulk-loads a tree from explicit `(point, object)` pairs.
    pub fn build_with_ids(
        points: &[(Point, ObjectId)],
        params: RTreeParams,
        algo: PackingAlgorithm,
    ) -> Result<Self, RTreeError> {
        build::build_tree(points, params, algo)
    }

    /// A tree over the **empty dataset**: a single entry-less leaf root
    /// with a degenerate bounding rectangle.
    ///
    /// [`RTree::build`] deliberately rejects empty input
    /// ([`RTreeError::EmptyDataset`]) because a packed tree cannot index
    /// nothing — this constructor exists so a broadcast channel whose
    /// dataset is (still) empty can be *represented* and rejected
    /// gracefully downstream (`TnnError::EmptyChannel`) instead of being
    /// unconstructible. Queries against an empty tree find nothing:
    /// [`RTree::nearest_neighbor`] returns `None` and range queries see
    /// an empty leaf.
    pub fn empty(params: RTreeParams) -> Self {
        let root = Node {
            mbr: Rect::from_coords(0.0, 0.0, 0.0, 0.0),
            level: 0,
            entries: Entries::Leaf(Vec::new()),
        };
        RTree::from_parts(vec![root], 0, 1, params, PackingAlgorithm::Str)
    }

    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        num_objects: usize,
        height: u32,
        params: RTreeParams,
        packing: PackingAlgorithm,
    ) -> Self {
        RTree {
            nodes,
            num_objects,
            height,
            params,
            packing,
        }
    }

    /// The node with the given id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All nodes in preorder.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (== pages in a broadcast index segment).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of indexed objects.
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Tree height in levels (a single leaf-root tree has height 1). The
    /// paper's `Rtree_height` in the dynamic-α formula (eq. 4).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Node-capacity parameters the tree was built with.
    #[inline]
    pub fn params(&self) -> RTreeParams {
        self.params
    }

    /// Packing algorithm the tree was built with.
    #[inline]
    pub fn packing(&self) -> PackingAlgorithm {
        self.packing
    }

    /// MBR of the whole dataset.
    #[inline]
    pub fn bounding_rect(&self) -> Rect {
        self.node(NodeId::ROOT).mbr
    }

    /// MBR of the root node — identical to [`RTree::bounding_rect`],
    /// under the name the sharding layer speaks (the root MBR is the
    /// shard's spatial extent when a tree *is* one shard's dataset).
    #[inline]
    pub fn root_mbr(&self) -> Rect {
        self.bounding_rect()
    }

    /// Depth of a node below the root (`root = 0`), the paper's
    /// `Node_depth` in the dynamic-α formula (eq. 4).
    #[inline]
    pub fn depth_of(&self, id: NodeId) -> u32 {
        self.height - 1 - self.node(id).level
    }

    /// A deterministic 64-bit fingerprint of the tree's **content and
    /// shape**: build parameters, packing algorithm, and every
    /// `(point, object)` pair in leaf preorder. Two trees carry the same
    /// fingerprint exactly when they index the same data the same way,
    /// so downstream caches can use it as environment identity (see
    /// `QueryKey` in `tnn-core`). The fold is [`fingerprint`]; the value
    /// is not persisted anywhere, and a test in `tnn-broadcast` pins one
    /// so that a change to it is deliberate.
    pub fn content_fingerprint(&self) -> u64 {
        self.fingerprint_leaf_order(|_, _| {})
    }

    /// Walks every `(point, object)` pair in leaf preorder, as
    /// [`RTree::objects_in_leaf_order`] yields them, handing each to
    /// `visit`, and returns [`RTree::content_fingerprint`] from the same
    /// pass — so a consumer that needs both reads the leaves once.
    pub fn fingerprint_leaf_order(&self, mut visit: impl FnMut(Point, ObjectId)) -> u64 {
        let packing = match self.packing {
            PackingAlgorithm::Str => 1,
            PackingAlgorithm::HilbertSort => 2,
            PackingAlgorithm::NearestX => 3,
        };
        let header = [
            self.num_objects as u64,
            self.params.fanout as u64,
            self.params.leaf_capacity as u64,
            packing,
        ];
        let mut h = header.into_iter().fold(FNV_OFFSET, mix);
        for (p, o) in self.objects_in_leaf_order() {
            visit(p, o);
            h = mix(mix(mix(h, p.x.to_bits()), p.y.to_bits()), u64::from(o.0));
        }
        h
    }

    /// Iterates over all `(point, object)` pairs in leaf preorder — the
    /// order in which objects are placed into the broadcast data segment.
    pub fn objects_in_leaf_order(&self) -> impl Iterator<Item = (Point, ObjectId)> + '_ {
        self.nodes
            .iter()
            .filter_map(|n| n.points())
            .flatten()
            .map(|e| (e.point, e.object))
    }

    /// Checks every structural invariant of the packed tree; used by tests
    /// and by debug assertions in downstream crates. Cheap relative to a
    /// build (single pass).
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("tree has no nodes".into());
        }
        let root = &self.nodes[0];
        if root.level + 1 != self.height {
            return Err(format!(
                "root level {} inconsistent with height {}",
                root.level, self.height
            ));
        }
        let mut object_count = 0usize;
        let mut seen_children = vec![false; self.nodes.len()];
        seen_children[0] = true;
        for (i, node) in self.nodes.iter().enumerate() {
            // The only legal empty node is the lone leaf root of an
            // [`RTree::empty`] tree.
            if node.is_empty() && !(self.num_objects == 0 && self.nodes.len() == 1) {
                return Err(format!("node n{i} is empty"));
            }
            match &node.entries {
                Entries::Internal(children) => {
                    if children.len() > self.params.fanout {
                        return Err(format!(
                            "node n{i} has {} children, fanout {}",
                            children.len(),
                            self.params.fanout
                        ));
                    }
                    let mut expected_first = i + 1;
                    for c in children {
                        let ci = c.child.index();
                        if ci >= self.nodes.len() {
                            return Err(format!("node n{i} references missing child {ci}"));
                        }
                        if seen_children[ci] {
                            return Err(format!("node n{ci} has two parents"));
                        }
                        seen_children[ci] = true;
                        let child = &self.nodes[ci];
                        if child.level + 1 != node.level {
                            return Err(format!(
                                "child n{ci} level {} under parent level {}",
                                child.level, node.level
                            ));
                        }
                        if c.mbr != child.mbr {
                            return Err(format!("entry MBR for n{ci} differs from the node MBR"));
                        }
                        if !node.mbr.contains_rect(&c.mbr) {
                            return Err(format!("parent n{i} MBR does not contain child n{ci}"));
                        }
                        // Preorder property: the child subtree occupies a
                        // contiguous id range starting at the child id.
                        if ci < expected_first {
                            return Err(format!(
                                "child n{ci} violates preorder (expected ≥ {expected_first})"
                            ));
                        }
                        expected_first = ci + 1;
                    }
                }
                Entries::Leaf(points) => {
                    if node.level != 0 {
                        return Err(format!("leaf n{i} has level {}", node.level));
                    }
                    if points.len() > self.params.leaf_capacity {
                        return Err(format!(
                            "leaf n{i} has {} points, capacity {}",
                            points.len(),
                            self.params.leaf_capacity
                        ));
                    }
                    for e in points {
                        if !node.mbr.contains(e.point) {
                            return Err(format!("leaf n{i} MBR does not contain {:?}", e.point));
                        }
                    }
                    object_count += points.len();
                }
            }
        }
        if let Some(orphan) = seen_children.iter().position(|&s| !s) {
            return Err(format!("node n{orphan} is unreachable"));
        }
        if object_count != self.num_objects {
            return Err(format!(
                "tree holds {object_count} objects, expected {}",
                self.num_objects
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree(n: usize) -> RTree {
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new((i * 13 % 47) as f64, (i * 29 % 53) as f64))
            .collect();
        RTree::build(&pts, RTreeParams::default(), PackingAlgorithm::Str).unwrap()
    }

    #[test]
    fn validate_accepts_fresh_trees() {
        for n in [1, 5, 6, 7, 50, 333] {
            sample_tree(n).validate().unwrap();
        }
    }

    #[test]
    fn depth_of_is_complement_of_level() {
        let tree = sample_tree(333);
        assert_eq!(tree.depth_of(NodeId::ROOT), 0);
        for (i, node) in tree.nodes().iter().enumerate() {
            assert_eq!(
                tree.depth_of(NodeId(i as u32)),
                tree.height() - 1 - node.level
            );
        }
    }

    #[test]
    fn objects_in_leaf_order_covers_everything() {
        let tree = sample_tree(100);
        let objs: Vec<ObjectId> = tree.objects_in_leaf_order().map(|(_, o)| o).collect();
        assert_eq!(objs.len(), 100);
        let mut sorted: Vec<u32> = objs.iter().map(|o| o.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn bounding_rect_covers_all_points() {
        let tree = sample_tree(200);
        let bb = tree.bounding_rect();
        for (p, _) in tree.objects_in_leaf_order() {
            assert!(bb.contains(p));
        }
    }

    #[test]
    fn validate_detects_corruption() {
        let mut tree = sample_tree(100);
        // Corrupt a leaf MBR.
        let leaf_idx = tree
            .nodes
            .iter()
            .position(|n| n.is_leaf())
            .expect("has a leaf");
        tree.nodes[leaf_idx].mbr = Rect::from_coords(1e6, 1e6, 1e6 + 1.0, 1e6 + 1.0);
        assert!(tree.validate().is_err());
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        let tree = RTree::build(
            &pts,
            RTreeParams::for_page_capacity(64),
            PackingAlgorithm::Str,
        )
        .unwrap();
        let nn = tree.nearest_neighbor(Point::new(4.2, 4.9)).unwrap();
        assert_eq!(nn.point, Point::new(4.0, 5.0));
    }

    #[test]
    fn root_mbr_is_the_bounding_rect() {
        let tree = sample_tree(123);
        assert_eq!(tree.root_mbr(), tree.bounding_rect());
    }

    #[test]
    fn content_fingerprint_separates_data_params_and_packing() {
        let tree = sample_tree(100);
        assert_eq!(
            tree.content_fingerprint(),
            sample_tree(100).content_fingerprint(),
            "same build → same fingerprint"
        );
        assert_ne!(
            tree.content_fingerprint(),
            sample_tree(101).content_fingerprint()
        );
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new((i * 13 % 47) as f64, (i * 29 % 53) as f64))
            .collect();
        let other_params = RTree::build(
            &pts,
            RTreeParams::for_page_capacity(128),
            PackingAlgorithm::Str,
        )
        .unwrap();
        assert_ne!(
            tree.content_fingerprint(),
            other_params.content_fingerprint()
        );
        let other_packing =
            RTree::build(&pts, RTreeParams::default(), PackingAlgorithm::HilbertSort).unwrap();
        assert_ne!(
            tree.content_fingerprint(),
            other_packing.content_fingerprint()
        );
        // One moved point changes the fingerprint.
        let mut moved = pts.clone();
        moved[42] = Point::new(moved[42].x + 0.5, moved[42].y);
        let moved_tree =
            RTree::build(&moved, RTreeParams::default(), PackingAlgorithm::Str).unwrap();
        assert_ne!(tree.content_fingerprint(), moved_tree.content_fingerprint());
    }

    #[test]
    fn empty_tree_is_valid_and_finds_nothing() {
        let tree = RTree::empty(RTreeParams::for_page_capacity(64));
        tree.validate().expect("empty singleton tree is legal");
        assert_eq!(tree.num_objects(), 0);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.height(), 1);
        assert!(tree.nearest_neighbor(Point::new(1.0, 2.0)).is_none());
        assert_eq!(tree.objects_in_leaf_order().count(), 0);
        // `build` keeps rejecting empty input — `empty` is the only way
        // to represent a dataset-less channel.
        assert_eq!(
            RTree::build(
                &[],
                RTreeParams::for_page_capacity(64),
                PackingAlgorithm::Str
            )
            .unwrap_err(),
            RTreeError::EmptyDataset
        );
    }
}
