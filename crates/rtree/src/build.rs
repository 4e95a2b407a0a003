//! Bulk-loading (packing) of R-trees: STR, Hilbert-sort and Nearest-X.
//!
//! All three algorithms work level by level: points are ordered and cut
//! into leaf-capacity groups, then the resulting nodes are ordered and cut
//! into fanout groups, until a single root remains. The finished tree is
//! renumbered into **depth-first preorder**, the order in which nodes are
//! placed into a broadcast index segment.

use crate::{
    ChildEntry, Entries, LeafEntry, Node, NodeId, ObjectId, RTree, RTreeError, RTreeParams,
};
use tnn_geom::{Point, Rect};

/// The packing (bulk-loading) algorithm used to build a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackingAlgorithm {
    /// Sort-Tile-Recursive [Leutenegger, Lopez, Edgington, ICDE'97]: sort
    /// by x, slice into √P vertical slabs, sort each slab by y, tile. The
    /// paper's choice ("we use STR packing algorithm to build the R-tree
    /// in order to achieve the best performance").
    #[default]
    Str,
    /// Sort by the Hilbert value of the point [Kamel & Faloutsos,
    /// CIKM'93].
    HilbertSort,
    /// Sort by x-coordinate only [Roussopoulos & Leifker, SIGMOD'85].
    NearestX,
}

impl PackingAlgorithm {
    /// All supported algorithms, for sweeps and ablations.
    pub const ALL: [PackingAlgorithm; 3] = [
        PackingAlgorithm::Str,
        PackingAlgorithm::HilbertSort,
        PackingAlgorithm::NearestX,
    ];

    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            PackingAlgorithm::Str => "STR",
            PackingAlgorithm::HilbertSort => "Hilbert",
            PackingAlgorithm::NearestX => "NearestX",
        }
    }
}

/// An item being packed at some level: its representative center, its MBR
/// and its payload (a point or an already-built subtree).
struct PackItem<T> {
    center: Point,
    mbr: Rect,
    payload: T,
}

/// Orders `items` in place according to the packing algorithm and returns
/// groups of at most `capacity` items each.
fn pack_level<T>(
    mut items: Vec<PackItem<T>>,
    capacity: usize,
    algo: PackingAlgorithm,
    region: &Rect,
) -> Vec<Vec<PackItem<T>>> {
    debug_assert!(capacity >= 1);
    match algo {
        PackingAlgorithm::NearestX => {
            items.sort_by(|a, b| {
                a.center
                    .x
                    .total_cmp(&b.center.x)
                    .then(a.center.y.total_cmp(&b.center.y))
            });
            chunk(items, capacity)
        }
        PackingAlgorithm::HilbertSort => {
            items.sort_by_key(|it| hilbert_key(it.center, region));
            chunk(items, capacity)
        }
        PackingAlgorithm::Str => {
            let n = items.len();
            let pages = n.div_ceil(capacity);
            let slabs = (pages as f64).sqrt().ceil() as usize;
            let slab_size = slabs * capacity;
            items.sort_by(|a, b| {
                a.center
                    .x
                    .total_cmp(&b.center.x)
                    .then(a.center.y.total_cmp(&b.center.y))
            });
            let mut groups = Vec::with_capacity(pages);
            let mut rest = items;
            while !rest.is_empty() {
                let take = slab_size.min(rest.len());
                let mut slab: Vec<PackItem<T>> = rest.drain(..take).collect();
                slab.sort_by(|a, b| {
                    a.center
                        .y
                        .total_cmp(&b.center.y)
                        .then(a.center.x.total_cmp(&b.center.x))
                });
                groups.extend(chunk(slab, capacity));
            }
            groups
        }
    }
}

fn chunk<T>(items: Vec<PackItem<T>>, capacity: usize) -> Vec<Vec<PackItem<T>>> {
    let mut groups = Vec::with_capacity(items.len().div_ceil(capacity));
    let mut current = Vec::with_capacity(capacity);
    for item in items {
        current.push(item);
        if current.len() == capacity {
            groups.push(std::mem::replace(
                &mut current,
                Vec::with_capacity(capacity),
            ));
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

/// Order of the discrete Hilbert curve used for Hilbert-sort packing.
const HILBERT_ORDER: u32 = 16;

/// Hilbert rank of a point within `region`, on a `2^16 × 2^16` grid.
fn hilbert_key(p: Point, region: &Rect) -> u64 {
    let side = 1u32 << HILBERT_ORDER;
    let fx = if region.width() > 0.0 {
        (p.x - region.min.x) / region.width()
    } else {
        0.0
    };
    let fy = if region.height() > 0.0 {
        (p.y - region.min.y) / region.height()
    } else {
        0.0
    };
    let x = ((fx * (side - 1) as f64).round() as u32).min(side - 1);
    let y = ((fy * (side - 1) as f64).round() as u32).min(side - 1);
    hilbert_d(x, y, HILBERT_ORDER)
}

/// Distance along the Hilbert curve of order `order` for cell `(x, y)`
/// (classic iterative xy→d conversion).
fn hilbert_d(mut x: u32, mut y: u32, order: u32) -> u64 {
    let side: u32 = 1 << order;
    let mut d: u64 = 0;
    let mut s: u32 = side / 2;
    while s > 0 {
        let rx = u32::from((x & s) > 0);
        let ry = u32::from((y & s) > 0);
        d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
        // Rotate the quadrant so the sub-curve is in canonical orientation.
        if ry == 0 {
            if rx == 1 {
                x = side - 1 - x;
                y = side - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Bulk-loads an R-tree from `(point, object)` pairs.
///
/// Returns [`RTreeError::EmptyDataset`] for empty input,
/// [`RTreeError::InvalidParams`] for capacities below 2/1, and
/// [`RTreeError::NonFinitePoint`] when a coordinate is NaN or infinite.
pub(crate) fn build_tree(
    points: &[(Point, ObjectId)],
    params: RTreeParams,
    algo: PackingAlgorithm,
) -> Result<RTree, RTreeError> {
    if points.is_empty() {
        return Err(RTreeError::EmptyDataset);
    }
    if !params.is_valid() {
        return Err(RTreeError::InvalidParams {
            fanout: params.fanout,
            leaf_capacity: params.leaf_capacity,
        });
    }
    if let Some(idx) = points.iter().position(|(p, _)| !p.is_finite()) {
        return Err(RTreeError::NonFinitePoint { index: idx });
    }

    let region = Rect::bounding(&points.iter().map(|(p, _)| *p).collect::<Vec<_>>())
        .expect("non-empty input");

    // Temporary tree under construction, nodes in build order; renumbered
    // into preorder at the end.
    let mut arena: Vec<Node> = Vec::new();

    // Level 0: pack the points into leaves.
    let leaf_items: Vec<PackItem<LeafEntry>> = points
        .iter()
        .map(|&(point, object)| PackItem {
            center: point,
            mbr: Rect::point(point),
            payload: LeafEntry { point, object },
        })
        .collect();

    let mut current: Vec<PackItem<usize>> =
        pack_level(leaf_items, params.leaf_capacity, algo, &region)
            .into_iter()
            .map(|group| {
                let mbr = group
                    .iter()
                    .map(|it| it.mbr)
                    .reduce(|a, b| a.union(&b))
                    .expect("non-empty group");
                let idx = arena.len();
                arena.push(Node {
                    mbr,
                    level: 0,
                    entries: Entries::Leaf(group.into_iter().map(|it| it.payload).collect()),
                });
                PackItem {
                    center: mbr.center(),
                    mbr,
                    payload: idx,
                }
            })
            .collect();

    // Upper levels: pack node handles until a single root remains.
    let mut level = 1u32;
    while current.len() > 1 {
        current = pack_level(current, params.fanout, algo, &region)
            .into_iter()
            .map(|group| {
                let mbr = group
                    .iter()
                    .map(|it| it.mbr)
                    .reduce(|a, b| a.union(&b))
                    .expect("non-empty group");
                let children = group
                    .iter()
                    .map(|it| ChildEntry {
                        mbr: it.mbr,
                        // Build-order index; rewritten during renumbering.
                        child: NodeId(it.payload as u32),
                    })
                    .collect();
                let idx = arena.len();
                arena.push(Node {
                    mbr,
                    level,
                    entries: Entries::Internal(children),
                });
                PackItem {
                    center: mbr.center(),
                    mbr,
                    payload: idx,
                }
            })
            .collect();
        level += 1;
    }

    let root_build_idx = current[0].payload;
    let height = arena[root_build_idx].level + 1;
    let nodes = renumber_preorder(arena, root_build_idx);

    Ok(RTree::from_parts(nodes, points.len(), height, params, algo))
}

/// Rewrites the build-order arena into preorder: the root becomes node 0
/// and every node's id equals its DFS preorder rank (children visited in
/// entry order).
fn renumber_preorder(arena: Vec<Node>, root: usize) -> Vec<Node> {
    let n = arena.len();
    let mut order = Vec::with_capacity(n); // preorder list of build indices
    let mut new_id = vec![u32::MAX; n]; // build index -> preorder id
    let mut stack = vec![root];
    while let Some(idx) = stack.pop() {
        new_id[idx] = order.len() as u32;
        order.push(idx);
        if let Entries::Internal(children) = &arena[idx].entries {
            // Push in reverse so the first child is processed first.
            for child in children.iter().rev() {
                stack.push(child.child.index());
            }
        }
    }
    debug_assert_eq!(order.len(), n, "all nodes reachable from the root");

    let mut slots: Vec<Option<Node>> = arena.into_iter().map(Some).collect();
    let mut out = Vec::with_capacity(n);
    for &build_idx in &order {
        let mut node = slots[build_idx].take().expect("each node moved once");
        if let Entries::Internal(children) = &mut node.entries {
            for child in children {
                child.child = NodeId(new_id[child.child.index()]);
            }
        }
        out.push(node);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<(Point, ObjectId)> {
        // Deterministic pseudo-grid with a twist so orderings differ.
        (0..n)
            .map(|i| {
                let x = (i * 37 % 101) as f64;
                let y = (i * 61 % 97) as f64;
                (Point::new(x, y), ObjectId(i as u32))
            })
            .collect()
    }

    #[test]
    fn empty_dataset_errors() {
        let err = build_tree(&[], RTreeParams::default(), PackingAlgorithm::Str).unwrap_err();
        assert_eq!(err, RTreeError::EmptyDataset);
    }

    #[test]
    fn invalid_params_error() {
        let err = build_tree(&pts(10), RTreeParams::new(1, 6), PackingAlgorithm::Str).unwrap_err();
        assert!(matches!(err, RTreeError::InvalidParams { .. }));
    }

    #[test]
    fn non_finite_point_errors() {
        let mut input = pts(5);
        input[3].0 = Point::new(f64::NAN, 1.0);
        let err = build_tree(&input, RTreeParams::default(), PackingAlgorithm::Str).unwrap_err();
        assert_eq!(err, RTreeError::NonFinitePoint { index: 3 });
    }

    #[test]
    fn single_point_tree() {
        let tree = build_tree(&pts(1), RTreeParams::default(), PackingAlgorithm::Str).unwrap();
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.num_nodes(), 1);
        assert!(tree.node(NodeId::ROOT).is_leaf());
        tree.validate().unwrap();
    }

    #[test]
    fn all_algorithms_build_valid_trees() {
        for algo in PackingAlgorithm::ALL {
            for n in [1usize, 2, 6, 7, 19, 100, 1000] {
                let tree = build_tree(&pts(n), RTreeParams::default(), algo).unwrap();
                tree.validate()
                    .unwrap_or_else(|e| panic!("{} n={n}: {e}", algo.name()));
                assert_eq!(tree.num_objects(), n);
            }
        }
    }

    #[test]
    fn preorder_ids_parent_before_children() {
        let tree = build_tree(&pts(500), RTreeParams::default(), PackingAlgorithm::Str).unwrap();
        for (i, node) in tree.nodes().iter().enumerate() {
            if let Some(children) = node.children() {
                for (k, c) in children.iter().enumerate() {
                    assert!(c.child.index() > i, "child id must exceed parent id");
                    if k == 0 {
                        // First child immediately follows the parent in preorder.
                        assert_eq!(c.child.index(), i + 1);
                    }
                }
            }
        }
    }

    #[test]
    fn height_matches_paper_for_100k_points() {
        // ~100k points with 64-byte pages (fanout 3, leaf 6) → height 10.
        let n = 95_969; // the paper's densest uniform dataset
        let tree = build_tree(
            &pts(n),
            RTreeParams::for_page_capacity(64),
            PackingAlgorithm::Str,
        )
        .unwrap();
        assert_eq!(tree.height(), 10);
    }

    #[test]
    fn str_produces_full_leaves_except_tail() {
        let tree = build_tree(&pts(100), RTreeParams::default(), PackingAlgorithm::Str).unwrap();
        let leaf_sizes: Vec<usize> = tree
            .nodes()
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| n.len())
            .collect();
        // 100 points, capacity 6 → 17 leaves, at most one underfull per slab tail.
        assert_eq!(leaf_sizes.iter().sum::<usize>(), 100);
        assert!(leaf_sizes.iter().all(|&s| (1..=6).contains(&s)));
    }

    #[test]
    fn hilbert_d_is_bijective_on_small_grid() {
        let order = 4;
        let side = 1u32 << order;
        let mut seen = std::collections::HashSet::new();
        for x in 0..side {
            for y in 0..side {
                let d = hilbert_d(x, y, order);
                assert!(d < (side as u64 * side as u64));
                assert!(seen.insert(d), "duplicate hilbert rank {d}");
            }
        }
    }

    #[test]
    fn hilbert_adjacent_cells_are_close() {
        // Successive ranks along the curve are adjacent cells: check the
        // first few ranks of the order-2 curve against the classic shape.
        assert_eq!(hilbert_d(0, 0, 2), 0);
        // The order-2 curve visits 16 cells; rank of the last cell:
        assert_eq!(hilbert_d(3, 0, 2), 15);
    }

    #[test]
    fn duplicate_points_are_retained() {
        let input: Vec<(Point, ObjectId)> = (0..20)
            .map(|i| (Point::new(1.0, 1.0), ObjectId(i)))
            .collect();
        let tree = build_tree(&input, RTreeParams::default(), PackingAlgorithm::Str).unwrap();
        tree.validate().unwrap();
        assert_eq!(tree.num_objects(), 20);
        let total: usize = tree
            .nodes()
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| n.len())
            .sum();
        assert_eq!(total, 20);
    }
}
