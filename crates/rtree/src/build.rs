//! Bulk-loading (packing) of R-trees: STR, Hilbert-sort and Nearest-X.
//!
//! All three algorithms work level by level: points are ordered and cut
//! into leaf-capacity groups, then the resulting nodes are ordered and cut
//! into fanout groups, until a single root remains. The finished tree is
//! renumbered into **depth-first preorder**, the order in which nodes are
//! placed into a broadcast index segment.
//!
//! A level is ordered by sorting keys, not items: one `(key, key, index)`
//! triple per item, where the keys are the coordinates' total order (or
//! the Hilbert rank) and the item's input index breaks every tie. An
//! unstable sort of the triples therefore yields exactly the order a
//! stable sort of the items would, and the level's groups are consecutive
//! runs of the sorted triples. STR sorts all triples by `(x, y)` and then
//! each slab's run in place by `(y, x)`. Nodes are built straight from
//! the index groups, and each group's MBR folds its members' rectangles
//! in group order, so the trees are the ones an item-sorting packer
//! builds bit for bit (a test-only reference packer and a property test
//! hold that).

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

/// Sort key of one item at one level: two order keys and the item's
/// index in the level's input. The index is the last tie-break, so an
/// unstable sort of these keys yields exactly the order a stable sort of
/// the items would.
type PackKey = (u64, u64, u32);

/// A `u64` whose unsigned order is `f64::total_cmp`'s order on `v`.
#[inline]
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Fills `keys` with the packing order of the items whose centers are
/// `centers` (in input order): after the call, consecutive runs of
/// `capacity` keys are the groups, and each key's last field is the
/// item's input index. Nothing but the keys is moved.
fn pack_order(
    centers: impl Iterator<Item = Point>,
    capacity: usize,
    algo: PackingAlgorithm,
    region: &Rect,
    keys: &mut Vec<PackKey>,
) {
    debug_assert!(capacity >= 1);
    keys.clear();
    keys.extend(centers.enumerate().map(|(i, c)| match algo {
        PackingAlgorithm::HilbertSort => (hilbert_key(c, region), 0, i as u32),
        PackingAlgorithm::Str | PackingAlgorithm::NearestX => {
            (order_key(c.x), order_key(c.y), i as u32)
        }
    }));
    if algo == PackingAlgorithm::Str {
        // √P vertical slabs of whole pages. A slab holds a whole number
        // of groups, so cutting the slabbed order into `capacity` runs
        // tiles every slab separately.
        let pages = keys.len().div_ceil(capacity);
        slab_sort(keys, (pages as f64).sqrt().ceil() as usize * capacity);
    } else {
        keys.sort_unstable();
    }
}

/// Sorts each `slab_size` chunk of the (x, y)-sorted order of `keys` by
/// (y, x). The (x, y) order only decides which keys share a slab, so the
/// keys are split at the middle slab boundary by selection, recursively,
/// not fully sorted. They are unique (the last field is an index), so
/// every slab gets the members a full sort would give it.
fn slab_sort(keys: &mut [PackKey], slab_size: usize) {
    if keys.len() <= slab_size {
        keys.sort_unstable_by_key(|&(x, y, i)| (y, x, i));
        return;
    }
    let mid = keys.len().div_ceil(slab_size) / 2 * slab_size;
    keys.select_nth_unstable(mid);
    let (low, high) = keys.split_at_mut(mid);
    slab_sort(low, slab_size);
    slab_sort(high, slab_size);
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

    let mut region = Rect::point(points[0].0);
    for &(p, _) in &points[1..] {
        region.expand(p);
    }

    // Temporary tree under construction, nodes in build order; renumbered
    // into preorder at the end. `mbrs` holds the MBRs of the level just
    // built, whose nodes start at arena index `first`.
    let mut arena: Vec<Node> = Vec::new();
    let mut keys: Vec<PackKey> = Vec::with_capacity(points.len());

    // Level 0: pack the points into leaves.
    pack_order(
        points.iter().map(|&(p, _)| p),
        params.leaf_capacity,
        algo,
        &region,
        &mut keys,
    );
    let mut mbrs: Vec<Rect> = keys
        .chunks(params.leaf_capacity)
        .map(|group| {
            let entries: Vec<LeafEntry> = group
                .iter()
                .map(|&(_, _, i)| {
                    let (point, object) = points[i as usize];
                    LeafEntry { point, object }
                })
                .collect();
            let mut mbr = Rect::point(entries[0].point);
            for e in &entries[1..] {
                mbr.expand(e.point);
            }
            arena.push(Node {
                mbr,
                level: 0,
                entries: Entries::Leaf(entries),
            });
            mbr
        })
        .collect();
    let mut first = 0usize;

    // Upper levels: pack the level below until a single root remains.
    let mut level = 1u32;
    while mbrs.len() > 1 {
        pack_order(
            mbrs.iter().map(Rect::center),
            params.fanout,
            algo,
            &region,
            &mut keys,
        );
        let next_first = arena.len();
        mbrs = keys
            .chunks(params.fanout)
            .map(|group| {
                let children: Vec<ChildEntry> = group
                    .iter()
                    .map(|&(_, _, j)| ChildEntry {
                        mbr: mbrs[j as usize],
                        // Build-order index; rewritten during renumbering.
                        child: NodeId((first + j as usize) as u32),
                    })
                    .collect();
                let mbr = children[1..]
                    .iter()
                    .fold(children[0].mbr, |acc, c| acc.union(&c.mbr));
                arena.push(Node {
                    mbr,
                    level,
                    entries: Entries::Internal(children),
                });
                mbr
            })
            .collect();
        first = next_first;
        level += 1;
    }

    let nodes = renumber_preorder(arena, first);
    Ok(RTree::from_parts(nodes, points.len(), level, params, algo))
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
    use proptest::prelude::*;

    /// The item-sorting packer the key-sorting one replaced, kept as an
    /// independent reference: every level moves whole items through
    /// stable sorts and splits them into owned groups.
    mod reference {
        use super::super::{hilbert_key, renumber_preorder};
        use crate::*;
        use tnn_geom::{Point, Rect};

        struct Item<T> {
            center: Point,
            mbr: Rect,
            payload: T,
        }

        fn by_x(a: &Point, b: &Point) -> std::cmp::Ordering {
            a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y))
        }

        fn by_y(a: &Point, b: &Point) -> std::cmp::Ordering {
            a.y.total_cmp(&b.y).then(a.x.total_cmp(&b.x))
        }

        fn split<T>(items: Vec<Item<T>>, capacity: usize, out: &mut Vec<Vec<Item<T>>>) {
            let mut current = Vec::with_capacity(capacity);
            for item in items {
                current.push(item);
                if current.len() == capacity {
                    out.push(std::mem::replace(
                        &mut current,
                        Vec::with_capacity(capacity),
                    ));
                }
            }
            if !current.is_empty() {
                out.push(current);
            }
        }

        fn pack<T>(
            mut items: Vec<Item<T>>,
            capacity: usize,
            algo: PackingAlgorithm,
            region: &Rect,
        ) -> Vec<Vec<Item<T>>> {
            let mut groups = Vec::new();
            match algo {
                PackingAlgorithm::NearestX => {
                    items.sort_by(|a, b| by_x(&a.center, &b.center));
                    split(items, capacity, &mut groups);
                }
                PackingAlgorithm::HilbertSort => {
                    items.sort_by_key(|it| hilbert_key(it.center, region));
                    split(items, capacity, &mut groups);
                }
                PackingAlgorithm::Str => {
                    let pages = items.len().div_ceil(capacity);
                    let slab_size = (pages as f64).sqrt().ceil() as usize * capacity;
                    items.sort_by(|a, b| by_x(&a.center, &b.center));
                    let mut rest = items;
                    while !rest.is_empty() {
                        let take = slab_size.min(rest.len());
                        let mut slab: Vec<Item<T>> = rest.drain(..take).collect();
                        slab.sort_by(|a, b| by_y(&a.center, &b.center));
                        split(slab, capacity, &mut groups);
                    }
                }
            }
            groups
        }

        fn union<T>(group: &[Item<T>]) -> Rect {
            group
                .iter()
                .map(|it| it.mbr)
                .reduce(|a, b| a.union(&b))
                .expect("non-empty group")
        }

        /// Builds the tree the way the item-sorting packer did.
        pub(super) fn build(
            points: &[(Point, ObjectId)],
            params: RTreeParams,
            algo: PackingAlgorithm,
        ) -> RTree {
            let pts: Vec<Point> = points.iter().map(|(p, _)| *p).collect();
            let region = Rect::bounding(&pts).expect("non-empty input");
            let mut arena: Vec<Node> = Vec::new();
            let leaves: Vec<Item<LeafEntry>> = points
                .iter()
                .map(|&(point, object)| Item {
                    center: point,
                    mbr: Rect::point(point),
                    payload: LeafEntry { point, object },
                })
                .collect();
            let mut current: Vec<Item<usize>> = pack(leaves, params.leaf_capacity, algo, &region)
                .into_iter()
                .map(|group| {
                    let mbr = union(&group);
                    arena.push(Node {
                        mbr,
                        level: 0,
                        entries: Entries::Leaf(group.into_iter().map(|it| it.payload).collect()),
                    });
                    Item {
                        center: mbr.center(),
                        mbr,
                        payload: arena.len() - 1,
                    }
                })
                .collect();
            let mut level = 1u32;
            while current.len() > 1 {
                current = pack(current, params.fanout, algo, &region)
                    .into_iter()
                    .map(|group| {
                        let mbr = union(&group);
                        let children = group
                            .iter()
                            .map(|it| ChildEntry {
                                mbr: it.mbr,
                                child: NodeId(it.payload as u32),
                            })
                            .collect();
                        arena.push(Node {
                            mbr,
                            level,
                            entries: Entries::Internal(children),
                        });
                        Item {
                            center: mbr.center(),
                            mbr,
                            payload: arena.len() - 1,
                        }
                    })
                    .collect();
                level += 1;
            }
            let root = current[0].payload;
            let height = arena[root].level + 1;
            let nodes = renumber_preorder(arena, root);
            RTree::from_parts(nodes, points.len(), height, params, algo)
        }
    }

    /// Point-set shapes of the reference property, all heavy on ties.
    const SHAPES: u8 = 6;

    /// `n` points of shape `shape`, drawn from `seed`.
    fn tie_heavy(shape: u8, n: usize, seed: u64) -> Vec<(Point, ObjectId)> {
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let signed_zero = [-0.0, 0.0, 1.0, -1.0];
        (0..n)
            .map(|i| {
                let p = match shape {
                    // A few distinct points, each repeated many times.
                    0 => Point::new(next(3) as f64, next(3) as f64),
                    // A small lattice.
                    1 => Point::new(next(8) as f64, next(8) as f64 * 0.5),
                    // One vertical line, repeated y values.
                    2 => Point::new(7.0, next(16) as f64),
                    // One horizontal line, repeated x values.
                    3 => Point::new(next(16) as f64 - 8.0, -3.0),
                    // Signed zeros against small integers.
                    4 => Point::new(signed_zero[next(4) as usize], signed_zero[next(4) as usize]),
                    // Fractional coordinates; ties only by chance.
                    _ => Point::new(next(1 << 20) as f64 / 7.0, next(1 << 20) as f64 / 3.0),
                };
                (p, ObjectId(i as u32))
            })
            .collect()
    }

    proptest! {
        #[test]
        fn build_matches_the_item_sorting_reference(
            shape in 0u8..SHAPES,
            n in 1usize..400,
            seed in 0u64..u64::MAX,
            fanout in 2usize..=8,
            leaf_capacity in 1usize..=12,
            algo in prop::sample::select(PackingAlgorithm::ALL.to_vec()),
        ) {
            let points = tie_heavy(shape, n, seed);
            let params = RTreeParams::new(fanout, leaf_capacity);
            let got = build_tree(&points, params, algo).unwrap();
            let want = reference::build(&points, params, algo);
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "shape {} n {} fanout {} leaf {} {}",
                shape,
                n,
                fanout,
                leaf_capacity,
                algo.name()
            );
        }
    }

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
