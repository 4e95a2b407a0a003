//! Incremental updates over the packed tree: a log-structured delta
//! overlay merged at query time.
//!
//! The packed R-tree is immutable by construction (preorder node ids
//! *are* broadcast page offsets, so a targeted node split would
//! renumber every page after it). Mutability therefore comes as an
//! overlay: a [`DeltaOverlay`] wraps a base snapshot and absorbs
//! `insert`/`delete` ops into side tables, answering queries by merging
//! the base tree's stream with the pending edits. When the channel's
//! next broadcast cycle is cut, [`DeltaOverlay::materialize`] folds the
//! live set into a fresh packed tree.
//!
//! **Canonical materialization.** `materialize` always bulk-loads over
//! the live set sorted by [`ObjectId`], and bulk-loading is
//! deterministic in its input order — so any two edit schedules with
//! the same net effect materialize into *byte-identical* trees, and a
//! materialized overlay is byte-identical to a tree rebuilt from
//! scratch over the same live set. That identity is what the
//! `mutation_equivalence` gate in `tnn-bench` leans on.
//!
//! **Degenerate transitions** are first-class: deleting the last live
//! object materializes [`RTree::empty`] (downstream layers reject it
//! gracefully as an empty channel instead of panicking), and inserting
//! into an overlay over an empty base produces a valid, queryable tree.

use crate::{IdTable, NnResult, ObjectId, RTree, RTreeError, RangeResult};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tnn_geom::{Circle, Point};

/// A mutable edit log over an immutable base [`RTree`] snapshot.
///
/// The overlay tracks three sets: the base's own objects (frozen at
/// construction in an id-sorted [`IdTable`], built in O(n) without a
/// tree map), pending inserts (which *shadow* a base object of the same
/// id — an upsert), and shadowed base ids (deleted or overwritten). All
/// three iterate in ascending id order, so the live set is one linear
/// merge of the three streams. Queries merge the base tree with the
/// pending inserts; [`DeltaOverlay::materialize`] produces the
/// equivalent packed tree.
///
/// ```
/// use std::sync::Arc;
/// use tnn_geom::Point;
/// use tnn_rtree::{DeltaOverlay, ObjectId, PackingAlgorithm, RTree, RTreeParams};
///
/// let pts: Vec<Point> = (0..20).map(|i| Point::new(i as f64, 0.0)).collect();
/// let base = Arc::new(
///     RTree::build(&pts, RTreeParams::default(), PackingAlgorithm::Str).unwrap(),
/// );
/// let mut delta = DeltaOverlay::new(base);
/// delta.delete(ObjectId(0));
/// delta.insert(ObjectId(99), Point::new(-1.0, 0.0)).unwrap();
/// let nn = delta.nearest_neighbor(Point::new(-0.4, 0.0)).unwrap();
/// assert_eq!(nn.object, ObjectId(99));
/// let rebuilt = delta.materialize().unwrap();
/// assert_eq!(rebuilt.num_objects(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    base: Arc<RTree>,
    /// Point of every base object in id order, frozen at construction;
    /// the id set decides membership and the points feed
    /// [`DeltaOverlay::get`] and [`DeltaOverlay::live_points`].
    base_points: IdTable<Point>,
    /// Pending inserts/overwrites, keyed by id (BTree: iteration order
    /// is id order, which keeps every merged answer deterministic).
    inserts: BTreeMap<ObjectId, Point>,
    /// Base ids whose packed copy is suppressed — deleted outright or
    /// shadowed by an overwrite in `inserts`.
    shadowed: BTreeSet<ObjectId>,
}

impl DeltaOverlay {
    /// Starts an empty overlay over a base snapshot.
    pub fn new(base: Arc<RTree>) -> Self {
        let base_points = IdTable::new(base.objects_in_leaf_order().map(|(p, o)| (o, p)).collect());
        DeltaOverlay {
            base,
            base_points,
            inserts: BTreeMap::new(),
            shadowed: BTreeSet::new(),
        }
    }

    /// The frozen base snapshot the overlay edits against.
    pub fn base(&self) -> &RTree {
        &self.base
    }

    /// Inserts (or overwrites) the object `id` at `point`. Rejects
    /// non-finite coordinates up front — the same contract as
    /// [`RTree::build`] — so a later [`DeltaOverlay::materialize`]
    /// cannot fail on data the overlay accepted.
    pub fn insert(&mut self, id: ObjectId, point: Point) -> Result<(), RTreeError> {
        if !point.is_finite() {
            return Err(RTreeError::NonFinitePoint { index: 0 });
        }
        if self.base_points.contains(id) {
            self.shadowed.insert(id);
        }
        self.inserts.insert(id, point);
        Ok(())
    }

    /// Deletes the object `id`; returns `true` when it was live. Deleting
    /// the last live object is legal — the overlay becomes empty and
    /// [`DeltaOverlay::materialize`] yields [`RTree::empty`].
    pub fn delete(&mut self, id: ObjectId) -> bool {
        if self.inserts.remove(&id).is_some() {
            // An overwrite of a base object already shadowed it; a pure
            // overlay insert just disappears.
            return true;
        }
        if self.base_points.contains(id) {
            return self.shadowed.insert(id);
        }
        false
    }

    /// `true` when object `id` is live in the merged view.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.inserts.contains_key(&id)
            || (self.base_points.contains(id) && !self.shadowed.contains(&id))
    }

    /// The live position of object `id`, if any.
    pub fn get(&self, id: ObjectId) -> Option<Point> {
        if let Some(&p) = self.inserts.get(&id) {
            return Some(p);
        }
        if self.shadowed.contains(&id) {
            return None;
        }
        self.base_points.get(id)
    }

    /// Number of live objects in the merged view.
    pub fn len(&self) -> usize {
        self.base_points.len() - self.shadowed.len() + self.inserts.len()
    }

    /// `true` when no object is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the overlay holds pending edits (so a materialized
    /// tree would differ from the base snapshot).
    pub fn is_dirty(&self) -> bool {
        !self.inserts.is_empty() || !self.shadowed.is_empty()
    }

    /// The merged live set in **canonical order** (ascending id) — the
    /// exact input [`DeltaOverlay::materialize`] bulk-loads over.
    ///
    /// One linear merge of three id-ordered streams: the base entries,
    /// minus the `shadowed` ids (a subset of the base ids, walked in
    /// step), interleaved with the `inserts` (whose ids never meet a
    /// live base id: an insert over a base id shadows it).
    pub fn live_points(&self) -> Vec<(Point, ObjectId)> {
        let mut out: Vec<(Point, ObjectId)> = Vec::with_capacity(self.len());
        let mut shadowed = self.shadowed.iter().peekable();
        let mut inserts = self.inserts.iter().peekable();
        for (id, p) in self.base_points.iter() {
            if shadowed.next_if_eq(&&id).is_some() {
                continue;
            }
            while let Some((&ins, &q)) = inserts.next_if(|&(&ins, _)| ins < id) {
                out.push((q, ins));
            }
            out.push((p, id));
        }
        out.extend(inserts.map(|(&id, &p)| (p, id)));
        out
    }

    /// Folds the overlay into a fresh packed tree over the live set in
    /// canonical (ascending-id) order, with the base's parameters and
    /// packing algorithm. An empty live set yields [`RTree::empty`]
    /// rather than an error — delete-to-empty is a legal transition.
    pub fn materialize(&self) -> Result<RTree, RTreeError> {
        let live = self.live_points();
        if live.is_empty() {
            return Ok(RTree::empty(self.base.params()));
        }
        RTree::build_with_ids(&live, self.base.params(), self.base.packing())
    }

    /// Merged nearest neighbor: the closest live object to `query`,
    /// ties broken by ascending id. `None` when the merged view is
    /// empty. `nodes_visited` counts base-tree pages only (overlay
    /// inserts live in memory, not on air).
    pub fn nearest_neighbor(&self, query: Point) -> Option<NnResult> {
        self.k_nearest(query, 1).into_iter().next()
    }

    /// Merged k-NN: the `k` closest live objects ordered by
    /// `(distance, id)`. Shorter when fewer than `k` objects are live.
    pub fn k_nearest(&self, query: Point, k: usize) -> Vec<NnResult> {
        if k == 0 {
            return Vec::new();
        }
        // Pull the first k *live* base candidates off the incremental
        // stream (it yields in non-decreasing distance, so the first k
        // survivors dominate every later base object) and merge them
        // with the full insert log.
        let mut candidates: Vec<(f64, ObjectId, Point)> = Vec::with_capacity(k);
        let mut it = self.base.nn_iter(query);
        let mut visited = 0usize;
        for (point, object, dist) in it.by_ref() {
            if self.shadowed.contains(&object) {
                continue;
            }
            candidates.push((dist, object, point));
            if candidates.len() == k {
                break;
            }
        }
        visited += it.nodes_visited();
        candidates.extend(self.inserts.iter().map(|(&id, &p)| (query.dist(p), id, p)));
        candidates.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1 .0.cmp(&b.1 .0)));
        candidates.truncate(k);
        candidates
            .into_iter()
            .map(|(dist, object, point)| NnResult {
                point,
                object,
                dist,
                nodes_visited: visited,
            })
            .collect()
    }

    /// Merged circular range query: base hits (minus shadowed ids, in
    /// base leaf order) followed by in-range overlay inserts in id
    /// order.
    pub fn range_circle(&self, circle: &Circle) -> RangeResult {
        let mut result = self.base.range_circle(circle);
        result.hits.retain(|(_, id)| !self.shadowed.contains(id));
        result.hits.extend(
            self.inserts
                .iter()
                .filter(|(_, &p)| circle.contains(p))
                .map(|(&id, &p)| (p, id)),
        );
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackingAlgorithm, RTreeParams};

    fn base_tree(n: usize) -> Arc<RTree> {
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new((i * 13 % 47) as f64, (i * 29 % 53) as f64))
            .collect();
        Arc::new(RTree::build(&pts, RTreeParams::default(), PackingAlgorithm::Str).unwrap())
    }

    /// Brute-force k-NN over the merged view, the oracle for the merged
    /// query paths.
    fn brute_knn(delta: &DeltaOverlay, q: Point, k: usize) -> Vec<(f64, ObjectId)> {
        let mut all: Vec<(f64, ObjectId)> = delta
            .live_points()
            .iter()
            .map(|&(p, id)| (q.dist(p), id))
            .collect();
        all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1 .0.cmp(&b.1 .0)));
        all.truncate(k);
        all
    }

    proptest::proptest! {
        /// The three-stream merge equals the sorted live set, over a base
        /// with dense ids and over a materialized base whose ids are not.
        #[test]
        fn live_points_is_the_id_sorted_live_set(
            edits in proptest::collection::vec((0u32..3, 0u32..90, 0u32..50), 0..60),
        ) {
            let dense = base_tree(40);
            let mut sparse = DeltaOverlay::new(Arc::clone(&dense));
            for i in 0..10u32 {
                sparse.delete(ObjectId(i * 4));
                sparse.insert(ObjectId(200 + i * 7), Point::new(i as f64, 3.0)).unwrap();
            }
            for base in [dense, Arc::new(sparse.materialize().unwrap())] {
                let mut delta = DeltaOverlay::new(Arc::clone(&base));
                let mut live: BTreeMap<ObjectId, Point> =
                    base.objects_in_leaf_order().map(|(p, o)| (o, p)).collect();
                for &(kind, id, y) in &edits {
                    // Ids reach past the base so edits hit base objects,
                    // earlier inserts and unknown ids alike.
                    let id = ObjectId(id * 3);
                    if kind == 0 {
                        delta.delete(id);
                        live.remove(&id);
                    } else {
                        let p = Point::new(kind as f64, y as f64);
                        delta.insert(id, p).unwrap();
                        live.insert(id, p);
                    }
                }
                let want: Vec<(Point, ObjectId)> = live.iter().map(|(&o, &p)| (p, o)).collect();
                proptest::prop_assert_eq!(delta.live_points(), want);
                proptest::prop_assert_eq!(delta.len(), live.len());
            }
        }
    }

    #[test]
    fn fresh_overlay_matches_base() {
        let base = base_tree(100);
        let delta = DeltaOverlay::new(Arc::clone(&base));
        assert_eq!(delta.len(), 100);
        assert!(!delta.is_dirty());
        let q = Point::new(11.5, 20.5);
        assert_eq!(
            delta.nearest_neighbor(q).map(|r| (r.object, r.dist)),
            base.nearest_neighbor(q).map(|r| (r.object, r.dist)),
        );
    }

    #[test]
    fn merged_knn_matches_brute_force_after_edits() {
        let mut delta = DeltaOverlay::new(base_tree(120));
        for i in 0..40u32 {
            delta.delete(ObjectId(i * 3));
        }
        for i in 0..25u32 {
            delta
                .insert(
                    ObjectId(1000 + i),
                    Point::new((i * 7 % 50) as f64 + 0.5, (i * 11 % 50) as f64 + 0.25),
                )
                .unwrap();
        }
        for (qx, qy) in [(0.0, 0.0), (23.0, 17.0), (46.0, 52.0), (-5.0, 60.0)] {
            let q = Point::new(qx, qy);
            for k in [1usize, 4, 16, 200] {
                let got: Vec<(f64, ObjectId)> = delta
                    .k_nearest(q, k)
                    .into_iter()
                    .map(|r| (r.dist, r.object))
                    .collect();
                assert_eq!(got, brute_knn(&delta, q, k), "q={q:?}, k={k}");
            }
        }
    }

    #[test]
    fn upsert_moves_an_object() {
        let mut delta = DeltaOverlay::new(base_tree(30));
        let id = ObjectId(5);
        let before = delta.get(id).unwrap();
        let moved = Point::new(before.x + 500.0, before.y);
        delta.insert(id, moved).unwrap();
        assert_eq!(delta.get(id), Some(moved));
        assert_eq!(delta.len(), 30);
        let nn = delta
            .nearest_neighbor(Point::new(moved.x + 0.1, moved.y))
            .unwrap();
        assert_eq!(nn.object, id);
        // Materialized, the object exists exactly once at its new spot.
        let tree = delta.materialize().unwrap();
        assert_eq!(tree.num_objects(), 30);
        let found: Vec<Point> = tree
            .objects_in_leaf_order()
            .filter(|&(_, o)| o == id)
            .map(|(p, _)| p)
            .collect();
        assert_eq!(found, vec![moved]);
    }

    #[test]
    fn delete_returns_liveness_and_is_idempotent() {
        let mut delta = DeltaOverlay::new(base_tree(10));
        assert!(delta.delete(ObjectId(3)));
        assert!(!delta.delete(ObjectId(3)), "second delete is a no-op");
        assert!(!delta.delete(ObjectId(999)), "unknown id is a no-op");
        delta.insert(ObjectId(999), Point::new(1.0, 1.0)).unwrap();
        assert!(delta.delete(ObjectId(999)), "overlay insert is deletable");
        assert_eq!(delta.len(), 9);
    }

    #[test]
    fn delete_to_empty_materializes_the_empty_tree() {
        let base = base_tree(7);
        let mut delta = DeltaOverlay::new(Arc::clone(&base));
        for i in 0..7u32 {
            assert!(delta.delete(ObjectId(i)));
        }
        assert!(delta.is_empty());
        assert!(delta.nearest_neighbor(Point::new(0.0, 0.0)).is_none());
        let tree = delta.materialize().unwrap();
        assert_eq!(tree.num_objects(), 0);
        tree.validate().unwrap();
        assert_eq!(tree.params(), base.params());
    }

    #[test]
    fn insert_into_empty_base_builds_a_queryable_tree() {
        let base = Arc::new(RTree::empty(RTreeParams::default()));
        let mut delta = DeltaOverlay::new(base);
        assert!(delta.is_empty());
        delta.insert(ObjectId(7), Point::new(3.0, 4.0)).unwrap();
        let nn = delta.nearest_neighbor(Point::new(0.0, 0.0)).unwrap();
        assert_eq!((nn.object, nn.dist), (ObjectId(7), 5.0));
        let tree = delta.materialize().unwrap();
        tree.validate().unwrap();
        assert_eq!(tree.num_objects(), 1);
        assert_eq!(
            tree.nearest_neighbor(Point::new(0.0, 0.0)).unwrap().object,
            ObjectId(7)
        );
    }

    #[test]
    fn non_finite_insert_is_rejected() {
        let mut delta = DeltaOverlay::new(base_tree(5));
        assert_eq!(
            delta.insert(ObjectId(50), Point::new(f64::NAN, 0.0)),
            Err(RTreeError::NonFinitePoint { index: 0 })
        );
        assert_eq!(delta.len(), 5, "rejected insert leaves the overlay intact");
    }

    #[test]
    fn materialize_is_canonical_across_edit_orders() {
        // Two schedules with the same net effect → byte-identical trees.
        let base = base_tree(60);
        let mut a = DeltaOverlay::new(Arc::clone(&base));
        let mut b = DeltaOverlay::new(Arc::clone(&base));
        // Schedule A: delete then insert.
        a.delete(ObjectId(10));
        a.delete(ObjectId(20));
        a.insert(ObjectId(100), Point::new(7.0, 7.0)).unwrap();
        // Schedule B: interleaved, with a transient object and an
        // overwrite that settles to the same live set.
        b.insert(ObjectId(500), Point::new(1.0, 2.0)).unwrap();
        b.insert(ObjectId(100), Point::new(0.0, 0.0)).unwrap();
        b.delete(ObjectId(20));
        b.insert(ObjectId(100), Point::new(7.0, 7.0)).unwrap();
        b.delete(ObjectId(500));
        b.delete(ObjectId(10));
        let ta = a.materialize().unwrap();
        let tb = b.materialize().unwrap();
        assert_eq!(format!("{ta:?}"), format!("{tb:?}"));
        // ... and identical to a from-scratch build over the live set.
        let scratch =
            RTree::build_with_ids(&a.live_points(), base.params(), base.packing()).unwrap();
        assert_eq!(format!("{ta:?}"), format!("{scratch:?}"));
    }

    #[test]
    fn merged_range_circle_matches_materialized_tree() {
        let mut delta = DeltaOverlay::new(base_tree(80));
        for i in 0..20u32 {
            delta.delete(ObjectId(i * 4 + 1));
        }
        for i in 0..10u32 {
            delta
                .insert(ObjectId(2000 + i), Point::new((i * 9 % 40) as f64, 12.0))
                .unwrap();
        }
        let tree = delta.materialize().unwrap();
        for (cx, cy, r) in [(10.0, 10.0, 8.0), (25.0, 30.0, 20.0), (0.0, 0.0, 100.0)] {
            let circle = Circle::new(Point::new(cx, cy), r);
            let mut got: Vec<(u32, i64, i64)> = delta
                .range_circle(&circle)
                .hits
                .iter()
                .map(|&(p, id)| (id.0, p.x as i64, p.y as i64))
                .collect();
            let mut want: Vec<(u32, i64, i64)> = tree
                .range_circle(&circle)
                .hits
                .iter()
                .map(|&(p, id)| (id.0, p.x as i64, p.y as i64))
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "circle=({cx},{cy},{r})");
        }
    }
}
