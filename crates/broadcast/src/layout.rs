//! The `(1, m)` interleaved layout: pure arrival-time arithmetic over a
//! virtual cyclic page schedule.

use crate::BroadcastParams;
use tnn_rtree::{IdTable, NodeId, ObjectId, RTree};

/// The page-level layout of one dataset's broadcast program.
///
/// The cycle consists of `m` *buckets*, each an index segment (the whole
/// R-tree in preorder, one node per page) followed by one data fraction:
///
/// ```text
///  bucket 0                bucket 1                      bucket m−1
/// ┌───────────┬─────────┐ ┌───────────┬─────────┐      ┌───────────┬─────────┐
/// │ index (I) │ frac 0  │ │ index (I) │ frac 1  │  …   │ index (I) │ frac m−1│
/// └───────────┴─────────┘ └───────────┴─────────┘      └───────────┴─────────┘
/// ```
///
/// All positions are *cycle-relative*; [`crate::Channel`] adds the
/// per-channel phase to map them onto global time.
#[derive(Debug, Clone)]
pub struct BroadcastLayout {
    /// Index-segment length in pages (== number of R-tree nodes).
    index_len: u64,
    /// Pages per data object.
    pages_per_object: u64,
    /// Data-segment length in pages.
    data_len: u64,
    /// Fraction length `F = ceil(data_len / m)`.
    fraction_len: u64,
    /// Bucket length `I + F`.
    bucket_len: u64,
    /// Cycle length `m · (I + F)`.
    cycle_len: u64,
    /// Number of fractions `m`.
    m: u32,
    /// Leaf-order rank → object: objects are laid out in the data
    /// segment in R-tree leaf (preorder) order, one block each.
    by_rank: Vec<ObjectId>,
    /// Object → leaf-order rank, for any ids (dense or not); the
    /// object's first data page is `rank · pages_per_object`.
    rank_of: IdTable<u32>,
}

impl BroadcastLayout {
    /// Computes the layout for broadcasting `tree` under `params`.
    ///
    /// The tree must have been built with node capacities matching the
    /// page size (see [`BroadcastParams::rtree_params`]); this is asserted
    /// in debug builds.
    pub fn new(tree: &RTree, params: &BroadcastParams) -> Self {
        let by_rank = tree.objects_in_leaf_order().map(|(_, o)| o).collect();
        Self::from_leaf_order(tree, params, by_rank)
    }

    /// [`BroadcastLayout::new`] with the tree's objects already read off
    /// in leaf order (`by_rank`), so a caller that walks the leaves for
    /// other reasons walks them once.
    pub(crate) fn from_leaf_order(
        tree: &RTree,
        params: &BroadcastParams,
        by_rank: Vec<ObjectId>,
    ) -> Self {
        debug_assert_eq!(
            tree.params(),
            params.rtree_params(),
            "R-tree node capacities must match the broadcast page size"
        );
        let index_len = tree.num_nodes() as u64;
        let pages_per_object = params.pages_per_object();
        let num_objects = tree.num_objects() as u64;
        let data_len = num_objects * pages_per_object;
        let m = params.interleave_m.max(1);
        let fraction_len = data_len.div_ceil(m as u64);
        let bucket_len = index_len + fraction_len;
        let cycle_len = m as u64 * bucket_len;

        debug_assert_eq!(by_rank.len(), tree.num_objects());
        let rank_of = IdTable::new(
            by_rank
                .iter()
                .enumerate()
                .map(|(rank, &object)| (object, rank as u32))
                .collect(),
        );

        BroadcastLayout {
            index_len,
            pages_per_object,
            data_len,
            fraction_len,
            bucket_len,
            cycle_len,
            m,
            by_rank,
            rank_of,
        }
    }

    /// Index-segment length in pages.
    #[inline]
    pub fn index_len(&self) -> u64 {
        self.index_len
    }

    /// Data-segment length in pages.
    #[inline]
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Pages per data object.
    #[inline]
    pub fn pages_per_object(&self) -> u64 {
        self.pages_per_object
    }

    /// Fraction length in pages.
    #[inline]
    pub fn fraction_len(&self) -> u64 {
        self.fraction_len
    }

    /// Bucket length (index + one fraction) in pages: the period at which
    /// every index node recurs.
    #[inline]
    pub fn bucket_len(&self) -> u64 {
        self.bucket_len
    }

    /// Full cycle length in pages: the period at which data pages recur.
    #[inline]
    pub fn cycle_len(&self) -> u64 {
        self.cycle_len
    }

    /// The interleave factor `m`.
    #[inline]
    pub fn interleave_m(&self) -> u32 {
        self.m
    }

    /// First data-segment page of `object`.
    ///
    /// # Panics
    /// Panics when `object` is not broadcast under this layout.
    #[inline]
    pub fn data_slot(&self, object: ObjectId) -> u64 {
        let rank = self
            .rank_of
            .get(object)
            .unwrap_or_else(|| panic!("object {object} is not in this broadcast program"));
        u64::from(rank) * self.pages_per_object
    }

    /// The object whose data block has leaf-order rank `rank`.
    #[inline]
    pub(crate) fn object_at_rank(&self, rank: usize) -> ObjectId {
        self.by_rank[rank]
    }

    /// Cycle-relative position of data-segment page `j`: fraction `j / F`
    /// starts after that bucket's index copy.
    #[inline]
    pub fn data_page_position(&self, j: u64) -> u64 {
        debug_assert!(j < self.data_len);
        let f = j / self.fraction_len;
        let r = j % self.fraction_len;
        f * self.bucket_len + self.index_len + r
    }

    /// Next time `t ≥ now` at which the node with preorder id `node` is on
    /// air, given the channel phase (`position_of(t) = (t + phase) mod
    /// cycle`). Nodes recur every bucket.
    #[inline]
    pub fn next_node_arrival(&self, node: NodeId, now: u64, phase: u64) -> u64 {
        // Node offset o is on air whenever (t + phase) ≡ o (mod bucket).
        let o = node.0 as u64 % self.bucket_len;
        let cur = (now + phase) % self.bucket_len;
        now + (o + self.bucket_len - cur) % self.bucket_len
    }

    /// Next time `t ≥ now` at which data-segment page `j` is on air.
    /// Data pages recur every cycle.
    #[inline]
    pub fn next_data_arrival(&self, j: u64, now: u64, phase: u64) -> u64 {
        let pos = self.data_page_position(j);
        let cur = (now + phase) % self.cycle_len;
        now + (pos + self.cycle_len - cur) % self.cycle_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn_geom::Point;
    use tnn_rtree::PackingAlgorithm;

    fn tree(n: usize, page: usize) -> RTree {
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new((i * 7 % 113) as f64, (i * 13 % 127) as f64))
            .collect();
        RTree::build(
            &pts,
            BroadcastParams::new(page).rtree_params(),
            PackingAlgorithm::Str,
        )
        .unwrap()
    }

    #[test]
    fn lengths_are_consistent() {
        let t = tree(100, 64);
        let p = BroadcastParams::new(64);
        let l = BroadcastLayout::new(&t, &p);
        assert_eq!(l.index_len(), t.num_nodes() as u64);
        assert_eq!(l.data_len(), 100 * 16);
        assert_eq!(l.fraction_len(), (100u64 * 16).div_ceil(4));
        assert_eq!(l.bucket_len(), l.index_len() + l.fraction_len());
        assert_eq!(l.cycle_len(), 4 * l.bucket_len());
    }

    #[test]
    fn data_slots_follow_leaf_order() {
        let t = tree(50, 64);
        let p = BroadcastParams::new(64);
        let l = BroadcastLayout::new(&t, &p);
        let mut slots: Vec<u64> = t
            .objects_in_leaf_order()
            .map(|(_, o)| l.data_slot(o))
            .collect();
        // Leaf-order objects occupy consecutive 16-page blocks.
        for (rank, slot) in slots.iter().enumerate() {
            assert_eq!(*slot, rank as u64 * 16);
        }
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 50);
    }

    #[test]
    fn node_arrival_is_periodic_and_in_future() {
        let t = tree(200, 64);
        let p = BroadcastParams::new(64);
        let l = BroadcastLayout::new(&t, &p);
        let phase = 37;
        for node in [0u32, 1, 5, t.num_nodes() as u32 - 1] {
            let id = NodeId(node);
            let mut prev = l.next_node_arrival(id, 0, phase);
            assert!(prev < l.bucket_len());
            for _ in 0..5 {
                let next = l.next_node_arrival(id, prev + 1, phase);
                assert_eq!(next - prev, l.bucket_len(), "period must be one bucket");
                prev = next;
            }
        }
    }

    #[test]
    fn arrival_at_exact_now_is_now() {
        let t = tree(60, 64);
        let p = BroadcastParams::new(64);
        let l = BroadcastLayout::new(&t, &p);
        let id = NodeId(3);
        let arr = l.next_node_arrival(id, 1000, 0);
        assert_eq!(l.next_node_arrival(id, arr, 0), arr);
        // One slot later we wait a whole bucket.
        assert_eq!(l.next_node_arrival(id, arr + 1, 0), arr + l.bucket_len());
    }

    #[test]
    fn data_arrival_is_cycle_periodic() {
        let t = tree(30, 128);
        let p = BroadcastParams::new(128);
        let l = BroadcastLayout::new(&t, &p);
        for j in [0u64, 1, l.data_len() / 2, l.data_len() - 1] {
            let a0 = l.next_data_arrival(j, 0, 11);
            let a1 = l.next_data_arrival(j, a0 + 1, 11);
            assert_eq!(a1 - a0, l.cycle_len());
        }
    }

    #[test]
    fn data_page_position_places_fractions_after_index() {
        let t = tree(40, 64);
        let p = BroadcastParams::new(64);
        let l = BroadcastLayout::new(&t, &p);
        // First data page sits right after the first index copy.
        assert_eq!(l.data_page_position(0), l.index_len());
        // First page of the second fraction sits after the second index copy.
        let f1 = l.fraction_len();
        assert_eq!(l.data_page_position(f1), l.bucket_len() + l.index_len());
    }

    #[test]
    fn phase_shifts_arrivals() {
        let t = tree(80, 64);
        let p = BroadcastParams::new(64);
        let l = BroadcastLayout::new(&t, &p);
        let id = NodeId(2);
        let base = l.next_node_arrival(id, 0, 0);
        // Shifting the phase by k moves the whole program k slots earlier.
        for k in 1..5u64 {
            let shifted = l.next_node_arrival(id, 0, k);
            assert_eq!((shifted + k) % l.bucket_len(), base % l.bucket_len());
        }
    }

    #[test]
    fn zero_data_layout() {
        let t = tree(20, 64);
        let p = BroadcastParams {
            page_capacity: 64,
            interleave_m: 2,
            data_content_bytes: 0,
        };
        let l = BroadcastLayout::new(&t, &p);
        assert_eq!(l.data_len(), 0);
        assert_eq!(l.fraction_len(), 0);
        assert_eq!(l.bucket_len(), l.index_len());
    }
}
