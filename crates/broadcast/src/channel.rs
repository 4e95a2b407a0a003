//! A broadcast channel: one dataset's program plus a phase offset onto the
//! global clock.

use crate::{BroadcastLayout, BroadcastParams};
use std::sync::Arc;
use tnn_rtree::{fingerprint, Node, NodeId, ObjectId, RTree};

/// What a channel carries during one page slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageContent {
    /// An index page holding one R-tree node.
    IndexNode(NodeId),
    /// A data page: the `part`-th page of `object`'s content.
    Data {
        /// Object whose content the page carries.
        object: ObjectId,
        /// Zero-based page number within that object's content.
        part: u64,
    },
    /// Tail padding of the last data fraction (when `m` does not divide
    /// the data-segment length).
    Padding,
}

/// One wireless broadcast channel: a cyclic `(1, m)` program over a single
/// dataset, shifted by a phase so that concurrent channels are not
/// artificially aligned (the paper draws "two random numbers … to simulate
/// the waiting time to get the two roots").
#[derive(Debug, Clone)]
pub struct Channel {
    tree: Arc<RTree>,
    layout: Arc<BroadcastLayout>,
    params: BroadcastParams,
    phase: u64,
    /// Cached content identity (tree data + program parameters), computed
    /// once at construction — see [`Channel::fingerprint`].
    fingerprint: u64,
}

impl Channel {
    /// Creates a channel broadcasting `tree` under `params`, with the
    /// program shifted by `phase` slots (the page on air at global time
    /// `t` is the cycle position `(t + phase) mod cycle_len`).
    ///
    /// The tree's leaves are read once: the same pass yields the data
    /// segment's object order and the tree's content fingerprint.
    pub fn new(tree: Arc<RTree>, params: BroadcastParams, phase: u64) -> Self {
        let mut by_rank = Vec::with_capacity(tree.num_objects());
        let content = tree.fingerprint_leaf_order(|_, object| by_rank.push(object));
        let layout = Arc::new(BroadcastLayout::from_leaf_order(&tree, &params, by_rank));
        let fingerprint = fingerprint([
            content,
            params.page_capacity as u64,
            u64::from(params.interleave_m),
            params.data_content_bytes as u64,
        ]);
        Channel {
            tree,
            layout,
            params,
            phase,
            fingerprint,
        }
    }

    /// A copy of this channel with a different phase — O(1), sharing the
    /// tree and layout. Experiment harnesses use this to re-randomize the
    /// root waiting times per query without rebuilding the program.
    pub fn with_phase(&self, phase: u64) -> Self {
        Channel {
            tree: Arc::clone(&self.tree),
            layout: Arc::clone(&self.layout),
            params: self.params,
            phase,
            fingerprint: self.fingerprint,
        }
    }

    /// A deterministic 64-bit identity of the channel's **content**: the
    /// broadcast tree's data/shape fingerprint folded with the program
    /// parameters. The phase is deliberately excluded (it is schedule
    /// alignment, not content, and is folded separately at the
    /// environment level); see
    /// [`MultiChannelEnv::fingerprint`](crate::MultiChannelEnv::fingerprint).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The R-tree being broadcast.
    #[inline]
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// The shared handle to the R-tree.
    #[inline]
    pub fn tree_arc(&self) -> &Arc<RTree> {
        &self.tree
    }

    /// The page-level layout.
    #[inline]
    pub fn layout(&self) -> &BroadcastLayout {
        &self.layout
    }

    /// The program parameters.
    #[inline]
    pub fn params(&self) -> &BroadcastParams {
        &self.params
    }

    /// The channel's phase offset.
    #[inline]
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// A borrowed view of this channel under its own phase — the form the
    /// query tasks consume (see [`ChannelView`]).
    #[inline]
    pub fn view(&self) -> ChannelView<'_> {
        ChannelView {
            channel: self,
            phase: self.phase,
        }
    }

    /// A borrowed view of this channel with `phase` substituted for the
    /// channel's own — the zero-clone alternative to
    /// [`Channel::with_phase`] used by
    /// [`PhaseOverlay`](crate::PhaseOverlay) to re-randomize root waiting
    /// times per query without touching the shared channel.
    #[inline]
    pub fn view_with_phase(&self, phase: u64) -> ChannelView<'_> {
        ChannelView {
            channel: self,
            phase,
        }
    }

    /// The content on air at global time `t`. This is the *semantic* view
    /// of the virtual schedule, used by tests to cross-check the arrival
    /// arithmetic and by the trace example; query processing never needs
    /// it.
    pub fn page_at(&self, t: u64) -> PageContent {
        let pos = (t + self.phase) % self.layout.cycle_len();
        let in_bucket = pos % self.layout.bucket_len();
        let bucket = pos / self.layout.bucket_len();
        if in_bucket < self.layout.index_len() {
            return PageContent::IndexNode(NodeId(in_bucket as u32));
        }
        let j = bucket * self.layout.fraction_len() + (in_bucket - self.layout.index_len());
        if j >= self.layout.data_len() {
            return PageContent::Padding;
        }
        let rank = (j / self.layout.pages_per_object()) as usize;
        PageContent::Data {
            object: self.layout.object_at_rank(rank),
            part: j % self.layout.pages_per_object(),
        }
    }
}

/// A borrowed, `Copy` view of a [`Channel`] under an (optionally
/// overridden) phase — what the broadcast query tasks actually consume.
///
/// The phase is the *only* per-query degree of freedom of a channel (the
/// tree, layout, and parameters are immutable once built), so threading a
/// `ChannelView` through a task instead of a cloned `Channel` makes
/// per-query phase randomization free: no `Vec` of channels, no `Arc`
/// reference-count traffic, just a reference and a `u64`. Obtain one via
/// [`Channel::view`], [`Channel::view_with_phase`], or a
/// [`PhaseOverlay`](crate::PhaseOverlay).
///
/// All arrival arithmetic is identical to the underlying channel's with
/// the view's phase substituted, so a view with the channel's own phase
/// behaves exactly like the channel itself.
#[derive(Debug, Clone, Copy)]
pub struct ChannelView<'a> {
    channel: &'a Channel,
    phase: u64,
}

impl<'a> From<&'a Channel> for ChannelView<'a> {
    fn from(channel: &'a Channel) -> Self {
        channel.view()
    }
}

impl<'a> ChannelView<'a> {
    /// The underlying channel.
    #[inline]
    pub fn channel(&self) -> &'a Channel {
        self.channel
    }

    /// The phase this view applies (possibly overriding the channel's).
    #[inline]
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// The R-tree being broadcast.
    #[inline]
    pub fn tree(&self) -> &'a RTree {
        &self.channel.tree
    }

    /// The page-level layout.
    #[inline]
    pub fn layout(&self) -> &'a BroadcastLayout {
        &self.channel.layout
    }

    /// The program parameters.
    #[inline]
    pub fn params(&self) -> &'a BroadcastParams {
        &self.channel.params
    }

    /// Resolves a node id to its node (the client "downloading" the page).
    #[inline]
    pub fn node(&self, id: NodeId) -> &'a Node {
        self.channel.tree.node(id)
    }

    /// Next time `t ≥ now` at which `node`'s index page is on air, under
    /// this view's phase.
    #[inline]
    pub fn next_node_arrival(&self, node: NodeId, now: u64) -> u64 {
        self.channel.layout.next_node_arrival(node, now, self.phase)
    }

    /// Next time `t ≥ now` at which the root index page is on air.
    #[inline]
    pub fn next_root_arrival(&self, now: u64) -> u64 {
        self.next_node_arrival(NodeId::ROOT, now)
    }

    /// Simulates downloading all data pages of `object` starting at `now`
    /// under this view's phase: returns `(finish_time, pages_downloaded)`.
    /// The pages of one object are consecutive in the data segment but may
    /// straddle fraction boundaries, in which case the client dozes
    /// through each interposed index copy.
    ///
    /// Only the first page's arrival needs the schedule arithmetic: each
    /// later page follows one slot after its predecessor, plus an index
    /// segment for every fraction boundary the object crosses.
    pub fn retrieve_object(&self, object: ObjectId, now: u64) -> (u64, u64) {
        let layout = &self.channel.layout;
        let pages = layout.pages_per_object();
        if pages == 0 {
            return (now, 0);
        }
        let first = layout.data_slot(object);
        let last = first + pages - 1;
        let boundaries = last / layout.fraction_len() - first / layout.fraction_len();
        let arrival = layout.next_data_arrival(first, now, self.phase);
        (arrival + pages + boundaries * layout.index_len(), pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tnn_geom::Point;
    use tnn_rtree::PackingAlgorithm;

    fn channel(n: usize, phase: u64) -> Channel {
        let params = BroadcastParams::new(64);
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new((i * 7 % 113) as f64, (i * 13 % 127) as f64))
            .collect();
        let tree = RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap();
        Channel::new(Arc::new(tree), params, phase)
    }

    #[test]
    fn page_at_agrees_with_node_arrival_arithmetic() {
        let ch = channel(60, 123);
        for node in [0u32, 1, 7, ch.tree().num_nodes() as u32 - 1] {
            let id = NodeId(node);
            for now in [0u64, 5, 100, 1000, 12345] {
                let arr = ch.view().next_node_arrival(id, now);
                assert!(arr >= now);
                assert_eq!(
                    ch.page_at(arr),
                    PageContent::IndexNode(id),
                    "node {id} at {arr}"
                );
                // No earlier slot in [now, arr) carries this node.
                for t in now..arr {
                    assert_ne!(ch.page_at(t), PageContent::IndexNode(id));
                }
            }
        }
    }

    #[test]
    fn page_at_agrees_with_data_arrival_arithmetic() {
        let ch = channel(10, 7);
        let l = ch.layout();
        for j in [0u64, 1, l.data_len() / 3, l.data_len() - 1] {
            let arr = l.next_data_arrival(j, 50, ch.phase());
            match ch.page_at(arr) {
                PageContent::Data { object, part } => {
                    let rank = (j / l.pages_per_object()) as usize;
                    assert_eq!(l.data_slot(object), rank as u64 * l.pages_per_object());
                    assert_eq!(part, j % l.pages_per_object());
                }
                other => panic!("expected data page at {arr}, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_cycle_slot_is_classified() {
        let ch = channel(9, 0);
        let l = ch.layout();
        let mut index_pages = 0u64;
        let mut data_pages = 0u64;
        let mut padding = 0u64;
        for t in 0..l.cycle_len() {
            match ch.page_at(t) {
                PageContent::IndexNode(_) => index_pages += 1,
                PageContent::Data { .. } => data_pages += 1,
                PageContent::Padding => padding += 1,
            }
        }
        assert_eq!(index_pages, l.index_len() * l.interleave_m() as u64);
        assert_eq!(data_pages, l.data_len());
        assert_eq!(
            padding,
            l.fraction_len() * l.interleave_m() as u64 - l.data_len()
        );
    }

    #[test]
    fn retrieve_object_downloads_all_pages() {
        let ch = channel(15, 3);
        let (_, object) = ch.tree().objects_in_leaf_order().next().unwrap();
        let (finish, pages) = ch.view().retrieve_object(object, 0);
        assert_eq!(pages, 16);
        assert!(finish >= 16);
        // Retrieval starting right at the object's first page is contiguous
        // when the object does not straddle a fraction boundary.
        let first = ch
            .layout()
            .next_data_arrival(ch.layout().data_slot(object), 0, ch.phase());
        let (finish2, _) = ch.view().retrieve_object(object, first);
        let straddles = (ch.layout().data_slot(object) / ch.layout().fraction_len())
            != ((ch.layout().data_slot(object) + 15) / ch.layout().fraction_len());
        if !straddles {
            assert_eq!(finish2, first + 16);
        } else {
            assert!(finish2 > first + 16);
        }
    }

    /// The per-page schedule walk that [`ChannelView::retrieve_object`]
    /// steps through: every page's next arrival from the slot after its
    /// predecessor.
    fn retrieve_page_by_page(view: ChannelView<'_>, object: ObjectId, now: u64) -> (u64, u64) {
        let layout = view.layout();
        let pages = layout.pages_per_object();
        let slot = layout.data_slot(object);
        let mut t = now;
        for k in 0..pages {
            t = layout.next_data_arrival(slot + k, t, view.phase()) + 1;
        }
        (t, pages)
    }

    proptest! {
        /// Stepped retrieval equals the page-by-page walk, for every page
        /// size, interleave factor (`m = 1` included), object size (empty
        /// objects included), phase, start time and object. Small point
        /// sets under large `m` give fractions shorter than an object, so
        /// many objects straddle one or more fraction boundaries.
        #[test]
        fn stepped_retrieval_equals_the_page_by_page_walk(
            n in 1usize..120,
            page in prop::sample::select(vec![64usize, 128, 256, 512]),
            interleave_m in 1u32..40,
            data_content_bytes in prop::sample::select(vec![0usize, 1, 63, 64, 200, 1024, 4096]),
            phase in 0u64..1_000_000,
            now in 0u64..1_000_000,
            pick in 0usize..1_000,
        ) {
            let params = BroadcastParams { page_capacity: page, interleave_m, data_content_bytes };
            let pts: Vec<Point> = (0..n)
                .map(|i| Point::new((i * 7 % 113) as f64, (i * 13 % 127) as f64))
                .collect();
            let tree = RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap();
            let ch = Channel::new(Arc::new(tree), params, phase);
            let (_, object) = ch.tree().objects_in_leaf_order().nth(pick % n).unwrap();
            let view = ch.view();
            prop_assert_eq!(
                view.retrieve_object(object, now),
                retrieve_page_by_page(view, object, now)
            );
        }
    }

    #[test]
    fn root_arrival_within_one_bucket() {
        let ch = channel(100, 999);
        for now in [0u64, 17, 500, 100_000] {
            let arr = ch.view().next_root_arrival(now);
            assert!(arr - now < ch.layout().bucket_len());
            assert_eq!(ch.page_at(arr), PageContent::IndexNode(NodeId::ROOT));
        }
    }

    #[test]
    fn view_with_phase_matches_rephased_channel() {
        let base = channel(40, 3);
        let rephased = base.with_phase(777);
        let view = base.view_with_phase(777);
        let (_, object) = base.tree().objects_in_leaf_order().next().unwrap();
        for now in [0u64, 9, 500, 44_444] {
            for node in [NodeId::ROOT, NodeId(1)] {
                assert_eq!(
                    view.next_node_arrival(node, now),
                    rephased.view().next_node_arrival(node, now)
                );
            }
            assert_eq!(
                view.retrieve_object(object, now),
                rephased.view().retrieve_object(object, now)
            );
        }
        // A view without an override runs on the channel's own phase.
        assert_eq!(base.view().phase(), base.phase());
        assert_eq!(
            base.view().next_root_arrival(17),
            base.view_with_phase(base.phase()).next_root_arrival(17)
        );
    }

    #[test]
    fn phase_changes_alignment_but_not_structure() {
        let a = channel(40, 0);
        let b = channel(40, 1000);
        assert_eq!(a.layout().cycle_len(), b.layout().cycle_len());
        // Same page sequence, shifted by 1000 slots.
        for t in 0..200u64 {
            assert_eq!(a.page_at(t + 1000), b.page_at(t));
        }
    }
}
