//! The broadcast branch-and-bound search task: exact or approximate
//! nearest-neighbor search over an on-air R-tree, in plain or transitive
//! metric, with mid-flight re-targeting (the Hybrid-NN switches).
//!
//! ## Traversal discipline
//!
//! Candidates are processed strictly in **arrival order**. With the index
//! laid out in preorder, every child follows its parent within the same
//! index segment, so one search completes within a single segment pass —
//! exactly why the paper broadcasts the tree depth-first.
//!
//! The candidate queue is the [`ArrivalStack`], so
//! [`BroadcastNnSearch::next_arrival`] and [`BroadcastNnSearch::step`]'s
//! pop are O(1) — the event loops interleaving searches over multiple
//! channels peek every iteration, and batch simulations run millions of
//! steps. The task is the one type generic over the queue
//! ([`CandidateQueue`]); every layer above runs the stack. Test builds
//! also run it over the paper-literal `Vec`-scan queue, and the lockstep
//! property below holds the two to identical observables at every step —
//! so a whole query is queue-independent.
//!
//! ## Delayed pruning (paper §4.2.4)
//!
//! All children of a visited node enter the queue; pruning is decided
//! when an entry would be downloaded, with the bound *as of that moment*.
//! Because the bound only changes when this task downloads a page (or is
//! re-targeted), deciding right after each download is equivalent to
//! deciding at pop time — with one exception: a Hybrid-NN **switch** can
//! revive an entry that the old metric had condemned. Pruned entries are
//! therefore *parked*, not dropped; a switch at time `t` re-examines every
//! parked entry whose arrival is still in the future (arrival ≥ t) under
//! the new metric, faithfully reproducing the paper's remedy ("the MBR
//! which contains the answer to that new query may have been pruned …
//! the algorithm delays the pruning process"). Parked and pruned entries
//! cost neither pages nor time.
//!
//! The stack backend exploits the same pop-time equivalence a second way:
//! between switches the bound only tightens, so pruning decisions for
//! entries buried in the stack are *deferred* until they surface on top;
//! immediately before a switch every deferred decision is realized under
//! the old metric, restoring the exact eager-purge state.
//!
//! ## Bound maintenance
//!
//! The upper bound is maintained "in the same way as in the exact NN
//! search" (§5.1): from visited data points and the guaranteed
//! `MinMaxDist` / `MinMaxTransDist` of seen child MBRs (§4.2.3, by the
//! MBR face property). Guaranteed pruning compares `MinDist`-style lower
//! bounds against it; in transitive mode the two-sqrt
//! [`tnn_geom::min_trans_dist_floor`] is compared first, and the exact
//! `MinTransDist` only when the floor does not prune.
//!
//! In ANN mode the same bound sizes the probabilistic search region: an
//! entry is additionally pruned when the overlap between its MBR and the
//! circle (Heuristic 1) or transitive-distance ellipse (Heuristic 2) of
//! the current bound is at most an `α` fraction of the MBR's area —
//! i.e., when the (uniformity-estimated) probability that the node beats
//! the bound is small. The MBR that produced the current bound is
//! **preserved** ("the MBR which gives the latest upper bound has to be
//! preserved and visited"), which guarantees an ANN search always
//! reaches a real data point.

use super::queue::{ArrivalStack, CandidateQueue, QueueEntry};
use crate::{AnnMode, SearchMode};
use tnn_broadcast::{ChannelView, Tuner};
use tnn_geom::{min_trans_dist_floor, Point};
use tnn_rtree::{NodeId, ObjectId, RTree};

/// A broadcast nearest-neighbor search task on one channel.
///
/// Code outside the lockstep tests uses the [`NnSearchTask`] alias (the
/// arrival-sorted stack); the queue parameter exists so that those tests
/// can run this same search code over the linear oracle. Drive it with
/// `next_arrival` / `step` from an event loop that interleaves tasks over
/// multiple channels in global time order; re-target it with
/// [`BroadcastNnSearch::switch_query_point`] (Hybrid case 2) or
/// [`BroadcastNnSearch::switch_to_transitive`] (Hybrid case 3).
#[derive(Debug)]
pub struct BroadcastNnSearch<'a, Q: CandidateQueue> {
    channel: ChannelView<'a>,
    mode: SearchMode,
    ann: AnnMode,
    queue: Q,
    /// When the root is on air; node `id` follows `id` slots later.
    root_arrival: u64,
    /// Entries condemned by the current metric but kept for possible
    /// revival by a re-targeting switch (delayed pruning, §4.2.4).
    parked: Vec<QueueEntry>,
    /// Best real data point seen so far, under the *current* mode.
    best: Option<(Point, ObjectId)>,
    /// Objective value of `best` (∞ when none), in the mode's objective
    /// space (squared distance for point mode — see
    /// [`SearchMode::objective_at`]).
    best_value: f64,
    /// Upper bound: a value guaranteed to be achieved by some data point
    /// (from visited points and `MinMaxDist`-style bounds). Prunes
    /// exactly in eNN mode and sizes the probabilistic region in ANN
    /// mode.
    upper: f64,
    /// Queued node whose MBR set `upper` — preserved from ANN pruning so
    /// the search always reaches a real point.
    source: Option<NodeId>,
    tuner: Tuner,
    /// Task-local clock: advanced by downloads only.
    now: u64,
    /// Peak of queued + parked entries (see
    /// [`BroadcastNnSearch::peak_memory`]).
    peak_memory: usize,
    /// Exact `MinTransDist` evaluations this search has made: pruning
    /// tests and anchor choices in transitive mode.
    transitive_lower_bounds: u64,
}

/// The NN search task (arrival-sorted candidate stack).
pub type NnSearchTask<'a> = BroadcastNnSearch<'a, ArrivalStack>;

/// Reusable buffers for one [`BroadcastNnSearch`]: thread one through
/// repeated searches (e.g. a query batch) to avoid re-allocating the
/// queue and the parked list per query.
#[derive(Debug, Default)]
pub struct NnScratch<Q: CandidateQueue = ArrivalStack> {
    queue: Q,
    parked: Vec<QueueEntry>,
    /// Exact `MinTransDist` evaluations of every search recycled into
    /// this scratch so far.
    pub(crate) transitive_lower_bounds: u64,
}

impl<'a, Q: CandidateQueue> BroadcastNnSearch<'a, Q> {
    /// Starts a search on `channel` at global time `start`; the root is
    /// queued at its next arrival. Accepts a plain `&Channel` (searched
    /// under the channel's own phase) or a [`ChannelView`] carrying a
    /// per-query phase override.
    pub fn new(
        channel: impl Into<ChannelView<'a>>,
        mode: SearchMode,
        ann: AnnMode,
        start: u64,
    ) -> Self {
        Self::with_scratch(channel, mode, ann, start, &mut NnScratch::default())
    }

    /// Like [`BroadcastNnSearch::new`], but takes the queue and parked
    /// buffers from `scratch` (pass the task back via
    /// [`BroadcastNnSearch::recycle`] when done to reuse the capacity).
    pub fn with_scratch(
        channel: impl Into<ChannelView<'a>>,
        mode: SearchMode,
        ann: AnnMode,
        start: u64,
        scratch: &mut NnScratch<Q>,
    ) -> Self {
        let channel = channel.into();
        let mut queue = std::mem::take(&mut scratch.queue);
        let mut parked = std::mem::take(&mut scratch.parked);
        queue.clear();
        parked.clear();
        let root_arrival = channel.next_root_arrival(start);
        queue.push(QueueEntry {
            arrival: root_arrival,
            node: NodeId::ROOT,
            mbr: channel.tree().bounding_rect(),
        });
        BroadcastNnSearch {
            channel,
            mode,
            ann,
            queue,
            root_arrival,
            parked,
            best: None,
            best_value: f64::INFINITY,
            upper: f64::INFINITY,
            source: None,
            tuner: Tuner::new(),
            now: start,
            peak_memory: 1,
            transitive_lower_bounds: 0,
        }
    }

    /// Returns the task's buffers to `scratch` for reuse by a later
    /// search, adding its work counter to the scratch's.
    pub fn recycle(self, scratch: &mut NnScratch<Q>) {
        scratch.queue = self.queue;
        scratch.parked = self.parked;
        scratch.transitive_lower_bounds += self.transitive_lower_bounds;
        scratch.queue.clear();
        scratch.parked.clear();
    }

    /// `true` when no downloadable candidates remain (the search result is
    /// final unless a switch revives parked entries).
    #[inline]
    pub fn is_done(&self) -> bool {
        self.queue.is_empty()
    }

    /// Arrival time of the next candidate to download, or `None` when the
    /// search is finished. O(1): the queue's next entry is kept viable by
    /// the settling pass after every bound update.
    #[inline]
    pub fn next_arrival(&self) -> Option<u64> {
        self.queue.last().map(|e| e.arrival)
    }

    /// The best data point found so far: `(point, object, objective)`,
    /// with the objective reported as a real distance.
    pub fn best(&self) -> Option<(Point, ObjectId, f64)> {
        self.best
            .map(|(p, o)| (p, o, self.mode.report(self.best_value)))
    }

    /// The current search mode.
    pub fn mode(&self) -> SearchMode {
        self.mode
    }

    /// Page accounting for this task.
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    /// Task-local clock: the completion slot of the last download (or the
    /// start time before any download). When the queue is empty this is
    /// the task's finish time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Peak number of MBR entries held at once — queued **plus** parked,
    /// since delayed pruning keeps condemned entries revivable. §4.2.4
    /// bounds only the pending queue, by `(H−1)·(M−1)` entries; the
    /// parked list is outside that bound, and on page-64 trees (`H = 8`,
    /// `M = 3`) this sum has reached 124 entries, 8.9× the bound.
    /// Backend-independent: lazy and eager pruning only move entries
    /// between the two sets.
    pub fn peak_memory(&self) -> usize {
        self.peak_memory
    }

    /// Number of entries currently parked by delayed pruning (§4.2.4):
    /// condemned but kept revivable for re-targeting switches. After a
    /// completed search this is the count of candidates pruning saved
    /// from expansion — backend-independent, since lazy and eager
    /// pruning classify entries identically by completion.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Downloads the next candidate node and processes it. Returns the
    /// arrival slot handled, or `None` when already done.
    pub fn step(&mut self) -> Option<u64> {
        let entry = self.queue.pop()?;
        self.now = entry.arrival + 1;
        self.tuner.download(entry.arrival);

        let node = self.channel.node(entry.node);
        if let Some(children) = node.children() {
            // Bound updates from the guaranteed MinMaxDist-style bound of
            // every child MBR (paper §4.2.3); the child that sets the
            // bound becomes the preserved anchor.
            for c in children {
                let safe = self.mode.safe_upper_objective(&c.mbr);
                if safe < self.upper {
                    self.upper = safe;
                    self.source = Some(c.child);
                }
            }
            // Preservation chain: if this node anchored the estimate and
            // no child tightened it, re-anchor to the most promising
            // child so the search provably reaches a data point.
            if self.source == Some(entry.node) {
                let mode = self.mode;
                let (_, best_child) = children
                    .iter()
                    .map(|c| (mode.lower_bound_objective(&c.mbr), c.child))
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .expect("packed nodes are non-empty");
                self.source = Some(best_child);
                if let SearchMode::Transitive { .. } = mode {
                    self.transitive_lower_bounds += children.len() as u64;
                }
            }
            // Delayed pruning: every child is kept — queued or parked,
            // never dropped. The bound is final for this step (updated
            // from all children above), so the queue may park condemned
            // children at once; deferring the decision to the settling
            // pass below is observationally identical. Either way nothing
            // costs pages or time.
            let mut ctx = self.prune_context();
            for c in children {
                let e = QueueEntry {
                    arrival: self.root_arrival + u64::from(c.child.0),
                    node: c.child,
                    mbr: c.mbr,
                };
                debug_assert_eq!(e.arrival, self.channel.next_node_arrival(c.child, self.now));
                self.queue
                    .push_or_park(e, |e| ctx.condemns(e), &mut self.parked);
            }
            self.transitive_lower_bounds += ctx.transitive_lower_bounds;
        } else if let Some(points) = node.points() {
            // Scan the leaf for its best point, in objective space (point
            // mode never touches a square root here).
            let mode = self.mode;
            let mut leaf_best: Option<(f64, Point, ObjectId)> = None;
            for e in points {
                let v = mode.objective_at(e.point);
                if leaf_best.is_none_or(|(b, _, _)| v < b) {
                    leaf_best = Some((v, e.point, e.object));
                }
            }
            if let Some((v, pt, object)) = leaf_best {
                if v < self.best_value {
                    self.best = Some((pt, object));
                    self.best_value = v;
                }
                if v < self.upper {
                    self.upper = v;
                    self.source = None;
                }
            }
            if self.source == Some(entry.node) {
                // The anchored leaf has been inspected; real points now
                // back the search (best is non-empty).
                self.source = None;
            }
        }

        self.settle();
        Some(entry.arrival)
    }

    /// Runs the task to completion, returning its finish time. Only
    /// useful when no other task needs interleaving (e.g. Window-Based's
    /// sequential NN queries).
    pub fn run_to_completion(&mut self) -> u64 {
        while self.step().is_some() {}
        self.now
    }

    /// Hybrid-NN **case 2** (paper §4.2.2–§4.2.3): the other channel's NN
    /// search finished first (at time `at`) with result `s`; re-target
    /// this search to find the nearest neighbor of `s` on the *remaining
    /// portion* of this channel's R-tree.
    ///
    /// The temporary result (if any) is re-evaluated under the new query
    /// point, and the smallest `MinDist` among the queued MBRs seeds the
    /// bound ("the smallest MinDist is used to update the upper bound"),
    /// with that MBR preserved.
    pub fn switch_query_point(&mut self, new_q: Point, at: u64) {
        self.realize_pending();
        self.mode = SearchMode::Point { q: new_q };
        self.rebase_after_switch(at);
    }

    /// Hybrid-NN **case 3** (paper §4.2.3, Algorithm 2): the other
    /// channel finished first (at time `at`) with result `r`; change this
    /// search's metric to the transitive distance through `p` and `r`,
    /// using `MinTransDist` for pruning and `MinMaxTransDist` for the
    /// guaranteed initial bound over the queued MBRs.
    pub fn switch_to_transitive(&mut self, p: Point, r: Point, at: u64) {
        self.realize_pending();
        self.mode = SearchMode::Transitive { p, r };
        self.rebase_after_switch(at);
    }

    /// Snapshots the bound state into a [`PruneContext`] (borrowing
    /// nothing from `self`, so the queue and parked list stay free for
    /// mutation while the predicate runs).
    fn prune_context(&self) -> PruneContext<'a> {
        let channel = self.channel;
        PruneContext {
            mode: self.mode,
            upper: self.upper,
            // One conversion per bound update instead of one per entry
            // tested (a sqrt in point mode); only read under ANN pruning.
            region_bound: if self.ann.is_approximate() {
                self.mode.report(self.upper)
            } else {
                self.upper
            },
            ann: self.ann,
            source: self.source,
            tree: channel.tree(),
            transitive_lower_bounds: 0,
        }
    }

    /// Hands the pruning predicate to `apply` together with the queue and
    /// the parked list, then refreshes the peak-memory and work counters.
    fn with_condemn(
        &mut self,
        apply: impl FnOnce(&mut Q, &mut dyn FnMut(&QueueEntry) -> bool, &mut Vec<QueueEntry>),
    ) {
        let mut ctx = self.prune_context();
        apply(&mut self.queue, &mut |e| ctx.condemns(e), &mut self.parked);
        self.transitive_lower_bounds += ctx.transitive_lower_bounds;
        self.peak_memory = self.peak_memory.max(self.queue.len() + self.parked.len());
    }

    /// Parks every queued entry that is provably (exact) or probably
    /// (ANN) useless under the current bound; the preserved anchor is
    /// exempt. The stack backend defers decisions for entries below the
    /// top — sound because the bound only tightens between switches.
    /// Parked entries cost no pages and no time, and remain revivable by
    /// a later switch.
    fn settle(&mut self) {
        self.with_condemn(|queue, condemn, parked| queue.settle(condemn, parked));
    }

    /// Realizes every deferred pruning decision under the *current* (old)
    /// metric — must run before a switch changes the metric, so that the
    /// parked/queued split matches the eager-pruning semantics exactly.
    fn realize_pending(&mut self) {
        self.with_condemn(|queue, condemn, parked| queue.realize(condemn, parked));
    }

    /// Shared re-targeting logic: revive parked entries that are still in
    /// the future, re-evaluate the temporary result, seed the bound from
    /// the queued MBRs, re-purge under the new metric.
    fn rebase_after_switch(&mut self, at: u64) {
        // Delayed pruning, realized: entries condemned by the *old*
        // metric whose pages have not yet been broadcast are candidates
        // again; entries whose arrival already passed were definitively
        // decided under the old metric (pop-time semantics).
        for e in self.parked.extract_if(.., |e| e.arrival >= at) {
            self.queue.push(e);
        }
        self.parked.clear();

        self.best_value = match self.best {
            Some((pt, _)) => self.mode.objective_at(pt),
            None => f64::INFINITY,
        };
        self.upper = self.best_value;
        self.source = None;
        // Initial bound update over the queue (paper §4.2.3): seed with
        // the guaranteed achievable bound of the queued MBRs — case 3's
        // text names MinMaxTransDist explicitly; we use the symmetric
        // MinMaxDist for case 2. (The case-2 paragraph literally says
        // "MinDist", but MinDist is a lower bound — seeding the bound
        // with it degenerates the remaining search into a blind greedy
        // descent whenever the switch fires near the root, which
        // contradicts the reported behaviour; the face-property bound is
        // the sound reading.) Node id breaks bound ties so the anchor
        // choice is independent of the queue backend's iteration order.
        let mode = self.mode;
        let mut anchor: Option<(NodeId, f64)> = None;
        self.queue.for_each(&mut |e| {
            let safe = mode.safe_upper_objective(&e.mbr);
            let better = match anchor {
                None => true,
                Some((n, b)) => match safe.total_cmp(&b) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => e.node.0 < n.0,
                    std::cmp::Ordering::Greater => false,
                },
            };
            if better {
                anchor = Some((e.node, safe));
            }
        });
        if let Some((node, bound)) = anchor {
            if bound < self.upper {
                self.upper = bound;
                self.source = Some(node);
            } else if self.best.is_none() {
                // Keep a live anchor even when the bound did not improve,
                // so the re-targeted search still reaches a real point.
                self.source = Some(node);
            }
        }
        self.settle();
    }
}

/// Copies of the bound state needed to decide whether a candidate is
/// condemned — the single pruning predicate shared by push-time
/// pre-filtering, settling, and switch-time realization, so the rule can
/// never drift between them.
struct PruneContext<'t> {
    mode: SearchMode,
    /// Current upper bound, in objective space.
    upper: f64,
    /// The same bound as a real distance (sizes the ANN search region).
    region_bound: f64,
    ann: AnnMode,
    /// The preserved anchor, exempt from pruning.
    source: Option<NodeId>,
    tree: &'t RTree,
    /// Exact `MinTransDist` evaluations made through this context.
    transitive_lower_bounds: u64,
}

impl PruneContext<'_> {
    fn condemns(&mut self, e: &QueueEntry) -> bool {
        if Some(e.node) == self.source {
            return false;
        }
        // Guaranteed pruning (eNN rule), in objective space. In
        // transitive mode the two-sqrt floor goes first: it never exceeds
        // the computed MinTransDist, so it condemns only entries the
        // exact test would, and saves that test for each of them.
        if let SearchMode::Transitive { p, r } = self.mode {
            if min_trans_dist_floor(p, &e.mbr, r) > self.upper {
                return true;
            }
            self.transitive_lower_bounds += 1;
        }
        if self.mode.lower_bound_objective(&e.mbr) > self.upper {
            return true;
        }
        // Probabilistic pruning against the bound's search region
        // (Heuristics 1 & 2).
        if self.ann.is_approximate() {
            let ratio = self.mode.overlap_ratio(&e.mbr, self.region_bound);
            if self
                .ann
                .prunes(ratio, self.tree.depth_of(e.node), self.tree.height())
            {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::queue::LinearQueue;
    use proptest::prelude::*;
    use std::sync::Arc;
    use tnn_broadcast::{BroadcastParams, Channel};
    use tnn_rtree::{PackingAlgorithm, RTree};

    fn channel(pts: &[Point], phase: u64) -> Channel {
        let params = BroadcastParams::new(64);
        let tree = RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap();
        Channel::new(Arc::new(tree), params, phase)
    }

    fn grid(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i * 37 % 211) as f64, (i * 53 % 223) as f64))
            .collect()
    }

    #[test]
    fn exact_search_finds_true_nn() {
        let pts = grid(300);
        let ch = channel(&pts, 17);
        for q in [
            Point::new(0.0, 0.0),
            Point::new(105.0, 111.0),
            Point::new(-50.0, 300.0),
        ] {
            let mut task = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 5);
            task.run_to_completion();
            let (_, _, got) = task.best().expect("search finds a point");
            let brute = pts.iter().map(|p| q.dist(*p)).fold(f64::INFINITY, f64::min);
            assert!((got - brute).abs() < 1e-9, "query {q:?}");
        }
    }

    #[test]
    fn exact_transitive_search_finds_true_min() {
        let pts = grid(250);
        let ch = channel(&pts, 3);
        let p = Point::new(10.0, 20.0);
        let r = Point::new(180.0, 150.0);
        let mut task = NnSearchTask::new(&ch, SearchMode::Transitive { p, r }, AnnMode::Exact, 0);
        task.run_to_completion();
        let (_, _, got) = task.best().unwrap();
        let brute = pts
            .iter()
            .map(|s| p.dist(*s) + s.dist(r))
            .fold(f64::INFINITY, f64::min);
        assert!((got - brute).abs() < 1e-9);
    }

    #[test]
    fn search_downloads_fewer_pages_than_full_index() {
        let pts = grid(500);
        let ch = channel(&pts, 0);
        let q = Point::new(100.0, 100.0);
        let mut task = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 0);
        task.run_to_completion();
        assert!(task.tuner().pages < ch.tree().num_nodes() as u64 / 2);
    }

    #[test]
    fn search_completes_within_one_index_segment() {
        // Preorder layout: a search never waits for the next bucket.
        let pts = grid(400);
        let ch = channel(&pts, 29);
        let q = Point::new(55.0, 77.0);
        let start = 123;
        let mut task = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, start);
        let finish = task.run_to_completion();
        let root_arrival = ch.view().next_root_arrival(start);
        assert!(finish <= root_arrival + ch.layout().index_len() + 1);
    }

    #[test]
    fn ann_search_returns_a_real_point() {
        let pts = grid(400);
        let ch = channel(&pts, 7);
        let q = Point::new(100.0, 100.0);
        for factor in [0.25, 1.0, 4.0] {
            let mut task =
                NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Dynamic { factor }, 0);
            task.run_to_completion();
            let (pt, _, v) = task.best().expect("ANN must still find a point");
            assert!((q.dist(pt) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn ann_never_downloads_more_than_exact() {
        let pts = grid(600);
        let ch = channel(&pts, 0);
        let q = Point::new(160.0, 40.0);
        let mut exact = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 0);
        exact.run_to_completion();
        let mut ann = NnSearchTask::new(
            &ch,
            SearchMode::Point { q },
            AnnMode::Dynamic { factor: 1.0 },
            0,
        );
        ann.run_to_completion();
        assert!(ann.tuner().pages <= exact.tuner().pages);
        // And the approximate answer can only be farther.
        let (_, _, ve) = exact.best().unwrap();
        let (_, _, va) = ann.best().unwrap();
        assert!(va >= ve - 1e-9);
    }

    #[test]
    fn switch_query_point_mid_search() {
        let pts = grid(300);
        let ch = channel(&pts, 11);
        let p = Point::new(0.0, 0.0);
        let s = Point::new(150.0, 180.0);
        let mut task = NnSearchTask::new(&ch, SearchMode::Point { q: p }, AnnMode::Exact, 0);
        // Let it make some progress, then re-target.
        for _ in 0..3 {
            task.step();
        }
        let at = task.now();
        task.switch_query_point(s, at);
        task.run_to_completion();
        let (pt, _, v) = task.best().expect("re-targeted search finds a point");
        assert!((s.dist(pt) - v).abs() < 1e-9);
        // The result is feasible (a real dataset point), though possibly
        // only the NN of the *remaining* portion.
        assert!(pts.contains(&pt));
    }

    #[test]
    fn switch_to_transitive_mid_search() {
        let pts = grid(300);
        let ch = channel(&pts, 11);
        let p = Point::new(20.0, 30.0);
        let r = Point::new(190.0, 10.0);
        let mut task = NnSearchTask::new(&ch, SearchMode::Point { q: p }, AnnMode::Exact, 0);
        for _ in 0..2 {
            task.step();
        }
        let at = task.now();
        task.switch_to_transitive(p, r, at);
        task.run_to_completion();
        let (pt, _, v) = task.best().expect("transitive search finds a point");
        assert!((p.dist(pt) + pt.dist(r) - v).abs() < 1e-9);
        assert!(pts.contains(&pt));
    }

    #[test]
    fn switch_revives_parked_entries_still_in_future() {
        // Build a search whose first metric parks far-away nodes, then
        // re-target so that a parked node holds the new optimum: the
        // revived entry must be visited and the true new NN found, as
        // long as the switch happens at the task's own clock (all parked
        // arrivals are then still in the future — preorder guarantees
        // descendants of unvisited subtrees broadcast later).
        let mut pts = grid(200);
        // A lone far-away point that a p-centred search will park early.
        pts.push(Point::new(5_000.0, 5_000.0));
        let ch = channel(&pts, 0);
        let p = Point::new(0.0, 0.0);
        let mut task = NnSearchTask::new(&ch, SearchMode::Point { q: p }, AnnMode::Exact, 0);
        // Progress until the NN of p is essentially settled.
        for _ in 0..6 {
            task.step();
        }
        let at = task.now();
        // Re-target to the far corner: only the parked outlier is close.
        task.switch_query_point(Point::new(5_100.0, 5_100.0), at);
        task.run_to_completion();
        let (pt, _, _) = task.best().unwrap();
        assert_eq!(
            pt,
            Point::new(5_000.0, 5_000.0),
            "revival must reach the parked outlier"
        );
    }

    #[test]
    fn switch_immediately_after_start_is_safe() {
        let pts = grid(100);
        let ch = channel(&pts, 0);
        let p = Point::new(5.0, 5.0);
        let mut task = NnSearchTask::new(&ch, SearchMode::Point { q: p }, AnnMode::Exact, 0);
        // No steps yet — queue holds only the root.
        task.switch_to_transitive(p, Point::new(100.0, 100.0), 0);
        task.run_to_completion();
        assert!(task.best().is_some());
    }

    #[test]
    fn single_point_dataset() {
        let pts = vec![Point::new(42.0, 17.0)];
        let ch = channel(&pts, 0);
        let q = Point::new(0.0, 0.0);
        let mut task = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 0);
        task.run_to_completion();
        let (pt, _, v) = task.best().unwrap();
        assert_eq!(pt, Point::new(42.0, 17.0));
        assert!((v - q.dist(pt)).abs() < 1e-12);
        assert_eq!(task.tuner().pages, 1); // the root is the only node
    }

    #[test]
    fn arrivals_are_nondecreasing() {
        let pts = grid(500);
        let ch = channel(&pts, 31);
        let q = Point::new(33.0, 44.0);
        let mut task = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 9);
        let mut last = 0;
        while let Some(a) = task.step() {
            assert!(a >= last, "arrival order violated");
            last = a;
        }
    }

    #[test]
    fn fixed_alpha_mode_works() {
        let pts = grid(400);
        let ch = channel(&pts, 0);
        let q = Point::new(100.0, 100.0);
        let mut task = NnSearchTask::new(
            &ch,
            SearchMode::Point { q },
            AnnMode::Fixed { alpha: 0.5 },
            0,
        );
        task.run_to_completion();
        assert!(task.best().is_some());
    }

    #[test]
    fn peak_memory_within_paper_memory_bound() {
        // §4.2.4: worst-case client memory (H − 1) × (M − 1) entries for
        // the pending queue, plus the parked entries that delayed pruning
        // keeps revivable. Check a generous multiple of the paper bound to
        // catch pathological growth, and that the counter is monotone and
        // backend-independent (the equivalence property test covers the
        // latter exhaustively).
        let pts = grid(1000);
        let ch = channel(&pts, 0);
        let q = Point::new(120.0, 120.0);
        let mut task = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 0);
        let h = ch.tree().height() as usize;
        let m = ch.tree().params().fanout;
        task.run_to_completion();
        let bound = (h - 1) * (m - 1);
        assert!(
            task.peak_memory() <= 4 * bound + m + 1,
            "peak queued+parked {} vs paper bound {bound}",
            task.peak_memory()
        );
        // The peak can never be below the final resting state: an empty
        // queue and the parked entries.
        assert!(task.is_done());
        assert!(task.peak_memory() >= task.parked_len());
    }

    #[test]
    fn scratch_reuse_is_equivalent_and_reuses_capacity() {
        let pts = grid(400);
        let ch = channel(&pts, 13);
        let mut scratch = NnScratch::default();
        for (qx, qy) in [(10.0, 10.0), (150.0, 80.0), (60.0, 200.0)] {
            let q = Point::new(qx, qy);
            let mut fresh = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 7);
            fresh.run_to_completion();
            let mut reused = NnSearchTask::with_scratch(
                &ch,
                SearchMode::Point { q },
                AnnMode::Exact,
                7,
                &mut scratch,
            );
            reused.run_to_completion();
            assert_eq!(
                fresh.best().map(|(p, o, _)| (p, o)),
                reused.best().map(|(p, o, _)| (p, o))
            );
            assert_eq!(fresh.tuner().pages, reused.tuner().pages);
            assert_eq!(fresh.now(), reused.now());
            reused.recycle(&mut scratch);
        }
    }

    /// The search over the paper-literal oracle queue.
    type LinearNnSearchTask<'a> = BroadcastNnSearch<'a, LinearQueue>;

    /// One scheduled re-targeting: before step `at_step`, switch both
    /// tasks at their clock plus `delay` slots.
    #[derive(Debug, Clone, Copy)]
    struct Switch {
        at_step: usize,
        delay: u64,
        transitive: bool,
        a: Point,
        b: Point,
    }

    fn coords() -> impl Strategy<Value = (f64, f64)> {
        (0.0f64..1000.0, 0.0f64..1000.0)
    }

    /// Up to three switches of either kind. Half of the delays are zero
    /// (a switch at the task's own clock); the rest let parked entries
    /// arriving before the switch time expire.
    fn schedule() -> impl Strategy<Value = Vec<Switch>> {
        prop::collection::vec(
            (0usize..24, 0u64..128, 0u8..2, coords(), coords()).prop_map(
                |(at_step, delay, kind, (ax, ay), (bx, by))| Switch {
                    at_step,
                    delay: delay.saturating_sub(64),
                    transitive: kind == 1,
                    a: Point::new(ax, ay),
                    b: Point::new(bx, by),
                },
            ),
            0..4,
        )
    }

    proptest! {
        /// The arrival stack is unobservable at the task seam: a
        /// stack-backed and a `LinearQueue`-backed search, driven through
        /// the same steps and switches, agree on every observable the
        /// algorithms read, at every step. Point sets are random or tie-heavy
        /// lattices (queries snapped to lattice midpoints), over every ANN
        /// mode and both search modes.
        #[test]
        fn stack_and_linear_searches_step_in_lockstep(
            raw in prop::collection::vec(coords(), 1..300),
            lattice_side in prop::sample::select(vec![0usize, 0, 3, 6, 11, 17]),
            page in prop::sample::select(vec![64usize, 128]),
            (phase, start) in (0u64..5_000, 0u64..5_000),
            (transitive, (qx, qy), (rx, ry)) in (0u8..2, coords(), coords()),
            (ann_kind, factor, alpha) in (0u8..3, 0.0f64..2.0, 0.0f64..1.0),
            mut switches in schedule(),
        ) {
            // A lattice spaced 10 apart; query points snap to multiples
            // of 5 within its span, so equal bounds and arrivals abound.
            let lattice = lattice_side > 0;
            let pts: Vec<Point> = if lattice {
                (0..lattice_side * lattice_side)
                    .map(|i| {
                        Point::new((i % lattice_side) as f64 * 10.0, (i / lattice_side) as f64 * 10.0)
                    })
                    .collect()
            } else {
                raw.iter().map(|&(x, y)| Point::new(x, y)).collect()
            };
            let place = |p: Point| {
                if lattice {
                    let span = lattice_side as f64 * 10.0 / 1000.0;
                    Point::new((p.x * span / 5.0).round() * 5.0, (p.y * span / 5.0).round() * 5.0)
                } else {
                    p
                }
            };
            for switch in &mut switches {
                switch.a = place(switch.a);
                switch.b = place(switch.b);
            }
            switches.sort_by_key(|s| s.at_step);
            let params = BroadcastParams::new(page);
            let tree = RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap();
            let ch = Channel::new(Arc::new(tree), params, phase);
            let q = place(Point::new(qx, qy));
            let mode = if transitive == 1 {
                SearchMode::Transitive { p: q, r: place(Point::new(rx, ry)) }
            } else {
                SearchMode::Point { q }
            };
            let ann = match ann_kind {
                0 => AnnMode::Exact,
                1 => AnnMode::Dynamic { factor },
                _ => AnnMode::Fixed { alpha },
            };

            let mut stack = NnSearchTask::new(&ch, mode, ann, start);
            let mut linear = LinearNnSearchTask::new(&ch, mode, ann, start);
            let mut pending = switches.iter().peekable();
            let mut steps = 0usize;
            loop {
                while let Some(s) = pending.next_if(|s| s.at_step == steps) {
                    let at = stack.now() + s.delay;
                    if s.transitive {
                        stack.switch_to_transitive(s.a, s.b, at);
                        linear.switch_to_transitive(s.a, s.b, at);
                    } else {
                        stack.switch_query_point(s.a, at);
                        linear.switch_query_point(s.a, at);
                    }
                }
                prop_assert_eq!(stack.next_arrival(), linear.next_arrival(), "step {}", steps);
                prop_assert_eq!(stack.is_done(), linear.is_done(), "step {}", steps);
                let downloaded = stack.step();
                prop_assert_eq!(downloaded, linear.step(), "step {}", steps);
                prop_assert_eq!(stack.now(), linear.now(), "step {}", steps);
                prop_assert_eq!(stack.tuner(), linear.tuner(), "step {}", steps);
                prop_assert_eq!(stack.best(), linear.best(), "step {}", steps);
                prop_assert_eq!(stack.peak_memory(), linear.peak_memory(), "step {}", steps);
                if downloaded.is_none() {
                    break;
                }
                steps += 1;
            }
            prop_assert_eq!(stack.parked_len(), linear.parked_len());
        }
    }
}
