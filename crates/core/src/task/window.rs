//! The filter-phase window query: retrieve every object inside the search
//! range `circle(p, d)` from an on-air R-tree, in arrival order.
//!
//! Node ids are preorder ranks, and the index segment broadcasts the
//! nodes in that order, so node `id` is on air at `root arrival + id`
//! within the segment that carries the root. A window query starts at the
//! root and only descends, so it finishes within that one segment, and
//! its arrival order is preorder: a depth-first walk with a stack, each
//! node's children pushed in reverse, downloads the nodes in exactly
//! that order.

use tnn_broadcast::{ChannelView, Tuner};
use tnn_geom::{Circle, Point};
use tnn_rtree::{NodeId, ObjectId};

/// Reusable buffers for one [`WindowQueryTask`]: thread one through
/// repeated queries (e.g. a batch) to avoid re-allocating the stack and
/// the hit list per query.
#[derive(Debug, Default)]
pub struct WindowScratch {
    stack: Vec<u32>,
    hits: Vec<(Point, ObjectId)>,
}

/// A broadcast range (window) query over a circular search range.
///
/// Children whose MBR misses the circle are skipped at their parent —
/// range predicates are static, so there is nothing to gain from delayed
/// pruning here.
#[derive(Debug)]
pub struct WindowQueryTask<'a> {
    channel: ChannelView<'a>,
    range: Circle,
    /// When the root is on air; node `id` follows `id` slots later.
    root_arrival: u64,
    /// Ids of the queued nodes (their MBRs already intersect the range),
    /// the next one to download on top.
    stack: Vec<u32>,
    hits: Vec<(Point, ObjectId)>,
    tuner: Tuner,
    now: u64,
}

impl<'a> WindowQueryTask<'a> {
    /// Starts a window query on `channel` at global time `start`.
    /// Accepts a plain `&Channel` or a [`ChannelView`] carrying a
    /// per-query phase override.
    pub fn new(channel: impl Into<ChannelView<'a>>, range: Circle, start: u64) -> Self {
        Self::with_scratch(channel, range, start, &mut WindowScratch::default())
    }

    /// Like [`WindowQueryTask::new`], but takes the stack and hit buffers
    /// from `scratch` (pass the task back via
    /// [`WindowQueryTask::recycle`] when done to reuse the capacity).
    pub fn with_scratch(
        channel: impl Into<ChannelView<'a>>,
        range: Circle,
        start: u64,
        scratch: &mut WindowScratch,
    ) -> Self {
        let channel = channel.into();
        let mut stack = std::mem::take(&mut scratch.stack);
        let mut hits = std::mem::take(&mut scratch.hits);
        stack.clear();
        hits.clear();
        let root_arrival = channel.next_root_arrival(start);
        // The root is only worth downloading if the range touches the
        // dataset at all.
        if range.intersects_rect(&channel.tree().bounding_rect()) {
            stack.push(NodeId::ROOT.0);
        }
        WindowQueryTask {
            channel,
            range,
            root_arrival,
            stack,
            hits,
            tuner: Tuner::new(),
            now: start,
        }
    }

    /// Returns the task's buffers to `scratch` for reuse by a later
    /// query.
    pub fn recycle(self, scratch: &mut WindowScratch) {
        scratch.stack = self.stack;
        scratch.hits = self.hits;
        scratch.stack.clear();
        scratch.hits.clear();
    }

    /// `true` when traversal has finished.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.stack.is_empty()
    }

    /// Arrival of the next node to download.
    pub fn next_arrival(&self) -> Option<u64> {
        self.stack
            .last()
            .map(|&id| self.root_arrival + u64::from(id))
    }

    /// Objects found inside the range so far.
    pub fn hits(&self) -> &[(Point, ObjectId)] {
        &self.hits
    }

    /// Consumes the task, returning the collected hits.
    pub fn into_hits(self) -> Vec<(Point, ObjectId)> {
        self.hits
    }

    /// Page accounting.
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    /// Task-local clock (finish time once done).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Downloads and processes the next candidate node.
    pub fn step(&mut self) -> Option<u64> {
        let node_id = NodeId(self.stack.pop()?);
        let arrival = self.root_arrival + u64::from(node_id.0);
        debug_assert_eq!(arrival, self.channel.next_node_arrival(node_id, self.now));
        self.now = arrival + 1;
        self.tuner.download(arrival);

        let node = self.channel.node(node_id);
        if let Some(children) = node.children() {
            for c in children.iter().rev() {
                if self.range.intersects_rect(&c.mbr) {
                    self.stack.push(c.child.0);
                }
            }
        } else if let Some(points) = node.points() {
            for e in points {
                if self.range.contains(e.point) {
                    self.hits.push((e.point, e.object));
                }
            }
        }
        Some(arrival)
    }

    /// Runs to completion; returns the finish time.
    pub fn run_to_completion(&mut self) -> u64 {
        while self.step().is_some() {}
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            .map(|i| Point::new((i % 20) as f64 * 10.0, (i / 20) as f64 * 10.0))
            .collect()
    }

    #[test]
    fn window_query_matches_direct_filter() {
        let pts = grid(400);
        let ch = channel(&pts, 13);
        let range = Circle::new(Point::new(95.0, 95.0), 42.0);
        let mut task = WindowQueryTask::new(&ch, range, 7);
        task.run_to_completion();
        let expect: usize = pts.iter().filter(|p| range.contains(**p)).count();
        assert_eq!(task.hits().len(), expect);
        assert!(task.hits().iter().all(|&(p, _)| range.contains(p)));
    }

    #[test]
    fn empty_range_downloads_nothing() {
        let pts = grid(100);
        let ch = channel(&pts, 0);
        let range = Circle::new(Point::new(-5000.0, -5000.0), 10.0);
        let mut task = WindowQueryTask::new(&ch, range, 0);
        task.run_to_completion();
        assert_eq!(task.hits().len(), 0);
        // The root MBR check avoids even the root download.
        assert_eq!(task.tuner().pages, 0);
        assert_eq!(task.now(), 0);
    }

    #[test]
    fn window_completes_within_one_segment() {
        let pts = grid(400);
        let ch = channel(&pts, 5);
        let range = Circle::new(Point::new(50.0, 50.0), 60.0);
        let start = 999;
        let mut task = WindowQueryTask::new(&ch, range, start);
        let finish = task.run_to_completion();
        let root = ch.view().next_root_arrival(start);
        assert!(finish <= root + ch.layout().index_len() + 1);
    }

    #[test]
    fn zero_radius_range_finds_exact_point() {
        let pts = grid(100);
        let ch = channel(&pts, 0);
        let range = Circle::new(Point::new(30.0, 20.0), 0.0);
        let mut task = WindowQueryTask::new(&ch, range, 0);
        task.run_to_completion();
        assert_eq!(task.hits().len(), 1);
        assert_eq!(task.hits()[0].0, Point::new(30.0, 20.0));
    }

    #[test]
    fn into_hits_returns_collected() {
        let pts = grid(50);
        let ch = channel(&pts, 0);
        let range = Circle::new(Point::new(0.0, 0.0), 25.0);
        let mut task = WindowQueryTask::new(&ch, range, 0);
        task.run_to_completion();
        let n = task.hits().len();
        assert_eq!(task.into_hits().len(), n);
    }
}
