//! Candidate-queue backends for the broadcast NN search task.
//!
//! The search processes candidates strictly in arrival order and parks —
//! never drops — entries condemned by the current bound (delayed pruning,
//! §4.2.4). Two interchangeable backends realize that discipline:
//!
//! * [`ArrivalHeap`] — the production backend: a binary min-heap keyed
//!   `(arrival, node id)` giving O(1) [`CandidateQueue::next_arrival`]
//!   peeks and O(log n) pops, with **lazy** pruning: only the heap front
//!   is tested against the bound. This is sound because between
//!   re-targeting switches the bound only tightens, so an entry
//!   condemnable now is still condemnable when it surfaces at the front;
//!   [`CandidateQueue::realize`] forces all deferred decisions right
//!   before a switch, where the bound changes non-monotonically.
//! * `LinearQueue` — the paper-literal reference: a flat `Vec` with
//!   O(n) scans per operation and **eager** pruning after every bound
//!   update, exactly the pre-optimization behaviour. Compiled only for
//!   tests and the `linear-reference` feature.
//!
//! Both backends must produce byte-identical search traces; the property
//! tests in `crate::task::nn` assert this across all four algorithms.
//! Node ids break (arrival, node) ordering ties deterministically,
//! although arrivals of distinct nodes on one channel are in fact always
//! distinct (one page per slot).

use std::collections::BinaryHeap;
use tnn_geom::Rect;
use tnn_rtree::NodeId;

/// One queued candidate node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueEntry {
    /// Next broadcast slot carrying this node.
    pub arrival: u64,
    /// The node's id in the on-air R-tree.
    pub node: NodeId,
    /// The node's MBR (from its parent entry).
    pub mbr: Rect,
}

impl QueueEntry {
    #[inline]
    fn key(&self) -> (u64, u32) {
        (self.arrival, self.node.0)
    }
}

/// Storage discipline for the candidate queue of a broadcast NN search.
///
/// Implementations may defer pruning decisions for entries that are not
/// next in arrival order ([`ArrivalHeap`] does), relying on the caller's
/// guarantee that the condemnation predicate only grows between
/// [`CandidateQueue::realize`] calls.
///
/// `Send` is part of the contract so that scratch buffers (and the
/// engines pooling them) can cross worker threads.
pub trait CandidateQueue: Default + std::fmt::Debug + Send {
    /// `true` when the search should evaluate the pruning predicate at
    /// push time and divert condemned children straight to the parked
    /// list (the bound is already final when a step pushes its children,
    /// so this is observationally identical to parking them at the next
    /// settle). Keeps the heap populated with near-viable entries only;
    /// the linear reference leaves it `false` to reproduce the
    /// pre-optimization cost model (full rescans) faithfully.
    const PREFILTERS_PUSHES: bool;

    /// `true` for the pre-optimization reference backend: harnesses that
    /// A/B the hot path use this to reproduce the original cost model
    /// faithfully (e.g. fresh buffer allocations per query instead of
    /// scratch reuse). Never affects results, only costs.
    const IS_REFERENCE: bool;

    /// Queues a candidate.
    fn push(&mut self, e: QueueEntry);

    /// Arrival slot of the next downloadable candidate. Callers must have
    /// settled the queue (via [`CandidateQueue::settle`]) since the last
    /// bound change for the front to be guaranteed viable.
    fn next_arrival(&self) -> Option<u64>;

    /// Removes and returns the next downloadable candidate (minimal
    /// `(arrival, node id)`).
    fn pop_next(&mut self) -> Option<QueueEntry>;

    /// Number of entries currently held (including, for lazy backends,
    /// entries whose pruning decision is still deferred).
    fn len(&self) -> usize;

    /// `true` when no candidates remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies the pruning predicate after a bound update, moving
    /// condemned entries into `parked`. Lazy backends need only guarantee
    /// that the *front* entry (the one [`CandidateQueue::pop_next`] would
    /// return) is not condemned.
    fn settle(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    );

    /// Forces every deferred pruning decision, moving all condemned
    /// entries into `parked`. Required before the condemnation predicate
    /// changes non-monotonically (a re-targeting switch).
    fn realize(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    );

    /// Visits every held entry in unspecified order (bound seeding after
    /// a switch).
    fn for_each(&self, f: &mut dyn FnMut(&QueueEntry));

    /// Removes all entries, keeping allocated capacity (scratch reuse).
    fn clear(&mut self);
}

/// Min-heap slot: reversed `(arrival, node id)` order so that
/// `BinaryHeap`'s max-top yields the earliest arrival.
#[derive(Debug, Clone, Copy)]
struct HeapSlot(QueueEntry);

impl PartialEq for HeapSlot {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl Eq for HeapSlot {}

impl PartialOrd for HeapSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

/// The production candidate queue: binary min-heap over
/// `(arrival, node id)` with lazily settled pruning (see module docs).
#[derive(Debug, Default)]
pub struct ArrivalHeap {
    heap: BinaryHeap<HeapSlot>,
}

impl CandidateQueue for ArrivalHeap {
    const PREFILTERS_PUSHES: bool = true;
    const IS_REFERENCE: bool = false;

    #[inline]
    fn push(&mut self, e: QueueEntry) {
        self.heap.push(HeapSlot(e));
    }

    #[inline]
    fn next_arrival(&self) -> Option<u64> {
        self.heap.peek().map(|s| s.0.arrival)
    }

    #[inline]
    fn pop_next(&mut self) -> Option<QueueEntry> {
        self.heap.pop().map(|s| s.0)
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn settle(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    ) {
        while let Some(front) = self.heap.peek() {
            if !condemn(&front.0) {
                break;
            }
            parked.push(self.heap.pop().expect("peeked entry exists").0);
        }
    }

    fn realize(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    ) {
        // Rare (at most once per query, on a Hybrid switch): drain, split,
        // re-heapify survivors in O(n).
        let slots = std::mem::take(&mut self.heap).into_vec();
        let mut keep = Vec::with_capacity(slots.len());
        for slot in slots {
            if condemn(&slot.0) {
                parked.push(slot.0);
            } else {
                keep.push(slot);
            }
        }
        self.heap = BinaryHeap::from(keep);
    }

    fn for_each(&self, f: &mut dyn FnMut(&QueueEntry)) {
        for slot in self.heap.iter() {
            f(&slot.0);
        }
    }

    fn clear(&mut self) {
        self.heap.clear();
    }
}

/// The paper-literal reference queue: flat `Vec`, O(n) scans, eager
/// pruning — the exact pre-optimization behaviour, kept so the
/// equivalence gates and property tests can compare against it.
#[cfg(any(test, feature = "linear-reference"))]
#[derive(Debug, Default)]
pub struct LinearQueue {
    entries: Vec<QueueEntry>,
}

#[cfg(any(test, feature = "linear-reference"))]
impl CandidateQueue for LinearQueue {
    const PREFILTERS_PUSHES: bool = false;
    const IS_REFERENCE: bool = true;

    fn push(&mut self, e: QueueEntry) {
        self.entries.push(e);
    }

    fn next_arrival(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.arrival).min()
    }

    fn pop_next(&mut self) -> Option<QueueEntry> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.key())
            .map(|(i, _)| i)?;
        Some(self.entries.swap_remove(idx))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn settle(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    ) {
        // Eager: decide every entry right away (the pre-optimization
        // `purge()` rescan).
        parked.extend(self.entries.extract_if(.., |e| condemn(e)));
    }

    fn realize(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    ) {
        self.settle(condemn, parked);
    }

    fn for_each(&self, f: &mut dyn FnMut(&QueueEntry)) {
        for e in &self.entries {
            f(e);
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn_geom::Point;

    fn entry(arrival: u64, node: u32) -> QueueEntry {
        QueueEntry {
            arrival,
            node: NodeId(node),
            mbr: Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
        }
    }

    fn drain_order<Q: CandidateQueue>(mut q: Q) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_next() {
            out.push((e.arrival, e.node.0));
        }
        out
    }

    #[test]
    fn both_backends_pop_in_arrival_then_node_order() {
        for seq in [
            vec![(5, 1), (3, 2), (9, 0), (3, 1), (7, 7)],
            vec![(1, 1)],
            vec![(2, 3), (2, 1), (2, 2)],
        ] {
            let mut heap = ArrivalHeap::default();
            let mut linear = LinearQueue::default();
            for &(a, n) in &seq {
                heap.push(entry(a, n));
                linear.push(entry(a, n));
            }
            let mut expect = seq.clone();
            expect.sort_unstable();
            assert_eq!(drain_order(heap), expect);
            assert_eq!(drain_order(linear), expect);
        }
    }

    #[test]
    fn heap_peek_matches_pop() {
        let mut q = ArrivalHeap::default();
        for (a, n) in [(8, 0), (2, 5), (4, 1)] {
            q.push(entry(a, n));
        }
        while let Some(a) = q.next_arrival() {
            assert_eq!(q.pop_next().unwrap().arrival, a);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn settle_parks_lazily_vs_eagerly() {
        // Condemn arrivals >= 10. The heap front (arrival 1) is viable, so
        // the lazy backend parks nothing even though a condemned entry is
        // buried; the eager backend parks it immediately. `realize` brings
        // both to the same state.
        let mut heap = ArrivalHeap::default();
        let mut linear = LinearQueue::default();
        for (a, n) in [(1, 0), (15, 1), (3, 2)] {
            heap.push(entry(a, n));
            linear.push(entry(a, n));
        }
        let mut condemn = |e: &QueueEntry| e.arrival >= 10;
        let (mut hp, mut lp) = (Vec::new(), Vec::new());
        heap.settle(&mut condemn, &mut hp);
        linear.settle(&mut condemn, &mut lp);
        assert!(hp.is_empty());
        assert_eq!(lp.len(), 1);
        heap.realize(&mut condemn, &mut hp);
        assert_eq!(hp.len(), 1);
        assert_eq!(heap.len(), linear.len());
    }

    #[test]
    fn settle_drains_condemned_front() {
        let mut heap = ArrivalHeap::default();
        for (a, n) in [(1, 0), (2, 1), (30, 2)] {
            heap.push(entry(a, n));
        }
        let mut parked = Vec::new();
        heap.settle(&mut |e| e.arrival < 10, &mut parked);
        assert_eq!(parked.len(), 2);
        assert_eq!(heap.next_arrival(), Some(30));
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut heap = ArrivalHeap::default();
        heap.push(entry(1, 1));
        heap.clear();
        assert!(heap.is_empty());
        assert_eq!(heap.next_arrival(), None);
    }
}
