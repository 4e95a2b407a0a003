//! The candidate queue of the broadcast NN search task.
//!
//! The search processes candidates strictly in arrival order and parks —
//! never drops — entries condemned by the current bound (delayed pruning,
//! §4.2.4). [`ArrivalHeap`] realizes that discipline: a binary min-heap
//! keyed `(arrival, node id)` giving O(1) [`CandidateQueue::next_arrival`]
//! peeks and O(log n) pops, with **lazy** pruning: only the heap front is
//! tested against the bound. This is sound because between re-targeting
//! switches the bound only tightens, so an entry condemnable now is still
//! condemnable when it surfaces at the front; [`CandidateQueue::realize`]
//! forces all deferred decisions right before a switch, where the bound
//! changes non-monotonically.
//!
//! [`CandidateQueue`] is the seam the heap is checked at, and only the
//! search task is generic over it. Test builds add `LinearQueue`, the
//! paper-literal oracle: a flat `Vec` with O(n) scans per operation and
//! **eager** pruning after every bound update. Two properties hold the
//! heap to it: the one below drives both queues through random
//! operation sequences, and the one in `crate::task::nn` steps a search
//! over each in lockstep, comparing every observable the algorithms
//! read. Node ids break (arrival, node) ordering ties deterministically,
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
    /// Queues a candidate.
    fn push(&mut self, e: QueueEntry);

    /// Queues a candidate, or parks it at once when `condemn` rejects
    /// it. The caller's bound is final until the next
    /// [`CandidateQueue::settle`], so parking now is observationally
    /// identical to parking at that settle; a backend may do either.
    fn push_or_park(
        &mut self,
        e: QueueEntry,
        condemn: impl FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    );

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
    #[inline]
    fn push(&mut self, e: QueueEntry) {
        self.heap.push(HeapSlot(e));
    }

    /// Parks a condemned entry instead of queueing it, which keeps the
    /// heap to near-viable entries.
    #[inline]
    fn push_or_park(
        &mut self,
        e: QueueEntry,
        mut condemn: impl FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    ) {
        if condemn(&e) {
            parked.push(e);
        } else {
            self.push(e);
        }
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
        // Rare (at most once per query, on a Hybrid switch): split the
        // heap's own buffer in place, keeping the survivors in order, and
        // re-heapify them in O(n) — no allocation, and the recycled
        // capacity stays with the heap.
        let mut slots = std::mem::take(&mut self.heap).into_vec();
        slots.retain(|slot| {
            let condemned = condemn(&slot.0);
            if condemned {
                parked.push(slot.0);
            }
            !condemned
        });
        self.heap = BinaryHeap::from(slots);
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

/// The paper-literal oracle queue: flat `Vec`, O(n) scans, eager
/// pruning — the pre-optimization behaviour, kept for the lockstep
/// properties only.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct LinearQueue {
    entries: Vec<QueueEntry>,
}

#[cfg(test)]
impl CandidateQueue for LinearQueue {
    fn push(&mut self, e: QueueEntry) {
        self.entries.push(e);
    }

    /// Always queues: the eager settle that follows decides every entry.
    fn push_or_park(
        &mut self,
        e: QueueEntry,
        _condemn: impl FnMut(&QueueEntry) -> bool,
        _parked: &mut Vec<QueueEntry>,
    ) {
        self.push(e);
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
    use proptest::prelude::*;
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
    fn realize_keeps_the_survivors_in_place() {
        // Realizing filters the heap's buffer without reordering it and
        // heapifies the survivors in that order: the heap a filtered copy
        // would build, slot for slot, kept in the same buffer.
        let mut heap = ArrivalHeap::default();
        for (a, n) in [(9, 0), (4, 1), (12, 2), (1, 3), (7, 4), (3, 5), (10, 6)] {
            heap.push(entry(a, n));
        }
        let condemned = |e: &QueueEntry| e.node.0.is_multiple_of(3);
        let mut before = Vec::new();
        heap.for_each(&mut |e| before.push(*e));
        let survivors: Vec<HeapSlot> = before
            .iter()
            .filter(|e| !condemned(e))
            .map(|&e| HeapSlot(e))
            .collect();
        let mut expect = Vec::new();
        BinaryHeap::from(survivors)
            .iter()
            .for_each(|s| expect.push(s.0));
        let capacity = heap.heap.capacity();
        let mut parked = Vec::new();
        heap.realize(&mut |e| condemned(e), &mut parked);
        let mut after = Vec::new();
        heap.for_each(&mut |e| after.push(*e));
        assert_eq!(after, expect);
        assert_eq!(heap.heap.capacity(), capacity);
        let in_order: Vec<QueueEntry> = before.into_iter().filter(condemned).collect();
        assert_eq!(parked, in_order);
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

    /// One operation of the queue-level lockstep property.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push fresh `(arrival, score)` entries, then settle.
        Push(Vec<(u64, f64)>),
        /// Offer fresh entries through `push_or_park` under the current
        /// bound, as a search step offers a node's children, then settle.
        PushOrPark(Vec<(u64, f64)>),
        /// Multiply the bound by a factor in `[0.5, 1)`, then settle.
        Tighten(f64),
        /// Pop the front, then settle.
        Pop,
        /// Realize every deferred decision, then start a new epoch as a
        /// switch does: revive the parked entries arriving at or after
        /// `at`, drop the rest, move the bound anywhere, settle.
        Realize { at: u64, bound: f64 },
    }

    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..10,
            prop::collection::vec((0u64..40, 0.0f64..100.0), 1..6),
            0.5f64..1.0,
            (0u64..40, 0.0f64..120.0),
        )
            .prop_map(|(kind, fresh, factor, (at, bound))| match kind {
                0 | 1 => Op::Push(fresh),
                2..=4 => Op::PushOrPark(fresh),
                5 | 6 => Op::Pop,
                7 | 8 => Op::Tighten(factor),
                _ => Op::Realize { at, bound },
            })
    }

    /// An entry scoring `score`, carried as its MBR's `min.x`.
    fn scored(arrival: u64, node: u32, score: f64) -> QueueEntry {
        QueueEntry {
            arrival,
            node: NodeId(node),
            mbr: Rect::new(Point::new(score, 0.0), Point::new(score + 1.0, 1.0)),
        }
    }

    fn sorted(mut entries: Vec<QueueEntry>) -> Vec<QueueEntry> {
        entries.sort_unstable_by_key(QueueEntry::key);
        entries
    }

    fn held<Q: CandidateQueue>(q: &Q) -> Vec<QueueEntry> {
        let mut entries = Vec::new();
        q.for_each(&mut |e| entries.push(*e));
        sorted(entries)
    }

    proptest! {
        /// The lazy heap and the eager linear scan hold the same queue at
        /// every observable point. Entries score in `[0, 100)` (carried
        /// as their MBR's `min.x`) and are condemned above the bound,
        /// which only tightens between `realize` calls, as in a search
        /// between switches. Every popped entry and every post-settle
        /// `next_arrival` agree, and so do `len`, the held entries and
        /// the parked multiset after each `realize`.
        #[test]
        fn heap_and_linear_queues_agree_under_a_tightening_bound(
            ops in prop::collection::vec(op(), 1..60),
        ) {
            let mut heap = ArrivalHeap::default();
            let mut linear = LinearQueue::default();
            let (mut heap_parked, mut linear_parked) = (Vec::new(), Vec::new());
            let mut bound = 100.0;
            let mut next_node = 0u32;
            for op in ops {
                let mut condemn = |e: &QueueEntry| e.mbr.min.x > bound;
                match op {
                    Op::Push(fresh) => {
                        for (arrival, score) in fresh {
                            let e = scored(arrival, next_node, score);
                            next_node += 1;
                            heap.push(e);
                            linear.push(e);
                        }
                    }
                    Op::PushOrPark(fresh) => {
                        for (arrival, score) in fresh {
                            let e = scored(arrival, next_node, score);
                            next_node += 1;
                            heap.push_or_park(e, condemn, &mut heap_parked);
                            linear.push_or_park(e, condemn, &mut linear_parked);
                        }
                    }
                    Op::Pop => prop_assert_eq!(heap.pop_next(), linear.pop_next()),
                    Op::Tighten(factor) => bound *= factor,
                    Op::Realize { at, bound: next } => {
                        heap.realize(&mut condemn, &mut heap_parked);
                        linear.realize(&mut condemn, &mut linear_parked);
                        prop_assert_eq!(heap.len(), linear.len());
                        prop_assert_eq!(held(&heap), held(&linear));
                        let parked = sorted(std::mem::take(&mut heap_parked));
                        prop_assert_eq!(&parked, &sorted(std::mem::take(&mut linear_parked)));
                        for e in parked.into_iter().filter(|e| e.arrival >= at) {
                            heap.push(e);
                            linear.push(e);
                        }
                        bound = next;
                    }
                }
                let mut condemn = |e: &QueueEntry| e.mbr.min.x > bound;
                heap.settle(&mut condemn, &mut heap_parked);
                linear.settle(&mut condemn, &mut linear_parked);
                prop_assert_eq!(heap.next_arrival(), linear.next_arrival());
                prop_assert_eq!(heap.is_empty(), linear.is_empty());
            }
        }
    }
}
