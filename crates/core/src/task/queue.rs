//! The candidate queue of the broadcast NN search task.
//!
//! The search processes candidates strictly in arrival order and parks —
//! never drops — entries condemned by the current bound (delayed pruning,
//! §4.2.4). [`ArrivalStack`] realizes that discipline: a `Vec` kept
//! sorted by descending `(arrival, node id)`, the next entry on top, with
//! **lazy** pruning: only the top entry is tested against the bound. This
//! is sound because between re-targeting switches the bound only
//! tightens, so an entry condemnable now is still condemnable when it
//! surfaces on top; [`CandidateQueue::realize`] forces all deferred
//! decisions right before a switch, where the bound changes
//! non-monotonically.
//!
//! The index is broadcast in preorder, so within a search every queued
//! node arrives at `root arrival + node id`, and a popped node's children
//! arrive after it but before every other node still held (their
//! subtrees are disjoint from its own). A child's push therefore passes
//! only its earlier siblings (a switch's revivals may go deeper), and
//! [`CandidateQueue::pop`] and [`CandidateQueue::last`] are O(1).
//!
//! [`CandidateQueue`] is the seam the stack is checked at, and only the
//! search task is generic over it. Test builds add `LinearQueue`, the
//! paper-literal oracle: a flat `Vec` with O(n) scans per operation and
//! **eager** pruning after every bound update. Two properties hold the
//! stack to it: the one below drives both queues through random
//! operation sequences, and the one in `crate::task::nn` steps a search
//! over each in lockstep, comparing every observable the algorithms
//! read. Node ids break (arrival, node) ordering ties deterministically,
//! although arrivals of distinct nodes on one channel are in fact always
//! distinct (one page per slot).

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
/// next in arrival order ([`ArrivalStack`] does), relying on the caller's
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

    /// The next downloadable candidate (minimal `(arrival, node id)`).
    /// Callers must have settled the queue (via
    /// [`CandidateQueue::settle`]) since the last bound change for it to
    /// be guaranteed viable.
    fn last(&self) -> Option<&QueueEntry>;

    /// Removes and returns the next downloadable candidate, the one
    /// [`CandidateQueue::last`] shows.
    fn pop(&mut self) -> Option<QueueEntry>;

    /// Number of entries currently held (including, for lazy backends,
    /// entries whose pruning decision is still deferred).
    fn len(&self) -> usize;

    /// `true` when no candidates remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies the pruning predicate after a bound update, moving
    /// condemned entries into `parked`. Lazy backends need only guarantee
    /// that the *next* entry (the one [`CandidateQueue::pop`] would
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

/// The production candidate queue: a `Vec` sorted by descending
/// `(arrival, node id)`, the next entry on top, with lazily settled
/// pruning (see module docs).
#[derive(Debug, Default)]
pub struct ArrivalStack {
    entries: Vec<QueueEntry>,
}

impl CandidateQueue for ArrivalStack {
    /// Inserts below every entry that arrives earlier, scanning from the
    /// top: in a preorder search that passes at most `fanout − 1` of
    /// them (the pushed node's earlier siblings).
    #[inline]
    fn push(&mut self, e: QueueEntry) {
        let key = e.key();
        let at = self
            .entries
            .iter()
            .rposition(|held| held.key() > key)
            .map_or(0, |i| i + 1);
        self.entries.insert(at, e);
        debug_assert!(self.entries.is_sorted_by(|a, b| a.key() >= b.key()));
    }

    /// Parks a condemned entry instead of queueing it, which keeps the
    /// stack to near-viable entries.
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
    fn last(&self) -> Option<&QueueEntry> {
        self.entries.last()
    }

    #[inline]
    fn pop(&mut self) -> Option<QueueEntry> {
        self.entries.pop()
    }

    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn settle(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    ) {
        while let Some(&top) = self.entries.last() {
            if !condemn(&top) {
                break;
            }
            self.entries.pop();
            parked.push(top);
        }
    }

    /// Filters the stack in place: the survivors keep their order, and
    /// the buffer its capacity.
    fn realize(
        &mut self,
        condemn: &mut dyn FnMut(&QueueEntry) -> bool,
        parked: &mut Vec<QueueEntry>,
    ) {
        self.entries.retain(|e| {
            let condemned = condemn(e);
            if condemned {
                parked.push(*e);
            }
            !condemned
        });
    }

    fn for_each(&self, f: &mut dyn FnMut(&QueueEntry)) {
        self.entries.iter().for_each(f);
    }

    fn clear(&mut self) {
        self.entries.clear();
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

    fn last(&self) -> Option<&QueueEntry> {
        self.entries.iter().min_by_key(|e| e.key())
    }

    fn pop(&mut self) -> Option<QueueEntry> {
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
        while let Some(e) = q.pop() {
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
            let mut stack = ArrivalStack::default();
            let mut linear = LinearQueue::default();
            for &(a, n) in &seq {
                stack.push(entry(a, n));
                linear.push(entry(a, n));
            }
            let mut expect = seq.clone();
            expect.sort_unstable();
            assert_eq!(drain_order(stack), expect);
            assert_eq!(drain_order(linear), expect);
        }
    }

    #[test]
    fn stack_last_matches_pop() {
        let mut q = ArrivalStack::default();
        for (a, n) in [(8, 0), (2, 5), (4, 1)] {
            q.push(entry(a, n));
        }
        while let Some(&next) = q.last() {
            assert_eq!(q.pop(), Some(next));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn settle_parks_lazily_vs_eagerly() {
        // Condemn arrivals >= 10. The top entry (arrival 1) is viable, so
        // the lazy backend parks nothing even though a condemned entry is
        // buried; the eager backend parks it immediately. `realize` brings
        // both to the same state.
        let mut stack = ArrivalStack::default();
        let mut linear = LinearQueue::default();
        for (a, n) in [(1, 0), (15, 1), (3, 2)] {
            stack.push(entry(a, n));
            linear.push(entry(a, n));
        }
        let mut condemn = |e: &QueueEntry| e.arrival >= 10;
        let (mut sp, mut lp) = (Vec::new(), Vec::new());
        stack.settle(&mut condemn, &mut sp);
        linear.settle(&mut condemn, &mut lp);
        assert!(sp.is_empty());
        assert_eq!(lp.len(), 1);
        stack.realize(&mut condemn, &mut sp);
        assert_eq!(sp.len(), 1);
        assert_eq!(stack.len(), linear.len());
    }

    #[test]
    fn realize_keeps_the_survivors_in_place() {
        // Realizing filters the stack's buffer without reordering it: the
        // survivors keep their order, the buffer keeps its capacity, and
        // the condemned entries are parked in stack order.
        let mut stack = ArrivalStack::default();
        for (a, n) in [(9, 0), (4, 1), (12, 2), (1, 3), (7, 4), (3, 5), (10, 6)] {
            stack.push(entry(a, n));
        }
        let condemned = |e: &QueueEntry| e.node.0.is_multiple_of(3);
        let mut before = Vec::new();
        stack.for_each(&mut |e| before.push(*e));
        let capacity = stack.entries.capacity();
        let mut parked = Vec::new();
        stack.realize(&mut |e| condemned(e), &mut parked);
        let mut after = Vec::new();
        stack.for_each(&mut |e| after.push(*e));
        let (doomed, survivors): (Vec<QueueEntry>, Vec<QueueEntry>) =
            before.into_iter().partition(condemned);
        assert_eq!(after, survivors);
        assert_eq!(parked, doomed);
        assert_eq!(stack.entries.capacity(), capacity);
    }

    #[test]
    fn settle_drains_condemned_front() {
        let mut stack = ArrivalStack::default();
        for (a, n) in [(1, 0), (2, 1), (30, 2)] {
            stack.push(entry(a, n));
        }
        let mut parked = Vec::new();
        stack.settle(&mut |e| e.arrival < 10, &mut parked);
        assert_eq!(parked.len(), 2);
        assert_eq!(stack.last().map(|e| e.arrival), Some(30));
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut stack = ArrivalStack::default();
        stack.push(entry(1, 1));
        stack.clear();
        assert!(stack.is_empty());
        assert_eq!(stack.last(), None);
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
        /// The lazy stack and the eager linear scan hold the same queue at
        /// every observable point. Entries score in `[0, 100)` (carried
        /// as their MBR's `min.x`) and are condemned above the bound,
        /// which only tightens between `realize` calls, as in a search
        /// between switches. Every popped entry and every post-settle
        /// `last` entry agree, and so do `len`, the held entries and
        /// the parked multiset after each `realize`.
        #[test]
        fn stack_and_linear_queues_agree_under_a_tightening_bound(
            ops in prop::collection::vec(op(), 1..60),
        ) {
            let mut stack = ArrivalStack::default();
            let mut linear = LinearQueue::default();
            let (mut stack_parked, mut linear_parked) = (Vec::new(), Vec::new());
            let mut bound = 100.0;
            let mut next_node = 0u32;
            for op in ops {
                let mut condemn = |e: &QueueEntry| e.mbr.min.x > bound;
                match op {
                    Op::Push(fresh) => {
                        for (arrival, score) in fresh {
                            let e = scored(arrival, next_node, score);
                            next_node += 1;
                            stack.push(e);
                            linear.push(e);
                        }
                    }
                    Op::PushOrPark(fresh) => {
                        for (arrival, score) in fresh {
                            let e = scored(arrival, next_node, score);
                            next_node += 1;
                            stack.push_or_park(e, condemn, &mut stack_parked);
                            linear.push_or_park(e, condemn, &mut linear_parked);
                        }
                    }
                    Op::Pop => prop_assert_eq!(stack.pop(), linear.pop()),
                    Op::Tighten(factor) => bound *= factor,
                    Op::Realize { at, bound: next } => {
                        stack.realize(&mut condemn, &mut stack_parked);
                        linear.realize(&mut condemn, &mut linear_parked);
                        prop_assert_eq!(stack.len(), linear.len());
                        prop_assert_eq!(held(&stack), held(&linear));
                        let parked = sorted(std::mem::take(&mut stack_parked));
                        prop_assert_eq!(&parked, &sorted(std::mem::take(&mut linear_parked)));
                        for e in parked.into_iter().filter(|e| e.arrival >= at) {
                            stack.push(e);
                            linear.push(e);
                        }
                        bound = next;
                    }
                }
                let mut condemn = |e: &QueueEntry| e.mbr.min.x > bound;
                stack.settle(&mut condemn, &mut stack_parked);
                linear.settle(&mut condemn, &mut linear_parked);
                prop_assert_eq!(stack.last(), linear.last());
                prop_assert_eq!(stack.is_empty(), linear.is_empty());
            }
        }
    }
}
