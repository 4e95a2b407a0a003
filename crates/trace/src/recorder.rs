//! The slow-query flight recorder: a bounded, lock-striped retention
//! buffer for [`QueryTrace`]s.
//!
//! Retention policy (per [`RecorderConfig`]): every recorded trace
//! competes for one of the `slowest` seats (ranked by
//! [`QueryTrace::total`]); flagged traces ([`QueryTrace::flagged`]:
//! errored or retried) are *additionally* kept in a `flagged` ring that
//! evicts oldest-first. Both pools are
//! bounded, so the recorder's footprint is fixed no matter how many
//! queries flow through. Recording locks only the stripe selected by
//! `seq % stripes`, and the serving integration records *after* ticket
//! resolution with no other lock held, so the recorder sits at the very
//! bottom of the lock hierarchy (`LockRank::TraceRecorder`).

use crate::lock::{LockRank, OrderedMutex};
use crate::{QueryTrace, RecorderConfig};
use std::collections::VecDeque;

/// One stripe's retention state.
#[derive(Debug, Default)]
struct StripeState {
    /// Current slowest-seat holders, unsorted (linear min scan — the
    /// per-stripe seat count is small).
    slowest: Vec<QueryTrace>,
    /// Flagged (errored or retried) ring, oldest first.
    flagged: VecDeque<QueryTrace>,
    /// Every record() that hit this stripe, retained or not.
    recorded: u64,
}

/// A bounded, lock-striped flight recorder retaining the N slowest and
/// all (up to a ring bound) errored or retried query traces.
#[derive(Debug)]
pub struct FlightRecorder {
    stripes: Vec<OrderedMutex<StripeState>>,
    slowest_per_stripe: usize,
    flagged_per_stripe: usize,
}

impl FlightRecorder {
    /// A recorder sized per `cfg`; total capacity is split evenly over
    /// the stripes (rounded up, so effective capacity ≥ requested).
    pub fn new(cfg: RecorderConfig) -> Self {
        let stripes = cfg.stripes.max(1);
        FlightRecorder {
            stripes: (0..stripes)
                .map(|_| OrderedMutex::new(LockRank::TraceRecorder, StripeState::default()))
                .collect(),
            slowest_per_stripe: cfg.slowest.div_ceil(stripes),
            flagged_per_stripe: cfg.flagged.div_ceil(stripes),
        }
    }

    /// Offers one completed trace for retention. Bounded-time: at most
    /// one stripe lock plus a linear scan over that stripe's seats.
    pub fn record(&self, trace: QueryTrace) {
        let stripe = &self.stripes[(trace.seq % self.stripes.len() as u64) as usize];
        let mut stripe = stripe.lock();
        stripe.recorded += 1;
        if trace.flagged() && self.flagged_per_stripe > 0 {
            if stripe.flagged.len() == self.flagged_per_stripe {
                stripe.flagged.pop_front();
            }
            stripe.flagged.push_back(trace.clone());
        }
        if self.slowest_per_stripe == 0 {
            return;
        }
        if stripe.slowest.len() < self.slowest_per_stripe {
            stripe.slowest.push(trace);
            return;
        }
        // Full: replace the fastest seat holder iff this trace is slower.
        if let Some(min_at) = (0..stripe.slowest.len())
            .min_by_key(|&i| (stripe.slowest[i].total, stripe.slowest[i].seq))
        {
            if trace.total > stripe.slowest[min_at].total {
                stripe.slowest[min_at] = trace;
            }
        }
    }

    /// The retained slowest traces across all stripes, slowest first.
    pub fn slowest(&self) -> Vec<QueryTrace> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            out.extend(stripe.slowest.iter().cloned());
        }
        out.sort_by(|a, b| b.total.cmp(&a.total).then(a.seq.cmp(&b.seq)));
        out
    }

    /// The retained errored or retried traces, oldest first per stripe,
    /// ordered by sequence number across stripes.
    pub fn flagged(&self) -> Vec<QueryTrace> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            out.extend(stripe.flagged.iter().cloned());
        }
        out.sort_by_key(|t| t.seq);
        out
    }

    /// Count of retained traces (slowest seats + flagged ring; a
    /// flagged trace that also holds a seat counts twice).
    pub fn len(&self) -> usize {
        let mut total = 0;
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            total += stripe.slowest.len() + stripe.flagged.len();
        }
        total
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total traces ever offered via [`Self::record`].
    pub fn recorded(&self) -> u64 {
        let mut total = 0;
        for stripe in &self.stripes {
            total += stripe.lock().recorded;
        }
        total
    }

    /// Effective slowest-seat capacity (≥ the configured total).
    pub fn slowest_capacity(&self) -> usize {
        self.slowest_per_stripe * self.stripes.len()
    }

    /// Effective flagged-ring capacity (≥ the configured total).
    pub fn flagged_capacity(&self) -> usize {
        self.flagged_per_stripe * self.stripes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn trace(seq: u64, micros: u64) -> QueryTrace {
        QueryTrace {
            seq,
            total: Duration::from_micros(micros),
            ..QueryTrace::default()
        }
    }

    fn cfg(slowest: usize, flagged: usize, stripes: usize) -> RecorderConfig {
        RecorderConfig {
            slowest,
            flagged,
            stripes,
        }
    }

    #[test]
    fn keeps_the_slowest_n() {
        let rec = FlightRecorder::new(cfg(3, 0, 1));
        for seq in 0..100 {
            rec.record(trace(seq, seq * 10));
        }
        let slowest = rec.slowest();
        assert_eq!(slowest.len(), 3);
        let seqs: Vec<u64> = slowest.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![99, 98, 97], "slowest first");
        assert_eq!(rec.recorded(), 100);
    }

    #[test]
    fn flagged_ring_keeps_all_up_to_capacity_then_evicts_oldest() {
        let rec = FlightRecorder::new(cfg(0, 4, 1));
        for seq in 0..6 {
            let mut t = trace(seq, 1);
            t.errored = seq % 2 == 0;
            t.attempts = if seq % 2 == 1 { 2 } else { 1 };
            rec.record(t);
        }
        let flagged = rec.flagged();
        assert_eq!(flagged.len(), 4);
        let seqs: Vec<u64> = flagged.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5], "oldest two evicted");
    }

    #[test]
    fn fast_unflagged_traces_are_dropped() {
        let rec = FlightRecorder::new(cfg(1, 8, 1));
        rec.record(trace(0, 1000));
        rec.record(trace(1, 1)); // faster than the seat holder: dropped
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.slowest()[0].seq, 0);
        assert_eq!(rec.recorded(), 2);
    }

    #[test]
    fn a_slow_flagged_trace_lands_in_both_pools() {
        let rec = FlightRecorder::new(cfg(2, 2, 1));
        let mut t = trace(5, 9999);
        t.errored = true;
        rec.record(t);
        assert_eq!(rec.slowest().len(), 1);
        assert_eq!(rec.flagged().len(), 1);
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn striping_preserves_bounds_and_retains_across_stripes() {
        let rec = FlightRecorder::new(cfg(8, 8, 4));
        assert!(rec.slowest_capacity() >= 8);
        assert!(rec.flagged_capacity() >= 8);
        for seq in 0..1000 {
            let mut t = trace(seq, 1000 - seq);
            t.errored = seq % 7 == 0;
            rec.record(t);
        }
        assert!(rec.slowest().len() <= rec.slowest_capacity());
        assert!(rec.flagged().len() <= rec.flagged_capacity());
        assert_eq!(rec.recorded(), 1000);
        // Every stripe retained something: 1000 records over 4 stripes.
        assert!(rec.slowest().len() == rec.slowest_capacity());
    }

    #[test]
    fn zero_stripes_clamps_to_one() {
        let rec = FlightRecorder::new(cfg(2, 2, 0));
        rec.record(trace(0, 5));
        assert_eq!(rec.slowest().len(), 1);
    }
}
