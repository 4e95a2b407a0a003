//! Singleflight request coalescing: [`FlightTable`] and
//! [`FlightOutcome`].
//!
//! When many clients miss the cache on the *same* key at the same time,
//! running the computation once and sharing the answer beats running it
//! N times — the classic "thundering herd" fix. The table tracks one
//! in-flight computation per key: the first arrival **leads** (it runs
//! the work), later arrivals **join** (they receive the leader's shared
//! completion handle and wait on it). Like the other primitives in this
//! crate the table is generic: it stores any `Hash + Eq + Clone` key and
//! any `Clone` handle type, so `tnn-serve` can instantiate it with its
//! query key and ticket cell without this crate learning either type.
//!
//! A flight is only as healthy as its leader. The table never assumes
//! leaders finish: [`FlightTable::join_or_lead`] takes a liveness
//! predicate, and an entry whose handle tests dead (its leader already
//! resolved — successfully or by crashing) is *replaced*, not joined, so
//! a wedged or abandoned flight can never absorb followers forever.

use std::collections::HashMap;
use std::hash::Hash;
use tnn_trace::lock::{LockRank, OrderedMutex};

/// Entry count above which [`FlightTable::join_or_lead`] sweeps dead
/// entries before inserting. Leaders normally retire their own entry
/// ([`FlightTable::complete`]), so the sweep only matters when leaders
/// die without cleanup (a crashed worker, a shed victim whose caller
/// forgot) — the bound keeps the table's memory proportional to the
/// number of genuinely in-flight keys, not to the history of dead ones.
const SWEEP_WATERMARK: usize = 1024;

/// What [`FlightTable::join_or_lead`] decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome<T> {
    /// No live flight existed for the key: the caller is now the leader
    /// and must run the computation, then retire the entry with
    /// [`FlightTable::complete`].
    Led,
    /// A live flight already exists: the carried value is a clone of the
    /// leader's handle — wait on it instead of recomputing.
    Joined(T),
}

/// A map of in-flight computations, one per key, behind a single mutex.
///
/// The critical section is a hash probe plus (rarely) a bounded sweep —
/// callers do the actual work *outside* the lock. See the module docs
/// above for the leader/follower protocol.
///
/// ```
/// use tnn_qos::{FlightOutcome, FlightTable};
///
/// let flights: FlightTable<&'static str, u32> = FlightTable::new();
/// // First arrival leads.
/// assert_eq!(flights.join_or_lead(&"q", 7, |_| true), FlightOutcome::Led);
/// // Identical arrivals join the live flight and get the leader's handle.
/// assert_eq!(
///     flights.join_or_lead(&"q", 8, |_| true),
///     FlightOutcome::Joined(7)
/// );
/// // Once the leader completes, the next arrival leads a fresh flight.
/// flights.complete(&"q");
/// assert_eq!(flights.join_or_lead(&"q", 9, |_| true), FlightOutcome::Led);
/// ```
#[derive(Debug)]
pub struct FlightTable<K, T> {
    flights: OrderedMutex<HashMap<K, T>>,
}

impl<K, T> Default for FlightTable<K, T> {
    fn default() -> Self {
        FlightTable {
            flights: OrderedMutex::new(LockRank::QosFlights, HashMap::new()),
        }
    }
}

impl<K: Eq + Hash + Clone, T: Clone> FlightTable<K, T> {
    /// An empty table.
    pub fn new() -> Self {
        FlightTable::default()
    }

    /// Joins the live flight for `key`, or installs `lead` as the new
    /// leader's handle.
    ///
    /// `live` judges an existing entry: `true` means its leader is still
    /// working (join it), `false` means the leader already resolved or
    /// died (replace it — the stale handle would never deliver a fresh
    /// answer). The predicate runs under the table lock, so it must be
    /// cheap and must not touch the table again.
    pub fn join_or_lead(&self, key: &K, lead: T, live: impl Fn(&T) -> bool) -> FlightOutcome<T> {
        let mut flights = self.flights.lock();
        if flights.len() > SWEEP_WATERMARK {
            flights.retain(|_, handle| live(handle));
        }
        match flights.get(key) {
            Some(handle) if live(handle) => FlightOutcome::Joined(handle.clone()),
            _ => {
                flights.insert(key.clone(), lead);
                FlightOutcome::Led
            }
        }
    }

    /// Retires the flight for `key` (leader's post-completion cleanup).
    /// A no-op when no entry exists — completion may race a sweep.
    pub fn complete(&self, key: &K) {
        let mut flights = self.flights.lock();
        flights.remove(key);
    }

    /// Number of tracked flights (live **and** dead-but-unswept).
    pub fn len(&self) -> usize {
        self.flights.lock().len()
    }

    /// `true` when no flight is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn first_arrival_leads_and_identical_arrivals_join() {
        let flights: FlightTable<u32, u64> = FlightTable::new();
        assert!(matches!(
            flights.join_or_lead(&1, 100, |_| true),
            FlightOutcome::Led
        ));
        assert_eq!(
            flights.join_or_lead(&1, 200, |_| true),
            FlightOutcome::Joined(100)
        );
        // A different key is its own flight.
        assert!(matches!(
            flights.join_or_lead(&2, 300, |_| true),
            FlightOutcome::Led
        ));
        assert_eq!(flights.len(), 2);
    }

    #[test]
    fn complete_retires_the_flight() {
        let flights: FlightTable<u32, u64> = FlightTable::new();
        assert!(matches!(
            flights.join_or_lead(&1, 100, |_| true),
            FlightOutcome::Led
        ));
        flights.complete(&1);
        assert!(flights.is_empty());
        // The next arrival leads anew rather than joining a ghost.
        assert!(matches!(
            flights.join_or_lead(&1, 101, |_| true),
            FlightOutcome::Led
        ));
        // Completing a missing key is harmless.
        flights.complete(&99);
    }

    #[test]
    fn dead_entries_are_replaced_not_joined() {
        let flights: FlightTable<u32, Arc<AtomicBool>> = FlightTable::new();
        let first = Arc::new(AtomicBool::new(true));
        let live = |h: &Arc<AtomicBool>| h.load(Ordering::SeqCst);
        assert!(matches!(
            flights.join_or_lead(&1, Arc::clone(&first), live),
            FlightOutcome::Led
        ));
        // Leader dies without calling `complete` (e.g. worker crash).
        first.store(false, Ordering::SeqCst);
        let second = Arc::new(AtomicBool::new(true));
        // The dead entry must not absorb the new arrival: it leads.
        assert!(matches!(
            flights.join_or_lead(&1, Arc::clone(&second), live),
            FlightOutcome::Led
        ));
        // And the replacement is what later arrivals join.
        match flights.join_or_lead(&1, Arc::new(AtomicBool::new(true)), live) {
            FlightOutcome::Joined(handle) => assert!(Arc::ptr_eq(&handle, &second)),
            FlightOutcome::Led => panic!("expected to join the replacement leader"),
        }
    }

    #[test]
    fn sweep_evicts_dead_entries_past_the_watermark() {
        let flights: FlightTable<usize, bool> = FlightTable::new();
        // `true` = live, `false` = dead; fill past the watermark with
        // dead entries whose leaders never completed.
        for i in 0..SWEEP_WATERMARK + 1 {
            assert!(matches!(
                flights.join_or_lead(&i, false, |h| *h),
                FlightOutcome::Led
            ));
        }
        assert_eq!(flights.len(), SWEEP_WATERMARK + 1);
        // The next insert triggers the sweep: every dead entry goes,
        // leaving only the newcomer.
        assert!(matches!(
            flights.join_or_lead(&usize::MAX, true, |h| *h),
            FlightOutcome::Led
        ));
        assert_eq!(flights.len(), 1);
    }
}
