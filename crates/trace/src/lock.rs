//! Ranked locks: [`OrderedMutex`] and [`OrderedRwLock`], the only
//! mutexes and reader-writer locks in the workspace.
//!
//! Every lock names its place in the hierarchy with a [`LockRank`] when
//! it is built, and a thread may only take locks in strictly increasing
//! rank. The enum is the one declaration of the hierarchy; see its
//! documentation for the strata and what each lock guards.
//!
//! Two things the wrappers do on every build:
//!
//! * `lock`/`read`/`write` recover a poisoned lock instead of returning
//!   an error. The guarded structures stay consistent under unwinding
//!   (the serving stack catches engine panics per job), so the poison
//!   bit carries no information here.
//! * [`OrderedMutexGuard::wait`] and [`OrderedMutexGuard::wait_timeout`]
//!   sleep on a [`Condvar`] and hand back a guard of the same rank.
//!
//! Under `debug_assertions` only, each thread keeps a stack of the ranks
//! it holds. Taking a lock whose rank is at or below one the thread
//! already holds panics before blocking, naming both locks. The check
//! follows guards across function calls, so it sees every path the tests
//! run. Release builds carry no stack and take a plain `std` lock.
//!
//! `clippy.toml` lists `std::sync::Mutex` and `std::sync::RwLock` under
//! `disallowed-types`, so a lock built anywhere but here fails clippy:
//! every lock has a rank.

// The one module allowed to name the std lock types it wraps.
#![expect(
    clippy::disallowed_types,
    reason = "the ranked wrappers are built on the std locks they replace everywhere else"
)]

use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};
use std::time::Duration;

/// The workspace lock hierarchy, outermost first. While a thread holds a
/// lock of some rank it may only take locks declared *later* here; two
/// locks of the same rank (two cache stripes, say) never nest.
///
/// ```text
///   scatter stratum        shard.topology > shard.ledger
///         │ scatters into
///   server stratum         serve.workers > serve.state > ticket.state
///         │ consults
///   cache/engine stratum   qos.cache_stripe > core.env_cell >
///         │                core.scratch_pool > sim.catalog
///         │ observes into
///   trace stratum          trace.registry > trace.recorder
/// ```
///
/// The order follows the call direction (router → server → cache/engine
/// → trace): a router guard may be held across a server submit, and a
/// server guard across a cache probe or a metrics publish, but never the
/// reverse. Trace locks are innermost: nothing is taken under them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockRank {
    /// The router's serving topology (env + plan + shard servers, and
    /// whether it is shut). Queries hold a read guard for their whole
    /// scatter-gather pass, across server submits; env swaps and
    /// shutdown take the write side.
    ShardTopology,
    /// The router's stats ledger: its scatter-gather counters and the
    /// final stats of every shard server no longer live. Taken under
    /// the topology guard, never across a server call.
    ShardLedger,
    /// A server's worker `JoinHandle`s; shutdown holds it while draining
    /// the server state.
    ServeWorkers,
    /// A server's queue and stats: the serving hot path.
    ServeState,
    /// A ticket's resolution cell; resolved by workers that may hold
    /// `serve.state`.
    TicketState,
    /// One stripe of the sharded result cache; probed from workers.
    QosCacheStripe,
    /// The engine's epoch-versioned environment cell: read for O(1)
    /// snapshots at admission and per worker job, written by `swap_env`.
    CoreEnvCell,
    /// The engine's `QueryScratch` recycling pool.
    CoreScratchPool,
    /// The dataset → built R-tree memo of the sim and bench harnesses.
    SimCatalog,
    /// The metrics registry's series map; held only for point inserts
    /// and the render snapshot. Callers may publish while holding any
    /// other layer's guard, so it sits at the bottom of the hierarchy.
    TraceRegistry,
    /// One stripe of the flight recorder's retention ring. `record()` and
    /// the `slowest()`/`flagged()` snapshots take one stripe at a time
    /// and take nothing beneath it.
    TraceRecorder,
}

impl LockRank {
    /// The lock's dotted name, `layer.lock`, as panics and docs spell it.
    pub const fn name(self) -> &'static str {
        match self {
            LockRank::ShardTopology => "shard.topology",
            LockRank::ShardLedger => "shard.ledger",
            LockRank::ServeWorkers => "serve.workers",
            LockRank::ServeState => "serve.state",
            LockRank::TicketState => "ticket.state",
            LockRank::QosCacheStripe => "qos.cache_stripe",
            LockRank::CoreEnvCell => "core.env_cell",
            LockRank::CoreScratchPool => "core.scratch_pool",
            LockRank::SimCatalog => "sim.catalog",
            LockRank::TraceRegistry => "trace.registry",
            LockRank::TraceRecorder => "trace.recorder",
        }
    }
}

/// The ranks the current thread holds, in acquisition order (and so in
/// strictly increasing rank, unless the thread is unwinding). Debug
/// builds only.
#[cfg(debug_assertions)]
mod held {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Pushes `rank`, or panics naming it and the innermost held lock
    /// when that lock's rank is not strictly below it. A thread that is
    /// already unwinding is not checked: a second panic would abort the
    /// process and hide the first one, which already fails the test.
    pub(super) fn enter(rank: LockRank) {
        let conflict = HELD.with(|held| {
            let mut held = held.borrow_mut();
            match held.last() {
                Some(&inner) if inner >= rank && !std::thread::panicking() => Some(inner),
                _ => {
                    held.push(rank);
                    None
                }
            }
        });
        if let Some(inner) = conflict {
            panic!(
                "lock order violation: taking `{}` while holding `{}` \
                 (a thread must take locks in strictly increasing LockRank)",
                rank.name(),
                inner.name()
            );
        }
    }

    /// Pops `rank`. Guards may drop out of acquisition order, so this
    /// removes the most recent entry of that rank wherever it sits.
    pub(super) fn exit(rank: LockRank) {
        // `try_with`: a guard dropped during thread teardown finds the
        // stack already gone, and there is nothing left to check.
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(at) = held.iter().rposition(|&r| r == rank) {
                held.remove(at);
            }
        });
    }

    /// A copy of the current thread's stack, for tests.
    #[cfg(test)]
    pub(super) fn snapshot() -> Vec<LockRank> {
        HELD.with(|held| held.borrow().clone())
    }
}

/// Proof that the current thread entered a rank; leaving it on drop.
/// Zero-sized in release builds.
struct Held {
    #[cfg(debug_assertions)]
    rank: LockRank,
}

impl Held {
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn enter(rank: LockRank) -> Held {
        #[cfg(debug_assertions)]
        {
            held::enter(rank);
            Held { rank }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = rank;
            Held {}
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        held::exit(self.rank);
    }
}

/// A [`Mutex`] with a place in the [`LockRank`] hierarchy.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A mutex of rank `rank` holding `value`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        OrderedMutex {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Blocks until the lock is taken. Recovers a poisoned lock. In debug
    /// builds, panics first if the thread holds a lock of this rank or a
    /// later one.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let held = Held::enter(self.rank);
        OrderedMutexGuard {
            guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    /// The value through exclusive access; no lock is taken.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A held [`OrderedMutex`]. Dropping it releases the lock and its rank.
#[must_use = "dropping the guard releases the lock at once"]
pub struct OrderedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    // Declared after `guard`, so the lock is released before the rank.
    _held: Held,
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    /// Releases the lock and sleeps on `condvar` until notified, then
    /// takes the lock back. The rank stays held across the sleep: the
    /// thread takes nothing else meanwhile.
    pub fn wait(self, condvar: &Condvar) -> Self {
        let OrderedMutexGuard { guard, _held } = self;
        OrderedMutexGuard {
            guard: condvar.wait(guard).unwrap_or_else(PoisonError::into_inner),
            _held,
        }
    }

    /// [`Self::wait`] for at most `timeout`.
    pub fn wait_timeout(self, condvar: &Condvar, timeout: Duration) -> (Self, WaitTimeoutResult) {
        let OrderedMutexGuard { guard, _held } = self;
        let (guard, result) = condvar
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (OrderedMutexGuard { guard, _held }, result)
    }
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// An [`RwLock`] with a place in the [`LockRank`] hierarchy. Read and
/// write guards are ranked alike: two readers of one lock on one thread
/// are a nesting of equal ranks, and panic in debug builds.
#[derive(Debug)]
pub struct OrderedRwLock<T> {
    rank: LockRank,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// A reader-writer lock of rank `rank` holding `value`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        OrderedRwLock {
            rank,
            inner: RwLock::new(value),
        }
    }

    /// Blocks until shared access is granted. Recovers a poisoned lock.
    /// In debug builds, panics first on a rank-order violation.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let held = Held::enter(self.rank);
        OrderedReadGuard {
            guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    /// Blocks until exclusive access is granted. Recovers a poisoned
    /// lock. In debug builds, panics first on a rank-order violation.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let held = Held::enter(self.rank);
        OrderedWriteGuard {
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

/// Shared access to an [`OrderedRwLock`].
#[must_use = "dropping the guard releases the lock at once"]
pub struct OrderedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive access to an [`OrderedRwLock`].
#[must_use = "dropping the guard releases the lock at once"]
pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[cfg(debug_assertions)]
    fn held() -> Vec<LockRank> {
        super::held::snapshot()
    }

    #[test]
    #[cfg(debug_assertions)]
    fn ascending_order_is_accepted() {
        let topology = OrderedRwLock::new(LockRank::ShardTopology, ());
        let state = OrderedMutex::new(LockRank::ServeState, 0u32);
        let recorder = OrderedMutex::new(LockRank::TraceRecorder, 0u32);
        let _t = topology.read();
        let _s = state.lock();
        let _r = recorder.lock();
        assert_eq!(
            held(),
            [
                LockRank::ShardTopology,
                LockRank::ServeState,
                LockRank::TraceRecorder
            ]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "taking `serve.workers` while holding `serve.state`")]
    fn inverted_pair_panics_naming_both_locks() {
        let workers = OrderedMutex::new(LockRank::ServeWorkers, ());
        let state = OrderedMutex::new(LockRank::ServeState, ());
        let _s = state.lock();
        let _w = workers.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "taking `qos.cache_stripe` while holding `qos.cache_stripe`")]
    fn equal_ranks_never_nest() {
        let stripes: Vec<_> = (0..2)
            .map(|_| OrderedMutex::new(LockRank::QosCacheStripe, ()))
            .collect();
        let _a = stripes[0].lock();
        let _b = stripes[1].lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn dropping_a_guard_pops_its_rank() {
        let state = OrderedMutex::new(LockRank::ServeState, ());
        let ticket = OrderedMutex::new(LockRank::TicketState, ());
        let stripe = OrderedMutex::new(LockRank::QosCacheStripe, ());
        let outer = state.lock();
        let t = ticket.lock();
        // Out of acquisition order: the outer guard goes first.
        drop(outer);
        assert_eq!(held(), [LockRank::TicketState]);
        let s = stripe.lock();
        drop(s);
        drop(t);
        assert!(held().is_empty());
        // With the stack empty, a lower rank is fine again.
        let _outer = state.lock();
        assert_eq!(held(), [LockRank::ServeState]);
    }

    #[test]
    fn condvar_waits_return_holding_the_same_rank() {
        let cell = Arc::new((
            OrderedMutex::new(LockRank::TicketState, false),
            Condvar::new(),
        ));
        let notifier = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                *cell.0.lock() = true;
                cell.1.notify_all();
            })
        };
        let (lock, done) = &*cell;
        let mut guard = lock.lock();
        while !*guard {
            guard = guard.wait(done);
            #[cfg(debug_assertions)]
            assert_eq!(held(), [LockRank::TicketState]);
        }
        let (guard, result) = guard.wait_timeout(done, Duration::from_millis(1));
        assert!(result.timed_out());
        assert!(*guard);
        #[cfg(debug_assertions)]
        assert_eq!(held(), [LockRank::TicketState]);
        drop(guard);
        #[cfg(debug_assertions)]
        assert!(held().is_empty());
        let _ = notifier.join();
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let mutex = Arc::new(OrderedMutex::new(LockRank::ServeState, 1u32));
        let rw = Arc::new(OrderedRwLock::new(LockRank::CoreEnvCell, 1u32));
        let poisoner = {
            let (mutex, rw) = (Arc::clone(&mutex), Arc::clone(&rw));
            thread::spawn(move || {
                let mut m = mutex.lock();
                let mut w = rw.write();
                *m = 2;
                *w = 2;
                panic!("poison both locks");
            })
        };
        assert!(poisoner.join().is_err());
        assert_eq!(*mutex.lock(), 2);
        assert_eq!(*rw.read(), 2);
        *rw.write() = 3;
        assert_eq!(*rw.read(), 3);
        // The panicking thread's guards popped their ranks as it unwound;
        // this thread's stack never saw them.
        #[cfg(debug_assertions)]
        assert!(held().is_empty());
        let mut mutex = Arc::into_inner(mutex).expect("the poisoner has exited");
        *mutex.get_mut() = 4;
        assert_eq!(*mutex.lock(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn read_and_write_guards_are_both_ranked() {
        let env = OrderedRwLock::new(LockRank::CoreEnvCell, ());
        let pool = OrderedMutex::new(LockRank::CoreScratchPool, ());
        let stripe = OrderedMutex::new(LockRank::QosCacheStripe, ());
        // Under either guard a later rank is fine and an earlier one panics.
        let under_env = || {
            assert_eq!(held(), [LockRank::CoreEnvCell]);
            drop(pool.lock());
            assert!(std::panic::catch_unwind(|| drop(stripe.lock())).is_err());
        };
        let read = env.read();
        under_env();
        drop(read);
        assert!(held().is_empty());
        let write = env.write();
        under_env();
        drop(write);
        assert!(held().is_empty());
    }

    /// The shape of `Server::shutdown` with its two locks swapped: the
    /// caller holds `serve.state` and the helper it calls takes
    /// `serve.workers`. No single function body shows the inversion.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "taking `serve.workers` while holding `serve.state`")]
    fn an_inversion_across_a_call_panics() {
        struct Server {
            workers: OrderedMutex<Vec<u32>>,
            state: OrderedMutex<u32>,
        }
        fn join_workers(server: &Server) -> usize {
            server.workers.lock().len()
        }
        fn sweep(server: &Server) -> usize {
            let state = server.state.lock();
            join_workers(server) + *state as usize
        }
        let server = Server {
            workers: OrderedMutex::new(LockRank::ServeWorkers, Vec::new()),
            state: OrderedMutex::new(LockRank::ServeState, 0),
        };
        sweep(&server);
    }
}
