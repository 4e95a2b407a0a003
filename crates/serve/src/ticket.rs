//! Completion handles: [`Ticket`] and its shared resolution cell.

#![expect(
    clippy::disallowed_methods,
    reason = "ticket wait timeouts measure real elapsed time against caller-supplied budgets"
)]

use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};
use tnn_core::{QueryOutcome, TnnError};
use tnn_trace::lock::{LockRank, OrderedMutex};

/// The shared slot a worker (or the backpressure/shutdown machinery)
/// resolves exactly once; every [`Ticket`] accessor reads from it.
#[derive(Debug)]
pub(crate) struct TicketCell {
    state: OrderedMutex<TicketState>,
    done: Condvar,
}

#[derive(Debug)]
enum TicketState {
    Pending,
    Done {
        result: Result<QueryOutcome, TnnError>,
        at: Instant,
    },
}

impl TicketCell {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketCell {
            state: OrderedMutex::new(LockRank::TicketState, TicketState::Pending),
            done: Condvar::new(),
        })
    }

    /// Resolves the ticket. The queue discipline hands each admitted job
    /// to exactly one resolver (a worker, the shedder, or the canceller),
    /// so a second call can only happen on a logic error — it is ignored
    /// rather than clobbering the outcome waiters already observed.
    pub(crate) fn resolve(&self, result: Result<QueryOutcome, TnnError>) {
        let mut state = self.state.lock();
        if matches!(*state, TicketState::Pending) {
            *state = TicketState::Done {
                result,
                at: Instant::now(),
            };
            self.done.notify_all();
        }
    }
}

/// A non-blocking completion handle for one submitted [`tnn_core::Query`].
///
/// A ticket never owns its queue slot: the slot is freed the moment a
/// worker pops the job, so dropping a ticket without waiting neither
/// leaks capacity nor cancels the query (the outcome is simply computed
/// and discarded).
///
/// All accessors are **idempotent**: [`Ticket::wait`] may be called any
/// number of times, and [`Ticket::poll`] after a `wait` returns the same
/// cached outcome — it never hangs, panics, or changes the answer.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) cell: Arc<TicketCell>,
    pub(crate) submitted_at: Instant,
}

impl Ticket {
    /// The resolved outcome, or `None` while the query is still queued
    /// or executing. Never blocks.
    pub fn poll(&self) -> Option<Result<QueryOutcome, TnnError>> {
        let state = self.cell.state.lock();
        match &*state {
            TicketState::Pending => None,
            TicketState::Done { result, .. } => Some(result.clone()),
        }
    }

    /// Blocks until the query resolves and returns the outcome. Calling
    /// `wait` again (or [`Ticket::poll`] afterwards) returns the same
    /// cached outcome immediately.
    pub fn wait(&self) -> Result<QueryOutcome, TnnError> {
        let mut state = self.cell.state.lock();
        loop {
            if let TicketState::Done { result, .. } = &*state {
                return result.clone();
            }
            state = state.wait(&self.cell.done);
        }
    }

    /// [`Ticket::wait`] with a deadline: `None` when `timeout` elapses
    /// first (the ticket stays valid and can be waited again).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryOutcome, TnnError>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.cell.state.lock();
        loop {
            if let TicketState::Done { result, .. } = &*state {
                return Some(result.clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            state = state.wait_timeout(&self.cell.done, left).0;
        }
    }

    /// `true` once the query has resolved (completed, been shed, or been
    /// cancelled). Never blocks.
    pub fn is_done(&self) -> bool {
        matches!(&*self.cell.state.lock(), TicketState::Done { .. })
    }

    /// Wall-clock time from submission to resolution, stamped by the
    /// resolver at the moment of completion (so it is exact even when
    /// the caller waits much later). `None` while pending.
    pub fn latency(&self) -> Option<Duration> {
        let state = self.cell.state.lock();
        match &*state {
            TicketState::Pending => None,
            TicketState::Done { at, .. } => Some(at.saturating_duration_since(self.submitted_at)),
        }
    }
}
