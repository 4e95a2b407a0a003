//! The per-submission QoS bundle: [`Qos`].

use crate::{Deadline, Priority};
use std::time::{Duration, Instant};

/// Quality-of-service terms attached to one submission: which class it
/// rides in and when it stops being worth answering.
///
/// The default — [`Priority::Batch`], no deadline — reproduces plain
/// unclassified serving, so QoS-oblivious callers lose nothing.
///
/// ```
/// use std::time::Duration;
/// use tnn_qos::{Deadline, Priority, Qos};
///
/// let spec = Qos::interactive().deadline_in(Duration::from_millis(50));
/// assert_eq!(spec.priority, Priority::Interactive);
/// assert!(spec.deadline != Deadline::NONE);
/// assert_eq!(Qos::default(), Qos::new());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Qos {
    /// The service class (default [`Priority::Batch`]).
    pub priority: Priority,
    /// The expiry terms (default [`Deadline::NONE`]).
    pub deadline: Deadline,
}

impl Qos {
    /// Batch priority, no deadline — the behaviour of a QoS-oblivious
    /// submission.
    pub fn new() -> Self {
        Qos::default()
    }

    /// [`Priority::Interactive`] with no deadline.
    pub fn interactive() -> Self {
        Qos::new().priority(Priority::Interactive)
    }

    /// [`Priority::Batch`] with no deadline (the default, spelled out).
    pub fn batch() -> Self {
        Qos::new().priority(Priority::Batch)
    }

    /// [`Priority::Background`] with no deadline.
    pub fn background() -> Self {
        Qos::new().priority(Priority::Background)
    }

    /// Sets the service class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the expiry terms.
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Expiry `ttl` from now (shorthand for
    /// `.deadline(Deadline::within(ttl))`).
    pub fn deadline_in(self, ttl: Duration) -> Self {
        self.deadline(Deadline::within(ttl))
    }

    /// Expiry at the absolute instant `at`.
    pub fn deadline_at(self, at: Instant) -> Self {
        self.deadline(Deadline::at(at))
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "R1 covers non-test code; these tests build deadlines from real instants"
)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let spec = Qos::background().deadline_in(Duration::from_secs(9));
        assert_eq!(spec.priority, Priority::Background);
        assert!(!spec.deadline.expired(Instant::now()));

        let at = Instant::now() + Duration::from_secs(1);
        let spec = Qos::interactive().deadline_at(at);
        assert_eq!(spec.deadline.instant(), Some(at));
        assert_eq!(Qos::batch(), Qos::default());
        assert_eq!(Qos::new().deadline, Deadline::NONE);
    }
}
