//! Per-request expiry: [`Deadline`].

#![expect(
    clippy::disallowed_methods,
    reason = "deadline arithmetic is wall-clock by definition; determinism gates feed these APIs fixed Instants"
)]

use std::time::{Duration, Instant};

/// When a request stops being worth answering.
///
/// A deadline is an optional absolute instant; [`Deadline::NONE`] (the
/// default) never expires. Schedulers treat an expired request as dead
/// weight: it is refused at admission, preferred as a shed victim, and
/// discarded at dequeue instead of occupying a worker.
///
/// ```
/// use std::time::{Duration, Instant};
/// use tnn_qos::Deadline;
///
/// let now = Instant::now();
/// assert!(!Deadline::NONE.expired(now));
/// assert!(Deadline::at(now).expired(now));          // inclusive
/// assert!(!Deadline::within(Duration::from_secs(60)).expired(now));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No deadline: the request never expires.
    pub const NONE: Deadline = Deadline(None);

    /// Expires at the absolute instant `at` (inclusive: the request is
    /// expired *at* `at`, matching a zero-TTL [`Deadline::within`]
    /// expiring immediately).
    pub fn at(at: Instant) -> Self {
        Deadline(Some(at))
    }

    /// Expires `ttl` from now. A TTL so large the instant overflows is
    /// treated as no deadline.
    pub fn within(ttl: Duration) -> Self {
        Deadline(Instant::now().checked_add(ttl))
    }

    /// The absolute expiry instant, `None` for [`Deadline::NONE`].
    pub fn instant(&self) -> Option<Instant> {
        self.0
    }

    /// `true` when the request is no longer worth answering at `now`.
    #[inline]
    pub fn expired(&self, now: Instant) -> bool {
        match self.0 {
            Some(at) => now >= at,
            None => false,
        }
    }

    /// Time left at `now`: `None` without a deadline, zero when expired.
    pub fn remaining(&self, now: Instant) -> Option<Duration> {
        self.0.map(|at| at.saturating_duration_since(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        let far = Instant::now() + Duration::from_secs(1_000_000);
        assert!(!Deadline::NONE.expired(far));
        assert_eq!(Deadline::NONE.instant(), None);
        assert_eq!(Deadline::NONE.remaining(far), None);
        assert_eq!(Deadline::default(), Deadline::NONE);
    }

    #[test]
    fn absolute_deadlines_are_inclusive() {
        let now = Instant::now();
        let d = Deadline::at(now + Duration::from_millis(5));
        assert!(!d.expired(now));
        assert!(d.expired(now + Duration::from_millis(5)));
        assert!(d.expired(now + Duration::from_millis(6)));
        assert_eq!(d.remaining(now), Some(Duration::from_millis(5)));
        assert_eq!(
            d.remaining(now + Duration::from_secs(1)),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn zero_ttl_expires_immediately() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.expired(Instant::now()));
    }

    #[test]
    fn generous_ttl_outlives_now() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired(Instant::now()));
        assert!(d.instant().is_some());
    }
}
