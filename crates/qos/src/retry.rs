//! Retry pacing: [`RetryPolicy`].

use std::time::Duration;

/// SplitMix64 finalizer — deterministic jitter needs no RNG state.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the deterministic jitter draw.
const JITTER_SEED: u64 = 0x5EED;

/// How a server paces retries of a recoverable failure (a
/// `ChannelUnavailable` tune-in miss): capped exponential backoff with
/// **deterministic** seeded jitter.
///
/// The backoff-from-feedback analysis of the multi-access literature
/// says retries must decorrelate (identical backoffs re-collide forever)
/// but reproductions must replay (random jitter breaks every
/// equivalence gate) — so the jitter here is a pure function of
/// `(key, attempt)` under a fixed seed: spread across keys, identical
/// across reruns.
///
/// ```
/// use std::time::Duration;
/// use tnn_qos::RetryPolicy;
///
/// let policy = RetryPolicy::new()
///     .max_attempts(5)
///     .base(Duration::from_micros(400))
///     .cap(Duration::from_millis(5));
/// // Exponential growth, capped…
/// assert!(policy.backoff(2, 7) >= policy.backoff(1, 7));
/// assert!(policy.backoff(30, 7) <= Duration::from_millis(5) * 3 / 2);
/// // …and fully reproducible.
/// assert_eq!(policy.backoff(3, 7), policy.backoff(3, 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Total execution attempts per job, including the first (clamped
    /// to at least 1; `1` means "never retry").
    pub max_attempts: u32,
    /// Backoff before the first retry; each further retry doubles it.
    pub base: Duration,
    /// Upper bound on any single backoff (pre-jitter).
    pub cap: Duration,
}

impl RetryPolicy {
    /// Never retry: one attempt, no backoff.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base: Duration::ZERO,
        cap: Duration::ZERO,
    };

    /// The default policy: 4 attempts, 200 µs base doubling to a 10 ms
    /// cap, jittered. Deep enough to clear short outages, bounded
    /// enough that a worker stuck retrying resolves within ~30 ms.
    pub fn new() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_micros(200),
            cap: Duration::from_millis(10),
        }
    }

    /// Sets the total attempt bound (clamped to at least 1).
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the first-retry backoff.
    pub fn base(mut self, base: Duration) -> Self {
        self.base = base;
        self
    }

    /// Sets the per-backoff upper bound.
    pub fn cap(mut self, cap: Duration) -> Self {
        self.cap = cap;
        self
    }

    /// The pause before retry `attempt` (1-based: the first retry is
    /// attempt 1) of the work item identified by `key` — exponential in
    /// `attempt`, capped, then scaled by a deterministic jitter factor
    /// in `[0.5, 1.5)` drawn from `(key, attempt)`.
    pub fn backoff(&self, attempt: u32, key: u64) -> Duration {
        if self.base.is_zero() || attempt == 0 {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let nanos = (self.base.as_nanos() << exp).min(self.cap.as_nanos().max(1));
        let nanos = u64::try_from(nanos).unwrap_or(u64::MAX);
        // Scale by 512..1536 / 1024 — a power-of-two fixed-point [0.5, 1.5).
        let draw = mix(JITTER_SEED ^ mix(key ^ mix(u64::from(attempt)))) % 1024;
        Duration::from_nanos((nanos / 1024).saturating_mul(512 + draw))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy::new()
            .base(Duration::from_micros(100))
            .cap(Duration::from_millis(1));
        // Each backoff lies in the jitter band [0.5, 1.5) around its
        // nominal value.
        let in_band = |attempt: u32, nominal: Duration| {
            let b = p.backoff(attempt, 0);
            assert!(
                b >= nominal / 2 && b < nominal * 3 / 2,
                "attempt {attempt}: {b:?} outside the band around {nominal:?}"
            );
        };
        in_band(1, Duration::from_micros(100));
        in_band(2, Duration::from_micros(200));
        in_band(3, Duration::from_micros(400));
        in_band(11, Duration::from_millis(1));
        in_band(60, Duration::from_millis(1)); // exp clamp
        assert_eq!(RetryPolicy::NONE.backoff(1, 0), Duration::ZERO);
        assert_eq!(p.backoff(0, 0), Duration::ZERO);
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_spread() {
        let p = RetryPolicy::new()
            .base(Duration::from_micros(512))
            .cap(Duration::from_secs(1));
        let nominal = Duration::from_micros(512);
        let mut distinct = std::collections::HashSet::new();
        for key in 0..32 {
            let b = p.backoff(1, key);
            assert_eq!(b, p.backoff(1, key), "replay-exact");
            assert!(b >= nominal / 2 && b < nominal * 3 / 2, "{b:?}");
            distinct.insert(b);
        }
        assert!(distinct.len() > 16, "jitter should spread across keys");
    }
}
