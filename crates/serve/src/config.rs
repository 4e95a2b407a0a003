//! Server tuning knobs: [`ServeConfig`], [`Backpressure`] and
//! [`ShutdownMode`].

use tnn_qos::{CacheConfig, RetryPolicy};
use tnn_trace::TraceConfig;

/// What [`crate::Server::submit`] does when the submission lane of the
/// query's priority class is at capacity.
///
/// The trade-off mirrors the admission/contention choices of the
/// multi-access serving literature: `Block` pushes the queueing delay
/// back into the client (closed-loop behaviour), `Reject` keeps the
/// client non-blocking and makes overload explicit, and `Shed` favours
/// fresh queries over stale ones when answers lose value with age.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the submitting thread until a worker frees a slot in the
    /// class's lane (or the server shuts down, or the query's own
    /// deadline passes). Submission never fails with
    /// [`tnn_core::TnnError::Overloaded`].
    Block,
    /// Refuse the new query immediately: `submit` returns
    /// [`tnn_core::TnnError::Overloaded`] and nothing is enqueued.
    Reject,
    /// Admit the new query by evicting a still-queued one from the same
    /// class: the oldest *expired* query goes first (its ticket resolves
    /// [`tnn_core::TnnError::DeadlineExceeded`]), and only a lane with
    /// no expired work sacrifices its oldest (ticket resolves
    /// [`tnn_core::TnnError::Overloaded`]). Submission itself never
    /// fails.
    Shed,
}

/// How [`crate::Server::shutdown`] treats queued-but-unstarted work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Workers finish every queued job before exiting; every admitted
    /// ticket resolves with its real outcome.
    Drain,
    /// Queued jobs resolve immediately with
    /// [`tnn_core::TnnError::Cancelled`]; jobs already picked up by a
    /// worker run to completion. Deterministic: when `shutdown` returns,
    /// every admitted ticket has resolved one way or the other.
    Cancel,
}

/// Configuration for [`crate::Server::spawn`].
///
/// ```
/// use tnn_qos::CacheConfig;
/// use tnn_serve::{Backpressure, ServeConfig};
/// let cfg = ServeConfig::new()
///     .workers(4)
///     .queue_capacity(256)
///     .backpressure(Backpressure::Shed)
///     .cache(CacheConfig::new().capacity(8192));
/// assert_eq!(cfg.workers, 4);
/// assert_eq!(cfg.queue_capacity, 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads, each owning a cloned engine handle and one
    /// recycled [`tnn_core::QueryScratch`]. `0` is allowed and means a
    /// *paused* server: submissions queue (and backpressure applies)
    /// but nothing executes until shutdown resolves the backlog as
    /// cancelled — see [`crate::Server::spawn`].
    pub workers: usize,
    /// Bound of each priority class's submission lane (jobs admitted
    /// but not yet picked up). Clamped to at least 1. Every
    /// [`tnn_qos::Priority`] class has its own lane of this bound, so a
    /// flood in one class never takes another class's slots.
    pub queue_capacity: usize,
    /// Policy when the class's lane is full.
    pub backpressure: Backpressure,
    /// The result cache over `(query, channel count)` keys
    /// ([`tnn_core::QueryKey`]). Enabled by default — hits are
    /// byte-identical to fresh engine runs (the engine is
    /// deterministic), so the cache is invisible except in latency and
    /// the [`crate::ServeStats`] cache counters. Disable it
    /// ([`CacheConfig::disabled`]) for honest throughput measurements
    /// of repeated workloads.
    pub cache: CacheConfig,
    /// How workers pace retries of recoverable tune-in failures
    /// ([`tnn_core::TnnError::ChannelUnavailable`]). Retries never
    /// outlive the submitter's deadline: the ladder re-checks it before
    /// every attempt and bounds each backoff sleep by the time left.
    /// A ladder that spends [`RetryPolicy::max_attempts`] fails closed:
    /// the ticket resolves with the last `ChannelUnavailable`.
    pub retry: RetryPolicy,
    /// Cross-layer query tracing ([`TraceConfig::Off`] by default).
    /// When on, workers stamp per-query phase spans (admission wait,
    /// queue residency, cache probe, engine run, retry backoff) and a
    /// bounded [`tnn_trace::FlightRecorder`] retains the slowest and
    /// every errored or retried [`tnn_trace::QueryTrace`]
    /// ([`crate::Server::recorder`]). Tracing observes and never
    /// steers: delivered outcomes and [`crate::ServeStats`] counters
    /// are byte-identical either way (gated by
    /// `crates/bench/tests/trace_equivalence.rs`).
    pub trace: TraceConfig,
}

impl ServeConfig {
    /// The default configuration: one worker per available CPU, a
    /// 1024-slot lane per class, [`Backpressure::Block`], the default
    /// result cache, the default [`RetryPolicy`], and tracing off.
    pub fn new() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 1024,
            backpressure: Backpressure::Block,
            cache: CacheConfig::new(),
            retry: RetryPolicy::new(),
            trace: TraceConfig::Off,
        }
    }

    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-class submission-lane bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the full-lane policy.
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.backpressure = policy;
        self
    }

    /// Configures (or disables) the result cache.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the retry pacing policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Sets the tracing mode ([`TraceConfig::on`] for the default
    /// flight-recorder retention, or `TraceConfig::On` with explicit
    /// [`tnn_trace::RecorderConfig`] bounds).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let cfg = ServeConfig::default()
            .workers(3)
            .queue_capacity(7)
            .backpressure(Backpressure::Shed)
            .cache(CacheConfig::disabled())
            .retry(RetryPolicy::NONE.max_attempts(9))
            .trace(TraceConfig::on());
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_capacity, 7);
        assert_eq!(cfg.backpressure, Backpressure::Shed);
        assert!(!cfg.cache.enabled);
        assert_eq!(cfg.retry.max_attempts, 9);
        assert!(cfg.trace.is_on());
        assert!(ServeConfig::new().workers >= 1);
        assert_eq!(ServeConfig::new().backpressure, Backpressure::Block);
        assert!(ServeConfig::new().cache.enabled);
        assert!(ServeConfig::new().retry.max_attempts > 1);
        // Tracing is opt-in: plain spawns keep the exact untraced path.
        assert!(!ServeConfig::new().trace.is_on());
    }

    /// Every class lane is bounded by `queue_capacity`, clamped to at
    /// least one slot.
    #[test]
    fn class_capacities_inherit_the_queue_bound() {
        use crate::Server;
        use std::sync::Arc;
        use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
        use tnn_core::{Query, TnnError};
        use tnn_geom::Point;
        use tnn_qos::Qos;
        use tnn_rtree::{PackingAlgorithm, RTree};

        let params = BroadcastParams::new(64);
        let pts: Vec<Point> = (0..20).map(|i| Point::new(f64::from(i), 1.0)).collect();
        let tree =
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap());
        let env = MultiChannelEnv::new(vec![Arc::clone(&tree), tree], params, &[0, 7]);
        let server = Server::spawn(
            env,
            ServeConfig::new()
                .workers(0)
                .queue_capacity(0)
                .backpressure(Backpressure::Reject),
        );
        assert_eq!(server.config().queue_capacity, 1);
        for qos in [Qos::interactive(), Qos::default(), Qos::background()] {
            let query = || Query::tnn(Point::new(3.0, 4.0));
            assert!(server.submit_with(query(), qos).is_ok());
            assert_eq!(
                server.submit_with(query(), qos).err(),
                Some(TnnError::Overloaded)
            );
        }
        server.shutdown(ShutdownMode::Cancel);
    }
}
